"""The package's public surface: what ``import gbgen`` offers and what the README imports."""

import importlib
import io
import pathlib
import pkgutil
import re
import types
from contextlib import redirect_stdout

import gbgen
from gbgen import buchberger, check_pair, grevlex, is_reduced_groebner, lex

README = pathlib.Path(__file__).parent.parent / "README.md"

PUBLIC = {
    "GenerationConfig", "generate_dataset", "solve_shape", "buchberger", "check_pair", "is_reduced_groebner",
    "grevlex", "grlex", "lex", "prime_field", "RATIONALS", "GroebnerTimeout",
}


def test_package_exports_the_public_names():
    assert set(gbgen.__all__) == PUBLIC and len(gbgen.__all__) == len(PUBLIC)
    for name in gbgen.__all__:
        assert hasattr(gbgen, name), name
    assert isinstance(gbgen.__version__, str)


def test_fglm_names_its_module():
    import gbgen.fglm as m

    assert m is importlib.import_module("gbgen.fglm")
    assert callable(m.fglm) and callable(m.quotient_basis)


def test_module_exports_exist():
    for info in pkgutil.iter_modules(gbgen.__path__):
        module = importlib.import_module(f"gbgen.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"gbgen.{info.name}.{name}"


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = [line for block in blocks for line in block.splitlines() if re.match(r"from gbgen[.\w]* import ", line)]
    assert len(imports) >= 3
    for line in imports:
        names = {}
        exec(line, names)
        # a submodule resolves too, where the README means a function of that name
        modules = [name for name, value in names.items() if isinstance(value, types.ModuleType)]
        assert not modules, f"{line!r} imports modules {modules}"


def test_readme_library_examples_run():
    first, second = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[:2]
    # each print of the first block is shown on the "# " line under it, "..." standing for any text
    namespace, out = {}, io.StringIO()
    with redirect_stdout(out):
        exec(first, namespace)
    shown = [line[2:] for line in first.splitlines() if line.startswith("# ")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown) == 3
    for line, expected in zip(printed, shown):
        assert re.fullmatch(".*".join(map(re.escape, expected.split("..."))), line), (line, expected)
    # the second block's claims, on the pair of the first
    exec(second, namespace)
    pair, result, G2 = namespace["pair"], namespace["result"], namespace["G2"]
    assert check_pair(pair, timeout=5.0) == "ok"
    assert not is_reduced_groebner([f for f in pair.F if f])
    assert result.basis == sorted(pair.G, key=lambda g: g.ring.order.key(g.leading_monomial)) != pair.G
    assert is_reduced_groebner(G2) and all(g.ring.order == grevlex(2) for g in G2)
    assert buchberger([g.resorted(lex(2)) for g in G2]).basis == result.basis
