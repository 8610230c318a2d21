"""The package's public surface: what ``import gbgen`` offers and what the README imports."""

import importlib
import pathlib
import pkgutil
import re
import types

import gbgen

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
