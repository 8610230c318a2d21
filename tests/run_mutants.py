"""Apply hand-made mutants of the verdict code and check that the oracle's tests kill each one.

Run from the repository root, with nothing else loading the machine (the
speed test of acceptance criterion 4 times the oracle against the wall
clock):

    python tests/run_mutants.py

Each mutant replaces one exact piece of text in one file of ``src/``.  For
each, the script copies ``src/`` and ``tests/`` to a temporary directory,
applies the mutant there and runs the oracle's test files on the copy.  The
unmutated copy runs first: a test that fails there kills nothing.  The
script prints the tests that failed under each mutant and exits 1 when a
mutant survives, that is, when every test passed under it.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_FILES = ["test_dataset.py", "test_groebner.py", "test_cli.py", "test_acceptance.py", "test_cross_check.py"]

# (name, file under src/gbgen, exact old text, new text)
MUTANTS = [
    ("is_reduced_groebner without the monic check", "groebner.py",
     "    if any(f.leading_coefficient != one for f in polys):\n",
     "    if False:\n"),
    ("is_reduced_groebner checks heads only, not tails", "groebner.py",
     "        terms = [head, *(k for k, _ in tail)]\n",
     "        terms = [head]\n"),
    ("check_pair accepts a zero member of G", "dataset.py",
     "    if not gens or not all(pair.G):\n",
     "    pair.G = [g for g in pair.G if g]\n    if not gens or not pair.G:\n"),
    ("Gebauer-Moller without criterion M", "groebner.py",
     "        if coprime or all((lcm - other[0]) & guard for other in itertools.chain(new[idx + 1 :], chosen)):\n",
     "        if True:\n"),
    ("check_pair cuts the recovered basis to len(G)", "dataset.py",
     "    expected = sorted(pair.G, key=lambda g: g.ring.order.key(g.leading_monomial))\n",
     "    expected = sorted(pair.G, key=lambda g: g.ring.order.key(g.leading_monomial))\n"
     "    recovered = recovered[:len(expected)]\n"),
]


def failed_tests(tree: pathlib.Path) -> list[str]:
    """The ids of the tests in TEST_FILES that fail on ``tree``."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf",
         *(f"tests/{name}" for name in TEST_FILES)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):  # 1: some test failed; anything else: the run itself did not work
        sys.exit(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]


def copy_tree(dest: pathlib.Path) -> pathlib.Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    return dest


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        baseline = failed_tests(copy_tree(pathlib.Path(tmp) / "baseline"))
    if baseline:
        print(f"the unmutated tree fails {', '.join(baseline)}; fix that first")
        return 1
    survivors = 0
    for name, file, old, new in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(pathlib.Path(tmp) / "tree")
            path = tree / "src" / "gbgen" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            failed = failed_tests(tree)
        survivors += not failed
        print(f"{name}: " + (f"killed by {len(failed)}: {', '.join(failed)}" if failed else "SURVIVED"))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
