"""Write buchberger_pins.json: bases and counters of buchberger on a small corpus.

Run from the repository root, against the tree whose results are to be
pinned:

    PYTHONPATH=src python tests/data/make_buchberger_pins.py > tests/data/buchberger_pins.json

For each field and order it takes the first samples of a fixed config at
n = 2 and n = 3 whose completion finishes within a second, and records the
reduced basis and the counters of both pair updates: ``plain`` is the plain
update under the normal strategy, and ``chain`` the Gebauer-Moller update
under the sugar strategy.
"""

import json
import time

from gbgen import RATIONALS, buchberger, prime_field
from gbgen.dataset import GenerationConfig, generate_sample
from gbgen.groebner import GroebnerTimeout

FIELDS = {"f2": prime_field(2), "f7": prime_field(7), "f7919": prime_field(7919), "q": RATIONALS}
COUNTERS = ("pairs_processed", "zero_reductions", "pairs_skipped", "basis_additions", "redundant_members")


def main():
    cases = []
    for name, field in FIELDS.items():
        for order in ("lex", "grlex", "grevlex"):
            for n, wanted in ((2, 4), (3, 3)):
                config = GenerationConfig(field=field, nvars=n, num_samples=40, order=order, seed=24, density=0.6,
                                          verify_fraction=0.0)
                kept = 0
                for index in range(config.num_samples):
                    F = [f for f in generate_sample(config, index).F if f]
                    runs = []
                    try:
                        for chain in (False, True):
                            start = time.perf_counter()
                            result = buchberger(F, timeout=1.0, chain_criterion=chain)
                            runs.append((time.perf_counter() - start, result))
                    except GroebnerTimeout:
                        continue
                    if max(t for t, _ in runs) > 1.0:
                        continue
                    cases.append({
                        "field": name, "order": order, "nvars": n, "index": index,
                        "basis": [str(g) for g in runs[0][1].basis],
                        "plain": [getattr(runs[0][1].stats, c) for c in COUNTERS],
                        "chain": [getattr(runs[1][1].stats, c) for c in COUNTERS],
                    })
                    kept += 1
                    if kept == wanted:
                        break
    print(json.dumps({"seed": 24, "density": 0.6, "counters": COUNTERS, "cases": cases}, indent=1))


if __name__ == "__main__":
    main()
