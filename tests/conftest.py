import json
import pathlib
from fractions import Fraction

import pytest

from gbgen import FieldSpec, PolyRing, lex

DATA = pathlib.Path(__file__).parent / "data"


def load_known_pairs():
    entries = json.loads((DATA / "known_pairs.json").read_text())["pairs"]
    out = []
    for entry in entries:
        field = FieldSpec.from_dict(entry["field"])
        ring = PolyRing(field, entry["nvars"], lex(entry["nvars"]))
        F = [ring.parse(s) for s in entry["F"]]
        G = [ring.parse(s) for s in entry["G"]]
        out.append((entry["id"], ring, F, G))
    return out


@pytest.fixture(scope="session")
def known_pairs():
    return load_known_pairs()


@pytest.fixture(scope="session")
def assert_canonical():
    """Check the canonical form of a polynomial's terms.

    Exponent vectors of the ring's arity, strictly descending under the ring
    order, no zero coefficient, and residues in 1..p-1 over GF(p) or
    Fractions over Q.
    """

    def check(f):
        ring = f.ring
        keys = [ring.order.key(t) for t, _ in f.terms]
        assert all(a > b for a, b in zip(keys, keys[1:])), f
        mod = ring.field.modulus
        for t, c in f.terms:
            assert len(t) == ring.nvars and all(type(e) is int and e >= 0 for e in t), f
            if mod is None:
                assert type(c) is Fraction and c, f
            else:
                assert type(c) is int and 0 < c < mod, f

    return check
