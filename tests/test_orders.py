"""Term order semantics: worked comparisons and the order axioms."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from gbgen import grevlex, grlex, lex, order_by_name
from gbgen.orders import term_div, term_divides, term_lcm, total_degree


def term_mul(a, b):
    """Exponent vector of the product of two monomials."""
    return tuple(x + y for x, y in zip(a, b))


# worked three-variable comparisons, variables x0 > x1 > x2
X1 = (0, 1, 0)  # x1
X2SQ = (0, 0, 2)  # x2^2
A = (1, 1, 2)  # x0*x1*x2^2
B = (1, 2, 1)  # x0*x1^2*x2


def test_lex_prefers_earlier_variables():
    assert lex(3).compare(X1, X2SQ) == 1
    assert lex(3).compare(A, B) == -1
    assert lex(3).compare((2, 0, 0), (1, 5, 5)) == 1


def test_grlex_grades_first():
    assert grlex(3).compare(X1, X2SQ) == -1
    assert grlex(3).compare(A, B) == -1  # same degree, lex tie-break


def test_grevlex_reversed_tiebreak():
    assert grevlex(3).compare(X1, X2SQ) == -1
    assert grevlex(3).compare(A, B) == -1  # smaller last exponent wins the tie
    # x0*x2 vs x1^2: same degree; rightmost difference favors x1^2... check:
    # a=(1,0,1), b=(0,2,0): a-b=(1,-2,1), rightmost nonzero positive => a < b
    assert grevlex(3).compare((1, 0, 1), (0, 2, 0)) == -1
    # grlex breaks the same tie the other way
    assert grlex(3).compare((1, 0, 1), (0, 2, 0)) == 1


def test_grevlex_key_matches_its_definition():
    # the key as first written: degree, then the reversed exponents negated
    def definition(t):
        return (sum(t), tuple(-e for e in reversed(t)))

    for n in range(1, 6):
        key = grevlex(n).key
        terms = [t for t in itertools.product(range(7), repeat=n) if sum(t) <= 6]
        assert len(terms) == len(set(terms)) > 1
        for t in terms:
            assert key(t) == definition(t)


def test_equal_terms():
    for order in (lex(3), grlex(3), grevlex(3)):
        assert order.compare(A, A) == 0


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        lex(3).compare((1, 0), (0, 1, 0))


def test_order_by_name():
    assert order_by_name("lex", 2) == lex(2)
    assert order_by_name("grevlex", 4) == grevlex(4)
    with pytest.raises(ValueError):
        order_by_name("mystery", 2)


terms3 = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))


@given(terms3, terms3, terms3)
def test_axioms_hypothesis(a, b, c):
    for order in (lex(3), grlex(3), grevlex(3)):
        # totality and antisymmetry
        cab = order.compare(a, b)
        assert cab == -order.compare(b, a)
        assert (cab == 0) == (a == b)
        # multiplication preserves the order
        assert order.compare(term_mul(a, c), term_mul(b, c)) == cab
        # 1 is minimal
        origin = (0, 0, 0)
        if a != origin:
            assert order.compare(a, origin) == 1


def test_axioms_bulk_random():
    # high-volume seeded sweep across arities
    rng = random.Random(20240817)
    orders = [(lex, 2), (grlex, 3), (grevlex, 4)]
    for make, arity in orders:
        order = make(arity)
        origin = (0,) * arity
        for _ in range(2000):
            a = tuple(rng.randint(0, 8) for _ in range(arity))
            b = tuple(rng.randint(0, 8) for _ in range(arity))
            c = tuple(rng.randint(0, 8) for _ in range(arity))
            cab = order.compare(a, b)
            assert cab == -order.compare(b, a)
            assert order.compare(term_mul(a, c), term_mul(b, c)) == cab
            if a != origin:
                assert order.compare(a, origin) == 1
            # transitivity spot check
            cbc = order.compare(b, c)
            if cab >= 0 and cbc >= 0:
                assert order.compare(a, c) >= 0


def test_term_helpers():
    assert term_div((4, 2), (3, 0)) == (1, 2)
    assert term_lcm((1, 5), (2, 3)) == (2, 5)
    assert term_divides((1, 0), (2, 2))
    assert not term_divides((3, 0), (2, 2))
    assert total_degree((2, 3, 1)) == 6


def test_divisibility_respects_every_order():
    # if a | b and a != b then a < b in any admissible order
    rng = random.Random(7)
    for order in (lex(3), grlex(3), grevlex(3)):
        for _ in range(500):
            a = tuple(rng.randint(0, 5) for _ in range(3))
            extra = tuple(rng.randint(0, 5) for _ in range(3))
            b = term_mul(a, extra)
            if b != a:
                assert order.compare(a, b) == -1
