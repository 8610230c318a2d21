"""Term order semantics: worked comparisons and the order axioms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import grevlex, grlex, lex
from gbgen.orders import order_by_name
from gbgen.orders import term_divides, term_lcm, total_degree


def term_div(a, b):
    """Componentwise difference a - b of two exponent vectors, b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def term_mul(a, b):
    """Exponent vector of the product of two monomials."""
    return tuple(x + y for x, y in zip(a, b))


def cmp(order, a, b):
    """-1, 0 or 1 as ``a`` is below, equal to or above ``b``, read off the order's sort key."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


# worked three-variable comparisons, variables x0 > x1 > x2
X1 = (0, 1, 0)  # x1
X2SQ = (0, 0, 2)  # x2^2
A = (1, 1, 2)  # x0*x1*x2^2
B = (1, 2, 1)  # x0*x1^2*x2


def test_lex_prefers_earlier_variables():
    assert cmp(lex(3), X1, X2SQ) == 1
    assert cmp(lex(3), A, B) == -1
    assert cmp(lex(3), (2, 0, 0), (1, 5, 5)) == 1


def test_grlex_grades_first():
    assert cmp(grlex(3), X1, X2SQ) == -1
    assert cmp(grlex(3), A, B) == -1  # same degree, lex tie-break


def test_grevlex_reversed_tiebreak():
    assert cmp(grevlex(3), X1, X2SQ) == -1
    assert cmp(grevlex(3), A, B) == -1  # smaller last exponent wins the tie
    # x0*x2 vs x1^2: same degree; rightmost difference favors x1^2... check:
    # a=(1,0,1), b=(0,2,0): a-b=(1,-2,1), rightmost nonzero positive => a < b
    assert cmp(grevlex(3), (1, 0, 1), (0, 2, 0)) == -1
    # grlex breaks the same tie the other way
    assert cmp(grlex(3), (1, 0, 1), (0, 2, 0)) == 1


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


def test_strictly_descending_matches_the_keys():
    rng = random.Random(8)
    for n in range(1, 5):
        terms = [t for t in itertools.product(range(4), repeat=n) if sum(t) <= 4]
        for order in (lex(n), grlex(n), grevlex(n)):
            for a, b in itertools.product(terms, repeat=2):
                assert order.strictly_descending((a, b)) == (order.key(a) > order.key(b)), (order, a, b)
            for _ in range(200):
                run = rng.sample(terms, min(len(terms), rng.randint(0, 6)))
                keys = [order.key(t) for t in run]
                assert order.strictly_descending(run) == all(k > j for k, j in zip(keys, keys[1:])), (order, run)
                run.sort(key=order.key, reverse=True)
                assert order.strictly_descending(run)


def test_equal_terms():
    for order in (lex(3), grlex(3), grevlex(3)):
        assert cmp(order, A, A) == 0


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
        cab = cmp(order, a, b)
        assert cab == -cmp(order, b, a)
        assert (cab == 0) == (a == b)
        # multiplication preserves the order
        assert cmp(order, term_mul(a, c), term_mul(b, c)) == cab
        # 1 is minimal
        origin = (0, 0, 0)
        if a != origin:
            assert cmp(order, a, origin) == 1


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
            cab = cmp(order, a, b)
            assert cab == -cmp(order, b, a)
            assert cmp(order, term_mul(a, c), term_mul(b, c)) == cab
            if a != origin:
                assert cmp(order, a, origin) == 1
            # transitivity spot check
            cbc = cmp(order, b, c)
            if cab >= 0 and cbc >= 0:
                assert cmp(order, a, c) >= 0


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
                assert cmp(order, a, b) == -1


@settings(max_examples=200)
@given(st.sampled_from((lex, grlex, grevlex)), st.integers(1, 5), st.data())
def test_packed_monomials_follow_their_terms(make, arity, data):
    # order, divisibility, product and unpacking of packed values agree with
    # the exponent tuples, and the heap key turns the order around
    order = make(arity)
    packing = order.packing
    terms = st.tuples(*[st.integers(0, 3000)] * arity)
    a, b = data.draw(terms), data.draw(terms)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a and packing.unpack(pa + pb) == term_mul(a, b)
    assert cmp(order, a, b) == (packing.key(a) > packing.key(b)) - (packing.key(a) < packing.key(b))
    assert ((pa ^ packing.flip) < (pb ^ packing.flip)) == (cmp(order, a, b) == 1)
    assert (not (pb - pa) & packing.guard) == term_divides(a, b)
    assert (not (pa - pb) & packing.guard) == term_divides(b, a)
