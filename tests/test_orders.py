"""Term order semantics: worked comparisons and the order axioms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import grevlex, grlex, lex
from gbgen.orders import EXPONENT_LIMIT, ExponentLimitError, OrderKind, order_by_name


def term_div(a, b):
    """Componentwise difference a - b of two exponent vectors, b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def term_mul(a, b):
    """Exponent vector of the product of two monomials."""
    return tuple(x + y for x, y in zip(a, b))


def term_lcm(a, b):
    """Exponent vector of the lcm of two monomials."""
    return tuple(map(max, a, b))


def total_degree(t):
    return sum(t)


def coprime(a, b):
    """Whether two monomials share no variable."""
    return not any(map(min, a, b))


def term_divides(a, b):
    """Whether the monomial with exponents ``a`` divides the one with ``b``."""
    return all(x <= y for x, y in zip(a, b))


def reference_key(order, t):
    """The order's definition as a tuple key: a term precedes another exactly when its key is smaller.

    Lex compares the exponents.  Grlex compares the total degree, then the
    exponents.  Grevlex compares the total degree, then the reversed
    exponents negated: of two terms of one degree, the one with the smaller
    last differing exponent is the larger.
    """
    if order.kind is OrderKind.LEX:
        return t
    if order.kind is OrderKind.GRLEX:
        return (sum(t), t)
    return (sum(t), tuple(-e for e in reversed(t)))


def cmp(order, a, b):
    """-1, 0 or 1 as ``a`` is below, equal to or above ``b`` by the order's definition.

    The order the shipped sort key induces must give the same answer.
    """
    ka, kb = reference_key(order, a), reference_key(order, b)
    want = (ka > kb) - (ka < kb)
    sa, sb = order.key(a), order.key(b)
    assert (sa > sb) - (sa < sb) == want, (order, a, b)
    return want


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
    # the shipped graded keys are packed ints; the orders they induce, pair by
    # pair and in sorted runs, are the tuple definitions'
    rng = random.Random(5)
    for n in range(1, 6):
        terms = [t for t in itertools.product(range(7), repeat=n) if sum(t) <= 6]
        assert len(terms) == len(set(terms)) > 1
        for order in (grevlex(n), grlex(n)):
            key = order.key
            keys = {t: key(t) for t in terms}
            ref = {t: reference_key(order, t) for t in terms}
            for a, b in itertools.product(terms, repeat=2):
                assert (keys[a] < keys[b]) == (ref[a] < ref[b]), (order, a, b)
            rng.shuffle(terms)
            assert sorted(terms, key=key) == sorted(terms, key=ref.get)


def test_strictly_descending_matches_the_keys():
    rng = random.Random(8)
    for n in range(1, 5):
        terms = [t for t in itertools.product(range(4), repeat=n) if sum(t) <= 4]
        for order in (lex(n), grlex(n), grevlex(n)):
            def definition(t):
                return reference_key(order, t)

            for a, b in itertools.product(terms, repeat=2):
                assert order.strictly_descending((a, b)) == (definition(a) > definition(b)), (order, a, b)
            for _ in range(200):
                run = rng.sample(terms, min(len(terms), rng.randint(0, 6)))
                keys = [definition(t) for t in run]
                assert order.strictly_descending(run) == all(k > j for k, j in zip(keys, keys[1:])), (order, run)
                run.sort(key=definition, reverse=True)
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
    assert cmp(order, a, b) == (packing.key(pa) > packing.key(pb)) - (packing.key(pa) < packing.key(pb))
    assert ((pa ^ packing.flip) < (pb ^ packing.flip)) == (cmp(order, a, b) == 1)
    assert (not (pb - pa) & packing.guard) == term_divides(a, b)
    assert (not (pa - pb) & packing.guard) == term_divides(b, a)


def draw_term(rng, arity, graded):
    """Exponents with fields at 0, at EXPONENT_LIMIT and between; with ``graded`` the degree is at most the limit too."""
    exps, budget = [0] * arity, EXPONENT_LIMIT
    for i in rng.sample(range(arity), arity):
        exps[i] = rng.choice((0, budget, rng.randint(0, budget), rng.randint(0, min(5, budget))))
        if graded:
            budget -= exps[i]
    return tuple(exps)


@pytest.mark.parametrize("make", (lex, grlex, grevlex))
def test_packed_pair_helpers_follow_their_terms(make):
    # the completion's pair update works on packed heads: lcm, coprimality,
    # divisibility and degree against the exponent tuples, and the lcms of
    # one new head with two others compare exactly even past the limit
    rng = random.Random(31)
    past_limit = 0
    for arity in range(1, 6):
        packing = make(arity).packing
        guard = packing.guard
        for _ in range(400):
            a, b, c = (draw_term(rng, arity, packing.graded) for _ in range(3))
            pa, pb, pc = packing.pack(a), packing.pack(b), packing.pack(c)
            assert packing.degree(pa) == total_degree(a)
            lcm = packing.lcm(pa, pb)
            ref = term_lcm(a, b)
            assert packing.unpack(lcm) == ref and packing.degree(lcm) == total_degree(ref)
            assert (lcm == pa + pb) == coprime(a, b)
            assert (not (lcm - pa) & guard) and (not (lcm - pb) & guard)
            if packing.graded and total_degree(ref) > EXPONENT_LIMIT:
                past_limit += 1
                with pytest.raises(ExponentLimitError) as exc:
                    packing.key(lcm)
                named = f"total degree {total_degree(ref)}"
                assert str(exc.value) == f"{named} is past the limit 16383 of a packed monomial"
            else:
                assert lcm == packing.pack(ref)
            other = packing.lcm(pc, pb)
            assert (not (other - lcm) & guard) == term_divides(ref, term_lcm(c, b))
            assert (not (lcm - other) & guard) == term_divides(term_lcm(c, b), ref)
            assert (lcm == other) == (ref == term_lcm(c, b))
    assert past_limit > 50 or not packing.graded
