"""Polynomial arithmetic, division, rendering and parsing."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import poly
from gbgen import (
    GenerationConfig,
    ParseError,
    PolyRing,
    RATIONALS,
    generate_dataset,
    grevlex,
    grlex,
    lex,
    normal_form,
    prime_field,
)

R7 = PolyRing(prime_field(7), 2, lex(2))
RQ = PolyRing(RATIONALS, 2, lex(2))
RQ3 = PolyRing(RATIONALS, 3, lex(3))
# every field and order the arithmetic kernel distinguishes
MIXED_RINGS = (
    R7, RQ, RQ3,
    PolyRing(prime_field(31), 3, grlex(3)),
    PolyRing(prime_field(7), 3, grevlex(3)),
    PolyRing(RATIONALS, 3, grevlex(3)),
)


def random_poly(ring, rng, max_terms=6, max_exp=4):
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        t = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if ring.field.modulus is None:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = rng.randint(0, ring.field.modulus - 1)
        pairs.append((t, c))
    return ring.from_terms(pairs)


def naive_mul(ring, f, g):
    """Test-local reimplementation: plain convolution through a Counter."""
    acc = Counter()
    for ta, ca in f.terms:
        for tb, cb in g.terms:
            acc[tuple(x + y for x, y in zip(ta, tb))] += ca * cb
    if ring.field.modulus is None:
        return ring.from_terms({t: c for t, c in acc.items()})
    return ring.from_terms({t: c % ring.field.modulus for t, c in acc.items()})


def test_canonical_form(assert_canonical):
    f = R7.from_terms([((0, 1), 3), ((1, 0), 2), ((0, 1), 4)])
    # x1 terms merge to 0 and vanish
    assert f.terms == (((1, 0), 2),)
    assert not R7.from_terms([((2, 2), 7)])  # coefficient 0 mod 7
    # repeated terms and zero coefficients, in any order, under every ring
    rng = random.Random(10)
    for ring in MIXED_RINGS:
        for _ in range(100):
            assert_canonical(random_poly(ring, rng, max_terms=12, max_exp=2))


def test_terms_sorted_descending():
    f = RQ.parse("x1 + x0^2 + x0*x1")
    assert [t for t, _ in f.terms] == [(2, 0), (1, 1), (0, 1)]
    g = f.resorted(grevlex(2))
    assert [t for t, _ in g.terms] == [(2, 0), (1, 1), (0, 1)]
    h = RQ.parse("x1^3 + x0")
    assert [t for t, _ in h.resorted(grlex(2)).terms] == [(0, 3), (1, 0)]


def test_leading_term_example():
    f = R7.parse("-3*x0^3 + 2*x0^2*x1 + x1^3")
    t, c = f.leading_term
    assert t == (3, 0) and c == 4  # -3 mod 7
    assert f.leading_monomial == (3, 0)
    assert f.total_degree() == 3


def test_zero_has_no_leading_term():
    with pytest.raises(ValueError):
        _ = R7.zero().leading_term
    with pytest.raises(ValueError):
        R7.zero().total_degree()


def test_add_sub_neg(assert_canonical):
    rng = random.Random(11)
    for ring in MIXED_RINGS:
        for _ in range(200):
            f, g = random_poly(ring, rng), random_poly(ring, rng)
            for h in (f + g, f - g, -f):
                assert_canonical(h)
            assert f + g == g + f
            assert (f + g) - g == f
            assert f - g == f + (-g)
            assert f + (-f) == ring.zero()
            assert f - f == ring.zero()


def test_mul_against_naive_convolution(assert_canonical):
    rng = random.Random(12)
    for ring in MIXED_RINGS:
        for _ in range(150):
            f, g = random_poly(ring, rng), random_poly(ring, rng)
            assert_canonical(f * g)
            assert f * g == naive_mul(ring, f, g)


def test_mul_degree_additive_over_rationals():
    # over an integral domain deg(fg) = deg f + deg g for dense random polys
    rng = random.Random(13)
    for _ in range(200):
        f, g = random_poly(RQ, rng), random_poly(RQ, rng)
        if f and g:
            assert (f * g).total_degree() <= f.total_degree() + g.total_degree()
            tf, cf = f.leading_term
            tg, cg = g.leading_term
            assert (f * g).leading_term == (tuple(a + b for a, b in zip(tf, tg)), cf * cg)


def test_ring_mismatch_raises():
    with pytest.raises(ValueError):
        R7.one() + RQ.one()
    with pytest.raises(ValueError):
        R7.one() * PolyRing(prime_field(7), 2, grlex(2)).one()


def test_resorted_rings_are_shared():
    order = grevlex(2)
    f, g = R7.parse("x0 + 1"), PolyRing(prime_field(7), 2, lex(2)).parse("x1")
    assert f.ring is not g.ring
    assert f.resorted(order).ring is g.resorted(order).ring == PolyRing(prime_field(7), 2, order)


def test_scaling_and_monic():
    f = RQ.parse("2*x0 + 4")
    assert f.monic() == RQ.parse("x0 + 2")
    assert f.scaled(Fraction(1, 2)) == RQ.parse("x0 + 2")
    g = R7.parse("3*x0 + 1")
    assert g.monic().leading_coefficient == 1


def test_pow():
    f = RQ.parse("x0 + 1")
    assert f**3 == RQ.parse("x0^3 + 3*x0^2 + 3*x0 + 1")
    assert f**0 == RQ.one()


def test_evaluate():
    f = RQ.parse("x0^2*x1 - 1/2")
    assert f.evaluate([2, Fraction(1, 4)]) == Fraction(1, 2)
    g = R7.parse("x0^2 + x1")
    assert g.evaluate([3, 5]) == (9 + 5) % 7


def divide(f, divisors):
    """Reference textbook division: (remainder, quotients) with f == sum(q*d) + remainder.

    Rebuilds the dividend with polynomial arithmetic on every step, first
    divisor head that divides the leading term wins.
    """
    ring = f.ring
    field = ring.field
    quotients = [ring.zero() for _ in divisors]
    remainder = ring.zero()
    work = f
    while work:
        lt, lc = work.leading_term
        for i, d in enumerate(divisors):
            ht, hc = d.leading_term
            if all(a <= b for a, b in zip(ht, lt)):
                q = ring.monomial(field.mul(lc, field.inv(hc)), tuple(a - b for a, b in zip(lt, ht)))
                quotients[i] = quotients[i] + q
                work = work - q * d
                break
        else:
            head = ring.monomial(lc, lt)
            remainder = remainder + head
            work = work - head
    return remainder, quotients


def test_normal_form_hand_example():
    # divide x0^2*x1 by [x0 - x1, x1^2 - 1]: substitution gives x1^3 -> x1
    ring = RQ
    f = ring.parse("x0^2*x1")
    d1, d2 = ring.parse("x0 - x1"), ring.parse("x1^2 - 1")
    remainder, quotients = divide(f, [d1, d2])
    assert remainder == ring.parse("x1")
    assert f == quotients[0] * d1 + quotients[1] * d2 + remainder
    assert normal_form(f, [d1, d2]) == remainder


def test_normal_form_reexpansion_random():
    rng = random.Random(14)
    rings = (R7, RQ, PolyRing(prime_field(7), 3, grevlex(3)), PolyRing(RATIONALS, 3, grevlex(3)))
    for ring in rings:
        for _ in range(80):
            f = random_poly(ring, rng)
            divisors = [g for g in (random_poly(ring, rng, max_terms=3) for _ in range(3)) if g]
            if not divisors:
                continue
            remainder, quotients = divide(f, divisors)
            total = remainder
            for q, d in zip(quotients, divisors):
                total = total + q * d
            assert total == f
            assert normal_form(f, divisors) == remainder
            # no remainder term is divisible by any divisor head
            for t, _ in remainder.terms:
                for d in divisors:
                    h = d.leading_monomial
                    assert not all(a <= b for a, b in zip(h, t))


def test_normal_form_top_only_keeps_zero_and_head():
    rng = random.Random(16)
    rings = (R7, RQ, RQ3, PolyRing(prime_field(7), 3, grevlex(3)), PolyRing(RATIONALS, 2, grevlex(2)))
    zeros = 0
    for ring in rings:
        for _ in range(80):
            divisors = [g for g in (random_poly(ring, rng, max_terms=3) for _ in range(3)) if g]
            if not divisors:
                continue
            f = random_poly(ring, rng)
            if rng.random() < 0.3:
                f = f * divisors[0]  # lands in the ideal often enough to reach zero
            full = normal_form(f, divisors)
            top = normal_form(f, divisors, top_only=True)
            assert bool(top) == bool(full)
            if full:
                assert top.leading_term == full.leading_term
            else:
                zeros += 1
    assert zeros > 20


def test_normal_form_first_divisor_wins():
    ring = RQ
    f = ring.parse("x0*x1")
    a, b = ring.parse("x0 + 1"), ring.parse("x0 + 2")
    # both heads divide every step; the first divisor in the list takes it
    assert normal_form(f, [a, b]) == ring.parse("-x1") == divide(f, [a, b])[0]
    assert normal_form(f, [b, a]) == ring.parse("-2*x1") == divide(f, [b, a])[0]
    _, quotients = divide(f, [a, b])
    assert quotients[0] == ring.parse("x1") and not quotients[1]


def test_normal_form_zero_divisor_rejected():
    with pytest.raises(ValueError):
        normal_form(RQ.one(), [RQ.zero()])


def test_render_examples():
    assert str(RQ.parse("x0^2*x1 + 2/5*x1^3 - 1")) == "x0^2*x1 + 2/5*x1^3 - 1"
    assert str(R7.parse("4*x0")) == "-3*x0"  # balanced representative
    assert str(R7.zero()) == "0"
    assert str(RQ.parse("-x0 - 1")) == "-x0 - 1"
    assert str(RQ.parse("3")) == "3"
    assert str(RQ.parse("x1^2")) == "x1^2"


# -- parsing -----------------------------------------------------------------

# The token-by-token lexer and walk that ``PolyRing.parse`` replaced, kept as
# the reference for the grammar's language, values and error positions.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|x(\d+)|(\^)|(\*)|(/)|(\+)|(-))")


def reference_tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(text, pos, f"unexpected character {text[pos:].strip()[0]!r}")
            break
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("var", int(m.group(2)), m.start(2)))
        elif m.group(3):
            out.append(("pow", None, m.start(3)))
        elif m.group(4):
            out.append(("mul", None, m.start(4)))
        elif m.group(5):
            out.append(("div", None, m.start(5)))
        elif m.group(6):
            out.append(("plus", None, m.start(6)))
        else:
            out.append(("minus", None, m.start(7)))
        pos = m.end()
    return out


def reference_parse(ring, text):
    tokens = reference_tokenize(text)
    if not tokens:
        raise ParseError(text, 0, "empty input")
    field = ring.field
    acc = {}
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        kind, _, pos = tokens[i]
        if kind == "plus":
            if first:
                raise ParseError(text, pos, "leading '+' is not part of the grammar")
            i += 1
        elif kind == "minus":
            sign = -1
            i += 1
        elif not first:
            raise ParseError(text, pos, "expected '+' or '-' between terms")
        first = False
        if i >= n:
            raise ParseError(text, len(text), "dangling sign")

        coeff = None
        exps = [0] * ring.nvars
        while True:
            kind, val, pos = tokens[i]
            if kind == "int":
                num = val
                den = 1
                if i + 1 < n and tokens[i + 1][0] == "div":
                    if field.modulus is not None:
                        raise ParseError(text, tokens[i + 1][2], "fractions only make sense over the rationals")
                    if i + 2 >= n or tokens[i + 2][0] != "int":
                        raise ParseError(text, tokens[i + 1][2], "expected an integer denominator")
                    den = tokens[i + 2][1]
                    if den == 0:
                        raise ParseError(text, tokens[i + 2][2], "zero denominator")
                    i += 2
                value = Fraction(num, den) if field.modulus is None else num
                coeff = value if coeff is None else field.mul(field.canon(coeff), field.canon(value))
                i += 1
            elif kind == "var":
                if val >= ring.nvars:
                    raise ParseError(text, pos, f"variable x{val} out of range for {ring.nvars} variables")
                e = 1
                if i + 1 < n and tokens[i + 1][0] == "pow":
                    if i + 2 >= n or tokens[i + 2][0] != "int":
                        raise ParseError(text, tokens[i + 1][2], "expected an integer exponent after '^'")
                    e = tokens[i + 2][1]
                    i += 2
                exps[val] += e
                i += 1
            else:
                raise ParseError(text, pos, "expected a coefficient or variable")
            if i < n and tokens[i][0] == "mul":
                i += 1
                if i >= n:
                    raise ParseError(text, len(text), "dangling '*'")
                continue
            break
        c = field.canon(coeff if coeff is not None else 1)
        if sign < 0:
            c = field.neg(c)
        t = tuple(exps)
        prev = acc.get(t)
        acc[t] = c if prev is None else field.add(prev, c)
    return ring.from_terms(acc.items())


def parse_outcome(parse, ring, text):
    """The terms with their coefficient types, or the error's position and message."""
    try:
        f = parse(ring, text)
    except ParseError as exc:
        return "error", exc.pos, str(exc)
    return "ok", tuple((t, type(c), c) for t, c in f.terms)


def assert_parses_like_reference(ring, text):
    assert parse_outcome(PolyRing.parse, ring, text) == parse_outcome(reference_parse, ring, text), text


PARSE_ERRORS = [
    (RQ, "", 0, "empty input"),
    (RQ, "x0 + + x1", 5, "expected a coefficient or variable"),
    (RQ, "x5", 1, "variable x5 out of range for 2 variables"),
    (RQ, "x0 ^ y", 4, "unexpected character 'y'"),
    (R7, "1/2*x0", 1, "fractions only make sense over the rationals"),
    (RQ, "x0 +", 4, "dangling sign"),
    (RQ, "2 ** x0", 3, "expected a coefficient or variable"),
    (RQ, "+x0", 0, "leading '+' is not part of the grammar"),
    (RQ, "x0 x1", 4, "expected '+' or '-' between terms"),
    (RQ, "x0*", 3, "dangling '*'"),
    (RQ, "1/0", 2, "zero denominator"),
    (RQ, "1/x0", 1, "expected an integer denominator"),
    (RQ, "x0^-1", 2, "expected an integer exponent after '^'"),
    (RQ, "-", 1, "dangling sign"),
    (RQ, "x0 + x1 $", 7, "unexpected character '$'"),
]


def test_parse_errors():
    for ring, text, pos, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            ring.parse(text)
        assert (exc.value.pos, str(exc.value)) == (pos, f"at position {pos} in {text!r}: {message}")
        assert_parses_like_reference(ring, text)


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize(
    "field, nvars", [(prime_field(7), 2), (prime_field(31), 4), (prime_field(7919), 3), (RATIONALS, 3)]
)
def test_parse_matches_reference_on_corpora(field, nvars, order):
    config = GenerationConfig(field=field, nvars=nvars, num_samples=40, seed=17, order=order, verify_fraction=0.0)
    for pair in generate_dataset(config):
        for f in pair.F + pair.G:
            assert_parses_like_reference(f.ring, str(f))


PARSE_VARIANTS = [
    "  x0 +x0", "x0\t-\nx0", " - 3 * x0 ^ 2 * x1 + 1 / 2 ", "x0*x0", "2*3*x0", "x0*2", "x0*2*x0^0*x1",
    "3/6", "-4/8*x1 + 1/2*x1", "x0^00 + 007", "0", "0*x0 - 0", "x1^2*x0^3", "x0\u00a0+\u3000x1", "x\u0663",
]


@pytest.mark.parametrize("ring", [RQ, R7, RQ3, PolyRing(prime_field(31), 2, grevlex(2))], ids=str)
def test_parse_matches_reference_on_variants(ring):
    for text in PARSE_VARIANTS:
        assert_parses_like_reference(ring, text)
    assert RQ.parse(" - 3 * x0 ^ 2 * x1 + 1 / 2 ") == RQ.parse("-3*x0^2*x1 + 1/2")
    assert RQ.parse("3/6") == RQ.parse("1/2")
    assert R7.parse("2*3*x0 + x0*2") == R7.parse("x0")


_PIECES = list("x0123456789^*/+- \t") + [
    "x0", "x1", "x2", "x5", " + ", " - ", " * ", "3/6", "1/0", "^2", "^-1", "00", "x", "y", "$",
    "\u00a0", "\x1c", "\u0663",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_parse_matches_reference_on_random_text(text):
    for ring in (RQ, R7, RQ3):
        assert_parses_like_reference(ring, text)


def test_monomial_table_is_keyed_by_arity():
    assert PolyRing(RATIONALS, 4, lex(4)).parse("x3").terms == (((0, 0, 0, 1), 1),)
    with pytest.raises(ParseError) as exc:
        RQ.parse("x3")
    assert (exc.value.pos, str(exc.value)) == (1, "at position 1 in 'x3': variable x3 out of range for 2 variables")
    assert poly._monomial_exponents.cache_info().maxsize == poly._MONOMIAL_CACHE_SIZE


def test_parse_reads_later_coefficient_factors_like_reference():
    # rendered text never puts a coefficient after a variable, so the table's
    # factor product, its '/' over GF(p) and its zero denominator meet only these
    for text in ("x0*1/2", "2*x1*3/4*x0 - x1*x0*2", "x0*1/0", "x1*2/1", "x0*3*x1^2*0", "x1 + x0*x5"):
        for ring in (RQ, R7):
            assert_parses_like_reference(ring, text)
    assert RQ.parse("2*x1*3/4*x0") == RQ.parse("3/2*x0*x1")


def test_parse_accepts_merged_terms():
    assert RQ.parse("x0 + x0") == RQ.parse("2*x0")
    assert RQ.parse("x0 - x0") == RQ.zero()
    assert R7.parse("x0*x0") == R7.parse("x0^2")


def test_round_trip_random():
    rng = random.Random(15)
    for ring in (R7, RQ, RQ3, PolyRing(prime_field(31), 2, lex(2))):
        for _ in range(200):
            f = random_poly(ring, rng)
            assert ring.parse(str(f)) == f


@settings(max_examples=200)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          st.fractions(min_value=-9, max_value=9, max_denominator=9)),
                max_size=8))
def test_round_trip_hypothesis(pairs):
    f = RQ.from_terms(pairs)
    assert RQ.parse(str(f)) == f


def test_variables_used():
    assert RQ3.parse("x0*x2 + 1").variables_used() == {0, 2}
    assert RQ3.zero().variables_used() == set()
