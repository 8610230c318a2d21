"""Order conversion: staircase enumeration and the conversion walk."""

import random

import pytest

from gbgen import GenerationConfig, RATIONALS, buchberger, grevlex, grlex, is_reduced_groebner, lex, prime_field
from gbgen.fglm import DimensionError, fglm, quotient_basis
from gbgen.poly import PolyRing
from gbgen.shapegen import sample_shape_basis

R7 = PolyRing(prime_field(7), 2, lex(2))
RQ = PolyRing(RATIONALS, 2, lex(2))


def canon(basis):
    return sorted(basis, key=lambda g: g.ring.order.key(g.leading_monomial))


def test_quotient_basis_shape_example():
    G = [R7.parse("x0 - 3*x1"), R7.parse("x1^3")]
    qb = quotient_basis(G)
    assert qb.dimension == 3
    assert qb.monomials == [(0, 0), (0, 1), (0, 2)]


def test_quotient_basis_box_ideal():
    # heads x0^2 and x1^3 are coprime, so this pair is already a basis and
    # its staircase is a 2x3 box (under a degree order x1^3 leads despite
    # the cross-variable tail)
    ring = RQ.with_order(grevlex(2))
    G = [ring.parse("x0^2 - 1"), ring.parse("x1^3 - x0")]
    qb = quotient_basis(G)
    assert qb.dimension == 6
    assert set(qb.monomials) == {(a, b) for a in range(2) for b in range(3)}


def test_quotient_basis_unit_ideal():
    assert quotient_basis([RQ.one()]).dimension == 0


def test_quotient_basis_positive_dimension_raises(monkeypatch):
    monkeypatch.setattr("gbgen.fglm.DIMENSION_CAP", 50)
    with pytest.raises(DimensionError):
        quotient_basis([RQ.parse("x0 - x1")])


def test_identity_conversion():
    G = [R7.parse("x0 - 3*x1"), R7.parse("x1^3")]
    assert fglm(G, lex(2)) == canon(G)
    # every target takes the walk: under its own order a reduced basis comes
    # back sorted, the same members in the same shared ring
    rng = random.Random(4)
    for field in (prime_field(7), prime_field(31), RATIONALS):
        for n in (1, 2, 3):
            config = GenerationConfig(field=field, nvars=n, num_samples=0, max_degree=4)
            for order in (lex(n), grlex(n), grevlex(n)):
                for _ in range(5):
                    G = sample_shape_basis(config, rng)
                    if order != lex(n):
                        G = fglm(G, order)
                    out = fglm(G, order)
                    assert out == canon(G)
                    assert all(g.ring is G[0].ring for g in out)


def test_small_hand_conversion():
    # lex basis of two simple points-style ideals converted to grevlex and
    # cross-checked against direct completion
    G = [RQ.parse("x0 - x1^2"), RQ.parse("x1^3 - 1")]
    out = fglm(G, grevlex(2))
    direct = buchberger([g.resorted(grevlex(2)) for g in G]).basis
    assert out == direct
    assert is_reduced_groebner(out)


def test_conversion_round_trip_and_cross_check():
    rng = random.Random(99)
    for field in (prime_field(7), RATIONALS):
        config = GenerationConfig(field=field, nvars=2, num_samples=0, max_degree=4)
        for _ in range(30):
            G = sample_shape_basis(config, rng)
            for target in (grevlex(2), grlex(2)):
                converted = fglm(G, target)
                assert is_reduced_groebner(converted)
                direct = buchberger([g.resorted(target) for g in G]).basis
                assert converted == direct
                back = fglm(converted, lex(2))
                assert back == canon(G)


def test_three_variable_conversion():
    rng = random.Random(7)
    config = GenerationConfig(field=prime_field(31), nvars=3, num_samples=0, max_degree=3)
    for _ in range(10):
        G = sample_shape_basis(config, rng)
        converted = fglm(G, grevlex(3))
        assert is_reduced_groebner(converted)
        assert fglm(converted, lex(3)) == canon(G)


def test_conversion_preserves_quotient_dimension():
    rng = random.Random(8)
    config = GenerationConfig(field=prime_field(7), nvars=2, num_samples=0, max_degree=5)
    for _ in range(20):
        G = sample_shape_basis(config, rng)
        converted = fglm(G, grevlex(2))
        assert quotient_basis(converted).dimension == quotient_basis(G).dimension


def test_unit_ideal_converts_to_one():
    for target in (grevlex(2), grlex(2)):
        assert fglm([R7.one()], target) == [R7.with_order(target).one()]


def test_cap_bounds_the_staircase(monkeypatch):
    G = [R7.parse("x0 - 3*x1"), R7.parse("x1^3")]
    monkeypatch.setattr("gbgen.fglm.DIMENSION_CAP", 3)
    assert fglm(fglm(G, grevlex(2)), lex(2)) == canon(G)
    monkeypatch.setattr("gbgen.fglm.DIMENSION_CAP", 2)
    with pytest.raises(DimensionError):
        fglm(G, grevlex(2))


@pytest.mark.parametrize("nvars, gens", [
    (2, ["x0 - x1"]),
    (3, ["x0 - x1*x2 + 3", "x1^2 - x2^3"]),
])
def test_positive_dimensional_basis_raises(nvars, gens):
    # the staircase guard rejects it before the walk, which would not end
    ring = PolyRing(prime_field(7), nvars, lex(nvars))
    with pytest.raises(DimensionError):
        fglm([ring.parse(g) for g in gens], grevlex(nvars))


def test_rejects_mixed_rings():
    with pytest.raises(ValueError):
        fglm([R7.parse("x0"), RQ.parse("x1")], grevlex(2))
    with pytest.raises(ValueError):
        fglm([R7.parse("x0 + x1"), R7.parse("x1^2")], grevlex(3))


def test_rejects_empty():
    with pytest.raises(ValueError):
        fglm([R7.zero()], grevlex(2))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("field", [prime_field(2), prime_field(7919), prime_field(2**31 - 1), RATIONALS], ids=str)
def test_conversion_cross_check_across_fields(field, nvars):
    # from GF(2), where -c == c, to a 31-bit prime, and Q
    rng = random.Random(nvars)
    config = GenerationConfig(field=field, nvars=nvars, num_samples=0, max_degree=4)
    for _ in range(6):
        G = sample_shape_basis(config, rng)
        converted = {}
        for target in (grevlex(nvars), grlex(nvars)):
            converted[target] = fglm(G, target)
            assert converted[target] == buchberger([g.resorted(target) for g in G]).basis
            assert fglm(converted[target], lex(nvars)) == canon(G)
        grevlex_basis, grlex_basis = converted.values()
        assert fglm(grevlex_basis, grlex(nvars)) == grlex_basis
        assert fglm(grlex_basis, grevlex(nvars)) == grevlex_basis
