"""Variety enumeration for shape-position systems over prime fields."""

import itertools
import random

import pytest

from gbgen import (
    FieldElement,
    PolyRing,
    RATIONALS,
    ShapeBasisSpec,
    ShapeError,
    lex,
    prime_field,
    sample_shape_basis,
    solve_shape,
    univariate_roots_fp,
)

F7 = prime_field(7)
R = PolyRing(F7, 2, lex(2))


def brute_force_variety(polys):
    """Scan the whole affine space; the slow but unarguable reference."""
    ring = polys[0].ring
    p = ring.field.modulus
    points = []
    for candidate in itertools.product(range(p), repeat=ring.nvars):
        if all(not f.evaluate(list(candidate)) for f in polys if f):
            points.append(candidate)
    return points


def as_ints(solution):
    return [tuple(c.value for c in point) for point in solution.points]


def test_roots_of_cube_plus_x():
    # r^3 + r = r (r^2 + 1) and -1 is not a square mod 7, so 0 is the only root
    roots = univariate_roots_fp(R.parse("x1^3 + x1"))
    assert [r.value for r in roots] == [0]


def test_roots_quadratic_and_constant():
    assert [r.value for r in univariate_roots_fp(R.parse("x1^2 - 2"))] == [3, 4]
    assert univariate_roots_fp(R.parse("x1^2 - 1")) == [FieldElement(F7, 1), FieldElement(F7, 6)]
    assert univariate_roots_fp(R.parse("3")) == []


def scanned_roots(h):
    return [r for (r,) in brute_force_variety([h])]


def irreducible_quadratic(ring):
    # a quadratic without roots in GF(p) has no factors
    for b, c in itertools.product(range(ring.field.modulus), repeat=2):
        q = ring.parse(f"x0^2 + {b}*x0 + {c}")
        if not scanned_roots(q):
            return q


def test_roots_match_scan_on_random_polynomials():
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 31, 101):
        ring = PolyRing(prime_field(p), 1, lex(1))
        x = ring.variable(0)
        quad = irreducible_quadratic(ring)
        for _ in range(60):
            # dense random polynomials of degree up to 12, constants included
            h = ring.from_terms(((i,), rng.randrange(p)) for i in range(rng.randint(1, 13)))
            if h:
                assert [r.value for r in univariate_roots_fp(h)] == scanned_roots(h)
            # products of repeated linear factors, an irreducible factor and a unit
            h = ring.monomial(rng.randrange(1, p), (0,))
            for _ in range(rng.randint(0, 5)):
                h = h * (x - ring.monomial(rng.randrange(p), (0,))) ** rng.randint(1, 3)
            if rng.random() < 0.5:
                h = h * quad
            assert [r.value for r in univariate_roots_fp(h)] == scanned_roots(h)


def test_roots_at_a_large_prime():
    p = 2**31 - 1
    ring = PolyRing(prime_field(p), 2, lex(2))
    rng = random.Random(5)
    roots = [rng.randrange(p) for _ in range(7)] + [0, p - 1]
    h = ring.parse("x1^2 + 1")  # irreducible: -1 is not a square since p = 3 mod 4
    for r in roots:
        h = h * ring.parse(f"x1 - {r}")
    assert [r.value for r in univariate_roots_fp(h)] == sorted(roots)


def test_roots_input_validation():
    with pytest.raises(ValueError):
        univariate_roots_fp(R.zero())
    with pytest.raises(ValueError):
        univariate_roots_fp(R.parse("x0*x1"))
    rq = PolyRing(RATIONALS, 1, lex(1))
    with pytest.raises(ValueError):
        univariate_roots_fp(rq.parse("x0^2 - 1"))


def test_solve_hand_system():
    basis = [R.parse("x0 - x1^2"), R.parse("x1^2 - 2")]
    solution = solve_shape(basis)
    assert solution.complete
    assert as_ints(solution) == [(2, 3), (2, 4)]


def test_solve_accepts_any_member_order_and_scaling():
    basis = [R.parse("x1^2 - x1"), R.parse("2*x0 - 2*x1")]
    solution = solve_shape(basis)
    assert as_ints(solution) == [(0, 0), (1, 1)]


def test_solve_empty_variety():
    # x1^2 + 1 has no roots mod 7
    solution = solve_shape([R.parse("x0 - x1"), R.parse("x1^2 + 1")])
    assert solution.points == [] and solution.complete


def test_solve_matches_brute_force():
    rng = random.Random(61)
    for field in (F7, prime_field(11)):
        for nvars in (1, 2, 3):
            spec = ShapeBasisSpec(field=field, nvars=nvars, max_degree=4)
            for _ in range(8):
                G = sample_shape_basis(spec, rng)
                assert sorted(as_ints(solve_shape(G))) == brute_force_variety(G)


def test_solutions_vanish_on_scrambled_system(known_pairs):
    for name, ring, F, G in known_pairs:
        if ring.field.modulus is None:
            continue
        solution = solve_shape(G)
        assert solution.complete
        for point in solution.points:
            coords = [c.value for c in point]
            for f in F:
                assert not f.evaluate(coords), f"{name}: {f} at {coords}"


def test_shape_errors():
    r3 = PolyRing(F7, 3, lex(3))
    h = r3.parse("x2^2 - 1")
    with pytest.raises(ShapeError):
        solve_shape([])
    with pytest.raises(ShapeError):
        solve_shape([r3.zero()])
    with pytest.raises(ShapeError):
        solve_shape([h, r3.parse("x2 - 1")])  # second univariate member
    with pytest.raises(ShapeError):
        solve_shape([r3.parse("x0 - x2"), r3.parse("x0 - 2*x2"), h])  # duplicate lead
    with pytest.raises(ShapeError):
        solve_shape([r3.parse("x0 - x2"), h])  # nothing pins x1
    with pytest.raises(ShapeError):
        solve_shape([r3.parse("x0 - x1"), r3.parse("x1 - x2"), h])  # tail uses x1
    with pytest.raises(ShapeError):
        solve_shape([r3.parse("x0^2 - x2"), r3.parse("x1 - x2"), h])  # quadratic lead
    with pytest.raises(ValueError):
        rq = PolyRing(RATIONALS, 2, lex(2))
        solve_shape([rq.parse("x0 - x1"), rq.parse("x1^2 - 1")])
