"""Second-opinion checks against an independent computer-algebra system.

These tests re-derive reduced bases with sympy and require exact agreement.
They guard against a systematic bug that our own completion and conversion
code could share; skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from gbgen import GenerationConfig, RATIONALS, buchberger, grevlex, grlex, prime_field
from gbgen.backward import backward_transform
from gbgen.dataset import generate_sample
from gbgen.fglm import fglm
from gbgen.shapegen import sample_shape_basis

ORDER_NAMES = {"lex": "lex", "grlex": "grlex", "grevlex": "grevlex"}


def sympy_env(ring):
    gens = sympy.symbols([f"x{i}" for i in range(ring.nvars)])
    if ring.field.modulus is not None:
        domain = sympy.GF(ring.field.modulus, symmetric=False)
    else:
        domain = sympy.QQ
    return gens, domain


def to_sympy(poly, gens, domain):
    terms = {t: int(c) if poly.ring.field.modulus is not None else sympy.Rational(c.numerator, c.denominator)
             for t, c in poly.terms}
    return sympy.Poly.from_dict(terms, *gens, domain=domain).as_expr()


def from_sympy(spoly, ring):
    pairs = []
    for monom, coeff in spoly.terms():
        if ring.field.modulus is not None:
            pairs.append((monom, int(coeff) % ring.field.modulus))
        else:
            pairs.append((monom, Fraction(int(coeff.numerator), int(coeff.denominator))))
    return ring.from_terms(pairs)


def sympy_reduced_basis(polys, ring):
    gens, domain = sympy_env(ring)
    exprs = [to_sympy(f, gens, domain) for f in polys if f]
    gb = sympy.groebner(exprs, *gens, order=ORDER_NAMES[ring.order.name()], domain=domain)
    return {from_sympy(q, ring) for q in gb.polys}


def test_completion_agrees_on_scrambled_systems():
    rng = random.Random(2024)
    for field in (prime_field(7), RATIONALS):
        config = GenerationConfig(field=field, nvars=2, num_samples=0, max_degree=4, s_max=4)
        for _ in range(10):
            G = sample_shape_basis(config, rng)
            F = backward_transform(G, config, rng).F
            ours = set(buchberger([f for f in F if f]).basis)
            assert ours == sympy_reduced_basis(F, G[0].ring)


def test_completion_agrees_three_variables():
    rng = random.Random(77)
    config = GenerationConfig(field=prime_field(31), nvars=3, num_samples=0, max_degree=3, s_max=4)
    for _ in range(5):
        G = sample_shape_basis(config, rng)
        F = backward_transform(G, config, rng).F
        ours = set(buchberger([f for f in F if f]).basis)
        assert ours == sympy_reduced_basis(F, G[0].ring)


def test_order_conversion_agrees():
    rng = random.Random(5)
    for field in (prime_field(7), RATIONALS):
        config = GenerationConfig(field=field, nvars=2, num_samples=0, max_degree=4)
        for _ in range(8):
            G = sample_shape_basis(config, rng)
            for target in (grevlex(2), grlex(2)):
                ours = set(fglm(G, target))
                target_ring = G[0].ring.with_order(target)
                assert ours == sympy_reduced_basis(G, target_ring)


def test_pipeline_samples_agree():
    config = GenerationConfig(
        field=prime_field(7), nvars=2, num_samples=6, seed=13, verify_fraction=0.0
    )
    for i in range(config.num_samples):
        pair = generate_sample(config, i)
        ring = pair.G[0].ring
        assert set(pair.G) == sympy_reduced_basis(pair.F, ring)
