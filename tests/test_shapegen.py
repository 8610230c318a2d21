"""Sampling of reduced lex bases in shape position."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import RATIONALS, is_reduced_groebner, lex, prime_field
from gbgen.shapegen import ShapeBasisSpec, sample_shape_basis, sample_univariate


def test_members_have_expected_shape():
    rng = random.Random(1)
    spec = ShapeBasisSpec(field=prime_field(7), nvars=4, max_degree=5)
    for _ in range(50):
        G = sample_shape_basis(spec, rng)
        assert len(G) == 4
        h = G[-1]
        deg_h = h.total_degree()
        assert 1 <= deg_h <= 5
        assert h.leading_coefficient == 1
        assert h.variables_used() <= {3}
        for i, g in enumerate(G[:-1]):
            head, coeff = g.leading_term
            assert head == tuple(1 if k == i else 0 for k in range(4))
            assert coeff == 1
            tail = g - g.ring.monomial(1, head)
            if tail:
                assert tail.variables_used() <= {3}
                assert tail.total_degree() < deg_h


def test_samples_are_reduced_groebner():
    rng = random.Random(2)
    for field in (prime_field(7), prime_field(31), RATIONALS):
        spec = ShapeBasisSpec(field=field, nvars=3, max_degree=4)
        for _ in range(25):
            assert is_reduced_groebner(sample_shape_basis(spec, rng))


def test_degree_of_last_member_is_uniform():
    rng = random.Random(3)
    spec = ShapeBasisSpec(field=prime_field(7), nvars=2, max_degree=5)
    counts = Counter(sample_shape_basis(spec, rng)[-1].total_degree() for _ in range(2000))
    assert set(counts) == {1, 2, 3, 4, 5}
    # chi-squared against uniform: 4 dof, 0.999 quantile is ~18.5
    expected = 2000 / 5
    chi2 = sum((counts[d] - expected) ** 2 / expected for d in counts)
    assert chi2 < 18.5


def test_univariate_term_count_bounds():
    rng = random.Random(4)
    spec = ShapeBasisSpec(field=prime_field(31), nvars=2, max_degree=5, max_terms=5)
    seen = Counter()
    for _ in range(600):
        h = sample_univariate(spec, max_degree=5, monic=True, rng=rng)
        assert h.leading_coefficient == 1
        assert h.total_degree() == 5
        assert 1 <= h.num_terms() <= 5
        seen[h.num_terms()] += 1
    assert set(seen) == {1, 2, 3, 4, 5}


def test_univariate_nonmonic_degree_cap():
    rng = random.Random(5)
    spec = ShapeBasisSpec(field=RATIONALS, nvars=2)
    for _ in range(200):
        g = sample_univariate(spec, max_degree=2, monic=False, rng=rng)
        assert g.total_degree() <= 2
        assert 1 <= g.num_terms() <= 3


def test_rational_coefficients_within_ranges():
    rng = random.Random(6)
    spec = ShapeBasisSpec(field=RATIONALS, nvars=3, num_range=(-5, 5), den_range=(1, 5))
    for _ in range(40):
        for g in sample_shape_basis(spec, rng):
            for _, c in g.terms:
                assert c != 0
                assert abs(c.numerator) <= 5  # reduction never grows the numerator
                assert 1 <= c.denominator <= 5


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([prime_field(7), prime_field(31), RATIONALS]),
    st.integers(1, 4),
    st.integers(0, 6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_sampled_polynomials_are_canonical(assert_canonical, field, nvars, degree, max_terms, monic, seed):
    # the samplers build their polynomials without from_terms' checks
    spec = ShapeBasisSpec(field=field, nvars=nvars, max_degree=max(degree, 1), max_terms=max_terms)
    rng = random.Random(seed)
    for _ in range(10):
        assert_canonical(sample_univariate(spec, max(degree, 1) if monic else degree, monic, rng))
        for g in sample_shape_basis(spec, rng):
            assert_canonical(g)


def test_seeded_determinism():
    spec = ShapeBasisSpec(field=prime_field(7), nvars=3, max_degree=5)
    a = [sample_shape_basis(spec, random.Random(42)) for _ in range(5)]
    b = [sample_shape_basis(spec, random.Random(42)) for _ in range(5)]
    assert a == b


def test_spec_seed_used_when_rng_omitted():
    spec = ShapeBasisSpec(field=prime_field(7), nvars=2)
    assert sample_shape_basis(spec, random.Random(11)) == sample_shape_basis(spec, random.Random(11))


def test_single_variable_system():
    rng = random.Random(9)
    spec = ShapeBasisSpec(field=prime_field(7), nvars=1, max_degree=4)
    G = sample_shape_basis(spec, rng)
    assert len(G) == 1
    assert G[0].leading_coefficient == 1


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        ShapeBasisSpec(field=prime_field(7), nvars=0)
    with pytest.raises(ValueError):
        ShapeBasisSpec(field=prime_field(7), nvars=2, max_degree=0)
