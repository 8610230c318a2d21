"""Sampling of reduced lex bases in shape position."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import GenerationConfig, RATIONALS, is_reduced_groebner, prime_field
from gbgen.shapegen import DEN_RANGE, NUM_RANGE, UNI_MAX_TERMS, sample_shape_basis, sample_univariate


def test_members_have_expected_shape():
    rng = random.Random(1)
    config = GenerationConfig(field=prime_field(7), nvars=4, num_samples=0, max_degree=5)
    for _ in range(50):
        G = sample_shape_basis(config, rng)
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
            tail = g - g.ring.from_terms([(head, 1)])
            if tail:
                assert tail.variables_used() <= {3}
                assert tail.total_degree() < deg_h


def test_samples_are_reduced_groebner():
    rng = random.Random(2)
    for field in (prime_field(7), prime_field(31), RATIONALS):
        config = GenerationConfig(field=field, nvars=3, num_samples=0, max_degree=4)
        for _ in range(25):
            assert is_reduced_groebner(sample_shape_basis(config, rng))


def test_degree_of_last_member_is_uniform():
    rng = random.Random(3)
    config = GenerationConfig(field=prime_field(7), nvars=2, num_samples=0, max_degree=5)
    counts = Counter(sample_shape_basis(config, rng)[-1].total_degree() for _ in range(2000))
    assert set(counts) == {1, 2, 3, 4, 5}
    # chi-squared against uniform: 4 dof, 0.999 quantile is ~18.5
    expected = 2000 / 5
    chi2 = sum((counts[d] - expected) ** 2 / expected for d in counts)
    assert chi2 < 18.5


def test_univariate_term_count_bounds():
    rng = random.Random(4)
    config = GenerationConfig(field=prime_field(31), nvars=2, num_samples=0, max_degree=5)
    seen = Counter()
    for _ in range(600):
        h = sample_univariate(config, max_degree=5, monic=True, rng=rng)
        assert h.leading_coefficient == 1
        assert h.total_degree() == 5
        assert 1 <= h.num_terms() <= UNI_MAX_TERMS
        seen[h.num_terms()] += 1
    assert set(seen) == set(range(1, UNI_MAX_TERMS + 1))


def test_univariate_nonmonic_degree_cap():
    rng = random.Random(5)
    config = GenerationConfig(field=RATIONALS, nvars=2, num_samples=0)
    for _ in range(200):
        g = sample_univariate(config, max_degree=2, monic=False, rng=rng)
        assert g.total_degree() <= 2
        assert 1 <= g.num_terms() <= 3


def test_rational_coefficients_within_ranges():
    rng = random.Random(6)
    config = GenerationConfig(field=RATIONALS, nvars=3, num_samples=0)
    for _ in range(40):
        for g in sample_shape_basis(config, rng):
            for _, c in g.terms:
                assert c != 0
                assert abs(c.numerator) <= max(map(abs, NUM_RANGE))  # reduction never grows the numerator
                assert 1 <= c.denominator <= DEN_RANGE[1]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([prime_field(7), prime_field(31), RATIONALS]),
    st.integers(1, 4),
    st.integers(0, 6),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_sampled_polynomials_are_canonical(assert_canonical, field, nvars, degree, monic, seed):
    # the samplers build their polynomials without from_terms' checks
    config = GenerationConfig(field=field, nvars=nvars, num_samples=0, max_degree=max(degree, 1))
    rng = random.Random(seed)
    for _ in range(10):
        assert_canonical(sample_univariate(config, max(degree, 1) if monic else degree, monic, rng))
        for g in sample_shape_basis(config, rng):
            assert_canonical(g)


@pytest.mark.parametrize("field", [prime_field(2), prime_field(7), RATIONALS], ids=str)
@pytest.mark.parametrize("nvars", range(1, 6))
def test_shape_members_are_canonical(assert_canonical, field, nvars):
    # each xj - gj is built from xj and gj's negated terms, not by subtraction
    config = GenerationConfig(field=field, nvars=nvars, num_samples=0)
    rng = random.Random(nvars)
    for _ in range(40):
        G = sample_shape_basis(config, rng)
        for j, g in enumerate(G):
            assert_canonical(g)
            if j < nvars - 1:
                assert g.leading_term == g.ring.variable(j).leading_term


def test_seeded_determinism():
    config = GenerationConfig(field=prime_field(7), nvars=3, num_samples=0, max_degree=5)
    a = [sample_shape_basis(config, random.Random(42)) for _ in range(5)]
    b = [sample_shape_basis(config, random.Random(42)) for _ in range(5)]
    assert a == b


def test_spec_seed_used_when_rng_omitted():
    config = GenerationConfig(field=prime_field(7), nvars=2, num_samples=0)
    assert sample_shape_basis(config, random.Random(11)) == sample_shape_basis(config, random.Random(11))


def test_single_variable_system():
    rng = random.Random(9)
    config = GenerationConfig(field=prime_field(7), nvars=1, num_samples=0, max_degree=4)
    G = sample_shape_basis(config, rng)
    assert len(G) == 1
    assert G[0].leading_coefficient == 1

