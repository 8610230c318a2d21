"""The scrambling transform F = U1 P U2 G and its structural guarantees."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import (
    BackwardSpec,
    PolyMatrix,
    PolyRing,
    RATIONALS,
    ShapeBasisSpec,
    backward_transform,
    buchberger,
    grevlex,
    grlex,
    lex,
    prime_field,
    sample_entry,
    sample_permutation,
    sample_shape_basis,
    sample_unimodular_upper,
)

F7 = prime_field(7)


def canon(basis):
    return sorted(basis, key=lambda g: g.ring.order.key(g.leading_monomial))


# -- reference matrix algebra: the transform itself only needs PolyMatrix.apply


def identity(ring, size):
    one, zero = ring.one(), ring.zero()
    return PolyMatrix(ring, [[one if i == j else zero for j in range(size)] for i in range(size)])


def permutation_matrix(ring, perm):
    """Row i carries a 1 in column perm[i]: (P v)[i] == v[perm[i]]."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm!r}")
    one, zero = ring.one(), ring.zero()
    return PolyMatrix(ring, [[one if j == p else zero for j in range(len(perm))] for p in perm])


def matmul(a, b):
    """The full matrix product a b."""
    if a.ring != b.ring or a.cols != b.rows:
        raise ValueError("shape or ring mismatch")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = a.ring.zero()
            for k in range(a.cols):
                x, y = a.entries[i][k], b.entries[k][j]
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return PolyMatrix(a.ring, out)


def is_unimodular_upper(m):
    if m.rows != m.cols:
        return False
    one = m.ring.one()
    for i in range(m.rows):
        if m.entries[i][i] != one:
            return False
        if any(m.entries[i][j] for j in range(i)):
            return False
    return True


def is_permutation(m):
    if m.rows != m.cols:
        return False
    one = m.ring.one()
    seen = set()
    for row in m.entries:
        hits = [j for j, p in enumerate(row) if p]
        if len(hits) != 1 or row[hits[0]] != one:
            return False
        seen.add(hits[0])
    return len(seen) == m.rows


def is_left_invertible_form(s, n, P, U1, U2):
    """Structural check that U1 P U2 admits the stacked-triangular left inverse.

    Requires s >= n >= 1, U1 an s x s unimodular upper triangle, P an s x s
    permutation, and U2 an s x n stack of an n x n unimodular upper triangle
    over zero rows.
    """
    if n < 1 or s < n:
        return False
    if U1.rows != s or not is_unimodular_upper(U1):
        return False
    if P.rows != s or P.cols != s or not is_permutation(P):
        return False
    if U2.rows != s or U2.cols != n:
        return False
    if not is_unimodular_upper(PolyMatrix(U2.ring, U2.entries[:n])):
        return False
    return all(not p for row in U2.entries[n:] for p in row)


def replay(basis, spec, seed):
    """Re-draw s, U1, U2, perm exactly as backward_transform does."""
    rng = random.Random(seed)
    ring = basis[0].ring
    n = len(basis)
    s = rng.randint(n, spec.s_max)
    u1 = sample_unimodular_upper(ring, s, spec, rng)
    u2 = sample_unimodular_upper(ring, n, spec, rng)
    perm = sample_permutation(s, rng)
    return s, u1, u2, perm


def stack_u2(ring, u2_block, s):
    zero = ring.zero()
    rows = [list(r) for r in u2_block.entries]
    rows.extend([[zero] * u2_block.cols for _ in range(s - u2_block.rows)])
    return PolyMatrix(ring, rows)


def test_fast_path_matches_full_matrix_product():
    rng = random.Random(17)
    shape = ShapeBasisSpec(field=F7, nvars=3)
    spec = BackwardSpec(s_max=5)
    for seed in range(8):
        G = sample_shape_basis(shape, rng)
        ring = G[0].ring
        sample = backward_transform(G, spec, random.Random(seed))
        s, u1, u2, perm = replay(G, spec, seed)
        assert sample.s == s
        P = permutation_matrix(ring, perm)
        full = matmul(matmul(u1, P), stack_u2(ring, u2, s)).apply(G)
        assert sample.F == full
        assert is_left_invertible_form(s, len(G), P, u1, stack_u2(ring, u2, s))


def reference_apply(matrix, polys):
    """The matrix-vector product as a sum of entry * member through Polynomial.__add__."""
    out = []
    for row in matrix.entries:
        acc = matrix.ring.zero()
        for e, g in zip(row, polys):
            acc = acc + e * g
        out.append(acc)
    return out


@st.composite
def matrix_and_vector(draw):
    field = draw(st.sampled_from([F7, prime_field(31), RATIONALS]))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(field, nvars, draw(st.sampled_from([lex, grevlex]))(nvars))
    if field.modulus is None:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    else:
        coeff = st.integers(0, field.modulus - 1)
    term = st.tuples(*[st.integers(0, 4)] * nvars)
    poly = st.one_of(st.just(ring.zero()), st.lists(st.tuples(term, coeff), max_size=5).map(ring.from_terms))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = PolyMatrix(ring, [[draw(poly) for _ in range(cols)] for _ in range(rows)])
    return matrix, [draw(poly) for _ in range(cols)]


@settings(max_examples=300, deadline=None)
@given(matrix_and_vector())
def test_apply_matches_reference(case):
    matrix, vector = case
    assert matrix.apply(vector) == reference_apply(matrix, vector)


def test_row_count_bounds_and_coverage():
    rng = random.Random(23)
    shape = ShapeBasisSpec(field=F7, nvars=2)
    spec = BackwardSpec(s_max=4)
    G = sample_shape_basis(shape, rng)
    seen = Counter()
    for _ in range(300):
        sample = backward_transform(G, spec, rng)
        assert 2 <= sample.s <= 4
        assert len(sample.F) == sample.s
        seen[sample.s] += 1
    assert set(seen) == {2, 3, 4}


def test_total_degree_bound():
    # each output row is a sum of (entry * entry * basis member) products,
    # so degrees are capped by twice the entry cap plus the basis degree
    rng = random.Random(31)
    shape = ShapeBasisSpec(field=F7, nvars=3, max_degree=5)
    spec = BackwardSpec(s_max=5, max_entry_degree=3)
    for _ in range(40):
        G = sample_shape_basis(shape, rng)
        sample = backward_transform(G, spec, rng)
        for f in sample.F:
            if f:
                assert f.total_degree() <= 2 * 3 + 5


def test_zero_density_yields_padded_permutation():
    rng = random.Random(5)
    shape = ShapeBasisSpec(field=F7, nvars=3)
    spec = BackwardSpec(s_max=6, density=0.0)
    for _ in range(20):
        G = sample_shape_basis(shape, rng)
        sample = backward_transform(G, spec, rng)
        nonzero = [f for f in sample.F if f]
        assert sorted(nonzero, key=str) == sorted(G, key=str)
        assert sum(1 for f in sample.F if not f) == sample.s - len(G)


def test_density_controls_fill_rate():
    rng = random.Random(13)
    ring = PolyRing(F7, 2, lex(2))
    spec = BackwardSpec(s_max=2, density=0.35)
    size = 24
    slots = size * (size - 1) // 2
    filled = 0
    draws = 40
    for _ in range(draws):
        m = sample_unimodular_upper(ring, size, spec, rng)
        assert is_unimodular_upper(m)
        filled += sum(
            1 for i in range(size) for j in range(i + 1, size) if m.entries[i][j]
        )
    rate = filled / (slots * draws)
    assert abs(rate - 0.35) < 0.03


def test_permutation_sampler_is_uniform():
    rng = random.Random(41)
    counts = Counter(tuple(sample_permutation(3, rng)) for _ in range(3000))
    assert set(counts) == set(itertools.permutations(range(3)))
    expected = 3000 / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # 0.999 quantile at 5 dof


def test_entry_sampler_bounds():
    rng = random.Random(3)
    ring = PolyRing(RATIONALS, 2, lex(2))
    spec = BackwardSpec(s_max=2, max_entry_degree=2, max_entry_terms=2)
    for _ in range(200):
        e = sample_entry(ring, spec, rng)
        assert e
        assert e.total_degree() <= 2
        assert 1 <= e.num_terms() <= 2
        for _, c in e.terms:
            assert isinstance(c, Fraction) and c != 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([F7, prime_field(31), RATIONALS]),
    st.sampled_from([lex, grlex, grevlex]),
    st.integers(1, 4),
    st.integers(0, 4),
    st.integers(1, 5),
    st.integers(0, 2**32),
)
def test_sampled_entries_are_canonical(assert_canonical, field, order, nvars, degree, max_terms, seed):
    # the sampler builds its polynomial without from_terms' checks
    ring = PolyRing(field, nvars, order(nvars))
    max_terms = min(max_terms, comb(nvars + degree, nvars))  # no more terms than monomials
    spec = BackwardSpec(s_max=2, max_entry_degree=degree, max_entry_terms=max_terms)
    rng = random.Random(seed)
    for _ in range(20):
        assert_canonical(sample_entry(ring, spec, rng))


def test_rational_rejection_flags_and_retries():
    rng = random.Random(2)
    shape = ShapeBasisSpec(field=RATIONALS, nvars=2)
    G = sample_shape_basis(shape, rng)
    tight = BackwardSpec(s_max=4, coeff_limit=1, max_retries=3)
    sample = backward_transform(G, tight, random.Random(0))
    assert sample.over_range
    assert sample.retries == 3
    unchecked = BackwardSpec(s_max=4, coeff_limit=None)
    sample = backward_transform(G, unchecked, random.Random(0))
    assert not sample.over_range and sample.retries == 0


def test_rational_accept_path_respects_limit():
    rng = random.Random(77)
    shape = ShapeBasisSpec(field=RATIONALS, nvars=2, max_degree=3)
    spec = BackwardSpec(s_max=3, coeff_limit=100)
    for _ in range(30):
        G = sample_shape_basis(shape, rng)
        sample = backward_transform(G, spec, rng)
        if sample.over_range:
            continue
        for f in sample.F:
            for _, c in f.terms:
                assert abs(c.numerator) <= 100 and c.denominator <= 100


def test_transform_preserves_ideal():
    # full density at n=3 makes the forward check explode, so thin the
    # factors there; the acceptance suite covers the heavy corpora
    rng = random.Random(101)
    cases = [
        (2, BackwardSpec(s_max=4), 20),
        (3, BackwardSpec(s_max=5, density=0.6), 10),
    ]
    for nvars, spec, count in cases:
        shape = ShapeBasisSpec(field=F7, nvars=nvars, max_degree=4)
        for _ in range(count):
            G = sample_shape_basis(shape, rng)
            sample = backward_transform(G, spec, rng)
            assert buchberger(sample.F).basis == canon(G)


def test_structural_check_rejects_bad_factors():
    ring = PolyRing(F7, 2, lex(2))
    one, zero, x0 = ring.one(), ring.zero(), ring.parse("x0")
    u1 = identity(ring, 3)
    p = permutation_matrix(ring, [2, 0, 1])
    u2 = PolyMatrix(ring, [[one, x0], [zero, one], [zero, zero]])
    assert is_left_invertible_form(3, 2, p, u1, u2)

    assert not is_left_invertible_form(1, 2, p, u1, u2)  # s < n
    bad_u1 = PolyMatrix(ring, [[one, zero, zero], [x0, one, zero], [zero, zero, one]])
    assert not is_left_invertible_form(3, 2, p, bad_u1, u2)
    not_perm = PolyMatrix(ring, [[one, zero, zero], [one, zero, zero], [zero, zero, one]])
    assert not is_left_invertible_form(3, 2, not_perm, u1, u2)
    dirty_tail = PolyMatrix(ring, [[one, x0], [zero, one], [zero, x0]])
    assert not is_left_invertible_form(3, 2, p, u1, dirty_tail)
    zero_diag = PolyMatrix(ring, [[one, x0], [zero, zero], [zero, zero]])
    assert not is_left_invertible_form(3, 2, p, u1, zero_diag)
    scaled_diag = PolyMatrix(ring, [[one, x0], [zero, ring.parse("2")], [zero, zero]])
    assert not is_left_invertible_form(3, 2, p, u1, scaled_diag)


def test_matrix_primitives():
    ring = PolyRing(F7, 2, lex(2))
    rng = random.Random(4)
    spec = BackwardSpec(s_max=2, max_entry_degree=2)

    def rand_matrix(rows, cols):
        return PolyMatrix(
            ring, [[sample_entry(ring, spec, rng) for _ in range(cols)] for _ in range(rows)]
        )

    a, b, c = rand_matrix(2, 3), rand_matrix(3, 2), rand_matrix(2, 2)
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
    ident = identity(ring, 2)
    assert matmul(ident, c) == c and matmul(c, ident) == c

    v = [ring.parse("x0 + 1"), ring.parse("x1^2"), ring.parse("3")]
    p = permutation_matrix(ring, [2, 0, 1])
    assert p.apply(v) == [v[2], v[0], v[1]]
    assert is_permutation(p) and not is_unimodular_upper(p)

    with pytest.raises(ValueError):
        PolyMatrix(ring, [[ring.one()], [ring.one(), ring.zero()]])
    with pytest.raises(ValueError):
        permutation_matrix(ring, [0, 0, 1])
    with pytest.raises(ValueError):
        matmul(a, c)  # 2x3 times 2x2
    with pytest.raises(ValueError):
        p.apply(v[:2])
    with pytest.raises(ValueError):
        p.apply([f.resorted(grevlex(2)) for f in v])  # ring mismatch


def test_transform_input_validation():
    rng = random.Random(1)
    shape = ShapeBasisSpec(field=F7, nvars=3)
    G = sample_shape_basis(shape, rng)
    with pytest.raises(ValueError):
        backward_transform(G, BackwardSpec(s_max=2), rng)  # s_max below n
    with pytest.raises(ValueError):
        backward_transform([], BackwardSpec(s_max=3), rng)
    with pytest.raises(ValueError):
        BackwardSpec(s_max=3, density=1.5)
    with pytest.raises(ValueError):
        BackwardSpec(s_max=3, max_entry_degree=-1)
