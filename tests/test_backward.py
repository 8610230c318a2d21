"""The scrambling transform F = U1 P U2 G and its structural guarantees."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import GenerationConfig, RATIONALS, backward, buchberger, grevlex, grlex, lex, prime_field
from gbgen.backward import (
    _draw_entry,
    _entry_table,
    _monomials_up_to,
    _sweep,
    backward_transform,
    sample_permutation,
    sample_unimodular_upper,
)
from gbgen.orders import EXPONENT_LIMIT, ExponentLimitError
from gbgen.poly import PolyRing, Polynomial, _from_packed
from gbgen.shapegen import sample_shape_basis

F7 = prime_field(7)


def canon(basis):
    return sorted(basis, key=lambda g: g.ring.order.key(g.leading_monomial))


# -- reference matrix algebra on dense rows: the transform itself never forms a product


def entry_poly(ring, entry):
    """A packed entry, (packed monomial, coefficient) pairs, as a Polynomial built without from_terms' checks."""
    unpack = ring.order.packing.unpack
    return Polynomial(ring, tuple((unpack(v), c) for v, c in entry))


def dense(ring, upper):
    """The dense rows of the unit upper triangle whose entries above the diagonal are ``upper``."""
    one, zero = ring.one(), ring.zero()
    return [[zero] * i + [one] + [entry_poly(ring, e) for e in row] for i, row in enumerate(upper)]


def packed_upper(rows):
    """The entries above the diagonal of dense rows, packed as the transform takes them."""
    return [[packed_terms(e) for e in row[i + 1:]] for i, row in enumerate(rows)]


def packed_terms(f):
    pack = f.ring.order.packing.pack
    return tuple((pack(t), c) for t, c in f.terms)


def identity(ring, size):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def permutation_matrix(ring, perm):
    """Row i carries a 1 in column perm[i]: (P v)[i] == v[perm[i]]."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm!r}")
    one, zero = ring.one(), ring.zero()
    return [[one if j == p else zero for j in range(len(perm))] for p in perm]


def matmul(a, b):
    """The full matrix product a b."""
    ring = a[0][0].ring
    if b[0][0].ring != ring or len(a[0]) != len(b):
        raise ValueError("shape or ring mismatch")
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = ring.zero()
            for k in range(len(b)):
                x, y = a[i][k], b[k][j]
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def is_unimodular_upper(m):
    if any(len(row) != len(m) for row in m):
        return False
    for i, row in enumerate(m):
        if row[i] != row[i].ring.one():
            return False
        if any(row[j] for j in range(i)):
            return False
    return True


def is_permutation(m):
    if any(len(row) != len(m) for row in m):
        return False
    seen = set()
    for row in m:
        hits = [j for j, p in enumerate(row) if p]
        if len(hits) != 1 or row[hits[0]] != row[hits[0]].ring.one():
            return False
        seen.add(hits[0])
    return len(seen) == len(m)


def is_left_invertible_form(s, n, P, U1, U2):
    """Structural check that U1 P U2 admits the stacked-triangular left inverse.

    Requires s >= n >= 1, U1 an s x s unimodular upper triangle, P an s x s
    permutation, and U2 an s x n stack of an n x n unimodular upper triangle
    over zero rows.
    """
    if n < 1 or s < n:
        return False
    if len(U1) != s or not is_unimodular_upper(U1):
        return False
    if len(P) != s or not is_permutation(P):
        return False
    if len(U2) != s or any(len(row) != n for row in U2):
        return False
    if not is_unimodular_upper(U2[:n]):
        return False
    return all(not p for row in U2[n:] for p in row)


def replay(basis, config, seed):
    """Re-draw s, U1, U2, perm exactly as backward_transform does."""
    rng = random.Random(seed)
    ring = basis[0].ring
    n = len(basis)
    s = rng.randint(n, config.effective_s_max)
    u1 = dense(ring, sample_unimodular_upper(ring, s, config, rng))
    u2 = dense(ring, sample_unimodular_upper(ring, n, config, rng))
    perm = sample_permutation(s, rng)
    return s, u1, u2, perm


def stack_u2(ring, u2_block, s):
    zero = ring.zero()
    return [list(r) for r in u2_block] + [[zero] * len(u2_block) for _ in range(s - len(u2_block))]


def reference_apply(matrix, polys):
    """The matrix-vector product as a sum of entry * member through Polynomial.__add__."""
    out = []
    for row in matrix:
        acc = polys[0].ring.zero()
        for e, g in zip(row, polys):
            acc = acc + e * g
        out.append(acc)
    return out


def test_fast_path_matches_full_matrix_product():
    rng = random.Random(17)
    config = GenerationConfig(field=F7, nvars=3, num_samples=0, s_max=5)
    for seed in range(8):
        G = sample_shape_basis(config, rng)
        ring = G[0].ring
        sample = backward_transform(G, config, random.Random(seed))
        s, u1, u2, perm = replay(G, config, seed)
        assert sample.s == s
        P = permutation_matrix(ring, perm)
        full = reference_apply(matmul(matmul(u1, P), stack_u2(ring, u2, s)), G)
        assert sample.F == full
        assert is_left_invertible_form(s, len(G), P, u1, stack_u2(ring, u2, s))


@st.composite
def upper_and_vector(draw):
    field = draw(st.sampled_from([F7, prime_field(31), RATIONALS]))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(field, nvars, draw(st.sampled_from([lex, grevlex]))(nvars))
    if field.modulus is None:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    else:
        coeff = st.integers(0, field.modulus - 1)
    term = st.tuples(*[st.integers(0, 4)] * nvars)
    poly = st.one_of(st.just(ring.zero()), st.lists(st.tuples(term, coeff), max_size=5).map(ring.from_terms))
    size = draw(st.integers(1, 5))
    one, zero = ring.one(), ring.zero()
    rows = [[zero] * i + [one] + [draw(poly) for _ in range(i + 1, size)] for i in range(size)]
    return rows, [draw(poly) for _ in range(size)]


@settings(max_examples=300, deadline=None)
@given(upper_and_vector())
def test_upper_apply_matches_reference(case):
    rows, vector = case
    assert is_unimodular_upper(rows)
    ring = rows[0][0].ring
    members = [dict(packed_terms(f)) for f in vector]
    swept = [_from_packed(ring, row) for row in _sweep(packed_upper(rows), members, ring.order.packing)]
    assert swept[::-1] == reference_apply(rows, vector)


def test_row_count_bounds_and_coverage():
    rng = random.Random(23)
    config = GenerationConfig(field=F7, nvars=2, num_samples=0, s_max=4)
    G = sample_shape_basis(config, rng)
    seen = Counter()
    for _ in range(300):
        sample = backward_transform(G, config, rng)
        assert 2 <= sample.s <= 4
        assert len(sample.F) == sample.s
        seen[sample.s] += 1
    assert set(seen) == {2, 3, 4}


def test_total_degree_bound():
    # each output row is a sum of (entry * entry * basis member) products,
    # so degrees are capped by twice the entry cap plus the basis degree
    rng = random.Random(31)
    config = GenerationConfig(field=F7, nvars=3, num_samples=0, max_degree=5, s_max=5, max_entry_degree=3)
    for _ in range(40):
        G = sample_shape_basis(config, rng)
        sample = backward_transform(G, config, rng)
        for f in sample.F:
            if f:
                assert f.total_degree() <= 2 * 3 + 5


def test_zero_density_yields_padded_permutation():
    rng = random.Random(5)
    config = GenerationConfig(field=F7, nvars=3, num_samples=0, s_max=6, density=0.0)
    for _ in range(20):
        G = sample_shape_basis(config, rng)
        sample = backward_transform(G, config, rng)
        nonzero = [f for f in sample.F if f]
        assert sorted(nonzero, key=str) == sorted(G, key=str)
        assert sum(1 for f in sample.F if not f) == sample.s - len(G)


def test_density_controls_fill_rate():
    rng = random.Random(13)
    ring = PolyRing(F7, 2, lex(2))
    config = GenerationConfig(field=F7, nvars=2, num_samples=0, density=0.35)
    size = 24
    slots = size * (size - 1) // 2
    filled = 0
    draws = 40
    for _ in range(draws):
        upper = sample_unimodular_upper(ring, size, config, rng)
        assert [len(row) for row in upper] == list(range(size - 1, -1, -1))
        m = dense(ring, upper)
        assert is_unimodular_upper(m)
        filled += sum(
            1 for i in range(size) for j in range(i + 1, size) if m[i][j]
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
    table = _entry_table(ring.order, 2)
    seen = Counter()
    for _ in range(200):
        e = entry_poly(ring, _draw_entry(ring, table, rng))
        assert e
        assert e.total_degree() <= 2
        assert 1 <= e.num_terms() <= backward.ENTRY_MAX_TERMS
        seen[e.num_terms()] += 1
        for _, c in e.terms:
            assert isinstance(c, Fraction) and c != 0
    assert set(seen) == set(range(1, backward.ENTRY_MAX_TERMS + 1))


def test_monomials_up_to_matches_the_box_filter():
    # the entry sampler draws from this tuple, so its content and order are part of every dataset
    for nvars in range(1, 5):
        for degree in range(5):
            box = sorted(t for t in itertools.product(range(degree + 1), repeat=nvars) if sum(t) <= degree)
            assert _monomials_up_to(nvars, degree) == tuple(box)
    assert len(_monomials_up_to(12, 3)) == comb(15, 3)


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
    # the sampler builds its polynomial without from_terms' checks; the term
    # cap is patched, since a low degree has fewer monomials than the constant
    ring = PolyRing(field, nvars, order(nvars))
    max_terms = min(max_terms, comb(nvars + degree, nvars))  # no more terms than monomials
    table = _entry_table(ring.order, degree)
    rng = random.Random(seed)
    with mock.patch.object(backward, "ENTRY_MAX_TERMS", max_terms):
        for _ in range(20):
            assert_canonical(entry_poly(ring, _draw_entry(ring, table, rng)))


def test_rational_rejection_flags_and_retries(monkeypatch):
    rng = random.Random(2)
    config = GenerationConfig(field=RATIONALS, nvars=2, num_samples=0, s_max=4)
    G = sample_shape_basis(config, rng)
    monkeypatch.setattr(backward, "COEFF_LIMIT", 1)
    monkeypatch.setattr(backward, "MAX_RETRIES", 3)
    sample = backward_transform(G, config, random.Random(0))
    assert sample.over_range
    assert sample.retries == 3


def reference_transform(basis, config, seed):
    """backward_transform by the full matrix product: the same draws, every row of each F checked for range."""
    rng = random.Random(seed)
    ring = basis[0].ring
    n = len(basis)
    s = rng.randint(n, config.effective_s_max)
    limit = backward.COEFF_LIMIT
    for retries in itertools.count():
        u1 = dense(ring, sample_unimodular_upper(ring, s, config, rng))
        u2 = dense(ring, sample_unimodular_upper(ring, n, config, rng))
        P = permutation_matrix(ring, sample_permutation(s, rng))
        F = reference_apply(matmul(matmul(u1, P), stack_u2(ring, u2, s)), basis)
        in_range = all(abs(c.numerator) <= limit and c.denominator <= limit for f in F for _, c in f.terms)
        if in_range or retries == backward.MAX_RETRIES:
            return F, s, not in_range, retries


@pytest.mark.parametrize("max_retries", [backward.MAX_RETRIES, 1])
def test_rational_early_stop_matches_the_full_check(monkeypatch, max_retries):
    # the sweep stops at the first row of F out of range; the redraws, the
    # kept F, its flag and the retry count are those of checking every row
    monkeypatch.setattr(backward, "MAX_RETRIES", max_retries)
    rng = random.Random(19)
    config = GenerationConfig(field=RATIONALS, nvars=3, num_samples=0, max_degree=3, s_max=4)
    retried = flagged = 0
    for seed in range(12):
        G = sample_shape_basis(config, rng)
        sample = backward_transform(G, config, random.Random(seed))
        F, s, over_range, retries = reference_transform(G, config, seed)
        assert (sample.F, sample.s, sample.over_range, sample.retries) == (F, s, over_range, retries)
        retried += retries > 0
        flagged += over_range
    assert retried and (flagged or max_retries > 1)


@pytest.mark.parametrize("order", [lex, grevlex])
def test_products_past_the_packed_limit_raise(order):
    # a config bounds the degrees of its own bases; a foreign basis at the
    # limit passes it at its first nonconstant product, which raises, not wraps
    ring = PolyRing(F7, 2, order(2))
    # under lex each exponent is at the limit, under grevlex the total degree
    top = f"x0^{EXPONENT_LIMIT}*x1^{EXPONENT_LIMIT}" if order is lex else f"x0^{EXPONENT_LIMIT}"
    G = [ring.parse(f"{top} + 1"), ring.parse(top)]
    config = GenerationConfig(field=F7, nvars=2, num_samples=0, max_degree=1, max_entry_degree=1, s_max=4)
    for seed in range(10):
        with pytest.raises(ExponentLimitError, match=f"past the limit {EXPONENT_LIMIT} of a packed monomial"):
            backward_transform(G, config, random.Random(seed))


def test_rational_accept_path_respects_limit():
    rng = random.Random(77)
    config = GenerationConfig(field=RATIONALS, nvars=2, num_samples=0, max_degree=3, s_max=3)
    limit = backward.COEFF_LIMIT
    for _ in range(30):
        G = sample_shape_basis(config, rng)
        sample = backward_transform(G, config, rng)
        if sample.over_range:
            continue
        for f in sample.F:
            for _, c in f.terms:
                assert abs(c.numerator) <= limit and c.denominator <= limit


def test_transform_preserves_ideal():
    # full density at n=3 makes the forward check explode, so thin the
    # factors there; the acceptance suite covers the heavy corpora
    rng = random.Random(101)
    cases = [
        (2, {"s_max": 4}, 20),
        (3, {"s_max": 5, "density": 0.6}, 10),
    ]
    for nvars, knobs, count in cases:
        config = GenerationConfig(field=F7, nvars=nvars, num_samples=0, max_degree=4, **knobs)
        for _ in range(count):
            G = sample_shape_basis(config, rng)
            sample = backward_transform(G, config, rng)
            assert buchberger(sample.F).basis == canon(G)


def test_structural_check_rejects_bad_factors():
    ring = PolyRing(F7, 2, lex(2))
    one, zero, x0 = ring.one(), ring.zero(), ring.parse("x0")
    u1 = identity(ring, 3)
    p = permutation_matrix(ring, [2, 0, 1])
    u2 = [[one, x0], [zero, one], [zero, zero]]
    assert is_left_invertible_form(3, 2, p, u1, u2)

    assert not is_left_invertible_form(1, 2, p, u1, u2)  # s < n
    bad_u1 = [[one, zero, zero], [x0, one, zero], [zero, zero, one]]
    assert not is_left_invertible_form(3, 2, p, bad_u1, u2)
    not_perm = [[one, zero, zero], [one, zero, zero], [zero, zero, one]]
    assert not is_left_invertible_form(3, 2, not_perm, u1, u2)
    dirty_tail = [[one, x0], [zero, one], [zero, x0]]
    assert not is_left_invertible_form(3, 2, p, u1, dirty_tail)
    zero_diag = [[one, x0], [zero, zero], [zero, zero]]
    assert not is_left_invertible_form(3, 2, p, u1, zero_diag)
    scaled_diag = [[one, x0], [zero, ring.parse("2")], [zero, zero]]
    assert not is_left_invertible_form(3, 2, p, u1, scaled_diag)


def test_matrix_primitives():
    ring = PolyRing(F7, 2, lex(2))
    rng = random.Random(4)
    table = _entry_table(ring.order, 2)

    def rand_matrix(rows, cols):
        return [[entry_poly(ring, _draw_entry(ring, table, rng)) for _ in range(cols)] for _ in range(rows)]

    a, b, c = rand_matrix(2, 3), rand_matrix(3, 2), rand_matrix(2, 2)
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
    ident = identity(ring, 2)
    assert matmul(ident, c) == c and matmul(c, ident) == c

    v = [ring.parse("x0 + 1"), ring.parse("x1^2"), ring.parse("3")]
    p = permutation_matrix(ring, [2, 0, 1])
    assert reference_apply(p, v) == [v[2], v[0], v[1]]
    assert is_permutation(p) and not is_unimodular_upper(p)

    with pytest.raises(ValueError):
        permutation_matrix(ring, [0, 0, 1])
    with pytest.raises(ValueError):
        matmul(a, c)  # 2x3 times 2x2


def test_transform_input_validation():
    rng = random.Random(1)
    G = sample_shape_basis(GenerationConfig(field=F7, nvars=3, num_samples=0), rng)
    # the config's own checks are test_dataset's; the transform checks the basis it is given
    with pytest.raises(ValueError, match="^s_max 2 below the basis size 3$"):
        backward_transform(G, GenerationConfig(field=F7, nvars=2, num_samples=0, s_max=2), rng)
    with pytest.raises(ValueError, match="nonempty"):
        backward_transform([], GenerationConfig(field=F7, nvars=3, num_samples=0), rng)
