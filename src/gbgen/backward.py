"""Turning a known basis into a scrambled generating set of the same ideal.

The transform multiplies the basis vector G (length n) by

    F = U1 * P * U2 * G

where U2 stacks an n x n unimodular upper-triangular block over zero rows,
P permutes the s coordinates and U1 is s x s unimodular upper-triangular.
Unimodular here means ones on the diagonal, so both triangular factors are
invertible over the polynomial ring and A = U1*P*U2 has the explicit left
inverse [U2block^-1 | 0] P^T U1^-1.  That guarantees <F> = <G> while F
itself is larger, denser and (almost always) no Groebner basis at all.

Matrix entries are polynomials of bounded total degree, present with
probability ``density``; draw order is row-major over the strict upper
triangle (s, then U1, then the U2 block, then P), each entry drawing term
count, then exponents, then coefficients.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .poly import Polynomial, PolyRing, _combination, _descending
from .shapegen import sample_nonzero_coeff

__all__ = [
    "BackwardSpec",
    "PolyMatrix",
    "BackwardSample",
    "sample_entry",
    "sample_unimodular_upper",
    "sample_permutation",
    "backward_transform",
]


@dataclass(frozen=True)
class BackwardSpec:
    """Knobs for the scrambling transform."""

    s_max: int  # row count upper bound; s is uniform on [n, s_max]
    max_entry_degree: int = 3  # total-degree cap for sampled entries
    density: float = 1.0  # probability an upper-triangular slot is filled
    max_entry_terms: int = 2  # entry term counts are uniform on [1, this]
    num_range: tuple[int, int] = (-5, 5)  # rational numerator bounds for entries
    den_range: tuple[int, int] = (1, 5)
    coeff_limit: int | None = 100  # reject rational outputs with |num| or den above this
    max_retries: int = 50  # rejection budget before giving up with a flag

    def __post_init__(self):
        if self.s_max < 1:
            raise ValueError("s_max must be at least 1")
        if self.max_entry_degree < 0:
            raise ValueError("max_entry_degree must be non-negative")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        if self.max_entry_terms < 1:
            raise ValueError("max_entry_terms must be at least 1")


class PolyMatrix:
    """A dense matrix of polynomials over one ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for p in row:
                if not isinstance(p, Polynomial) or p.ring is not ring and p.ring != ring:
                    raise ValueError("entries must be polynomials over the matrix ring")

    def apply(self, polys) -> list:
        """Matrix-vector product against a list of polynomials.

        Each output row accumulates all of its entry-times-member products
        into one dict and is sorted once.
        """
        polys = list(polys)
        if len(polys) != self.cols:
            raise ValueError(f"expected {self.cols} polynomials, got {len(polys)}")
        ring = self.ring
        if any(g.ring is not ring and g.ring != ring for g in polys):
            raise ValueError("polynomials must share the matrix ring")
        return [
            Polynomial(ring, _combination(ring, [(c, t, g.terms) for e, g in zip(row, polys) for t, c in e.terms]))
            for row in self.entries
        ]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def __repr__(self):
        return f"<PolyMatrix {self.rows}x{self.cols} over {self.ring}>"


@lru_cache(maxsize=None)
def _monomials_up_to(nvars: int, max_degree: int) -> tuple:
    """All exponent vectors with total degree <= max_degree, ascending.

    Each vector extends a shorter one within the degree left, so the cost is
    the C(nvars + max_degree, max_degree) vectors kept, not the whole box;
    extending sorted prefixes by increasing exponents keeps the list sorted.
    """
    out = [()]
    for _ in range(nvars):
        out = [prefix + (e,) for prefix in out for e in range(max_degree - sum(prefix) + 1)]
    return tuple(out)


def sample_entry(ring: PolyRing, spec: BackwardSpec, rng: random.Random) -> Polynomial:
    """One nonzero matrix entry: bounded degree, 1..max_entry_terms terms.

    The draws are canonical as they stand (distinct monomials, nonzero
    coefficients in range, descending lex order), so the entry is built
    without ``from_terms``; ``_descending`` re-sorts for a non-lex ring.
    """
    count = rng.randint(1, spec.max_entry_terms)
    terms = rng.sample(_monomials_up_to(ring.nvars, spec.max_entry_degree), count)
    pairs = [
        (t, sample_nonzero_coeff(ring.field, spec.num_range, spec.den_range, rng))
        for t in sorted(terms, reverse=True)
    ]
    return Polynomial(ring, _descending(ring, pairs))


def sample_unimodular_upper(ring: PolyRing, size: int, spec: BackwardSpec, rng: random.Random) -> PolyMatrix:
    """Unit diagonal, zero below, entries above present with probability ``spec.density``."""
    one, zero = ring.one(), ring.zero()
    entries = []
    for i in range(size):
        row = []
        for j in range(size):
            if j < i:
                row.append(zero)
            elif j == i:
                row.append(one)
            elif rng.random() < spec.density:
                row.append(sample_entry(ring, spec, rng))
            else:
                row.append(zero)
        entries.append(row)
    return PolyMatrix(ring, entries)


def sample_permutation(size: int, rng: random.Random) -> list:
    """A uniform permutation of range(size) (Fisher-Yates via rng.shuffle)."""
    perm = list(range(size))
    rng.shuffle(perm)
    return perm


@dataclass
class BackwardSample:
    """One scrambled system; G appears as F = U1 P U2 G."""

    F: list
    s: int
    over_range: bool = False
    retries: int = 0


def _coeffs_in_range(polys, limit: int) -> bool:
    for f in polys:
        for _, c in f.terms:
            if abs(c.numerator) > limit or c.denominator > limit:
                return False
    return True


def backward_transform(basis, spec: BackwardSpec, rng: random.Random) -> BackwardSample:
    """Scramble ``basis`` into an equivalent generating set of s polynomials.

    s is uniform on [n, s_max].  Over the rationals, output whose
    coefficients exceed ``coeff_limit`` is rejected and the three matrices
    are redrawn (same s) up to ``max_retries`` times; if the budget runs out
    the last draw is returned flagged ``over_range``.
    """
    basis = list(basis)
    n = len(basis)
    if n == 0:
        raise ValueError("need a nonempty basis")
    ring = basis[0].ring
    for g in basis:
        if g.ring != ring:
            raise ValueError("basis members must share one ring")
    if spec.s_max < n:
        raise ValueError(f"s_max {spec.s_max} below the basis size {n}")

    s = rng.randint(n, spec.s_max)
    check_range = ring.field.modulus is None and spec.coeff_limit is not None
    retries = 0
    while True:
        u1 = sample_unimodular_upper(ring, s, spec, rng)
        u2 = sample_unimodular_upper(ring, n, spec, rng)
        perm = sample_permutation(s, rng)

        padded = u2.apply(basis) + [ring.zero()] * (s - n)
        permuted = [padded[perm[i]] for i in range(s)]
        F = u1.apply(permuted)

        if not check_range or _coeffs_in_range(F, spec.coeff_limit):
            return BackwardSample(F, s, over_range=False, retries=retries)
        if retries >= spec.max_retries:
            return BackwardSample(F, s, over_range=True, retries=retries)
        retries += 1

