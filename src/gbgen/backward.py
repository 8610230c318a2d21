"""Turning a known basis into a scrambled generating set of the same ideal.

The transform multiplies the basis vector G (length n) by

    F = U1 * P * U2 * G

where U2 stacks an n x n unimodular upper-triangular block over zero rows,
P permutes the s coordinates and U1 is s x s unimodular upper-triangular.
Unimodular here means ones on the diagonal, so both triangular factors are
invertible over the polynomial ring and A = U1*P*U2 has the explicit left
inverse [U2block^-1 | 0] P^T U1^-1.  That guarantees <F> = <G> while F
itself is larger, denser and (almost always) no Groebner basis at all.

The product is two triangular sweeps, F = U1 * (P * (U2 * G)): row i of a
unit upper triangle times v is v[i] plus the entries right of the diagonal
times the later members, so no matrix product is formed and F's rows come
one at a time.  The zero rows of U2 pad U2 * G with zero polynomials.

Matrix entries are polynomials of bounded total degree, present with
probability ``density``; draw order is row-major over the strict upper
triangle (s, then U1, then the U2 block, then P), each slot drawing its
density coin and then, if filled, term count, exponents and coefficients.
The degree bound, density and s_max come from a ``dataset.GenerationConfig``,
which checks them; the samplers take it untyped, since ``dataset`` imports
this module.  The entry term cap and the rejection limits over Q are the
constants below, fixed for every dataset.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .poly import Polynomial, PolyRing, _combination, _descending
from .shapegen import sample_nonzero_coeff

__all__ = [
    "BackwardSample",
    "sample_entry",
    "sample_unimodular_upper",
    "sample_permutation",
    "backward_transform",
]

ENTRY_MAX_TERMS = 2  # a transform entry's term count is uniform on [1, this]
COEFF_LIMIT = 100  # over Q, redraw a transform whose F has a |num| or den above this
MAX_RETRIES = 50  # redraws before F is kept, flagged over_range


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


def sample_entry(ring: PolyRing, config, rng: random.Random) -> Polynomial:
    """One nonzero matrix entry over ``ring``: total degree <= max_entry_degree, 1..ENTRY_MAX_TERMS terms.

    The term count is drawn first and then capped at the number of
    monomials in reach, so an entry of degree 0 is one constant.

    The draws are canonical as they stand (distinct monomials, nonzero
    coefficients in range, descending lex order), so the entry is built
    without ``from_terms``; ``_descending`` re-sorts for a non-lex ring.
    """
    count = rng.randint(1, ENTRY_MAX_TERMS)
    monomials = _monomials_up_to(ring.nvars, config.max_entry_degree)
    terms = rng.sample(monomials, min(count, len(monomials)))
    pairs = [(t, sample_nonzero_coeff(ring.field, rng)) for t in sorted(terms, reverse=True)]
    return Polynomial(ring, _descending(ring, pairs))


def sample_unimodular_upper(ring: PolyRing, size: int, config, rng: random.Random) -> list:
    """The dense rows of a unit upper triangle; each entry above it is present with probability ``config.density``."""
    one, zero = ring.one(), ring.zero()
    rows = []
    for i in range(size):
        row = [zero] * i + [one]
        for _ in range(i + 1, size):
            row.append(sample_entry(ring, config, rng) if rng.random() < config.density else zero)
        rows.append(row)
    return rows


def _upper_apply(rows, polys) -> list:
    """U * polys for a unit upper triangle U given as its dense rows.

    Row i is polys[i] plus each entry right of the diagonal times its
    member, all in one combination sorted once; the unit diagonal and the
    zeros are never multiplied.
    """
    ring = polys[0].ring
    return [
        Polynomial(ring, _combination(ring, [(1, None, polys[i].terms)] + [
            (c, t, g.terms) for e, g in zip(row[i + 1:], polys[i + 1:]) for t, c in e.terms
        ]))
        for i, row in enumerate(rows)
    ]


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


def _coeffs_in_range(polys) -> bool:
    for f in polys:
        for _, c in f.terms:
            if abs(c.numerator) > COEFF_LIMIT or c.denominator > COEFF_LIMIT:
                return False
    return True


def backward_transform(basis, config, rng: random.Random) -> BackwardSample:
    """Scramble ``basis`` into an equivalent generating set of s polynomials.

    s is uniform on [n, config.effective_s_max].  Over the rationals, output
    whose coefficients exceed ``COEFF_LIMIT`` is rejected and the three
    matrices are redrawn (same s) up to ``MAX_RETRIES`` times; if the budget
    runs out the last draw is returned flagged ``over_range``.
    """
    basis = list(basis)
    n = len(basis)
    if n == 0:
        raise ValueError("need a nonempty basis")
    ring = basis[0].ring
    for g in basis:
        if g.ring != ring:
            raise ValueError("basis members must share one ring")
    s_max = config.effective_s_max
    if s_max < n:
        raise ValueError(f"s_max {s_max} below the basis size {n}")

    s = rng.randint(n, s_max)
    check_range = ring.field.modulus is None
    retries = 0
    while True:
        u1 = sample_unimodular_upper(ring, s, config, rng)
        u2 = sample_unimodular_upper(ring, n, config, rng)
        perm = sample_permutation(s, rng)

        padded = _upper_apply(u2, basis) + [ring.zero()] * (s - n)
        F = _upper_apply(u1, [padded[p] for p in perm])

        if not check_range or _coeffs_in_range(F):
            return BackwardSample(F, s, over_range=False, retries=retries)
        if retries >= MAX_RETRIES:
            return BackwardSample(F, s, over_range=True, retries=retries)
        retries += 1

