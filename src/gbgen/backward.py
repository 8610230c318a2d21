"""Turning a known basis into a scrambled generating set of the same ideal.

The transform multiplies the basis vector G (length n) by

    F = U1 * P * U2 * G

where U2 stacks an n x n unimodular upper-triangular block over zero rows,
P permutes the s coordinates and U1 is s x s unimodular upper-triangular.
Unimodular here means ones on the diagonal, so both triangular factors are
invertible over the polynomial ring and A = U1*P*U2 has the explicit left
inverse [U2block^-1 | 0] P^T U1^-1.  That guarantees <F> = <G> while F
itself is larger, denser and (almost always) no Groebner basis at all.

The product is two triangular sweeps, F = U1 * (P * (U2 * G)), on the
packed monomials of G's ring (see :class:`gbgen.orders.Packing`).  Row i
of a unit upper triangle times v is v[i] plus the entries right of the
diagonal times the later members, so no matrix product is formed, and each
row is one dict from packed monomial to raw coefficient, where a product
of monomials is one addition.  G is packed once; the rows of U2 * G are
neither reduced nor sorted, and each row of F becomes a ``Polynomial``
through ``poly._from_packed``, which reduces it mod p once (over Q drops
its zeros), sorts it once by the packed key and unpacks each term once.
Row i reads only the members from i on, so a sweep runs from the last row
up, and over Q the second one stops at the first row of F out of range.
The zero rows of U2 pad U2 * G with empty rows.

Matrix entries are polynomials of bounded total degree, present with
probability ``density``; draw order is row-major over the strict upper
triangle (s, then U1, then the U2 block, then P), each slot drawing its
density coin and then, if filled, term count, exponents and coefficients.
An entry is a tuple of (packed monomial, coefficient) pairs in ring order,
and a zero entry the empty tuple.  The degree bound, density and s_max
come from a ``dataset.GenerationConfig``, which checks them; the samplers
take it untyped, since ``dataset`` imports this module.  The entry term
cap and the rejection limits over Q are the constants below, fixed for
every dataset.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .orders import Packing, TermOrder
from .poly import PolyRing, _from_packed
from .shapegen import sample_nonzero_coeff

__all__ = [
    "BackwardSample",
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


@lru_cache(maxsize=None)
def _entry_table(order: TermOrder, max_degree: int) -> tuple:
    """(term, packed monomial) for each term of :func:`_monomials_up_to`, in its order."""
    pack = order.packing.pack
    return tuple((t, pack(t)) for t in _monomials_up_to(order.arity, max_degree))


def _draw_entry(ring: PolyRing, table: tuple, rng: random.Random) -> tuple:
    """One nonzero matrix entry over ``ring``, drawn from ``table``: 1..ENTRY_MAX_TERMS terms.

    The term count is drawn first and then capped at the number of
    monomials in the table, so an entry of degree 0 is one constant.  The
    monomials are distinct and their coefficients are drawn in descending
    lex order; the entry is their (packed monomial, coefficient) pairs,
    descending in the ring order.
    """
    count = rng.randint(1, ENTRY_MAX_TERMS)
    drawn = rng.sample(table, min(count, len(table)))
    drawn.sort(reverse=True)  # the coefficients are drawn in descending lex order
    field = ring.field
    entry = [(v, sample_nonzero_coeff(field, rng)) for _, v in drawn]
    packing = ring.order.packing
    if packing.graded:
        low = packing.low
        entry.sort(key=lambda term: term[0] ^ low, reverse=True)
    return tuple(entry)


def sample_unimodular_upper(ring: PolyRing, size: int, config, rng: random.Random) -> list:
    """The entries above the diagonal of a unit upper triangle: row i holds those of columns i+1..size-1.

    Each is present with probability ``config.density`` and drawn by
    :func:`_draw_entry` over the monomials of total degree at most
    ``config.max_entry_degree``; a zero entry is the empty tuple.
    """
    table = _entry_table(ring.order, config.max_entry_degree)
    density = config.density
    return [
        [_draw_entry(ring, table, rng) if rng.random() < density else () for _ in range(i + 1, size)]
        for i in range(size)
    ]


def _sweep(upper: list, members: list, packing: Packing):
    """The rows of U * members for the unit upper triangle U with entries ``upper``, from the last row up.

    ``members`` are dicts from packed monomial to raw coefficient, and so is
    each row: member i plus each entry right of the diagonal times its
    member, accumulated in one dict with no reduction and no sort.  The unit
    diagonal and the zero entries are never multiplied, and row i reads
    members i.. only.  A product with a field past the packed limit raises
    ExponentLimitError.
    """
    guard = packing.guard
    for i in reversed(range(len(members))):
        acc = dict(members[i])
        get = acc.get
        for entry, member in zip(upper[i], members[i + 1:]):
            for t, c in entry:
                for k, x in member.items():
                    k += t
                    prev = get(k)
                    if prev is None:
                        if k & guard:
                            raise packing.overflow(k)
                        acc[k] = c * x
                    else:
                        acc[k] = prev + c * x
        yield acc


def _in_range(row: dict) -> bool:
    """Whether every coefficient of a rational row has |num| and den at most COEFF_LIMIT."""
    return all(abs(c.numerator) <= COEFF_LIMIT and c.denominator <= COEFF_LIMIT for c in row.values())


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


def backward_transform(basis, config, rng: random.Random) -> BackwardSample:
    """Scramble ``basis`` into an equivalent generating set of s polynomials.

    s is uniform on [n, config.effective_s_max].  Over the rationals, output
    whose coefficients exceed ``COEFF_LIMIT`` is rejected at its first row
    out of range and the three matrices are redrawn (same s) up to
    ``MAX_RETRIES`` times; if the budget runs out the last draw is returned
    flagged ``over_range``.  A product past the packed limit, which only a
    basis of higher degree than a config allows can form, raises
    ExponentLimitError.
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
    packing = ring.order.packing
    pack = packing.pack
    members = [{pack(t): c for t, c in g.terms} for g in basis]
    check_range = ring.field.modulus is None
    retries = 0
    while True:
        u1 = sample_unimodular_upper(ring, s, config, rng)
        u2 = sample_unimodular_upper(ring, n, config, rng)
        perm = sample_permutation(s, rng)

        padded = [*_sweep(u2, members, packing)][::-1] + [{}] * (s - n)
        F = []
        over_range = False
        for row in _sweep(u1, [padded[p] for p in perm], packing):
            if check_range and not _in_range(row):
                if retries < MAX_RETRIES:
                    break
                over_range = True
            F.append(_from_packed(ring, row))
        else:
            F.reverse()
            return BackwardSample(F, s, over_range=over_range, retries=retries)
        retries += 1
