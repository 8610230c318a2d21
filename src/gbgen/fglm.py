"""Order conversion for zero-dimensional ideals (the FGLM walk).

Given a reduced Groebner basis under one order, the quotient algebra is a
finite-dimensional vector space spanned by the standard monomials (those
outside the leading-term staircase).  The walk visits the monomials of the
target order from small to large and clears each one's normal form against
the rows kept so far.  A normal form that clears to zero is a linear
dependency and yields one member of the target-order reduced basis; any
other becomes a new row.  All linear algebra is exact.

The staircase, the walk's heap, the normal forms and the rows all hold the
kernel's packed monomials (see :class:`gbgen.orders.Packing`), and a new
member is unpacked by ``poly._from_packed``.  A standard monomial of degree
d has d + 1 standard divisors, so the cap keeps all they meet under the limit.
"""

import heapq
from dataclasses import dataclass

from .orders import Term, TermOrder
from .poly import _from_packed, _packed, _reduce

__all__ = ["QuotientBasis", "DimensionError", "quotient_basis", "fglm"]

DIMENSION_CAP = 10_000  # standard monomials past which quotient_basis and fglm raise


class DimensionError(ValueError):
    """The quotient algebra is not finite-dimensional (or exceeds the cap)."""


@dataclass
class QuotientBasis:
    """Standard monomials of a zero-dimensional ideal, ascending in the source order."""

    monomials: list[Term]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def quotient_basis(basis) -> QuotientBasis:
    """Enumerate monomials not divisible by any leading term of ``basis``.

    Breadth-first from 1: the standard monomials form an order ideal under
    divisibility, so multiplying known members by single variables reaches
    all of them.  Raises DimensionError past ``DIMENSION_CAP`` members,
    which is the signature of a non-zero-dimensional input.
    """
    gens = [g for g in basis if g]
    if not gens:
        raise ValueError("need at least one nonzero polynomial")
    packing = gens[0].ring.order.packing
    standard = _staircase(gens, DIMENSION_CAP)
    standard.sort(key=packing.key)
    return QuotientBasis(list(map(packing.unpack, standard)))


def _staircase(gens, cap: int) -> list[int]:
    """The packed standard monomials of nonzero ``gens`` in the order the walk finds them."""
    packing = gens[0].ring.order.packing
    guard, weights = packing.guard, packing.weights
    heads = [packing.pack(g.leading_monomial) for g in gens]
    if 0 in heads:
        return []  # a constant head: the ideal is the whole ring
    seen = {0}
    queue = [0]
    standard = []
    while queue:
        v = queue.pop()
        standard.append(v)
        if len(standard) > cap:
            raise DimensionError(
                f"more than {cap} standard monomials; the ideal is likely not zero-dimensional"
            )
        for weight in weights:
            nxt = v + weight
            if nxt in seen:
                continue
            seen.add(nxt)
            if all((nxt - h) & guard for h in heads):
                queue.append(nxt)
    return standard


def fglm(basis, target: TermOrder) -> list:
    """Convert a reduced zero-dimensional basis to ``target`` order.

    Returns the reduced Groebner basis of the same ideal under ``target``,
    ascending by leading term, the order in which the walk finds them.  Every
    target, the source order too, takes the walk; the input is assumed reduced.
    A non-zero-dimensional input raises DimensionError in the staircase
    enumeration, before the walk, past ``DIMENSION_CAP`` standard monomials.
    """
    gens = [g for g in basis if g]
    if not gens:
        raise ValueError("need at least one nonzero polynomial")
    source_ring = gens[0].ring
    if any(g.ring != source_ring for g in gens):
        raise ValueError("basis members must share one ring")
    if target.arity != source_ring.nvars:
        raise ValueError(f"target order arity {target.arity} != {source_ring.nvars}")

    # raises past the cap; the walk keeps one row per standard monomial, so it ends
    _staircase(gens, DIMENSION_CAP)
    target_ring = source_ring.with_order(target)
    field = source_ring.field
    add, mul, inv, one = field.add, field.mul, field.inv, field.one()
    forms = [_packed(g) for g in gens]
    pack = source_ring.order.packing.pack
    packing = target.packing
    guard, weights, key, low, unpack = packing.guard, packing.weights, packing.key, packing.low, packing.unpack
    # rows in the order they were made: (pivot, v, w), v the normal form of w,
    # keyed by source- and target-packed monomials; v is 1 at its pivot and 0
    # at every earlier row's pivot, so one pass in that order clears a new v
    rows: list[tuple[int, dict, dict]] = []
    new_basis: list = []
    new_heads: list[int] = []  # packed under the target order, as the walk's monomials are
    frontier = [key(0)]
    visited = {0}

    while frontier:
        m = heapq.heappop(frontier) ^ low
        if not all((m - h) & guard for h in new_heads):
            continue
        terms, scale = _reduce(source_ring, {pack(unpack(m)): 1}, forms)
        scale = inv(field.canon(scale))  # the normal form is the terms over the kernel's scale
        v = {t: mul(c, scale) for t, c in terms}
        w = {m: one}
        for pivot, row_v, row_w in rows:
            if c := v.get(pivot):
                for acc, row in ((v, row_v), (w, row_w)):
                    for t, x in row.items():
                        if r := add(acc.get(t, 0), mul(-c, x)):
                            acc[t] = r
                        else:
                            del acc[t]
        if not v:
            # the monomial minus a combination of kept monomials lies in the ideal
            new_basis.append(_from_packed(target_ring, w))
            new_heads.append(m)
            continue
        pivot = next(iter(v))
        c = inv(v[pivot])
        rows.append((pivot, {t: mul(x, c) for t, x in v.items()}, {t: mul(x, c) for t, x in w.items()}))
        for nxt in {m + weight for weight in weights} - visited:
            visited.add(nxt)
            heapq.heappush(frontier, key(nxt))
    return new_basis
