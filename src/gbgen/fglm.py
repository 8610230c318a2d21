"""Order conversion for zero-dimensional ideals (the FGLM walk).

Given a reduced Groebner basis under one order, the quotient algebra is a
finite-dimensional vector space spanned by the standard monomials (those
outside the leading-term staircase).  The walk visits the monomials of the
target order from small to large and reduces each one's normal form
against the rows kept so far, a sparse echelon form keyed by leading
monomial, with the same linear-combination kernel that builds every other
polynomial.  A normal form that reduces to zero is a linear dependency and
yields one member of the target-order reduced basis; any other becomes a
new row.  All linear algebra is exact.

The staircase and the walk step over packed monomials (see
:class:`gbgen.orders.Packing`), and the walk's heap holds their keys.  A
standard monomial of degree d has d + 1 standard divisors, so the cap keeps
every monomial either meets below the packed limit.
"""

import heapq
from dataclasses import dataclass

from .orders import Term, TermOrder
from .poly import Polynomial, _combination, normal_form

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
    ascending by leading term, the order in which the walk finds them.  The input is assumed reduced; a
    non-zero-dimensional input raises DimensionError via the staircase
    enumeration, before the walk, once it passes ``DIMENSION_CAP``
    standard monomials.
    """
    gens = [g for g in basis if g]
    if not gens:
        raise ValueError("need at least one nonzero polynomial")
    source_ring = gens[0].ring
    for g in gens:
        if g.ring != source_ring:
            raise ValueError("basis members must share one ring")
    if target.arity != source_ring.nvars:
        raise ValueError(f"target order arity {target.arity} != {source_ring.nvars}")
    if target == source_ring.order:
        out = list(gens)
        out.sort(key=lambda g: target.key(g.leading_monomial))
        return out

    # raises past the cap; the walk keeps one row per standard monomial, so it ends
    _staircase(gens, DIMENSION_CAP)
    target_ring = source_ring.with_order(target)
    field = source_ring.field
    one = field.one()
    # rows: head of v -> (v, w) with v monic in the source ring and w in the
    # target ring; v is the normal form of w, and the heads of v are distinct
    rows: dict[Term, tuple[tuple, tuple]] = {}
    new_basis: list[Polynomial] = []
    packing = target.packing
    guard, weights, key, low = packing.guard, packing.weights, packing.key, packing.low
    new_heads: list[int] = []  # packed under the target order, as the walk's monomials are
    frontier = [key(0)]
    visited = {0}

    while frontier:
        m = heapq.heappop(frontier) ^ low
        if not all((m - h) & guard for h in new_heads):
            continue
        w = ((packing.unpack(m), one),)
        v = normal_form(Polynomial(source_ring, w), gens).terms
        while v and v[0][0] in rows:
            c = -v[0][1]
            row_v, row_w = rows[v[0][0]]
            v = _combination(source_ring, [(1, None, v), (c, None, row_v)])
            w = _combination(target_ring, [(1, None, w), (c, None, row_w)])
        if not v:
            # the monomial minus a combination of kept monomials lies in the ideal
            new_basis.append(Polynomial(target_ring, w))
            new_heads.append(m)
            continue
        scale = field.inv(v[0][1])
        rows[v[0][0]] = (_combination(source_ring, [(scale, None, v)]),
                         _combination(target_ring, [(scale, None, w)]))
        for weight in weights:
            nxt = m + weight
            if nxt not in visited:
                visited.add(nxt)
                heapq.heappush(frontier, key(nxt))
    return new_basis
