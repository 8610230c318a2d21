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
"""

import heapq
from dataclasses import dataclass

from .orders import Term, TermOrder, term_divides
from .poly import Polynomial, _combination, normal_form

__all__ = ["QuotientBasis", "DimensionError", "quotient_basis", "fglm"]

DEFAULT_DIMENSION_CAP = 10_000


class DimensionError(ValueError):
    """The quotient algebra is not finite-dimensional (or exceeds the cap)."""


@dataclass
class QuotientBasis:
    """Standard monomials of a zero-dimensional ideal, ascending in the source order."""

    monomials: list[Term]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def quotient_basis(basis, cap: int = DEFAULT_DIMENSION_CAP) -> QuotientBasis:
    """Enumerate monomials not divisible by any leading term of ``basis``.

    Breadth-first from 1: the standard monomials form an order ideal under
    divisibility, so multiplying known members by single variables reaches
    all of them.  Raises DimensionError past ``cap`` members, which is the
    signature of a non-zero-dimensional input.
    """
    gens = [g for g in basis if g]
    if not gens:
        raise ValueError("need at least one nonzero polynomial")
    ring = gens[0].ring
    heads = [g.leading_monomial for g in gens]
    origin = (0,) * ring.nvars
    if any(term_divides(h, origin) for h in heads):
        return QuotientBasis([])  # the ideal is the whole ring
    seen = {origin}
    queue = [origin]
    standard = []
    while queue:
        t = queue.pop()
        standard.append(t)
        if len(standard) > cap:
            raise DimensionError(
                f"more than {cap} standard monomials; the ideal is likely not zero-dimensional"
            )
        for i in range(ring.nvars):
            nxt = tuple(e + 1 if k == i else e for k, e in enumerate(t))
            if nxt in seen:
                continue
            seen.add(nxt)
            if not any(term_divides(h, nxt) for h in heads):
                queue.append(nxt)
    key = ring.order.key
    standard.sort(key=key)
    return QuotientBasis(standard)


def fglm(basis, target: TermOrder, cap: int = DEFAULT_DIMENSION_CAP) -> list:
    """Convert a reduced zero-dimensional basis to ``target`` order.

    Returns the reduced Groebner basis of the same ideal under ``target``,
    sorted ascending by leading term.  The input is assumed reduced; a
    non-zero-dimensional input raises DimensionError via the staircase
    enumeration.
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
    quotient_basis(gens, cap=cap)
    target_ring = source_ring.with_order(target)
    field = source_ring.field
    one = field.one()
    # rows: head of v -> (v, w) with v monic in the source ring and w in the
    # target ring; v is the normal form of w, and the heads of v are distinct
    rows: dict[Term, tuple[tuple, tuple]] = {}
    new_basis: list[Polynomial] = []
    new_heads: list[Term] = []
    tkey = target.key
    origin = (0,) * source_ring.nvars
    frontier = [(tkey(origin), origin)]
    visited = {origin}

    while frontier:
        _, term = heapq.heappop(frontier)
        if any(term_divides(h, term) for h in new_heads):
            continue
        w = ((term, one),)
        v = normal_form(Polynomial(source_ring, w), gens).terms
        while v and v[0][0] in rows:
            c = -v[0][1]
            row_v, row_w = rows[v[0][0]]
            v = _combination(source_ring, [(1, None, v), (c, None, row_v)])
            w = _combination(target_ring, [(1, None, w), (c, None, row_w)])
        if not v:
            # term minus a combination of kept monomials lies in the ideal
            new_basis.append(Polynomial(target_ring, w))
            new_heads.append(term)
            continue
        scale = field.inv(v[0][1])
        rows[v[0][0]] = (_combination(source_ring, [(scale, None, v)]),
                         _combination(target_ring, [(scale, None, w)]))
        for i in range(source_ring.nvars):
            nxt = tuple(e + 1 if k == i else e for k, e in enumerate(term))
            if nxt not in visited:
                visited.add(nxt)
                heapq.heappush(frontier, (tkey(nxt), nxt))

    new_basis.sort(key=lambda g: tkey(g.leading_monomial))
    return new_basis
