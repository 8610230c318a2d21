"""Order conversion for zero-dimensional ideals (the FGLM walk).

Given a reduced Groebner basis under one order, the quotient algebra is a
finite-dimensional vector space spanned by the standard monomials (those
outside the leading-term staircase).  Walking the monomials of the target
order from small to large, each normal form is a coordinate vector over
that space; the first linear dependency hit along each branch yields one
member of the target-order reduced basis.  All linear algebra is exact.
"""

import heapq
from dataclasses import dataclass

from .orders import Term, TermOrder, term_divides
from .poly import Polynomial, PolyRing, normal_form

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

    field = source_ring.field
    qb = quotient_basis(gens, cap=cap)
    coord = {t: i for i, t in enumerate(qb.monomials)}
    dim = qb.dimension
    target_ring = source_ring.with_order(target)

    def nf_vector(term: Term) -> list:
        mono = source_ring.monomial(1, term)
        vec = [field.zero()] * dim
        for t, c in normal_form(mono, gens).terms:
            vec[coord[t]] = c
        return vec

    # rows: (pivot index, reduced vector, combination over kept monomials)
    rows: list[tuple[int, list, list]] = []
    kept: list[Term] = []
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
        vec = nf_vector(term)
        comb = [field.zero()] * len(kept)
        for pivot, row_vec, row_comb in rows:
            factor = vec[pivot]
            if not factor:
                continue
            for k, v in enumerate(row_vec):
                if v:
                    vec[k] = field.sub(vec[k], field.mul(factor, v))
            for k, v in enumerate(row_comb):
                if v:
                    comb[k] = field.sub(comb[k], field.mul(factor, v))
        pivot = next((k for k, v in enumerate(vec) if v), None)
        if pivot is None:
            # dependency: term + sum(comb[j] * kept[j]) lies in the ideal
            pairs = [(term, field.one())]
            pairs.extend((m, c) for m, c in zip(kept, comb) if c)
            new_basis.append(target_ring.from_terms(pairs))
            new_heads.append(term)
            continue
        scale = field.inv(vec[pivot])
        vec = [field.mul(v, scale) if v else v for v in vec]
        comb = [field.mul(v, scale) if v else v for v in comb]
        comb.append(scale)  # coefficient of the newly kept monomial itself
        for r in range(len(rows)):
            rows[r] = (rows[r][0], rows[r][1], rows[r][2] + [field.zero()])
        rows.append((pivot, vec, comb))
        kept.append(term)
        for i in range(source_ring.nvars):
            nxt = tuple(e + 1 if k == i else e for k, e in enumerate(term))
            if nxt not in visited:
                visited.add(nxt)
                heapq.heappush(frontier, (tkey(nxt), nxt))

    new_basis.sort(key=lambda g: tkey(g.leading_monomial))
    return new_basis
