"""Buchberger's algorithm and Groebner basis predicates.

The completion loop follows the classic textbook shape: keep a pair queue
keyed by the total degree of the lcm of the leading terms (the "normal"
selection strategy), discard pairs with coprime leading terms, reduce the
S-polynomial against the whole working basis until its head is irreducible,
and append nonzero remainders.
The returned basis is always fully interreduced, monic and sorted ascending
by leading term, so two runs over the same ideal agree member for member.
"""

import heapq
import time
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd

from .orders import term_div, term_divides, term_lcm, total_degree
from .poly import Polynomial, _cleared, _combination, normal_form

__all__ = [
    "GroebnerStats",
    "GroebnerResult",
    "GroebnerTimeout",
    "s_polynomial",
    "buchberger",
    "reduce_basis",
    "is_reduced_groebner",
]


@dataclass
class GroebnerStats:
    pairs_processed: int = 0
    zero_reductions: int = 0
    pairs_skipped: int = 0
    basis_additions: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GroebnerResult:
    basis: list
    stats: GroebnerStats = dataclass_field(default_factory=GroebnerStats)


class GroebnerTimeout(Exception):
    """Completion exceeded its time budget; carries the stats so far."""

    def __init__(self, timeout: float, stats: GroebnerStats):
        super().__init__(f"no Groebner basis within {timeout} s")
        self.timeout = timeout
        self.stats = stats


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g): both leading terms lifted to their lcm and cancelled."""
    if not f or not g:
        raise ValueError("S-polynomials need nonzero inputs")
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    ring = f.ring
    tf, cf = f.leading_term
    tg, cg = g.leading_term
    lcm = term_lcm(tf, tg)
    # the two heads cancel by construction, so only the tails are combined
    parts = [
        (ring.field.inv(cf), term_div(lcm, tf), f.terms[1:]),
        (-ring.field.inv(cg), term_div(lcm, tg), g.terms[1:]),
    ]
    return Polynomial(ring, _combination(ring, parts))


def _coprime(s, t) -> bool:
    """Whether two monomials share no variable; then S(f, g) reduces to zero [Buchberger 1979]."""
    return not any(a and b for a, b in zip(s, t))


def _pair_key(order, basis, i, j):
    lcm = term_lcm(basis[i].leading_monomial, basis[j].leading_monomial)
    return (total_degree(lcm), order.key(lcm), i, j)


def _primitive(f: Polynomial) -> Polynomial:
    """Scale a rational polynomial to coprime integer coefficients.

    Completion only ever needs basis members up to a nonzero scalar, and
    content-free integer coefficients stop the fraction growth that makes
    exact rational reductions crawl.  Prime-field input passes through.
    """
    if not f or f.ring.field.modulus is not None:
        return f
    den_lcm, cleared = _cleared(f.terms)
    scale = Fraction(den_lcm, gcd(*(c for _, c in cleared)))
    if f.leading_coefficient < 0:
        scale = -scale
    return f.scaled(scale)


def buchberger(polys, timeout: float | None = None, chain_criterion: bool = False) -> GroebnerResult:
    """Complete ``polys`` to the reduced Groebner basis of the ideal they generate.

    Zero polynomials in the input are skipped.  ``timeout`` (seconds) aborts
    the completion with GroebnerTimeout carrying partial statistics; the
    optional chain criterion prunes pairs whose lcm is divisible by the
    leading term of a third member whose own pairs were already handled.
    """
    gens = [f for f in polys if f]
    if not gens:
        raise ValueError("need at least one nonzero polynomial")
    ring = gens[0].ring
    for f in gens:
        if f.ring != ring:
            raise ValueError("generators must share one ring")

    start = time.perf_counter()
    stats = GroebnerStats()
    basis = [_primitive(f) for f in gens]
    order = ring.order
    queue: list = []
    done_pairs: set[tuple[int, int]] = set()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            heapq.heappush(queue, _pair_key(order, basis, i, j))

    while queue:
        if timeout is not None and time.perf_counter() - start > timeout:
            stats.elapsed = time.perf_counter() - start
            raise GroebnerTimeout(timeout, stats)
        _, _, i, j = heapq.heappop(queue)
        fi, fj = basis[i], basis[j]
        ti, tj = fi.leading_monomial, fj.leading_monomial
        lcm = term_lcm(ti, tj)
        if _coprime(ti, tj):
            stats.pairs_skipped += 1
            done_pairs.add((i, j))
            continue
        if chain_criterion and _chain_applies(basis, done_pairs, i, j, lcm):
            stats.pairs_skipped += 1
            done_pairs.add((i, j))
            continue
        # only the head decides what happens next, and basis members matter
        # only up to scale, so a top-reduced primitive remainder is enough
        remainder = _primitive(normal_form(s_polynomial(fi, fj), basis, top_only=True))
        stats.pairs_processed += 1
        done_pairs.add((i, j))
        if not remainder:
            stats.zero_reductions += 1
            continue
        basis.append(remainder)
        stats.basis_additions += 1
        k = len(basis) - 1
        for m in range(k):
            heapq.heappush(queue, _pair_key(order, basis, m, k))

    reduced = reduce_basis(basis)
    stats.elapsed = time.perf_counter() - start
    return GroebnerResult(reduced, stats)


def _chain_applies(basis, done_pairs, i, j, lcm) -> bool:
    for k in range(len(basis)):
        if k in (i, j):
            continue
        if not term_divides(basis[k].leading_monomial, lcm):
            continue
        a = (min(i, k), max(i, k))
        b = (min(j, k), max(j, k))
        if a in done_pairs and b in done_pairs:
            return True
    return False


def reduce_basis(polys) -> list:
    """Interreduce a Groebner basis into its unique reduced form."""
    polys = [f.monic() for f in polys if f]
    if not polys:
        raise ValueError("nothing to reduce")
    order = polys[0].ring.order
    polys.sort(key=lambda f: order.key(f.leading_monomial))
    minimal: list[Polynomial] = []
    for f in polys:
        lt = f.leading_monomial
        if any(term_divides(g.leading_monomial, lt) for g in minimal):
            continue
        minimal.append(f)
    reduced: list[Polynomial] = []
    for idx, f in enumerate(minimal):
        others = reduced[:idx] + minimal[idx + 1 :]
        remainder = normal_form(f, others) if others else f
        reduced.append(remainder.monic())
    reduced.sort(key=lambda f: order.key(f.leading_monomial))
    return reduced


def is_reduced_groebner(polys) -> bool:
    """True when ``polys`` is exactly a reduced Groebner basis.

    Requires: no zero member, every member monic, no term of one member
    divisible by another member's leading term, and Buchberger's criterion:
    the S-polynomial of every pair whose heads share a variable reduces to
    zero (a coprime pair's always does).
    """
    polys = list(polys)
    if not polys or any(not f for f in polys):
        return False
    one = polys[0].ring.field.one()
    if any(f.leading_coefficient != one for f in polys):
        return False
    heads = [f.leading_monomial for f in polys]
    for i, f in enumerate(polys):
        for j, h in enumerate(heads):
            if i == j:
                continue
            if any(term_divides(h, t) for t, _ in f.terms):
                return False
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if _coprime(heads[i], heads[j]):
                continue
            if normal_form(s_polynomial(polys[i], polys[j]), polys, top_only=True):
                return False
    return True
