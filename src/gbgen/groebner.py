"""Buchberger's algorithm and Groebner basis predicates.

One completion loop serves both settings of ``chain_criterion``.  It keeps
a pair queue keyed by the total degree of the lcm of the leading terms (the
"normal" selection strategy), reduces each S-polynomial against every
member added so far until its head is irreducible, and adds nonzero
remainders.  The settings differ only in how a new member updates the
queue.  The plain update pairs it with every earlier member, and the loop
skips pairs with coprime heads when it pops them.  The Gebauer-Moller
update [Gebauer & Moller 1988] forms only the pairs that criterion M and
the coprime criterion keep, drops queued pairs by criterion B, and stops
pairing members whose head the new head divides.  Those redundant members
stay in the reducer list: reducing against the rest alone gives the same
basis, but some reductions then run for minutes instead of milliseconds.
The returned basis is always fully interreduced, monic and sorted ascending
by leading term, so two runs over the same ideal agree member for member.
"""

import heapq
import itertools
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
    """Counters of one completion.

    ``pairs_skipped`` counts the pairs dropped without a reduction (coprime
    heads, and under the Gebauer-Moller update criteria M and B);
    ``redundant_members`` the members that update stopped pairing.
    """

    pairs_processed: int = 0
    zero_reductions: int = 0
    pairs_skipped: int = 0
    basis_additions: int = 0
    redundant_members: int = 0
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
    return not any(map(min, s, t))


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
    the completion with GroebnerTimeout carrying partial statistics.  With
    ``chain_criterion`` each new member updates the pair queue by
    Gebauer and Moller's rules, which drop redundant pairs and members;
    without it every pair is queued.  Both give the same basis.
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
    order = ring.order
    update = _gebauer_moller if chain_criterion else _pair_all
    basis: list[Polynomial] = []  # every member, redundant ones too: the reducers
    heads: list = []
    live: list[int] = []  # the members pairs are still formed with
    queue: list = []  # (degree of lcm, order key of lcm, i, j, lcm)
    for f in gens:
        basis.append(_primitive(f))
        heads.append(basis[-1].leading_monomial)
        update(queue, heads, live, order, stats)

    while queue:
        if timeout is not None and time.perf_counter() - start > timeout:
            stats.elapsed = time.perf_counter() - start
            raise GroebnerTimeout(timeout, stats)
        _, _, i, j, _ = heapq.heappop(queue)
        if _coprime(heads[i], heads[j]):  # only the plain update queues these
            stats.pairs_skipped += 1
            continue
        # only the head decides what happens next, and basis members matter
        # only up to scale, so a top-reduced primitive remainder is enough
        remainder = _primitive(normal_form(s_polynomial(basis[i], basis[j]), basis, top_only=True))
        stats.pairs_processed += 1
        if not remainder:
            stats.zero_reductions += 1
            continue
        basis.append(remainder)
        heads.append(remainder.leading_monomial)
        stats.basis_additions += 1
        update(queue, heads, live, order, stats)

    reduced = reduce_basis([basis[k] for k in live])
    stats.elapsed = time.perf_counter() - start
    return GroebnerResult(reduced, stats)


def _push(queue, order, i, j, lcm):
    heapq.heappush(queue, (total_degree(lcm), order.key(lcm), i, j, lcm))


def _pair_all(queue, heads, live, order, stats):
    """The plain update: pair the newest member with every earlier one."""
    k = len(heads) - 1
    h = heads[k]
    for g in live:
        _push(queue, order, g, k, term_lcm(heads[g], h))
    live.append(k)


def _gebauer_moller(queue, heads, live, order, stats):
    """The Gebauer-Moller update for the newest member [Gebauer & Moller 1988].

    With h the new head: a queued pair whose lcm h divides is dropped unless
    h's lcm with one of its members equals that lcm (criterion B).  Of the
    new pairs (g, h), one is kept for each lcm that no other new lcm divides
    (criterion M, with one pair kept for each equal lcm), then those with
    coprime heads are dropped too.  Members whose head h divides stop
    forming pairs.
    """
    k = len(heads) - 1
    h = heads[k]
    kept = [
        e for e in queue
        if not term_divides(h, e[4]) or term_lcm(heads[e[2]], h) == e[4] or term_lcm(heads[e[3]], h) == e[4]
    ]
    if len(kept) < len(queue):
        stats.pairs_skipped += len(queue) - len(kept)
        queue[:] = kept
        heapq.heapify(queue)
    new = [(term_lcm(heads[g], h), g) for g in live]
    chosen: list = []
    for idx, (lcm, g) in enumerate(new):
        # a coprime pair stays here so that it can drop its multiples
        if _coprime(heads[g], h) or not any(
            term_divides(other, lcm) for other, _ in itertools.chain(new[idx + 1 :], chosen)
        ):
            chosen.append((lcm, g))
    pushed = 0
    for lcm, g in chosen:
        if not _coprime(heads[g], h):
            _push(queue, order, g, k, lcm)
            pushed += 1
    stats.pairs_skipped += len(new) - pushed
    before = len(live)
    live[:] = [g for g in live if not term_divides(h, heads[g])]
    stats.redundant_members += before - len(live)
    live.append(k)


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
