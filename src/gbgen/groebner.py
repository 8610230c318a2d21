"""Buchberger's algorithm and Groebner basis predicates.

One completion loop serves ``buchberger`` and ``is_reduced_groebner``.  It
keeps a pair queue keyed by the total degree of the lcm of the leading
terms (the "normal" selection strategy), reduces each S-polynomial against
every member added so far until its head is irreducible, adds nonzero
remainders and yields every remainder.  The settings of ``chain_criterion``
differ only in how a new member updates the queue.  The plain update pairs
it with every earlier member and drops the pairs with coprime heads.  The
Gebauer-Moller update [Gebauer & Moller 1988] forms only the pairs that
criterion M and the coprime criterion keep, drops queued pairs by
criterion B, and stops pairing members whose head the new head divides.
Those redundant members stay in the reducer list: reducing against the
rest alone gives the same basis, but some reductions then run for minutes
instead of milliseconds.  A completion's timeout is one deadline, checked
at every head step of every reduction.  The returned basis is always fully
interreduced, monic and sorted ascending by leading term, so two runs over
the same ideal agree member for member.
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

    Zero polynomials in the input are skipped.  ``timeout`` (seconds) bounds
    the whole completion, each reduction included; past it GroebnerTimeout
    carries the statistics so far.  With ``chain_criterion`` each new member
    updates the pair queue by Gebauer and Moller's rules, which drop
    redundant pairs and members; without it every pair whose heads share a
    variable is queued.  Both give the same basis.
    """
    gens = [f for f in polys if f]
    if not gens:
        raise ValueError("need at least one nonzero polynomial")
    ring = gens[0].ring
    for f in gens:
        if f.ring != ring:
            raise ValueError("generators must share one ring")

    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout
    stats = GroebnerStats()
    basis: list[Polynomial] = []  # every member, redundant ones too: the reducers
    live: list[int] = []  # the members pairs are still formed with
    update = _gebauer_moller if chain_criterion else _pair_all
    try:
        for _ in _s_pair_remainders(gens, basis, live, update, stats, deadline):
            pass
        reduced = reduce_basis([basis[k] for k in live], deadline=deadline)
    except TimeoutError:
        raise GroebnerTimeout(timeout, stats) from None
    finally:
        stats.elapsed = time.perf_counter() - start
    return GroebnerResult(reduced, stats)


def _s_pair_remainders(gens, basis, live, update, stats, deadline=None):
    """Buchberger's completion loop over ``gens``: yield each S-pair's remainder, zero or not.

    ``gens`` and every nonzero remainder join ``basis``, and ``update`` forms
    their pairs and keeps ``live``.  Past ``deadline``, raise TimeoutError.
    """
    order = gens[0].ring.order
    heads: list = []
    queue: list = []  # (degree of lcm, order key of lcm, i, j, lcm)
    for f in gens:
        basis.append(_primitive(f))
        heads.append(basis[-1].leading_monomial)
        update(queue, heads, live, order, stats)
    while queue:
        _, _, i, j, _ = heapq.heappop(queue)
        # only the head decides what happens next, and basis members matter
        # only up to scale, so a top-reduced primitive remainder is enough
        spoly = s_polynomial(basis[i], basis[j])
        remainder = _primitive(normal_form(spoly, basis, top_only=True, deadline=deadline))
        stats.pairs_processed += 1
        if remainder:
            basis.append(remainder)
            heads.append(remainder.leading_monomial)
            stats.basis_additions += 1
            update(queue, heads, live, order, stats)
        else:
            stats.zero_reductions += 1
        yield remainder


def _pair_all(queue, heads, live, order, stats):
    """The plain update: pair the newest member with every earlier one whose head shares a variable with it."""
    k = len(heads) - 1
    h = heads[k]
    for g in live:
        if _coprime(heads[g], h):
            stats.pairs_skipped += 1
            continue
        lcm = term_lcm(heads[g], h)
        heapq.heappush(queue, (total_degree(lcm), order.key(lcm), g, k, lcm))
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
            heapq.heappush(queue, (total_degree(lcm), order.key(lcm), g, k, lcm))
            pushed += 1
    stats.pairs_skipped += len(new) - pushed
    before = len(live)
    live[:] = [g for g in live if not term_divides(h, heads[g])]
    stats.redundant_members += before - len(live)
    live.append(k)


def reduce_basis(polys, deadline: float | None = None) -> list:
    """Interreduce a Groebner basis into its unique reduced form; past ``deadline``, raise TimeoutError."""
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
        remainder = normal_form(f, others, deadline=deadline) if others else f
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
    # any() stops the completion loop at its first nonzero remainder, before
    # a pair is reduced against it, so every remainder is taken modulo polys
    return not any(_s_pair_remainders(polys, [], [], _pair_all, GroebnerStats()))
