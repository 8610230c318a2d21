"""Buchberger's algorithm and Groebner basis predicates.

One completion loop serves ``buchberger`` and ``is_reduced_groebner``.  It
keeps a pair queue ordered by each pair's selection degree, then by its
lcm, reduces each S-polynomial against every member added so far until its
head is irreducible, adds nonzero remainders and yields every remainder.
The settings of ``chain_criterion`` differ only in how a new member updates
the queue.  The plain update pairs it with every earlier member, drops the
pairs with coprime heads and selects by the total degree of the lcm (the
"normal" strategy).  The Gebauer-Moller update [Gebauer & Moller 1988]
forms only the pairs that criterion M and the coprime criterion keep, drops
queued pairs by criterion B, and stops pairing members whose head the new
head divides.  Those redundant members stay in the reducer list: reducing
against the rest alone gives the same basis, but some reductions then run
for minutes instead of milliseconds.  This update selects by sugar
[Giovini, Mora, Niesi, Robbiano & Traverso 1991], the degree a pair would
have if the input were homogenised: a generator's sugar is its total
degree, a pair's is the larger of its members' sugars lifted to the lcm,
and a new member takes its pair's.  F is not homogeneous, so the lcm's
degree alone says little about the work a pair costs: under the normal
strategy 4 of the first 300 GF(7) n=3 samples ran past a 5 s cap, under
sugar none takes a fifth of a second.

Members stay packed (see :func:`gbgen.poly._reduce`) for the whole
completion: each S-polynomial goes straight into the division kernel's
dict, and only the reduced basis is unpacked.  The pair update works on the
packed heads too (see :class:`gbgen.orders.Packing`): a divisibility test is
a subtraction and a mask, an lcm a few masks, two heads are coprime when
their lcm is their product, and a queued pair keeps its lcm only as the
order key it is sorted by.  A completion's timeout is one deadline, checked
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

from .poly import Polynomial, _member, _packed, _reduce

__all__ = [
    "GroebnerStats",
    "GroebnerResult",
    "GroebnerTimeout",
    "buchberger",
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
    basis: list = []  # every member's packed form, redundant ones too: the reducers
    live: list[int] = []  # the members pairs are still formed with
    update = _gebauer_moller if chain_criterion else _pair_all
    try:
        for _ in _s_pair_remainders(gens, basis, live, update, stats, deadline):
            pass
        reduced = _unpacked(ring, _interreduced(ring, [basis[k] for k in live], deadline))
    except TimeoutError:
        raise GroebnerTimeout(timeout, stats) from None
    finally:
        stats.elapsed = time.perf_counter() - start
    return GroebnerResult(reduced, stats)


def _s_pair_remainders(gens, basis, live, update, stats, deadline=None):
    """Buchberger's completion loop over ``gens``: yield each S-pair's remainder, zero or not.

    Every member stays a packed form (see :func:`gbgen.poly._member`) for the
    whole loop: ``gens`` and every nonzero remainder join ``basis`` so, and
    ``update`` forms their pairs from their packed heads and keeps ``live``.
    A remainder is yielded as its form, or None for zero.  Past
    ``deadline``, raise TimeoutError.
    """
    ring = gens[0].ring
    packing = ring.order.packing
    low, guard, mod, degree = packing.low, packing.guard, ring.field.modulus, packing.degree
    heads: list = []
    # a member's sugar less its head's degree: a generator's sugar is its
    # total degree, a remainder's its pair's selection degree
    lifts: list = []
    queue: list = []  # (selection degree, packed key of lcm, i, j)
    for f in gens:
        member = _packed(f)
        basis.append(member)
        heads.append(member[0])
        lifts.append(f.total_degree() - degree(member[0]))
        update(queue, heads, lifts, live, packing, stats)
    while queue:
        sugar, key, i, j = heapq.heappop(queue)
        # S(f, g) with both heads lifted to their lcm: over GF(p) each side
        # times its inverse lead, over Q fraction-free, each side times the
        # other's lead; only the tails are formed, as the heads cancel
        hi, ai, tail_i = basis[i]
        hj, aj, tail_j = basis[j]
        if mod is None:
            g = gcd(ai, aj)
            ai, aj = aj // g, ai // g
        lcm = key ^ low
        shift = lcm - hi
        work = {k + shift: ai * v for k, v in tail_i}
        get = work.get
        shift = lcm - hj
        for k, v in tail_j:
            k += shift
            prev = get(k)
            work[k] = -aj * v if prev is None else prev - aj * v
        for k in work:
            if k & guard:
                raise packing.overflow(k)
        # only the head decides what happens next, and members matter only up
        # to scale, so the top-reduced remainder becomes a member as it is
        terms, _ = _reduce(ring, work, basis, True, deadline)
        stats.pairs_processed += 1
        if terms:
            remainder = _member(terms, mod)
            basis.append(remainder)
            heads.append(remainder[0])
            lifts.append(sugar - degree(remainder[0]))
            stats.basis_additions += 1
            update(queue, heads, lifts, live, packing, stats)
        else:
            remainder = None
            stats.zero_reductions += 1
        yield remainder


def _pair_all(queue, heads, lifts, live, packing, stats):
    """The plain update: pair the newest member with every earlier one whose head shares a variable with it.

    Pairs are selected by the total degree of their lcm (the normal strategy); ``lifts`` is not read.
    """
    k = len(heads) - 1
    h = heads[k]
    lcm_of, degree, key = packing.lcm, packing.degree, packing.key
    for g in live:
        lcm = lcm_of(heads[g], h)
        if lcm == heads[g] + h:  # coprime heads
            stats.pairs_skipped += 1
            continue
        heapq.heappush(queue, (degree(lcm), key(lcm), g, k))
    live.append(k)


def _gebauer_moller(queue, heads, lifts, live, packing, stats):
    """The Gebauer-Moller update for the newest member [Gebauer & Moller 1988].

    With h the new head: a queued pair whose lcm h divides is dropped unless
    h's lcm with one of its members equals that lcm (criterion B).  Of the
    new pairs (g, h), one is kept for each lcm that no other new lcm divides
    (criterion M, with one pair kept for each equal lcm), then those with
    coprime heads are dropped too.  Members whose head h divides stop
    forming pairs.  A new pair's sugar is the larger of its members'
    ``lifts`` plus the degree of its lcm: each member's sugar lifted by the
    degree its head is multiplied by to reach the lcm.
    """
    k = len(heads) - 1
    h = heads[k]
    low, guard, lcm_of = packing.low, packing.guard, packing.lcm
    kept = [
        e for e in queue
        if ((lcm := e[1] ^ low) - h) & guard or lcm_of(heads[e[2]], h) == lcm or lcm_of(heads[e[3]], h) == lcm
    ]
    if len(kept) < len(queue):
        stats.pairs_skipped += len(queue) - len(kept)
        queue[:] = kept
        heapq.heapify(queue)
    new = [(lcm_of(heads[g], h), g) for g in live]
    chosen: list = []
    for idx, (lcm, g) in enumerate(new):
        coprime = lcm == heads[g] + h
        # a coprime pair stays here so that it can drop its multiples
        if coprime or all((lcm - other[0]) & guard for other in itertools.chain(new[idx + 1 :], chosen)):
            chosen.append((lcm, g, coprime))
    pushed = 0
    degree, key, lift = packing.degree, packing.key, lifts[k]
    for lcm, g, coprime in chosen:
        if not coprime:
            heapq.heappush(queue, (max(lifts[g], lift) + degree(lcm), key(lcm), g, k))
            pushed += 1
    stats.pairs_skipped += len(new) - pushed
    before = len(live)
    live[:] = [g for g in live if (heads[g] - h) & guard]
    stats.redundant_members += before - len(live)
    live.append(k)


def _interreduced(ring, members, deadline) -> list:
    """The packed forms of the reduced basis of a Groebner basis given as packed forms.

    Members whose head another's divides drop out, and each of the rest is
    reduced in full by the others; the result is sorted ascending by head,
    each tail descending.  Past ``deadline``, raise TimeoutError.
    """
    packing = ring.order.packing
    low, guard, mod = packing.low, packing.guard, ring.field.modulus
    members = sorted(members, key=lambda m: m[0] ^ low)
    minimal: list = []
    for m in members:
        if all((m[0] - h) & guard for h, _, _ in minimal):
            minimal.append(m)
    reduced: list = []
    for idx, (head, lead, tail) in enumerate(minimal):
        work = dict(tail)
        work[head] = lead if mod is None else pow(lead, -1, mod)
        terms, _ = _reduce(ring, work, reduced + minimal[idx + 1 :], deadline=deadline)
        reduced.append(_member(terms, mod))
    return reduced


def _unpacked(ring, members) -> list:
    """The monic polynomials of packed forms whose tails are descending: unpacked as they come, with no sort."""
    unpack, mod = ring.order.packing.unpack, ring.field.modulus
    if mod is None:
        return [Polynomial(ring, ((unpack(h), Fraction(1)),) + tuple((unpack(k), Fraction(v, lead)) for k, v in tail))
                for h, lead, tail in members]
    return [Polynomial(ring, ((unpack(h), 1),) + tuple((unpack(k), v * lead % mod) for k, v in tail))
            for h, lead, tail in members]


def is_reduced_groebner(polys) -> bool:
    """True when ``polys`` is exactly a reduced Groebner basis.

    Requires: no zero member, every member monic, no term of one member
    divisible by another member's leading term, and Buchberger's criterion:
    the S-polynomial of every pair whose heads share a variable reduces to
    zero (a coprime pair's always does).  Members from different rings
    raise ValueError.
    """
    polys = list(polys)
    if any(f.ring != polys[0].ring for f in polys):
        raise ValueError("basis members must share one ring")
    if not polys or any(not f for f in polys):
        return False
    one = polys[0].ring.field.one()
    if any(f.leading_coefficient != one for f in polys):
        return False
    forms = [_packed(f) for f in polys]  # kept on polys for the completion below
    guard = polys[0].ring.order.packing.guard
    for i, (head, _, tail) in enumerate(forms):
        terms = [head, *(k for k, _ in tail)]
        if any(not (t - h) & guard for j, (h, _, _) in enumerate(forms) if j != i for t in terms):
            return False
    # any() stops the completion loop at its first nonzero remainder, before
    # a pair is reduced against it, so every remainder is taken modulo polys
    return not any(_s_pair_remainders(polys, [], [], _pair_all, GroebnerStats()))
