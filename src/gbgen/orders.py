"""Exponent vectors, the three supported monomial orders and their packed layouts.

A term is a plain tuple of non-negative ints, one exponent per variable.
Variable 0 is the most significant under lex, so x0 > x1 > ... > x{n-1}.
Each order lays a term out as one int, its packed monomial (see
:class:`Packing`), on which a product is one addition, a divisibility test
one subtraction and a mask, an lcm a few masks, and the order one
comparison of ints.  The division kernel, the completion's pair update, the
staircase, the FGLM walk and the scrambling transform all work on packed
monomials.  A sort key
(:attr:`TermOrder.key`) is the term itself under lex, which orders tuples
as lex does, and an int of the packed layout under grlex and grevlex.
"""

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import gt, mul

Term = tuple[int, ...]

# Bits of one field of a packed monomial.  The top bit of each field is a
# guard: every packed value keeps it clear, so a field is at most
# EXPONENT_LIMIT, and a sum of two packed values sets it exactly where a
# field overflowed.  15 bits keep a two-variable lex monomial in one
# machine digit of a Python int.
FIELD_BITS = 15
EXPONENT_LIMIT = (1 << FIELD_BITS - 1) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1

# Distinct monomials each monomial cache keeps.  A dataset only meets the
# monomials under its degree bound (364 at n=3 and total degree 11, 4368 at
# n=5), so the bound caps what unusual inputs can hold, not a normal run.
_MONOMIAL_CACHE_SIZE = 1 << 14


class ExponentLimitError(ValueError):
    """A monomial with a field past EXPONENT_LIMIT, which no packed value holds."""


def within_limit(t: Term, graded: bool) -> bool:
    """Whether ``t`` has a packed value: each exponent, and with ``graded`` the total degree, at most EXPONENT_LIMIT."""
    return (sum(t) if graded else max(t)) <= EXPONENT_LIMIT


class OrderKind(enum.Enum):
    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"


def _lex_key(t: Term):
    return t


@dataclass(frozen=True)
class Packing:
    """The packed layout of an order's monomials: one int per exponent vector.

    Fields of FIELD_BITS bits, most significant first: lex packs
    ``[e0|...|e(n-1)]``, grlex ``[deg|e0|...|e(n-1)]`` and grevlex
    ``[deg|e(n-1)|...|e0]``.  Under lex and grlex the packed value orders
    like the term; under grevlex ``v ^ low`` does, ``low`` being the value
    bits of the exponent fields.  ``flip`` is ``~low``: ``v ^ flip`` turns the
    order around, the key a min-heap needs to give the largest term first.
    Packed values add as the monomials multiply, ``a`` divides ``b``
    exactly when ``(b - a) & guard`` is 0, and two monomials are coprime
    exactly when their :meth:`lcm` is their product.  ``pack`` and
    ``unpack`` are memoised, one bounded memo per packing and direction: a
    hit costs a hash where packing a term costs a limit check and a weighted
    sum, and a call that raised is never stored.
    """

    graded: bool
    low: int
    guard: int
    weights: tuple[int, ...]  # the packed value of each variable
    shifts: tuple[int, ...]  # the bit position of each variable's field
    top: int  # the bit position of the degree field, the one above every exponent field

    @staticmethod
    def of(kind: "OrderKind", n: int) -> "Packing":
        w = FIELD_BITS
        graded = kind is not OrderKind.LEX
        grevlex = kind is OrderKind.GREVLEX
        shifts = tuple(w * i for i in (range(n) if grevlex else reversed(range(n))))
        low = sum(EXPONENT_LIMIT << s for s in shifts) if grevlex else 0
        guard = sum(1 << w * i + w - 1 for i in range(n + graded))
        degree = 1 << w * n if graded else 0
        return Packing(graded, low, guard, tuple(degree + (1 << s) for s in shifts), shifts, w * n)

    def __post_init__(self):
        for name in ("pack", "unpack"):
            object.__setattr__(self, name, lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)(getattr(self, name)))

    def __reduce__(self):
        # the memos hold bound methods, which do not pickle; a copy builds its own
        return Packing, (self.graded, self.low, self.guard, self.weights, self.shifts, self.top)

    @property
    def flip(self) -> int:
        return ~self.low

    def pack(self, t: Term) -> int:
        """The packed value of ``t``; an ExponentLimitError names a field past EXPONENT_LIMIT."""
        if not within_limit(t, self.graded):
            raise _overflow(t)
        return sum(map(mul, t, self.weights))

    def unpack(self, v: int) -> Term:
        return tuple([v >> s & EXPONENT_LIMIT for s in self.shifts])

    def term_key(self, t: Term) -> int:
        """An int that orders terms as the order does: ``key(pack(t))``, through the pack memo."""
        return self.pack(t) ^ self.low

    def key(self, v: int) -> int:
        """An int that orders packed values as the order orders their terms.

        An ExponentLimitError for a ``v`` with a guard bit set, such as a
        graded :meth:`lcm` past the limit.
        """
        if v & self.guard:
            raise self.overflow(v)
        return v ^ self.low

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of packed ``a`` and ``b``: each exponent field the larger of the two.

        Under a graded order the degree field is the exponents' sum, which
        can pass EXPONENT_LIMIT and set that field's guard bit.  The sum is
        at most the two degrees', so it still fits the field, and
        divisibility and equality tests stay exact between lcms with one
        member in common: their degrees differ by at most EXPONENT_LIMIT.
        """
        guard = self.guard
        # a field of (a | guard) - b keeps its guard bit exactly where a's
        # field is at least b's, and m sets the value bits of those fields
        t = ((a | guard) - b) & guard
        m = t - (t >> FIELD_BITS - 1)
        v = (a & m) | (b & ~m)
        if self.graded:
            # 2^FIELD_BITS is 1 modulo FIELD_MASK, so the exponent fields
            # sum to their packed value modulo it, and the sum is below it
            v &= (1 << self.top) - 1
            v |= v % FIELD_MASK << self.top
        return v

    def degree(self, v: int) -> int:
        """The total degree of packed ``v``: its degree field under a graded order, else its fields' sum."""
        return v >> self.top if self.graded else sum(self.unpack(v))

    def overflow(self, v: int) -> ExponentLimitError:
        """The error for a packed value with a guard bit set, such as a sum that overflowed a field."""
        return _overflow(tuple([v >> s & FIELD_MASK for s in self.shifts]))


def _overflow(t: Term) -> ExponentLimitError:
    """The error for ``t``, one of whose fields is past EXPONENT_LIMIT: a named exponent, else the total degree."""
    for i, e in enumerate(t):
        if e > EXPONENT_LIMIT:
            return ExponentLimitError(f"exponent {e} of x{i} is past the limit {EXPONENT_LIMIT} of a packed monomial")
    return ExponentLimitError(f"total degree {sum(t)} is past the limit {EXPONENT_LIMIT} of a packed monomial")


@dataclass(frozen=True)
class TermOrder:
    """A monomial order on terms of a fixed arity."""

    kind: OrderKind
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be at least 1")

    @property
    def key(self):
        """Sort key function: key(a) < key(b) iff a precedes b.

        The term itself under lex, else :meth:`Packing.term_key`, which
        refuses a term past the packed limit.  Not stored, so rings pickle.
        """
        return _lex_key if self.kind is OrderKind.LEX else self.packing.term_key

    @cached_property
    def packing(self) -> Packing:
        """The packed layout of this order's monomials, built on first use."""
        return Packing.of(self.kind, self.arity)

    def strictly_descending(self, terms) -> bool:
        """True when each of a sequence of terms is strictly larger than the next, by their keys."""
        keys = terms if self.kind is OrderKind.LEX else list(map(self.key, terms))
        return all(map(gt, keys, keys[1:]))

    def name(self) -> str:
        return self.kind.value

    def __str__(self):
        return f"{self.kind.value}({self.arity})"


def lex(arity: int) -> TermOrder:
    return TermOrder(OrderKind.LEX, arity)


def grlex(arity: int) -> TermOrder:
    return TermOrder(OrderKind.GRLEX, arity)


def grevlex(arity: int) -> TermOrder:
    return TermOrder(OrderKind.GREVLEX, arity)


def order_by_name(name: str, arity: int) -> TermOrder:
    try:
        kind = OrderKind(name)
    except ValueError:
        raise ValueError(f"unknown term order {name!r}; expected lex, grlex or grevlex") from None
    return TermOrder(kind, arity)
