"""Exponent vectors and the three supported monomial orders.

A term is a plain tuple of non-negative ints, one exponent per variable.
Variable 0 is the most significant under lex, so x0 > x1 > ... > x{n-1}.
Orders are encoded as sort keys: a term precedes another exactly when its
key tuple is smaller, which keeps comparison allocation-light and lets
``sorted`` do the heavy lifting.
"""

import enum
from dataclasses import dataclass
from operator import eq, ge, gt, itemgetter, le, lt, neg, sub

Term = tuple[int, ...]


def term_div(a: Term, b: Term) -> Term:
    """Componentwise difference a - b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def term_divides(a: Term, b: Term) -> bool:
    """True when the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def term_lcm(a: Term, b: Term) -> Term:
    return tuple(map(max, a, b))


def total_degree(t: Term) -> int:
    return sum(t)


class OrderKind(enum.Enum):
    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"


def _lex_key(t: Term):
    return t


def _grlex_key(t: Term):
    return (sum(t), t)


def _grevlex_key(t: Term):
    # graded, ties broken by the reversed exponent vector compared negatively:
    # among equal-degree terms the one with the smaller trailing exponent wins
    return (sum(t), tuple(map(neg, t[::-1])))


_reversed = itemgetter(slice(None, None, -1))

_KEY_FNS = {
    OrderKind.LEX: _lex_key,
    OrderKind.GRLEX: _grlex_key,
    OrderKind.GREVLEX: _grevlex_key,
}


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
        """Sort key function: key(a) < key(b) iff a precedes b."""
        return _KEY_FNS[self.kind]

    def strictly_descending(self, terms) -> bool:
        """True when each of a sequence of terms is strictly larger than the next.

        The same verdict as comparing their keys, from comparisons of the
        terms, their degrees and their reversals, with no key call per term.
        """
        if self.kind is OrderKind.LEX:
            return all(map(gt, terms, terms[1:]))
        degrees = list(map(sum, terms))
        # graded: the degree never rises, and a tie is broken by the terms
        # (grlex) or by their reversals compared the other way (grevlex)
        if self.kind is OrderKind.GRLEX:
            tie_ok = map(gt, terms, terms[1:])
        else:
            reversals = list(map(_reversed, terms))
            tie_ok = map(lt, reversals, reversals[1:])
        return all(map(ge, degrees, degrees[1:])) and all(map(le, map(eq, degrees, degrees[1:]), tie_ok))

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
