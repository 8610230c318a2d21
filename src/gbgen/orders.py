"""Exponent vectors and the three supported monomial orders.

A term is a plain tuple of non-negative ints, one exponent per variable.
Variable 0 is the most significant under lex, so x0 > x1 > ... > x{n-1}.
Orders are encoded as sort keys: a term precedes another exactly when its
key tuple is smaller, which keeps comparison allocation-light and lets
``sorted`` do the heavy lifting.
"""

import enum
from dataclasses import dataclass
from operator import neg

Term = tuple[int, ...]


def term_div(a: Term, b: Term) -> Term:
    """Componentwise difference a - b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def term_divides(a: Term, b: Term) -> bool:
    """True when the monomial with exponents ``a`` divides the one with ``b``."""
    return all(x <= y for x, y in zip(a, b))


def term_lcm(a: Term, b: Term) -> Term:
    return tuple(max(x, y) for x, y in zip(a, b))


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

    def compare(self, a: Term, b: Term) -> int:
        """-1, 0 or 1 as ``a`` is below, equal to or above ``b``."""
        if len(a) != self.arity or len(b) != self.arity:
            raise ValueError(f"terms must have arity {self.arity}, got {len(a)} and {len(b)}")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        return 1 if ka > kb else 0

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
        return TermOrder(OrderKind(name), arity)
    except ValueError:
        raise ValueError(f"unknown term order {name!r}; expected lex, grlex or grevlex") from None
