"""Sparse multivariate polynomials with exact coefficients.

A polynomial lives in a ``PolyRing`` (field, number of variables, term
order) and stores its terms as a tuple of (exponent tuple, coefficient)
pairs sorted descending under the ring's order, with no zero coefficients.
The zero polynomial is the empty tuple.  Coefficients are the raw values
described in :mod:`gbgen.field` (int residues or Fractions), which keeps
the arithmetic loops cheap.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import NoReturn

from .field import Coeff, FieldSpec
from .orders import Term, TermOrder, term_divides, term_div

__all__ = [
    "PolyRing",
    "Polynomial",
    "ParseError",
    "normal_form",
]


class ParseError(ValueError):
    """Polynomial text that does not match the expected grammar."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"at position {pos} in {text!r}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class PolyRing:
    """Context shared by a family of polynomials."""

    field: FieldSpec
    nvars: int
    order: TermOrder

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.order.arity != self.nvars:
            raise ValueError(f"order arity {self.order.arity} != nvars {self.nvars}")

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return Polynomial(self, (((0,) * self.nvars, self.field.one()),))

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range for {self.nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, self.field.one()),))

    def monomial(self, coeff, term: Term) -> "Polynomial":
        c = self.field.canon(coeff)
        if not c:
            return self.zero()
        if len(term) != self.nvars or any(e < 0 for e in term):
            raise ValueError(f"bad exponent vector {term!r}")
        return Polynomial(self, ((tuple(term), c),))

    def from_terms(self, pairs) -> "Polynomial":
        """Build a polynomial from (term, coefficient) pairs in any order.

        Repeated terms are accumulated; zero coefficients drop out.
        """
        canon = self.field.canon
        checked = []
        for term, coeff in pairs.items() if isinstance(pairs, dict) else pairs:
            term = tuple(term)
            if len(term) != self.nvars or any(e < 0 for e in term):
                raise ValueError(f"bad exponent vector {term!r}")
            checked.append((term, canon(coeff)))
        return Polynomial(self, _combination(self, [(1, None, checked)]))

    def with_order(self, order: TermOrder) -> "PolyRing":
        """The ring with ``order``, one shared object per (field, nvars, order)."""
        return _shared_ring(self.field, self.nvars, order)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)

    def __str__(self):
        return f"{self.field}[{', '.join(f'x{i}' for i in range(self.nvars))}]/{self.order.name()}"


# A process meets a handful of (field, nvars, order) triples; the bound only
# caps what unusual callers can hold.
@lru_cache(maxsize=256)
def _shared_ring(field: FieldSpec, nvars: int, order: TermOrder) -> PolyRing:
    return PolyRing(field, nvars, order)


def _descending(ring: PolyRing, items: list) -> tuple:
    """Sort nonzero (term, coeff) pairs descending under the ring order."""
    if ring.order.kind.value == "lex":
        items.sort(reverse=True)
    else:
        key = ring.order.key
        items.sort(key=lambda pair: key(pair[0]), reverse=True)
    return tuple(items)


def _combination(ring: PolyRing, parts) -> tuple:
    """Canonical terms of the sum of c * x^s * p over (c, s, p terms) parts.

    ``s`` is an exponent vector, or None for no shift.  Every contribution
    lands in one term->coefficient dict; over GF(p) each sum is reduced once
    at the end, over Q the Fractions are exact throughout.
    """
    acc: dict[Term, Coeff] = {}
    get = acc.get
    for c, s, terms in parts:
        # over Q `1 * x`, `-1 * x` and `0 + x` each cost a Fraction operation:
        # a unit part skips the product, a negated one subtracts, and a new
        # term is stored as it is (or negated, or scaled)
        if s is None:
            if c == -1:
                for t, x in terms:
                    prev = get(t)
                    acc[t] = -x if prev is None else prev - x
                continue
            if c != 1:
                terms = [(t, c * x) for t, x in terms]
            for t, x in terms:
                prev = get(t)
                acc[t] = x if prev is None else prev + x
        else:
            for t, x in terms:
                t = tuple(map(add, t, s))
                prev = get(t)
                acc[t] = c * x if prev is None else prev + c * x
    mod = ring.field.modulus
    if mod is None:
        return _descending(ring, [(t, x) for t, x in acc.items() if x])
    return _descending(ring, [(t, r) for t, x in acc.items() if (r := x % mod)])


# Distinct monomials each monomial cache keeps.  A dataset only meets the
# monomials under its degree bound (364 at n=3 and total degree 11, 4368 at
# n=5), so the bound caps what unusual inputs can hold, not a normal run.
_MONOMIAL_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _monomial_forms(term: Term) -> tuple[str, str]:
    """(text, tokens) of a monomial: ``x0^2*x1`` and `` ^ x0 E2 ^ x1 E1`` for (2, 1).

    Both are empty for the constant monomial.
    """
    used = [(i, e) for i, e in enumerate(term) if e]
    text = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in used)
    return text, "".join(f" ^ x{i} E{e}" for i, e in used)


def _render(f: "Polynomial") -> tuple[str, str]:
    """The text of ``f`` and its prefix-token text, from one walk over its terms.

    Each term costs a lookup of its monomial's two strings and of its
    coefficient's four (see :func:`gbgen.field.residue_forms`), which a
    large prime field formats afresh instead.  The zero polynomial is "0"
    and the lone token C0.
    """
    terms = f.terms
    if not terms:
        return "0", "C0"
    field = f.ring.field
    mod, forms = field.modulus, field.forms
    text, tokens = [], []
    for term, coeff in terms:
        _, alone, factor, token = forms(mod, coeff)
        mono, mono_tokens = _monomial_forms(term)
        text.append(factor + mono if mono else alone)
        tokens.append(token + mono_tokens)
    # every term opens with a three-character separator; the first takes its sign instead
    return forms(mod, terms[0][1])[0] + "".join(text)[3:], " ".join(tokens)


class Polynomial:
    """Immutable sparse polynomial; ``terms`` is canonical and descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- inspection ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def leading_term(self) -> tuple[Term, Coeff]:
        """The (exponents, coefficient) pair largest under the ring order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    @property
    def leading_monomial(self) -> Term:
        return self.leading_term[0]

    @property
    def leading_coefficient(self) -> Coeff:
        return self.leading_term[1]

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(t) for t, _ in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def variables_used(self) -> set[int]:
        used = set()
        for t, _ in self.terms:
            for i, e in enumerate(t):
                if e:
                    used.add(i)
        return used

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial(self.ring, _combination(self.ring, [(1, None, self.terms), (1, None, other.terms)]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial(self.ring, _combination(self.ring, [(1, None, self.terms), (-1, None, other.terms)]))

    def __neg__(self) -> "Polynomial":
        return self.scaled(-1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial(self.ring, _combination(self.ring, [(c, t, other.terms) for t, c in self.terms]))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def scaled(self, coeff) -> "Polynomial":
        """Multiply by a scalar."""
        field = self.ring.field
        c = field.canon(coeff)
        if not c:
            return self.ring.zero()
        mul = field.mul
        return Polynomial(self.ring, tuple((t, mul(x, c)) for t, x in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.leading_coefficient
        if lc == self.ring.field.one():
            return self
        return self.scaled(self.ring.field.inv(lc))

    def resorted(self, order: TermOrder) -> "Polynomial":
        """The same polynomial viewed in the ring with ``order``."""
        ring = self.ring.with_order(order)
        return Polynomial(ring, _descending(ring, list(self.terms)))

    def evaluate(self, point) -> Coeff:
        """The value at a point given as a sequence of raw scalars."""
        field = self.ring.field
        values = list(point)
        if len(values) != self.ring.nvars:
            raise ValueError(f"expected {self.ring.nvars} coordinates, got {len(values)}")
        total = field.zero()
        for t, c in self.terms:
            v = c
            for x, e in zip(values, t):
                if e:
                    v = field.mul(v, field.pow(x, e))
            total = field.add(total, v)
        return total

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return _render(self)[0]

    def __repr__(self):
        return f"<{self} over {self.ring}>"


# -- division ------------------------------------------------------------


def normal_form(f: Polynomial, divisors, *, top_only: bool = False) -> Polynomial:
    """Remainder of ``f`` on division by an ordered list of divisors.

    Each step cancels the largest remaining term of a term->coefficient dict
    by the first divisor whose leading monomial divides it; a term no head
    divides moves to the remainder.  With ``top_only`` the loop stops at the
    first such term and returns it with the rest unreduced: zero exactly when
    the full remainder is, else with the same leading term.  Over GF(p) a
    step multiplies by the inverse of the divisor's head coefficient.  Over
    the rationals it runs fraction-free on integers, scaling by the divisor's
    head instead of dividing by it and stripping the content after every
    scaling; the scale is divided out at the end, so the result is exact.
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("need at least one divisor")
    ring = f.ring
    heads = []
    for d in divisors:
        if d.ring is not ring and d.ring != ring:
            raise ValueError("divisors must share the dividend's ring")
        if not d:
            raise ValueError("zero polynomial among the divisors")
        heads.append(d.leading_monomial)
    mod = ring.field.modulus
    key = None if ring.order.kind.value == "lex" else ring.order.key
    if mod is None:
        den, cleared = _cleared(f.terms)
        work, scale = dict(cleared), Fraction(den)
    else:
        work = dict(f.terms)
    ready: dict[int, tuple] = {}  # divisor index -> (head factor, tail terms)
    remainder: list[tuple[Term, Coeff]] = []
    while work:
        t = max(work) if key is None else max(work, key=key)
        for i, h in enumerate(heads):
            if term_divides(h, t):
                break
        else:
            if top_only:
                break
            # every later head is strictly smaller, so appending keeps order
            c = work.pop(t)
            remainder.append((t, c if mod is not None else c / scale))
            continue
        c = work.pop(t)
        if i not in ready:
            ready[i] = _divisor_form(divisors[i], mod)
        lead, tail = ready[i]
        if mod is None:
            g = gcd(c, lead)
            a, b = lead // g, c // g
            if a != 1:
                work = {k: v * a for k, v in work.items()}
                scale *= a
        else:
            a, b = 1, c * lead % mod
        shift = term_div(t, h)
        for gt, gc in tail:
            k = tuple(map(add, gt, shift))
            v = work.get(k, 0) - b * gc
            if mod is not None:
                v %= mod
            if v:
                work[k] = v
            else:
                work.pop(k, None)
        if a != 1 and work:
            content = gcd(*work.values())
            if content > 1:
                work = {k: v // content for k, v in work.items()}
                scale /= content
    if mod is None:
        work = {t: v / scale for t, v in work.items()}
    return Polynomial(ring, tuple(remainder) + _descending(ring, [(t, v) for t, v in work.items() if v]))


def _cleared(terms) -> tuple[int, list]:
    """(den, terms times den) for rational terms, den the lcm of their denominators."""
    den = lcm(*(c.denominator for _, c in terms))
    return den, [(t, c.numerator * (den // c.denominator)) for t, c in terms]


def _divisor_form(d: Polynomial, mod) -> tuple:
    """(inverse head coefficient, tail) over GF(p); (head, tail) cleared of denominators over Q."""
    if mod is not None:
        return pow(d.leading_coefficient, -1, mod), d.terms[1:]
    _, terms = _cleared(d.terms)
    return terms[0][1], terms[1:]


# -- parsing ---------------------------------------------------------------

# One signed term of the renderer's grammar: a sign, then coefficient (n or
# n/d) and variable (xi or xi^e) factors joined by '*', blanks free between
# tokens.  A character no token can start with, or an 'x' without an index,
# is out of the grammar wherever it stands.
_FACTOR = r"(?:\d+(?:\s*/\s*\d+)?|x\d+(?:\s*\^\s*\d+)?)"
_PRODUCT = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_TERM_RE = re.compile(rf"\s*([+-]?)\s*({_PRODUCT})\s*")
# the whole grammar: a first term signed '-' or not at all, later ones '+' or '-'
_POLYNOMIAL_RE = re.compile(rf"\s*-?\s*{_PRODUCT}(?:\s*[+-]\s*{_PRODUCT})*\s*")
# a signed term of blank-free text that matched the grammar
_SIGNED_RE = re.compile(r"([+-]?)([^+-]+)")
_STRAY_RE = re.compile(r"[^\d\s^*/+\-x]|x(?!\d)")


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _monomial_exponents(text: str, nvars: int):
    """(exponents, factor) of the blank-free factors after a term's leading coefficient.

    The inverse of the text of :func:`_monomial_forms`: ``x0^2*x1`` gives ((2, 1), None).
    ``factor`` is None when the text has no coefficient factor, as rendered
    text never does, else their product (a Fraction once one holds a '/').
    None for a variable out of range or a zero denominator.
    """
    exps = [0] * nvars
    factor = None
    for f in text.split("*") if text else ():
        if f[0] == "x":
            var, _, e = f.partition("^")
            i = int(var[1:])
            if i >= nvars:
                return None
            exps[i] += int(e) if e else 1
            continue
        n, slash, d = f.partition("/")
        factor = int(n) if factor is None else factor * int(n)
        if slash:
            if not int(d):
                return None
            factor = Fraction(factor, int(d))
    return tuple(exps), factor


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse the renderer's grammar: signed *-separated coefficient/monomial terms.

    Valid text costs one match of the whole grammar and, per term, a
    partition of its leading coefficient and a lookup of the rest in the
    monomial table.  Text that fails any check goes to
    :func:`_raise_parse_error`, which locates the error.
    """
    if _POLYNOMIAL_RE.fullmatch(text) is None:
        _raise_parse_error(ring, text)
    mod = ring.field.modulus
    nvars = ring.nvars
    terms: list[tuple[Term, Coeff]] = []
    # blanks only separate tokens, and int() rejects some of them
    for sign, body in _SIGNED_RE.findall("".join(text.split())):
        if body[0] == "x":
            num, den, mono = 1, 1, body
        else:
            coeff, _, mono = body.partition("*")
            n, slash, d = coeff.partition("/")
            num = int(n)
            den = 1
            if slash:
                den = int(d)
                if mod is not None or not den:
                    _raise_parse_error(ring, text)
        entry = _monomial_exponents(mono, nvars)
        if entry is None:
            _raise_parse_error(ring, text)
        exps, factor = entry
        if factor is not None:
            if mod is not None and isinstance(factor, Fraction):
                _raise_parse_error(ring, text)
            num *= factor
        if sign == "-":
            num = -num
        terms.append((exps, num if mod is not None else Fraction(num, den)))
    return Polynomial(ring, _combination(ring, [(1, None, terms)]))


def _raise_parse_error(ring: PolyRing, text: str) -> NoReturn:
    """Raise the ``ParseError`` of text the parser rejected.

    A term-by-term walk: one regex match per term, its factors read with
    ``str.partition``.  The error names the first token the grammar rejects,
    and a stray character anywhere in the text takes precedence over the rest.
    """

    def fail(pos: int, message: str):
        stray = _STRAY_RE.search(text)
        if stray:
            at = stray.start()
            pos, message = len(text[:at].rstrip()), f"unexpected character {text[at]!r}"
        raise ParseError(text, pos, message)

    def located(f: str, offset: int) -> int:
        # text position of character ``offset`` of factor ``f`` of the blank-free
        # body; an earlier factor equal to f would have failed first
        parts = body.split("*")
        k = parts.index(f)
        j = sum(map(len, parts[:k])) + k + offset
        return [at for at in range(m.start(2), m.end(2)) if not text[at].isspace()][j]

    mod = ring.field.modulus
    nvars = ring.nvars
    pos, end = 0, len(text)
    body = None
    while pos < end or body is None:
        m = _TERM_RE.match(text, pos)
        if m is not None:
            sign, term = m.groups()
        if m is None or (sign == "+" if body is None else not sign):
            # no valid term starts here (a first term takes no '+', a later
            # one needs a sign): the next token, read against the end of the
            # previous body, names the error
            rest = text[pos:].lstrip()
            if not rest:
                fail(0, "empty input")
            at, c = end - len(rest), rest[0]
            after = rest[1:].lstrip()
            if c == "-" or c == "+" and body is not None:
                fail(end - len(after), "expected a coefficient or variable" if after else "dangling sign")
            if body is None:
                fail(at, "leading '+' is not part of the grammar" if c == "+"
                     else "expected a coefficient or variable")
            if c == "*":
                fail(end - len(after), "expected a coefficient or variable" if after else "dangling '*'")
            # '/' after a bare integer or '^' after a bare variable lacks its operand
            last = body.rpartition("*")[2]
            if c == "/" and "x" not in last and "/" not in last:
                fail(at, "expected an integer denominator" if mod is None
                     else "fractions only make sense over the rationals")
            if c == "^" and "x" in last and "^" not in last:
                fail(at, "expected an integer exponent after '^'")
            # a variable's error position is that of its index
            fail(at + (c == "x"), "expected '+' or '-' between terms")
        body = "".join(term.split())
        for f in body.split("*"):
            if f[0] == "x":
                i = int(f.partition("^")[0][1:])
                if i >= nvars:
                    fail(located(f, 1), f"variable x{i} out of range for {nvars} variables")
                continue
            n, slash, d = f.partition("/")
            if slash:
                if mod is not None:
                    fail(located(f, len(n)), "fractions only make sense over the rationals")
                if not int(d):
                    fail(located(f, len(n) + 1), "zero denominator")
        pos = m.end()
    raise AssertionError(f"the grammar match and the term walk disagree on {text!r}")
