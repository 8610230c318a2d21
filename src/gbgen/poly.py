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
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add
from time import perf_counter

from .field import Coeff, FieldSpec
from .orders import _MONOMIAL_CACHE_SIZE, OrderKind, Term, TermOrder, _overflow, within_limit

__all__ = [
    "PolyRing",
    "Polynomial",
    "ParseError",
    "normal_form",
]


# Characters a ParseError quotes on each side of its position; a longer text
# is cut to that window, with an ellipsis where it was cut.
_QUOTE_RADIUS = 40


class ParseError(ValueError):
    """Polynomial text that does not match the expected grammar."""

    def __init__(self, text: str, pos: int, message: str):
        if len(text) <= 2 * _QUOTE_RADIUS:
            quoted = repr(text)
        else:
            start, end = max(0, pos - _QUOTE_RADIUS), pos + _QUOTE_RADIUS
            quoted = f"{'...' if start else ''}{text[start:end]!r}{'...' if end < len(text) else ''}"
        super().__init__(f"at position {pos} in {quoted}: {message}")
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
    if ring.order.kind is OrderKind.LEX:
        items.sort(reverse=True)
    else:
        key = ring.order.key
        items.sort(key=lambda pair: key(pair[0]), reverse=True)
    return tuple(items)


def _combination(ring: PolyRing, parts) -> tuple:
    """Canonical terms of the sum of c * x^s * p over (c, s, p terms) parts.

    ``s`` is an exponent vector, or None for no shift.  Every contribution
    lands in one term->coefficient dict; over GF(p) each sum is reduced once
    at the end, over Q the Fractions are exact throughout.  Only ``+``, ``-``,
    ``*``, ``from_terms`` and :func:`_canonical`'s fallback come here: generation
    builds from canonical parts, and the packed paths use :func:`_from_packed`.
    """
    acc: dict[Term, Coeff] = {}
    get = acc.get
    for c, s, terms in parts:
        for t, x in terms:
            if s is not None:
                t = tuple(map(add, t, s))
            prev = get(t)
            acc[t] = c * x if prev is None else prev + c * x
    mod = ring.field.modulus
    if mod is None:
        return _descending(ring, [(t, x) for t, x in acc.items() if x])
    return _descending(ring, [(t, r) for t, x in acc.items() if (r := x % mod)])


def _canonical(ring: PolyRing, terms: list) -> tuple:
    """Canonical terms of a parsed polynomial, given as reduced (term, coeff) pairs.

    Input already strictly descending under the ring order with no zero
    coefficient, which is all a writer emits, comes back as it is, with no
    sort and no key call per term; anything else is merged and sorted by
    :func:`_combination`.
    """
    if not terms:
        return ()
    exps, coeffs = zip(*terms)
    if all(coeffs) and ring.order.strictly_descending(exps):
        return tuple(terms)
    return _combination(ring, [(1, None, terms)])


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

    The first call keeps the pair on ``f``, so a sample's record line and
    token line share one walk.  Each term costs a lookup of its monomial's
    two strings and of its coefficient's four (see
    :func:`gbgen.field.residue_forms`), which a large prime field formats
    afresh instead.  The zero polynomial is "0" and the lone token C0.
    """
    if f._forms is not None:
        return f._forms
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
    f._forms = forms(mod, terms[0][1])[0] + "".join(text)[3:], " ".join(tokens)
    return f._forms


class Polynomial:
    """Immutable sparse polynomial; ``terms`` is canonical and descending."""

    # _forms: the (text, tokens) pair of _render, None until the first render;
    # _packed: the packed divisor form of _packed, None until the first division by it
    __slots__ = ("ring", "terms", "_forms", "_packed")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._forms = None
        self._packed = None

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

    def scaled(self, coeff) -> "Polynomial":
        """Multiply by a scalar."""
        field = self.ring.field
        c = field.canon(coeff)
        if not c:
            return self.ring.zero()
        mul = field.mul
        return Polynomial(self.ring, tuple((t, mul(x, c)) for t, x in self.terms))

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
        # pow(x, e, None) is x**e, so both fields share the loop; over GF(p)
        # the powers come back reduced and the sum is reduced once at the end
        p = field.modulus
        total = field.zero()
        for t, c in self.terms:
            for x, e in zip(values, t):
                if e:
                    c *= pow(x, e, p)
            total += c
        return total if p is None else total % p

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

    Each step cancels the largest remaining term by the first divisor whose
    leading monomial divides it; a term no head divides moves to the
    remainder.  With ``top_only`` the loop stops at the first such term and
    returns it with the rest unreduced: zero exactly when the full remainder
    is, else with the same leading term.  The steps are :func:`_reduce`'s,
    on packed monomials; each divisor's packed form is kept on it.
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("need at least one divisor")
    ring = f.ring
    for d in divisors:
        if d.ring is not ring and d.ring != ring:
            raise ValueError("divisors must share the dividend's ring")
        if not d:
            raise ValueError("zero polynomial among the divisors")
    if not f:
        return f
    forms = [_packed(d) for d in divisors]
    head, lead, tail = _packed(f)
    mod = ring.field.modulus
    hc = f.leading_coefficient
    work = dict(tail)
    # the packed form is f itself over GF(p), and f scaled by lead / hc over Q
    work[head] = lead if mod is None else hc
    terms, scale = _reduce(ring, work, forms, top_only)
    if mod is None:
        factor = hc / lead / scale
        return _from_packed(ring, {t: c * factor for t, c in terms})
    return _from_packed(ring, dict(terms))


def _from_packed(ring: PolyRing, row: dict) -> Polynomial:
    """The polynomial of a dict from packed monomial to raw coefficient: F's rows, FGLM's members, remainders.

    Reduced mod p once (over Q its zeros dropped), sorted once by the packed key and unpacked once.
    """
    packing = ring.order.packing
    low, unpack = packing.low, packing.unpack
    keys = sorted(row, key=low.__xor__, reverse=True) if low else sorted(row, reverse=True)
    mod = ring.field.modulus
    if mod is None:
        return Polynomial(ring, tuple([(unpack(k), c) for k in keys if (c := row[k])]))
    return Polynomial(ring, tuple([(unpack(k), c) for k in keys if (c := row[k] % mod)]))


def _reduce(ring: PolyRing, work: dict, divisors, top_only: bool = False, deadline: float | None = None):
    """The division kernel: reduce ``work``, a dict from packed monomial to raw coefficient, by packed forms.

    Every division goes through this loop.  Each head comes from a heap of
    the keys that turn the order around (see :class:`gbgen.orders.Packing`),
    pushed when a term first enters ``work``: a processed head never comes
    back, since every later product is smaller, so a term is pushed once,
    and a term whose coefficient cancelled is skipped when it comes up.
    ``divisors`` are (head, lead, tail) forms as :func:`_member` builds
    them.  Over GF(p) coefficients are reduced when they come up, and a step
    multiplies the divisor by the head coefficient times the inverse lead.
    Over Q the loop runs fraction-free on integers: a step scales the work
    (and the remainder so far) by the divisor's lead over its gcd with the
    head coefficient and strips the content after each scaling.

    Returns (terms, scale): the remainder's terms are ``work``'s, after
    division, over ``scale``, head first and descending.  ``scale`` is the
    int 1 over GF(p); over Q it is an exact int until the first content is
    stripped, and an exact Fraction from then on.  With
    ``top_only`` they are the first irreducible head and the rest of
    ``work`` unreduced, in no order; ``work`` is consumed either way.  Past
    ``deadline`` a head step raises TimeoutError, and a product with a
    field past the packed limit raises ExponentLimitError.
    """
    packing = ring.order.packing
    guard, flip = packing.guard, packing.flip
    mod = ring.field.modulus
    heap = [t ^ flip for t in work]
    heapify(heap)
    get, pop = work.get, work.pop
    remainder: list[tuple[int, Coeff]] = []
    scale = 1
    while heap:
        t = heappop(heap) ^ flip
        c = pop(t)
        if mod is not None:
            c %= mod
        if not c:
            continue
        if deadline is not None and perf_counter() > deadline:
            raise TimeoutError("normal form past its deadline")
        for h, lead, tail in divisors:
            if not (t - h) & guard:
                break
        else:
            if top_only:
                if mod is None:
                    return [(t, c)] + [(k, v) for k, v in work.items() if v], scale
                return [(t, c)] + [(k, r) for k, v in work.items() if (r := v % mod)], scale
            # every later head is strictly smaller, so appending keeps order
            remainder.append((t, c))
            continue
        shift = t - h
        if mod is None:
            g = gcd(c, lead)
            a, b = lead // g, c // g
            if a != 1:
                for k in work:
                    work[k] *= a
                remainder = [(k, v * a) for k, v in remainder]
                scale *= a
        else:
            a, b = 1, c * lead % mod
        for k, v in tail:
            k += shift
            prev = get(k)
            if prev is None:
                if k & guard:
                    raise packing.overflow(k)
                heappush(heap, k ^ flip)
                work[k] = -b * v
            else:
                work[k] = prev - b * v
        if a != 1:
            content = gcd(*work.values(), *(v for _, v in remainder))
            if content > 1:
                for k in work:
                    work[k] //= content
                remainder = [(k, v // content) for k, v in remainder]
                scale = Fraction(scale, content)
    return remainder, scale


def _member(terms: list, mod) -> tuple:
    """The packed form (head, lead, tail) of nonzero packed terms, head first.

    Over GF(p) lead is the inverse of the head coefficient and the tail keeps
    its coefficients.  Over Q the terms are integers, scaled here to coprime
    ones with a positive head, and lead is the head coefficient: a divisor
    or a completion member matters only up to scale, and content-free
    integers stop the coefficient growth that makes exact reductions crawl.
    """
    head, c = terms[0]
    if mod is not None:
        return head, pow(c, -1, mod), terms[1:]
    g = gcd(*(v for _, v in terms))
    if c < 0:
        g = -g
    return head, c // g, [(k, v // g) for k, v in terms[1:]]


def _packed(f: Polynomial) -> tuple:
    """The packed form of nonzero ``f`` (see :func:`_member`), kept on ``f`` after the first call."""
    if f._packed is None:
        pack = f.ring.order.packing.pack
        mod = f.ring.field.modulus
        terms = f.terms
        if mod is None:  # cleared of denominators
            den = lcm(*(c.denominator for _, c in terms))
            terms = [(t, c.numerator * (den // c.denominator)) for t, c in terms]
        f._packed = _member([(pack(t), c) for t, c in terms], mod)
    return f._packed


# -- parsing ---------------------------------------------------------------

# A monomial as _monomial_forms writes it: xi or xi^e factors joined by '*'.
# [0-9], not \d, which also matches '٣'.
_LAYOUT_MONOMIAL_RE = re.compile(r"x[0-9]+(?:\^[0-9]+)?(?:\*x[0-9]+(?:\^[0-9]+)?)*")
# one token of the grammar after optional blanks
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|x(?P<var>\d+)|(?P<op>[-+*/^]))")


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _layout_exponents(text: str, nvars: int, graded: bool):
    """The exponent tuple of a monomial as :func:`_monomial_forms` writes it: ``x0^2*x1`` gives (2, 1).

    None for any other text, for a variable out of range, and for an
    exponent past EXPONENT_LIMIT, or with ``graded`` a total degree past it:
    the division kernel's packed monomials hold no such term.
    """
    if not _LAYOUT_MONOMIAL_RE.fullmatch(text):
        return None
    exps = [0] * nvars
    for factor in text.split("*"):
        var, _, e = factor.partition("^")
        i = int(var[1:])
        if i >= nvars:
            return None
        exps[i] += int(e) if e else 1
    return tuple(exps) if within_limit(exps, graded) else None


def _layout_terms(ring: PolyRing, text: str) -> list | None:
    """The (term, coeff) pairs of text in the renderer's layout, None for any other text.

    The layout is :func:`_render`'s: the first term may carry an attached
    '-', each later one follows ' + ' or ' - ', and a term is ``n``, ``n/d``
    (over Q only), ``n*mono`` or ``mono``, in ASCII digits.  It costs one
    split at the blanks and, per term, a check of its coefficient digits and
    a lookup of its monomial in :func:`_layout_exponents`.
    """
    # with the first term's sign set apart too, the parts alternate sign, term
    parts = (f"- {text[1:]}" if text[:1] == "-" else f"+ {text}").split(" ")
    if len(parts) % 2:
        return None
    mod, nvars, graded = ring.field.modulus, ring.nvars, ring.order.packing.graded
    constant = (0,) * nvars
    terms: list[tuple[Term, Coeff]] = []
    for sign, body in zip(parts[::2], parts[1::2]):
        if body[:1] == "x":
            num, den, exps = 1, 1, _layout_exponents(body, nvars, graded)
        else:
            digits, star, mono = body.partition("*")
            exps = _layout_exponents(mono, nvars, graded) if star else constant
            den = 1
            if not (digits.isdigit() and digits.isascii()):
                digits, _, den = digits.partition("/")
                if mod is not None or not (digits.isdigit() and den.isdigit() and body.isascii()):
                    return None
                den = int(den)
                if not den:
                    return None
            num = int(digits)
        if exps is None:
            return None
        if sign == "-":
            num = -num
        elif sign != "+":
            return None
        terms.append((exps, num % mod if mod is not None else Fraction(num, den)))
    return terms


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse the renderer's grammar: signed *-separated coefficient/monomial terms.

    Two readers, chosen by the text itself.  Text in the layout the renderer
    writes takes :func:`_layout_terms`, one split and one pass over its
    terms.  Any other text, such as other blanks, a coefficient after a
    variable or non-ASCII digits, takes :func:`_walk_terms`, which reads the
    whole grammar token by token and locates any error.
    """
    try:
        terms = _layout_terms(ring, text)
    except ValueError:  # an integer longer than int()'s digit limit, which the walk names
        terms = None
    if terms is None:
        terms = _walk_terms(ring, text)
    return Polynomial(ring, _canonical(ring, terms))


def _walk_terms(ring: PolyRing, text: str) -> list:
    """The (term, coeff) pairs of text in the renderer's grammar, in any layout.

    One lexer pass, then one walk over the tokens that checks each against
    the kind of the one before it; an end token closes the walk.  As each
    term's factors close, the walk multiplies out its coefficient factors
    and adds up its exponents, and the sign or end token after it appends
    the term.  Text outside the grammar raises a located ``ParseError``.  A
    character no token starts with takes precedence over every other error
    and is reported at the end of the token before it, and a monomial past
    the packed limit is named at the variable that takes it past.
    """
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append((m.lastgroup, m.start(m.lastgroup), m[m.lastgroup]))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(text, pos, f"unexpected character {rest[0]!r}")
    if not tokens:
        raise ParseError(text, 0, "empty input")
    mod, nvars, graded = ring.field.modulus, ring.nvars, ring.order.packing.graded
    terms: list[tuple[Term, Coeff]] = []
    # the current term's exponents and signed coefficient num/den, over the factors closed so far
    exps, num, den = [0] * nvars, 1, 1

    def close_factor(var: int, var_at: int, e: int):
        exps[var] += e
        if not within_limit(exps, graded):
            raise ParseError(text, var_at, str(_overflow(tuple(exps))))

    # the previous token's kind: None at the start, an operator, "int" or
    # "var", or "closed" for the integer after a '/' or '^'
    prev, prev_at = None, 0
    for kind, at, value in tokens + [("end", len(text), "")]:
        if kind == "op":
            kind = value
        if prev == "var" and kind != "^":
            close_factor(var, var_at, 1)
        if prev in ("/", "^"):
            if kind != "int":
                raise ParseError(text, prev_at, "expected an integer denominator" if prev == "/"
                                 else "expected an integer exponent after '^'")
        elif prev in ("int", "var", "closed"):
            if (prev, kind) == ("int", "/") and mod is not None:
                raise ParseError(text, at, "fractions only make sense over the rationals")
            if kind not in ("+", "-", "*", "end") and (prev, kind) not in (("int", "/"), ("var", "^")):
                raise ParseError(text, at, "expected '+' or '-' between terms")
            if kind in ("+", "-", "end"):
                terms.append((tuple(exps), num % mod if mod is not None else Fraction(num, den)))
        elif kind not in ("int", "var") and (prev, kind) != (None, "-"):
            # an operand is due after a sign or '*', and at the start, where a '-' may come first
            if kind == "end":
                raise ParseError(text, at, "dangling '*'" if prev == "*" else "dangling sign")
            raise ParseError(text, at, "leading '+' is not part of the grammar" if (prev, kind) == (None, "+")
                             else "expected a coefficient or variable")
        if kind in ("+", "-"):
            exps, num, den = [0] * nvars, -1 if kind == "-" else 1, 1
        if kind in ("int", "var"):
            try:
                number = int(value)
            except ValueError:  # longer than int()'s digit limit
                raise ParseError(text, at, f"integer of {len(value)} digits is too long to read") from None
            if prev == "/" and not number:
                raise ParseError(text, at, "zero denominator")
            if kind == "var" and number >= nvars:
                raise ParseError(text, at, f"variable x{number} out of range for {nvars} variables")
            if prev == "^":
                close_factor(var, var_at, number)
            elif prev == "/":
                den *= number
            elif kind == "var":
                var, var_at = number, at
            else:
                num *= number
            if prev in ("/", "^"):
                kind = "closed"
        prev, prev_at = kind, at
    return terms
