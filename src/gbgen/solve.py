"""Solving shape-position systems over prime fields.

Over GF(p) the variety of a shape-position basis falls out by hand: find
the roots of the univariate member h, then back-substitute each root
through the x_i - g_i(t) members.  The roots are exact and take time
polynomial in deg h and log p: gcd(h, x^p - x), computed by modular
powering, keeps one linear factor per distinct root in GF(p), and
equal-degree splitting separates them [Cantor & Zassenhaus 1981; Rabin
1980].  Every base powered is linear (x, and x + a in the split), so one
routine raises x + a to a power modulo a monic m and folds the top terms
back through m's head of 1 with no inverse.  A basis under a graded order
is solved through its lex basis, which FGLM computes.
"""

from dataclasses import dataclass

from .fglm import fglm
from .field import FieldElement
from .orders import OrderKind, lex
from .poly import Polynomial

__all__ = ["SolutionSet", "ShapeError", "univariate_roots_fp", "solve_shape"]


class ShapeError(ValueError):
    """Input basis is not in the expected shape-position form."""


@dataclass
class SolutionSet:
    """All points of the variety: every root of h, back-substituted."""

    points: list[tuple[FieldElement, ...]]


def univariate_roots_fp(h: Polynomial) -> list[FieldElement]:
    """All roots in GF(p) of a polynomial using at most one variable, ascending.

    A nonzero constant has no roots; the zero polynomial is rejected
    (every residue would vanish).
    """
    field = h.ring.field
    if field.modulus is None:
        raise ValueError("root finding works over prime fields only")
    if not h:
        raise ValueError("the zero polynomial vanishes everywhere")
    if len(h.variables_used()) > 1:
        raise ValueError("expected a univariate polynomial")
    p = field.modulus
    # dense monic coefficients, low degree first; every term is a power of one variable
    inv = pow(h.leading_coefficient, -1, p)
    coeffs = [0] * (h.total_degree() + 1)
    for term, c in h.terms:
        coeffs[sum(term)] = c * inv % p
    if len(coeffs) == 1:
        roots = []
    elif len(coeffs) == 2:
        roots = [-coeffs[0] % p]
    elif p == 2:
        # h(0) is the constant term and h(1) the sum of the coefficients
        roots = [r for r, value in ((0, coeffs[0]), (1, sum(coeffs))) if not value % 2]
    else:
        # gcd(h, x^p - x) keeps one linear factor per distinct root in GF(p)
        xp = _powlin(0, p, coeffs, p)
        xp[1] = (xp[1] - 1) % p
        roots = _split_linear(_gcd(coeffs, _trim(xp), p), p)
    return [FieldElement(field, r) for r in sorted(roots)]


# Dense polynomials over GF(p) for the root finder: coefficient lists, low
# degree first, with no trailing zeros (the zero polynomial is []).


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b."""
    r = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + db] * inv % p
        if c:
            for j, bj in enumerate(b):
                r[k + j] = (r[k + j] - c * bj) % p
    return _trim(q), _trim(r[:db])


def _powlin(a: int, e: int, m: list, p: int) -> list:
    """(x + a)^e mod a monic m of degree d >= 1, as d coefficients in 0..p-1.

    Square-and-multiply from the top bit of e down.  A square forms each
    cross product once and doubles it; a step by x + a is a shift plus a
    scaled add.  The terms of degree d and up then fold back through m from
    the top, each taken mod p once, and the d left are taken mod p once.
    """
    d = len(m) - 1
    low = m[:d]
    r = [1]
    for bit in bin(e)[2:]:
        n = len(r)
        s = [0] * (2 * n - 1)
        for i, ri in enumerate(r):
            s[2 * i] += ri * ri
            twice = ri + ri
            for j in range(i + 1, n):
                s[i + j] += twice * r[j]
        if bit == "1":
            s = [a * s[0], *[u + a * v for u, v in zip(s, s[1:])], s[-1]] if a else [0, *s]
        for k in range(len(s) - 1 - d, -1, -1):
            # x^(k+d) = -x^k * (m - x^d) modulo m
            c = s.pop() % p
            if c:
                for j, mj in enumerate(low, k):
                    s[j] -= c * mj
        r = [c % p for c in s]
    return r + [0] * (d - len(r))


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of a and b, where gcd(a, 0) is a made monic."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _split_linear(g: list, p: int) -> list[int]:
    """Roots of a monic g that is a product of distinct linear factors, p odd.

    Equal-degree splitting [Cantor & Zassenhaus 1981]: gcd(g, (x+a)^((p-1)/2) - 1)
    keeps the roots r with r + a a nonzero square.  For any two roots some a in
    GF(p) separates them, and an a that leaves g whole leaves its factors whole
    too, so each factor resumes the scan of a = 1, 2, ..., p where g stopped.
    """
    roots = []
    pending = [(g, 1)]
    while pending:
        g, a = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        if len(g) <= 2:
            continue
        while True:
            w = _powlin(a % p, (p - 1) // 2, g, p)
            w[0] = (w[0] - 1) % p
            f = _gcd(g, _trim(w), p)
            a += 1
            if 1 < len(f) < len(g):
                break
        pending += [(f, a), (_divmod(g, f, p)[0], a)]
    return roots


def solve_shape(basis) -> SolutionSet:
    """Enumerate the variety of a shape-position basis over GF(p).

    Expects [x0 - g0(t), ..., x{n-2} - g{n-2}(t), h(t)] in any order, with t
    the last variable, or a reduced basis of such an ideal under a graded
    order.  Each returned point is checked against every given member.
    """
    members = [g for g in basis if g]
    if not members:
        raise ShapeError("empty basis")
    ring = members[0].ring
    field = ring.field
    if field.modulus is None:
        raise ValueError("solving is implemented over prime fields only")
    for g in members:
        if g.ring != ring:
            raise ShapeError("basis members must share one ring")
    n = ring.nvars
    last = n - 1
    converted = ring.order.kind is not OrderKind.LEX
    shape = fglm(members, lex(n)) if converted else members

    univariate = None
    offsets: dict[int, Polynomial] = {}
    for g in shape:
        used = g.variables_used()
        if used <= {last}:
            if univariate is not None:
                raise ShapeError("two members use only the last variable")
            univariate = g
            continue
        head, coeff = g.leading_term
        if sum(head) == 1 and head[last] == 0:
            i = head.index(1)
            # the terms are canonical, so dropping the head subtracts it
            tail = Polynomial(g.ring, g.terms[1:])
            if tail and not tail.variables_used() <= {last}:
                raise ShapeError(f"member for x{i} has a tail outside the last variable")
            if i in offsets:
                raise ShapeError(f"two members lead with x{i}")
            # normalize to x_i - g_i: with monic head, tail moves across the sign
            offsets[i] = tail.scaled(-field.inv(coeff))
            continue
        raise ShapeError(f"unexpected member {g}")

    if univariate is None:
        raise ShapeError("no univariate member found")
    if sorted(offsets) != list(range(n - 1)):
        missing = sorted(set(range(n - 1)) - set(offsets))
        raise ShapeError(f"missing members for variables {missing}")

    points = []
    for root in univariate_roots_fp(univariate):
        coords = [field.zero()] * n
        coords[last] = root.value
        # each offset uses only the last variable
        for i in range(n - 1):
            coords[i] = offsets[i].evaluate(coords)
        for g in members:
            if g.evaluate(coords):
                if converted:
                    raise ShapeError(f"the point {coords} of its lex basis fails {g}: not a Groebner basis")
                raise RuntimeError(f"internal error: candidate {coords} fails {g}")
        points.append(tuple(FieldElement(field, v) for v in coords))
    return SolutionSet(points=points)
