"""Solving shape-position systems over prime fields.

Over GF(p) the variety of a shape-position basis falls out by hand: find
the roots of the univariate member h, then back-substitute each root
through the x_i - g_i(t) members.  The roots are exact and take time
polynomial in deg h and log p: gcd(h, x^p - x), computed by modular
powering, keeps one linear factor per distinct root in GF(p), and
equal-degree splitting separates them [Cantor & Zassenhaus 1981; Rabin
1980].
"""

from dataclasses import dataclass

from .field import FieldElement
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
    # dense coefficients, low degree first; every term is a power of one variable
    coeffs = [0] * (h.total_degree() + 1)
    for term, c in h.terms:
        coeffs[sum(term)] = c
    if p == 2:
        # h(0) is the constant term and h(1) the sum of the coefficients
        roots = [r for r, value in ((0, coeffs[0]), (1, sum(coeffs))) if not value % 2]
    else:
        # gcd(h, x^p - x) keeps one linear factor per distinct root in GF(p)
        xp = _powmod([0, 1], p, coeffs, p) + [0, 0]
        xp[1] -= 1
        roots = _split_linear(_gcd(coeffs, _trim([c % p for c in xp]), p), p)
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


def _mulmod(a: list, b: list, m: list, p: int) -> list:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _divmod([c % p for c in prod], m, p)[1]


def _powmod(base: list, e: int, m: list, p: int) -> list:
    """base^e mod m, square-and-multiply from the top bit of e down."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _mulmod(result, result, m, p)
        if bit == "1":
            result = _mulmod(result, base, m, p)
    return result


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
            w = _powmod([a % p, 1], (p - 1) // 2, g, p) or [0]
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
    the last variable.  Each returned point is checked against every basis
    member before it is admitted.
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

    univariate = None
    offsets: dict[int, Polynomial] = {}
    for g in members:
        used = g.variables_used()
        if used <= {last}:
            if univariate is not None:
                raise ShapeError("two members use only the last variable")
            univariate = g
            continue
        head, coeff = g.leading_term
        if sum(head) == 1 and head[last] == 0:
            i = head.index(1)
            tail = g - ring.monomial(coeff, head)
            if tail and not tail.variables_used() <= {last}:
                raise ShapeError(f"member for x{i} has a tail outside the last variable")
            if i in offsets:
                raise ShapeError(f"two members lead with x{i}")
            # normalize to x_i - g_i: with monic head, tail moves across the sign
            offsets[i] = -tail.scaled(field.inv(coeff)) if tail else ring.zero()
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
            coords[i] = offsets[i].evaluate(coords) if offsets[i] else field.zero()
        for g in members:
            if g.evaluate(coords):
                raise RuntimeError(f"internal error: candidate {coords} fails {g}")
        points.append(tuple(FieldElement(field, v) for v in coords))
    return SolutionSet(points=points)
