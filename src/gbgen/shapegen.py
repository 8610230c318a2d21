"""Random reduced Groebner bases in shape position.

A zero-dimensional lex basis in shape position looks like

    [x0 - g0(t), x1 - g1(t), ..., x{n-2} - g{n-2}(t), h(t)]

with t the last variable, h monic and non-constant, and every gj of degree
strictly below deg(h).  That degree bound makes the set reduced by
construction, so sampling h and the gj independently gives a uniform-ish
stream of reduced bases without ever running a completion algorithm.

Sampling draws, in order: deg(h), then h's terms, then g0..g{n-2}.  For a
single polynomial the draws are: term count, exponents, then coefficients.
Keeping that order fixed is what makes a seed reproduce a dataset.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .field import FieldSpec
from .orders import lex
from .poly import Polynomial, PolyRing, _descending

__all__ = ["ShapeBasisSpec", "sample_nonzero_coeff", "sample_univariate", "sample_shape_basis"]


@dataclass(frozen=True)
class ShapeBasisSpec:
    """Knobs for the shape-position sampler."""

    field: FieldSpec
    nvars: int
    max_degree: int = 5  # upper bound for deg(h), drawn uniformly from 1..max_degree
    max_terms: int = 5  # cap on the term count of each univariate draw
    num_range: tuple[int, int] = (-5, 5)  # rational numerator bounds
    den_range: tuple[int, int] = (1, 5)  # rational denominator bounds

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        _check_coeff_ranges(self.num_range, self.den_range)
        # one ring for every draw, kept out of the fields so that equality,
        # hashing and repr see only the knobs
        object.__setattr__(self, "_ring", PolyRing(self.field, self.nvars, lex(self.nvars)))

    def ring(self) -> PolyRing:
        return self._ring


def _check_coeff_ranges(num_range, den_range):
    """Reject bounds that :func:`sample_nonzero_coeff` cannot draw a rational from."""
    for name, bounds in (("num_range", num_range), ("den_range", den_range)):
        if len(bounds) != 2 or not all(type(b) is int for b in bounds):
            raise ValueError(f"{name} {tuple(bounds)} must be two integers")
    (num_lo, num_hi), (den_lo, den_hi) = num_range, den_range
    if num_lo > num_hi or num_lo == num_hi == 0:
        raise ValueError(f"num_range {tuple(num_range)} holds no nonzero integer")
    if not 1 <= den_lo <= den_hi:
        raise ValueError(f"den_range {tuple(den_range)} must satisfy 1 <= lo <= hi")


def sample_nonzero_coeff(field: FieldSpec, num_range, den_range, rng: random.Random):
    """One nonzero coefficient: a residue in 1..p-1, or num/den from the ranges with num != 0 redrawn."""
    if field.modulus is not None:
        return rng.randrange(1, field.modulus)
    num = 0
    while num == 0:
        num = rng.randint(*num_range)
    return Fraction(num, rng.randint(*den_range))


def sample_univariate(spec: ShapeBasisSpec, max_degree: int, monic: bool, rng: random.Random) -> Polynomial:
    """A random polynomial in the last variable with degree <= max_degree.

    The term count is uniform on [1, min(max_terms, max_degree + 1)] and the
    realized count always equals the drawn one.  With ``monic`` the exponent
    max_degree is always present with coefficient 1 (so the degree is exactly
    max_degree) and the remaining terms sit strictly below it.  The draws are
    canonical as they stand (distinct exponents, nonzero coefficients in
    range), so the polynomial is built from them without ``from_terms``.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if monic and max_degree < 1:
        raise ValueError("a monic draw here means non-constant, so max_degree >= 1")
    ring = spec.ring()
    zeros = (0,) * (spec.nvars - 1)

    def term(e: int):
        return zeros + (e,)

    count = rng.randint(1, min(spec.max_terms, max_degree + 1))
    if monic:
        exponents = rng.sample(range(max_degree), count - 1)
        pairs = [(term(max_degree), spec.field.one())]
    else:
        exponents = rng.sample(range(max_degree + 1), count)
        pairs = []
    pairs.extend(
        (term(e), sample_nonzero_coeff(spec.field, spec.num_range, spec.den_range, rng))
        for e in sorted(exponents, reverse=True)
    )
    return Polynomial(ring, _descending(ring, pairs))


def sample_shape_basis(spec: ShapeBasisSpec, rng: random.Random) -> list:
    """One reduced lex basis in shape position over spec's ring.

    Returns [x0 - g0, ..., x{n-2} - g{n-2}, h]; for one variable just [h].
    """
    ring = spec.ring()
    deg_h = rng.randint(1, spec.max_degree)
    h = sample_univariate(spec, deg_h, monic=True, rng=rng)
    members = []
    for j in range(spec.nvars - 1):
        g = sample_univariate(spec, deg_h - 1, monic=False, rng=rng)
        members.append(ring.variable(j) - g)
    members.append(h)
    return members
