"""Random reduced Groebner bases in shape position.

A zero-dimensional lex basis in shape position looks like

    [x0 - g0(t), x1 - g1(t), ..., x{n-2} - g{n-2}(t), h(t)]

with t the last variable, h monic and non-constant, and every gj of degree
strictly below deg(h).  That degree bound makes the set reduced by
construction, so sampling h and the gj independently gives a uniform-ish
stream of reduced bases, each member built from its canonical draws with no
completion, no polynomial arithmetic and no sort.

Sampling draws, in order: deg(h), then h's terms, then g0..g{n-2}.  For a
single polynomial the draws are: term count, exponents, then coefficients.
Keeping that order fixed is what makes a seed reproduce a dataset.  The
degree bound, ring and field come from a ``dataset.GenerationConfig``,
which checks them; the samplers take it untyped, since ``dataset`` imports
this module.  The coefficient ranges and the term-count cap are the
constants below, fixed for every dataset.
"""

import random
from fractions import Fraction

from .field import FieldSpec
from .poly import Polynomial

__all__ = ["sample_nonzero_coeff", "sample_univariate", "sample_shape_basis"]

NUM_RANGE = (-5, 5)  # bounds of a rational coefficient's numerator
DEN_RANGE = (1, 5)  # bounds of its denominator
UNI_MAX_TERMS = 5  # cap on the term count of each univariate draw


def sample_nonzero_coeff(field: FieldSpec, rng: random.Random):
    """One nonzero coefficient: a residue in 1..p-1, or num/den from NUM_RANGE and DEN_RANGE, num = 0 redrawn."""
    if field.modulus is not None:
        return rng.randrange(1, field.modulus)
    num = 0
    while num == 0:
        num = rng.randint(*NUM_RANGE)
    return Fraction(num, rng.randint(*DEN_RANGE))


def sample_univariate(config, max_degree: int, monic: bool, rng: random.Random) -> Polynomial:
    """A random polynomial in the last variable of ``config.sample_ring()`` with degree <= max_degree.

    ``config`` is a ``GenerationConfig``.  The term count is uniform on
    [1, min(UNI_MAX_TERMS, max_degree + 1)] and the realized count always
    equals the drawn one.  With ``monic`` the exponent max_degree is always
    present with coefficient 1 (so the degree is exactly max_degree) and the
    remaining terms sit strictly below it.  The draws are canonical as they
    stand (distinct exponents, nonzero coefficients in range, lex-descending),
    so the polynomial is built from them without ``from_terms`` or a sort.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if monic and max_degree < 1:
        raise ValueError("a monic draw here means non-constant, so max_degree >= 1")
    ring = config.sample_ring()
    zeros = (0,) * (config.nvars - 1)

    def term(e: int):
        return zeros + (e,)

    count = rng.randint(1, min(UNI_MAX_TERMS, max_degree + 1))
    if monic:
        exponents = rng.sample(range(max_degree), count - 1)
        pairs = [(term(max_degree), config.field.one())]
    else:
        exponents = rng.sample(range(max_degree + 1), count)
        pairs = []
    pairs.extend((term(e), sample_nonzero_coeff(config.field, rng)) for e in sorted(exponents, reverse=True))
    return Polynomial(ring, tuple(pairs))


def sample_shape_basis(config, rng: random.Random) -> list:
    """One reduced lex basis in shape position over the ``GenerationConfig``'s sample ring.

    Returns [x0 - g0, ..., x{n-2} - g{n-2}, h]; for one variable just [h].  Under
    lex xj ranks above every power of t, so xj and then gj's negated terms are canonical.
    """
    ring = config.sample_ring()
    mod = config.field.modulus
    deg_h = rng.randint(1, config.max_degree)
    h = sample_univariate(config, deg_h, monic=True, rng=rng)
    members = []
    for j in range(config.nvars - 1):
        g = sample_univariate(config, deg_h - 1, monic=False, rng=rng)
        negated = tuple((t, -c if mod is None else mod - c) for t, c in g.terms)
        members.append(Polynomial(ring, (ring.variable(j).leading_term,) + negated))
    members.append(h)
    return members
