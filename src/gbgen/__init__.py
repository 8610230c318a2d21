"""Exact-arithmetic toolkit for building (system, reduced basis) pairs.

The pipeline samples reduced lex Groebner bases of zero-dimensional ideals
in shape position, scrambles them into larger equivalent systems with
unimodular polynomial matrices, and serializes the pairs for training and
benchmarking.  Everything runs over exact coefficients (rationals or a
prime field) and is deterministic under a seed.

The package exports the names of the README's library quick start and
their siblings; everything else is imported from its module
(``gbgen.fglm``, ``gbgen.dataset``, ``gbgen.poly``, ...).
"""

from .field import RATIONALS, prime_field
from .orders import grevlex, grlex, lex
from .groebner import GroebnerTimeout, buchberger, is_reduced_groebner
from .dataset import GenerationConfig, check_pair, generate_dataset
from .solve import solve_shape

__all__ = [
    "GenerationConfig",
    "generate_dataset",
    "solve_shape",
    "buchberger",
    "check_pair",
    "is_reduced_groebner",
    "grevlex",
    "grlex",
    "lex",
    "prime_field",
    "RATIONALS",
    "GroebnerTimeout",
]

__version__ = "0.1.0"
