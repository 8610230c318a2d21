"""Exact-arithmetic toolkit for building (system, reduced basis) pairs.

The pipeline samples reduced lex Groebner bases of zero-dimensional ideals
in shape position, scrambles them into larger equivalent systems with
unimodular polynomial matrices, and serializes the pairs for training and
benchmarking.  Everything runs over exact coefficients (rationals or a
prime field) and is deterministic under a seed.
"""

from .field import (
    Coeff,
    FieldElement,
    FieldKind,
    FieldSpec,
    RATIONALS,
    prime_field,
)
from .orders import (
    OrderKind,
    Term,
    TermOrder,
    grevlex,
    grlex,
    lex,
    order_by_name,
    term_divides,
    term_lcm,
)
from .poly import ParseError, PolyRing, Polynomial, normal_form
from .groebner import (
    GroebnerResult,
    GroebnerStats,
    GroebnerTimeout,
    buchberger,
    is_reduced_groebner,
    reduce_basis,
    s_polynomial,
)
from .fglm import DimensionError, QuotientBasis, fglm, quotient_basis
from .shapegen import ShapeBasisSpec, sample_shape_basis, sample_univariate
from .backward import (
    BackwardSample,
    BackwardSpec,
    PolyMatrix,
    backward_transform,
    sample_entry,
    sample_permutation,
    sample_unimodular_upper,
)
from .dataset import (
    BOS,
    EOS,
    SEP,
    DatasetProfile,
    GenerationConfig,
    JsonlError,
    OracleMismatchError,
    SamplePair,
    TokenError,
    check_pair,
    child_seed,
    generate_dataset,
    generate_sample,
    parse_prefix_tokens,
    profile_dataset,
    read_jsonl,
    ring_for,
    sample_from_record,
    sample_to_record,
    to_prefix_tokens,
    write_jsonl,
    write_meta,
    write_tokens,
)
from .solve import ShapeError, SolutionSet, solve_shape, univariate_roots_fp
from .bench import BenchReport, run_bench

__version__ = "0.1.0"
