"""Dataset assembly: sample streams, statistics, tokens and JSONL files.

Each sample pairs a scrambled generating set F with the reduced Groebner
basis G it was built from.  Samples are independently seeded: sample i of a
run with master seed S is produced by an RNG seeded with a hash of (S, i),
so any sample can be regenerated in isolation and workers can split a run
without sharing state.  A ``GenerationConfig`` holds the knobs that a run
sets for both samplers, ``shapegen`` and ``backward``, and checks each of
them once; the coefficient ranges, term-count caps and rejection limits
are constants of those modules.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field as dataclass_field, fields
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .backward import COEFF_LIMIT, ENTRY_MAX_TERMS, MAX_RETRIES, backward_transform
from .field import FieldSpec
from .fglm import fglm
from .groebner import GroebnerTimeout, buchberger, is_reduced_groebner
from .orders import (
    EXPONENT_LIMIT, ExponentLimitError, OrderKind, TermOrder, _overflow, lex, order_by_name, within_limit,
)
from .poly import _MONOMIAL_CACHE_SIZE, Polynomial, PolyRing, _canonical, _render, _shared_ring
from .shapegen import DEN_RANGE, NUM_RANGE, UNI_MAX_TERMS, sample_shape_basis

__all__ = [
    "GenerationConfig",
    "SamplePair",
    "DatasetProfile",
    "OracleMismatchError",
    "SPOT_CHECK_TIMEOUT",
    "check_pair",
    "child_seed",
    "convert_pair",
    "generate_sample",
    "generate_dataset",
    "profile_dataset",
    "to_prefix_tokens",
    "parse_prefix_tokens",
    "TokenError",
    "sample_to_record",
    "sample_from_record",
    "ring_for",
    "write_jsonl",
    "read_jsonl",
    "write_meta",
    "record_line",
    "token_line",
    "JsonlError",
    "BOS",
    "EOS",
    "SEP",
]


@dataclass(frozen=True)
class GenerationConfig:
    """Everything needed to reproduce a dataset byte for byte, checked before the first sample."""

    field: FieldSpec
    nvars: int
    num_samples: int
    max_degree: int = 5  # bound on deg(h), drawn uniformly from 1..max_degree
    max_entry_degree: int = 3  # total-degree bound on transform entries
    s_max: int | None = None  # bound on the system size s, uniform on [nvars, s_max]; None means nvars + 2
    density: float = 1.0  # probability that a slot above a triangle's diagonal is filled
    order: str = "lex"  # target order of the emitted pairs
    seed: int = 0
    drop_zeros: bool = False
    verify_fraction: float = 0.01

    def __post_init__(self):
        # exact types, so that a bool is no number and a bad meta.json value fails here, not mid-generation
        for name, kinds, what in _KNOB_TYPES:
            if type(value := getattr(self, name)) not in kinds:
                raise ValueError(f"{name} must be {what}, got {value!r}")
        for name, least in (("nvars", 1), ("num_samples", 0), ("max_degree", 1), ("max_entry_degree", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be {'at least 1' if least else 'non-negative'}")
        for name in ("density", "verify_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.effective_s_max < 1:
            raise ValueError("s_max must be at least 1")
        if self.effective_s_max < self.nvars:
            raise ValueError(f"s_max {self.effective_s_max} below the basis size {self.nvars}")
        # F = U1 * P * U2 * G: each triangular sweep adds up to max_entry_degree
        if (top := self.max_degree + 2 * self.max_entry_degree) > EXPONENT_LIMIT:
            raise ValueError(f"max_degree {self.max_degree} and max_entry_degree {self.max_entry_degree} give F "
                             f"degrees up to {top}, past the limit {EXPONENT_LIMIT} of a packed monomial")
        # Built once; the ring comes from the shared cache, so twin configs
        # share it.  Plain attributes, not fields, so that equality, hashing,
        # repr and to_dict see only the knobs.
        object.__setattr__(self, "_target_order", order_by_name(self.order, self.nvars))
        object.__setattr__(self, "_sample_ring", _shared_ring(self.field, self.nvars, lex(self.nvars)))

    @property
    def effective_s_max(self) -> int:
        return self.nvars + 2 if self.s_max is None else self.s_max

    def target_order(self) -> TermOrder:
        return self._target_order

    def sample_ring(self) -> PolyRing:
        """The lex ring of the shape basis and of F before any order conversion."""
        return self._sample_ring

    # The benchmark's traced rebuild of generate_sample (gbbench/workloads.py)
    # hands these to the samplers, which take the config itself; they go once
    # the benchmark passes the config directly.
    def shape_spec(self) -> "GenerationConfig":
        return self

    backward_spec = shape_spec

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["field"] = self.field.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "GenerationConfig":
        """The config of a ``meta.json``; a knob it lacks, other than the three required, keeps its default.

        An older ``meta.json`` also lists the six sampler constants that were
        once knobs; each loads only at its constant's value.
        """
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        for key in d:
            if key not in GenerationConfig.__dataclass_fields__ and key not in _RETIRED_KNOBS:
                raise ValueError(f"unknown config key {key!r}")
        for key in ("field", "nvars", "num_samples"):
            if key not in d:
                raise ValueError(f"config is missing key {key!r}")
        d = dict(d)
        for key, value in _RETIRED_KNOBS.items():
            # by repr, so that 50.0 or [-5.0, 5] is no match either
            if key in d and repr(got := d.pop(key)) != repr(value):
                raise ValueError(f"{key} must be {value!r}, the samplers' constant, got {got!r}")
        d["field"] = FieldSpec.from_dict(d["field"])
        return GenerationConfig(**d)


# The sampler constants that older meta.json files list as config knobs, at
# their values as JSON reads them back.
_RETIRED_KNOBS = {
    "uni_max_terms": UNI_MAX_TERMS, "entry_max_terms": ENTRY_MAX_TERMS, "num_range": list(NUM_RANGE),
    "den_range": list(DEN_RANGE), "coeff_limit": COEFF_LIMIT, "max_retries": MAX_RETRIES,
}


# (knob, its exact types, their name in an error), for every knob
_KNOB_TYPES = (
    ("field", (FieldSpec,), "a FieldSpec"), ("s_max", (int, type(None)), "None or an integer"),
    ("density", (int, float), "a number"), ("verify_fraction", (int, float), "a number"),
    ("order", (str,), "a str"), ("drop_zeros", (bool,), "a bool"),
    *((name, (int,), "an integer") for name in ("nvars", "num_samples", "max_degree", "max_entry_degree", "seed")),
)


@dataclass
class SamplePair:
    """One (F, G) pair plus the bookkeeping to reproduce and audit it."""

    index: int
    F: list
    G: list
    s: int
    seed_used: int
    contains_zero: bool = False
    over_range: bool = False
    # the ring of F and G, named by the config or the record header; it is
    # the only one there is when both lists are empty
    ring: PolyRing | None = dataclass_field(default=None, compare=False, repr=False)
    # outcome of the inline spot check: None when the coin flip skipped it,
    # else "ok" or "timeout" (a mismatch raises OracleMismatchError instead)
    spot_check: str | None = dataclass_field(default=None, compare=False)


class OracleMismatchError(RuntimeError):
    """Spot verification found a sample whose F does not regenerate G."""

    def __init__(self, index: int, detail: str):
        # both values go to the base class so that the error survives the
        # pickling that carries it out of a worker process
        super().__init__(index, detail)
        self.index = index
        self.detail = detail

    def __str__(self):
        return f"sample {self.index}: {self.detail}"


# Seconds the inline spot check of ``generate_sample`` gives the oracle; also
# the default cap of ``gbgen verify`` and ``gbgen bench``.
SPOT_CHECK_TIMEOUT = 5.0


def check_pair(pair: SamplePair, timeout: float | None = None) -> str:
    """The oracle: complete F afresh and compare the result with G.

    Returns "ok" when the reduced basis of the nonzero members of F equals G
    (sorted by the order key), "mismatch" when it differs, F has no nonzero
    member or G has a zero one (a reduced basis never does), and "timeout"
    when the completion runs past ``timeout`` seconds.  Only F and G are
    consulted, never the transform that built F.  A completion that forms a
    monomial past the packed limit raises ExponentLimitError.
    """
    gens = [f for f in pair.F if f]
    if not gens or not all(pair.G):
        return "mismatch"
    try:
        recovered = buchberger(gens, timeout=timeout, chain_criterion=True).basis
    except GroebnerTimeout:
        return "timeout"
    expected = sorted(pair.G, key=lambda g: g.ring.order.key(g.leading_monomial))
    return "ok" if recovered == expected else "mismatch"


def child_seed(seed: int, index: int) -> int:
    """Stable per-sample seed, independent of platform hash randomization."""
    payload = f"{seed}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def convert_pair(pair: SamplePair, target: TermOrder) -> None:
    """Move ``pair`` to ``target`` order in place: G by FGLM, F re-sorted, ``ring`` that of the new G.

    Raises DimensionError for a G that is not zero-dimensional, whatever the
    target, and ExponentLimitError for a term of F past a graded ring's limit.
    """
    pair.G = fglm(pair.G, target)
    pair.F = [f.resorted(target) for f in pair.F]
    pair.ring = pair.G[0].ring


def generate_sample(config: GenerationConfig, index: int) -> SamplePair:
    """Generate sample ``index`` of the run described by ``config``.

    Draw order per sample: shape basis, transform, then (if the target order
    is not lex) the conversion of the pair, then the spot-check coin flip.
    Everything comes from one child RNG, so the pair is a pure function of
    (config, index).
    """
    seed = child_seed(config.seed, index)
    rng = random.Random(seed)
    basis = sample_shape_basis(config, rng)
    sample = backward_transform(basis, config, rng)
    F = [f for f in sample.F if f] if config.drop_zeros else sample.F
    pair = SamplePair(
        index=index,
        F=F,
        G=basis,
        s=sample.s,
        seed_used=seed,
        contains_zero=any(not f for f in F),
        over_range=sample.over_range,
        ring=basis[0].ring,
    )
    if config.target_order().kind is not OrderKind.LEX:
        convert_pair(pair, config.target_order())  # re-sorting keeps a zero row zero, so the flag stands
    if config.verify_fraction > 0 and rng.random() < config.verify_fraction:
        pair.spot_check = check_pair(pair, SPOT_CHECK_TIMEOUT)
        if pair.spot_check == "mismatch":
            raise OracleMismatchError(index, f"completion of F does not give G (child_seed {seed})")
    return pair


def generate_dataset(config: GenerationConfig) -> Iterator[SamplePair]:
    """Lazily yield the configured number of samples in index order."""
    for i in range(config.num_samples):
        yield generate_sample(config, i)


# -- statistics -------------------------------------------------------------


def _mean_std(values) -> tuple[float, float]:
    vals = list(values)
    if not vals:
        return 0.0, 0.0
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return mean, var**0.5


@dataclass
class DatasetProfile:
    """Mean/std summaries of both columns of a sample stream."""

    num_samples: int
    metrics: dict  # column -> metric -> (mean, std)

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "metrics": {
                col: {name: {"mean": m, "std": s} for name, (m, s) in by.items()}
                for col, by in self.metrics.items()
            },
        }

    def format_table(self) -> str:
        lines = [f"samples: {self.num_samples}"]
        header = f"{'metric':<22}" + "".join(f"{col:>18}" for col in self.metrics)
        lines.append(header)
        names = list(next(iter(self.metrics.values())).keys())
        for name in names:
            row = f"{name:<22}"
            for col in self.metrics:
                m, s = self.metrics[col][name]
                row += f"{m:>10.3g} ({s:.2g})".rjust(18)
            lines.append(row)
        return "\n".join(lines)


def profile_dataset(samples: Iterable[SamplePair], check_groebner: bool = True) -> DatasetProfile:
    """Aggregate size, degree, term-count and reducedness statistics.

    Zero polynomials count toward sizes and term totals but are excluded
    from the degree extremes (they have none).  A reducedness check that
    forms a monomial past the packed limit raises ExponentLimitError, which
    names the sample.
    """
    names = ["size", "max_degree", "min_degree", "num_terms"]
    if check_groebner:
        names.append("groebner_ratio")
    stats = {"F": {k: [] for k in names}, "G": {k: [] for k in names}}
    count = 0
    for pair in samples:
        count += 1
        for col, polys in (("F", pair.F), ("G", pair.G)):
            nonzero = [f for f in polys if f]
            degrees = [f.total_degree() for f in nonzero]
            stats[col]["size"].append(len(polys))
            stats[col]["num_terms"].append(sum(f.num_terms() for f in polys))
            if degrees:
                stats[col]["max_degree"].append(max(degrees))
                stats[col]["min_degree"].append(min(degrees))
            if check_groebner:
                try:
                    reduced = bool(nonzero) and is_reduced_groebner(nonzero)
                except ExponentLimitError as exc:
                    raise ExponentLimitError(f"sample {pair.index}, {col}: {exc}") from None
                stats[col]["groebner_ratio"].append(1.0 if reduced else 0.0)
    metrics = {col: {name: _mean_std(vals) for name, vals in by.items()} for col, by in stats.items()}
    return DatasetProfile(num_samples=count, metrics=metrics)


# -- prefix tokens -----------------------------------------------------------

BOS, EOS, SEP = "BOS", "EOS", "SEP"


class TokenError(ValueError):
    """A token stream that does not match the prefix grammar."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"token {pos}: {message}")
        self.pos = pos


def to_prefix_tokens(polys) -> list[str]:
    """Flatten a polynomial list into prefix tokens, SEP between members.

    Terms appear in descending ring order, each as sign, '*', coefficient
    tokens, then '^ xi Ei' power triples.  Prime-field coefficients are
    single residue tokens C0..C{p-1}; rational ones split into sign,
    numerator and denominator tokens.  A zero polynomial is the lone C0.
    """
    text = f" {SEP} ".join([_render(f)[1] for f in polys])
    return text.split(" ") if text else []


def _framed(token_texts: list[str]) -> str:
    """The token texts of a polynomial list between BOS and EOS, SEP between members."""
    if not token_texts:
        return f"{BOS} {EOS}"
    return f"{BOS} {f' {SEP} '.join(token_texts)} {EOS}"


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _token_number(token: str) -> int | str:
    """The number after a token's one-letter prefix, or the message of why it reads none.

    Only ASCII decimal digits with no sign or leading 0 read, and no more of them than ``int()`` reads.
    """
    digits = token[1:]
    if not (digits.isdigit() and digits.isascii()) or (digits[0] == "0" and len(digits) > 1):
        return f"malformed number in {token!r}"
    try:
        return int(digits)
    except ValueError:  # longer than int()'s digit limit
        return f"number of {len(digits)} digits is too long to read"


# the coefficient of a rational term, by its signed numerator and its denominator
_fraction = lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)(Fraction)


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _power_exponents(triples: tuple, nvars: int, graded: bool) -> tuple:
    """Read a term's power triples: ``("^", "x0", "E2", "^", "x1", "E1")`` gives ((2, 1), None).

    Each triple, its '^' found by the caller, must be ``^ xi Ei`` with a
    variable in range and a positive exponent, each a number
    :func:`_token_number` reads (so no token holds a blank); a repeated
    variable's exponents add up.  Triples that fail give (offset, message)
    instead: the first token refused, counted from the first '^', and why.
    A term past the packed limit is refused at the variable that takes it past.
    """
    exps = [0] * nvars
    for at in range(0, len(triples), 3):
        var, exp = triples[at + 1:at + 3] if at + 2 < len(triples) else ("", "")  # a short last triple
        if not (isinstance(var, str) and var[:1] == "x" and isinstance(exp, str) and exp[:1] == "E"):
            return at, "expected '^ xi Ei'"
        i, e = _token_number(var), _token_number(exp)
        if isinstance(i, str):
            return at + 1, i
        if isinstance(e, str):
            return at + 2, e
        if i >= nvars:
            return at + 1, f"variable x{i} out of range"
        if not e:
            return at + 2, "exponent tokens must be positive"
        exps[i] += e
        if not within_limit(exps, graded):
            return at + 1, str(_overflow(tuple(exps)))
    return tuple(exps), None


def parse_prefix_tokens(tokens, ring: PolyRing) -> list:
    """Invert :func:`to_prefix_tokens` over the given ring; one walk reads the tokens and names the errors.

    It checks each term's sign, '*' and coefficient tokens as it passes
    them, and reads the term's power triples, found by stepping over '^'
    every third token, with one lookup in :func:`_power_exponents`, which
    gives either their exponents or the token it refused and why.
    Terms in ring order are kept as they are, others merged and sorted.
    Only what the writer can emit parses: every member is nonempty (zero is
    the lone C0), every coefficient in a term is nonzero and in lowest
    terms, every number is ASCII decimal digits with no sign or leading 0,
    and no token holds a blank.
    """
    tokens = list(tokens)
    if not tokens:
        return []
    mod, nvars, graded = ring.field.modulus, ring.nvars, ring.order.packing.graded
    polys, terms = [], []
    pos = start = 0
    n = len(tokens)

    def flush():
        if pos == start:
            raise TokenError(pos, "empty polynomial")
        polys.append(Polynomial(ring, _canonical(ring, terms)))
        terms.clear()

    def starts(at: int, prefix: str) -> bool:
        return isinstance(tokens[at], str) and tokens[at].startswith(prefix)

    def number(at: int) -> int:
        if isinstance(value := _token_number(tokens[at]), str):
            raise TokenError(at, value)
        return value

    while pos < n:
        tok = tokens[pos]
        if tok == SEP:
            flush()
            pos = start = pos + 1
            continue
        if tok == "C0":
            # past the member's start only after a term, since a C0 is followed by SEP or the end
            if pos > start:
                raise TokenError(pos, "C0 must stand alone for the zero polynomial")
            pos += 1
            if pos < n and tokens[pos] != SEP:
                raise TokenError(pos, "tokens after a zero polynomial")
            continue
        if tok not in ("+", "-"):
            raise TokenError(pos, f"expected a sign token, got {tok!r}")
        pos += 1
        if pos >= n or tokens[pos] != "*":
            raise TokenError(pos, "expected '*' after the sign")
        pos += 1
        if mod is None:
            if pos + 1 >= n or not starts(pos, "N") or not starts(pos + 1, "D"):
                raise TokenError(pos, "expected numerator and denominator tokens")
            num, den = number(pos), number(pos + 1)
            if den == 0:
                raise TokenError(pos + 1, "zero denominator")
            coeff = _fraction(-num if tok == "-" else num, den)
            if not num or coeff.denominator != den:
                raise TokenError(pos, f"N{num} D{den} is not a nonzero fraction in lowest terms")
            pos += 2
        else:
            if pos >= n or not starts(pos, "C"):
                raise TokenError(pos, "expected a residue token")
            coeff = number(pos)
            if tok == "-":
                raise TokenError(pos - 2, "prime-field terms always carry '+'")
            if not 0 < coeff < mod:
                raise TokenError(pos, f"residue {coeff} out of range for a term")
            pos += 1
        end = pos
        while end < n and tokens[end] == "^":
            end += 3
        triples = tuple(tokens[pos:end])
        try:
            found, refusal = _power_exponents(triples, nvars, graded)
        except TypeError:  # a token that cannot be hashed, read without the cache
            found, refusal = _power_exponents.__wrapped__(triples, nvars, graded)
        if refusal:
            raise TokenError(pos + found, refusal)
        terms.append((found, coeff))
        pos = end
    flush()
    return polys


# -- JSONL -------------------------------------------------------------------


class JsonlError(ValueError):
    """A dataset file line that cannot be decoded."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def ring_for(field: FieldSpec, nvars: int, order_name: str) -> PolyRing:
    return _shared_ring(field, nvars, order_by_name(order_name, nvars))


def sample_to_record(pair: SamplePair, config: GenerationConfig) -> dict:
    return {
        "index": pair.index,
        "field": config.field.to_dict(),
        "nvars": config.nvars,
        "order": config.order,
        "s": pair.s,
        "seed": pair.seed_used,
        "F": [str(f) for f in pair.F],
        "G": [str(g) for g in pair.G],
        "contains_zero": pair.contains_zero,
        "over_range": pair.over_range,
    }


def record_line(pair: SamplePair, config: GenerationConfig) -> str:
    """A sample's JSONL line, without the newline; each polynomial keeps its render for :func:`token_line`."""
    return json.dumps(sample_to_record(pair, config))


# the JSON type of each field a record must carry (a bool is no int here)
_RECORD_TYPES = {"index": int, "field": dict, "nvars": int, "order": str, "s": int, "seed": int, "F": list, "G": list}
# the flags a record may carry; an absent one is false
_RECORD_FLAGS = ("contains_zero", "over_range")


def sample_from_record(record: dict) -> SamplePair:
    """Decode one dataset record; records with one header share one ring."""
    if not isinstance(record, dict):
        raise ValueError(f"record must be a JSON object, got {type(record).__name__}")
    for key, kind in _RECORD_TYPES.items():
        if key not in record:
            raise ValueError(f"missing key {key!r}")
        value = record[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{key!r} must be a JSON {kind.__name__}, got {type(value).__name__}")
    for key in ("F", "G"):
        if not all(isinstance(text, str) for text in record[key]):
            raise ValueError(f"{key!r} must list polynomials as strings")
    for key in _RECORD_FLAGS:
        if not isinstance(record.get(key, False), bool):
            raise ValueError(f"{key!r} must be a JSON bool, got {type(record[key]).__name__}")
    if record["nvars"] < 1:
        raise ValueError(f"'nvars' must be at least 1, got {record['nvars']}")
    ring = ring_for(FieldSpec.from_dict(record["field"]), record["nvars"], record["order"])
    return SamplePair(
        index=record["index"],
        F=[ring.parse(text) for text in record["F"]],
        G=[ring.parse(text) for text in record["G"]],
        s=record["s"],
        seed_used=record["seed"],
        contains_zero=record.get("contains_zero", False),
        over_range=record.get("over_range", False),
        ring=ring,
    )


def write_jsonl(samples: Iterable[SamplePair], path, config: GenerationConfig) -> int:
    """Stream samples to ``path`` one JSON object per line; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pair in samples:
            fh.write(record_line(pair, config) + "\n")
            count += 1
    return count


def read_jsonl(path) -> Iterator[SamplePair]:
    """Lazily parse a dataset file, raising JsonlError with the line number."""
    # an undecodable byte reads as a lone surrogate, which the line's UTF-8 check reports
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")
                record = json.loads(line)
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise JsonlError(path, line_no, f"not UTF-8: undecodable byte {byte:#04x}") from None
            except (ValueError, RecursionError) as exc:  # ValueError: also a number over int's digit limit
                raise JsonlError(path, line_no, f"bad JSON: {exc}") from None
            try:
                yield sample_from_record(record)
            except ValueError as exc:
                raise JsonlError(path, line_no, str(exc)) from None


def write_meta(path, config: GenerationConfig, extra: dict | None = None):
    meta = {"config": config.to_dict()}
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def token_line(pair: SamplePair) -> str:
    """A sample's token-file line, without the newline: framed F tokens, a tab, framed G tokens.

    A :func:`record_line` of the sample before it leaves nothing to walk.
    """
    return f"{_framed([_render(f)[1] for f in pair.F])}\t{_framed([_render(g)[1] for g in pair.G])}"
