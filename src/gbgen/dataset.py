"""Dataset assembly: sample streams, statistics, tokens and JSONL files.

Each sample pairs a scrambled generating set F with the reduced Groebner
basis G it was built from.  Samples are independently seeded: sample i of a
run with master seed S is produced by an RNG seeded with a hash of (S, i),
so any sample can be regenerated in isolation and workers can split a run
without sharing state.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field as dataclass_field, fields
from fractions import Fraction
from typing import Iterable, Iterator

from .backward import BackwardSpec, backward_transform
from .field import FieldSpec
from .fglm import fglm
from .groebner import GroebnerTimeout, buchberger
from .orders import OrderKind, TermOrder, order_by_name
from .poly import Polynomial, PolyRing, _combination, _render
from .shapegen import ShapeBasisSpec, sample_shape_basis

__all__ = [
    "GenerationConfig",
    "SamplePair",
    "DatasetProfile",
    "OracleMismatchError",
    "SPOT_CHECK_TIMEOUT",
    "check_pair",
    "child_seed",
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
    "write_tokens",
    "record_line",
    "token_line",
    "sample_lines",
    "JsonlError",
    "BOS",
    "EOS",
    "SEP",
]


@dataclass(frozen=True)
class GenerationConfig:
    """Everything needed to reproduce a dataset byte for byte."""

    field: FieldSpec
    nvars: int
    num_samples: int
    max_degree: int = 5  # bound on deg(h)
    max_entry_degree: int = 3  # bound on transform entry degrees
    s_max: int | None = None  # None means nvars + 2
    density: float = 1.0
    uni_max_terms: int = 5
    entry_max_terms: int = 2
    num_range: tuple[int, int] = (-5, 5)
    den_range: tuple[int, int] = (1, 5)
    coeff_limit: int | None = 100
    max_retries: int = 50
    order: str = "lex"  # target order of the emitted pairs
    seed: int = 0
    drop_zeros: bool = False
    verify_fraction: float = 0.01

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be at least 1")
        if self.num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ValueError("verify_fraction must lie in [0, 1]")
        # The target order and the samplers' specs are built once, here, which
        # also runs their checks before the first sample.  They are plain
        # attributes, not fields, so that equality, hashing, repr and to_dict
        # see only the knobs.
        object.__setattr__(self, "_target_order", order_by_name(self.order, self.nvars))
        object.__setattr__(self, "_shape_spec", ShapeBasisSpec(
            field=self.field,
            nvars=self.nvars,
            max_degree=self.max_degree,
            max_terms=self.uni_max_terms,
            num_range=self.num_range,
            den_range=self.den_range,
        ))
        object.__setattr__(self, "_backward_spec", BackwardSpec(
            s_max=self.effective_s_max,
            max_entry_degree=self.max_entry_degree,
            density=self.density,
            max_entry_terms=self.entry_max_terms,
            num_range=self.num_range,
            den_range=self.den_range,
            coeff_limit=self.coeff_limit,
            max_retries=self.max_retries,
        ))
        if self.effective_s_max < self.nvars:
            raise ValueError(f"s_max {self.effective_s_max} below the basis size {self.nvars}")

    @property
    def effective_s_max(self) -> int:
        return self.nvars + 2 if self.s_max is None else self.s_max

    def target_order(self) -> TermOrder:
        return self._target_order

    def shape_spec(self) -> ShapeBasisSpec:
        return self._shape_spec

    def backward_spec(self) -> BackwardSpec:
        return self._backward_spec

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["field"] = self.field.to_dict()
        d["num_range"] = list(self.num_range)
        d["den_range"] = list(self.den_range)
        return d

    @staticmethod
    def from_dict(d: dict) -> "GenerationConfig":
        d = dict(d)
        d["field"] = FieldSpec.from_dict(d["field"])
        d["num_range"] = tuple(d["num_range"])
        d["den_range"] = tuple(d["den_range"])
        return GenerationConfig(**d)


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


# Seconds the inline spot check of ``generate_sample`` gives the oracle.
SPOT_CHECK_TIMEOUT = 5.0


def check_pair(pair: SamplePair, timeout: float | None = None) -> str:
    """The oracle: complete F afresh and compare the result with G.

    Returns "ok" when the reduced basis of the nonzero members of F equals G
    (sorted by the order key), "mismatch" when it differs, F has no nonzero
    member or G has a zero one (a reduced basis never does), and "timeout"
    when the completion runs past ``timeout`` seconds.  Only F and G are
    consulted, never the transform that built F.
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


def generate_sample(config: GenerationConfig, index: int) -> SamplePair:
    """Generate sample ``index`` of the run described by ``config``.

    Draw order per sample: shape basis, transform, then (if the target order
    is not lex) the conversion of G and re-sorting of F, then the spot-check
    coin flip.  Everything comes from one child RNG, so the pair is a pure
    function of (config, index).
    """
    seed = child_seed(config.seed, index)
    rng = random.Random(seed)
    basis = sample_shape_basis(config.shape_spec(), rng)
    sample = backward_transform(basis, config.backward_spec(), rng)
    F, G = sample.F, basis

    target = config.target_order()
    if target.kind is not OrderKind.LEX:
        G = fglm(G, target)
        F = [f.resorted(target) for f in F]

    if config.drop_zeros:
        F = [f for f in F if f]
    contains_zero = any(not f for f in F)

    pair = SamplePair(
        index=index,
        F=F,
        G=G,
        s=sample.s,
        seed_used=seed,
        contains_zero=contains_zero,
        over_range=sample.over_range,
        ring=G[0].ring,
    )
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
    from the degree extremes (they have none).
    """
    from .groebner import is_reduced_groebner

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
                stats[col]["groebner_ratio"].append(1.0 if nonzero and is_reduced_groebner(nonzero) else 0.0)
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


def parse_prefix_tokens(tokens, ring: PolyRing) -> list:
    """Invert :func:`to_prefix_tokens` over the given ring.

    The token loop checks each variable index, exponent and residue, so the
    terms go to the combination kernel as they are: it merges repeated
    monomials, drops vanishing sums and sorts into ring order.
    """
    tokens = list(tokens)
    if not tokens:
        return []
    rational = ring.field.modulus is None
    polys = []
    pending: list[tuple] = []
    pos = 0
    n = len(tokens)

    def flush():
        polys.append(Polynomial(ring, _combination(ring, [(1, None, pending)])))
        pending.clear()

    while pos < n:
        tok = tokens[pos]
        if tok == SEP:
            flush()
            pos += 1
            continue
        if tok == "C0":
            if pending:
                raise TokenError(pos, "C0 must stand alone for the zero polynomial")
            pos += 1
            if pos < n and tokens[pos] != SEP:
                raise TokenError(pos, "tokens after a zero polynomial")
            continue
        if tok not in ("+", "-"):
            raise TokenError(pos, f"expected a sign token, got {tok!r}")
        sign = 1 if tok == "+" else -1
        pos += 1
        if pos >= n or tokens[pos] != "*":
            raise TokenError(pos, "expected '*' after the sign")
        pos += 1
        if rational:
            if pos + 1 >= n or not tokens[pos].startswith("N") or not tokens[pos + 1].startswith("D"):
                raise TokenError(pos, "expected numerator and denominator tokens")
            try:
                num = int(tokens[pos][1:])
                den = int(tokens[pos + 1][1:])
            except ValueError:
                raise TokenError(pos, "malformed coefficient tokens") from None
            if den == 0:
                raise TokenError(pos + 1, "zero denominator")
            coeff = Fraction(sign * num, den)
            pos += 2
        else:
            if pos >= n or not tokens[pos].startswith("C"):
                raise TokenError(pos, "expected a residue token")
            try:
                coeff = int(tokens[pos][1:])
            except ValueError:
                raise TokenError(pos, "malformed residue token") from None
            if sign < 0:
                raise TokenError(pos - 2, "prime-field terms always carry '+'")
            if not 0 <= coeff < ring.field.modulus:
                raise TokenError(pos, f"residue {coeff} out of range")
            pos += 1
        exps = [0] * ring.nvars
        while pos < n and tokens[pos] == "^":
            if pos + 2 >= n or not tokens[pos + 1].startswith("x") or not tokens[pos + 2].startswith("E"):
                raise TokenError(pos, "expected '^ xi Ei'")
            try:
                var = int(tokens[pos + 1][1:])
                exp = int(tokens[pos + 2][1:])
            except ValueError:
                raise TokenError(pos + 1, "malformed power tokens") from None
            if not 0 <= var < ring.nvars:
                raise TokenError(pos + 1, f"variable x{var} out of range")
            if exp < 1:
                raise TokenError(pos + 2, "exponent tokens must be positive")
            exps[var] += exp
            pos += 3
        pending.append((tuple(exps), coeff))
    flush()
    return polys


# -- JSONL -------------------------------------------------------------------


class JsonlError(ValueError):
    """A dataset file line that cannot be decoded."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def ring_for(field: FieldSpec, nvars: int, order_name: str) -> PolyRing:
    return PolyRing(field, nvars, order_by_name(order_name, nvars))


def _record(pair: SamplePair, config: GenerationConfig, F: list[str], G: list[str]) -> dict:
    """A sample's record, given the texts of its F and G."""
    return {
        "index": pair.index,
        "field": config.field.to_dict(),
        "nvars": config.nvars,
        "order": config.order,
        "s": pair.s,
        "seed": pair.seed_used,
        "F": F,
        "G": G,
        "contains_zero": pair.contains_zero,
        "over_range": pair.over_range,
    }


def sample_to_record(pair: SamplePair, config: GenerationConfig) -> dict:
    return _record(pair, config, [str(f) for f in pair.F], [str(g) for g in pair.G])


def record_line(pair: SamplePair, config: GenerationConfig) -> str:
    """A sample's JSONL line, without the newline."""
    return json.dumps(sample_to_record(pair, config))


def sample_lines(pair: SamplePair, config: GenerationConfig) -> tuple[str, str]:
    """:func:`record_line` and :func:`token_line` of a sample, from one render walk per polynomial."""
    F = [_render(f) for f in pair.F]
    G = [_render(g) for g in pair.G]
    record = _record(pair, config, [text for text, _ in F], [text for text, _ in G])
    return json.dumps(record), f"{_framed([tokens for _, tokens in F])}\t{_framed([tokens for _, tokens in G])}"


# the JSON type of each field a record must carry (a bool is no int here)
_RECORD_TYPES = {"index": int, "field": dict, "nvars": int, "order": str, "s": int, "seed": int, "F": list, "G": list}
# the flags a record may carry; an absent one is false
_RECORD_FLAGS = ("contains_zero", "over_range")


def sample_from_record(record: dict, rings: dict | None = None) -> SamplePair:
    """Decode one dataset record.

    ``rings`` maps each header (field, nvars, order) decoded so far to its
    ring, so that a reader passing the same dict builds each ring once.
    """
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
    rings = {} if rings is None else rings
    header = (repr(record["field"]), record["nvars"], record["order"])
    if header not in rings:
        rings[header] = ring_for(FieldSpec.from_dict(record["field"]), record["nvars"], record["order"])
    ring = rings[header]
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
    rings: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlError(path, line_no, f"bad JSON: {exc}") from None
            try:
                yield sample_from_record(record, rings)
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
    """A sample's token-file line, without the newline: framed F tokens, a tab, framed G tokens."""
    return f"{_framed([_render(f)[1] for f in pair.F])}\t{_framed([_render(g)[1] for g in pair.G])}"


def write_tokens(samples: Iterable[SamplePair], path) -> int:
    """One :func:`token_line` per sample."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pair in samples:
            fh.write(token_line(pair) + "\n")
            count += 1
    return count
