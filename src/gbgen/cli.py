"""Command line front end.

Subcommands:

  generate   sample (F, G) pairs, writing <out>.jsonl, <out>.meta.json and
             <out>.tokens.txt
  verify     re-derive G from F with the completion oracle for every sample
             of a dataset file
  profile    aggregate size/degree/term statistics of a dataset file
  bench      time generation against forward completion per variable count
  tokenize   re-emit the token file of an existing dataset
  fglm       convert a dataset to another term order
  solve      enumerate the varieties of prime-field datasets

All sampling is deterministic given --seed; when the flag is omitted the
GBGEN_SEED environment variable supplies the default (0 if unset).  Exit
status is 0 on success, 1 when verification or solving finds a failure or
an input file has a malformed line, 2 on bad arguments (a GBGEN_SEED that
is not an integer, and generation values that cannot work together, such
as --s-max below --n, included).
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache, partial

from . import __version__

from .bench import DEFAULT_TIMEOUT, BenchReport, run_bench
from .dataset import (
    SPOT_CHECK_TIMEOUT,
    GenerationConfig,
    JsonlError,
    OracleMismatchError,
    check_pair,
    generate_sample,
    parse_prefix_tokens,
    profile_dataset,
    read_jsonl,
    record_line,
    sample_lines,
    token_line,
    write_meta,
)
from .field import FieldSpec, RATIONALS, prime_field
from .fglm import DimensionError, fglm
from .solve import ShapeError, solve_shape

__all__ = ["main", "build_parser"]


def parse_field(text: str) -> FieldSpec:
    """Accept 'q' (or 'qq'/'rationals') and 'f<p>' / 'gf<p>' / bare primes."""
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return RATIONALS
    for prefix in ("gf", "f", ""):
        digits = t[len(prefix):]
        if t.startswith(prefix) and digits.isdigit():
            try:
                return prime_field(int(digits))
            except ValueError:
                raise argparse.ArgumentTypeError(f"the modulus {int(digits)} of {text!r} is not a prime") from None
    raise argparse.ArgumentTypeError(f"cannot read field {text!r}; try q, f7, f31 or gf101")


def _seed(text: str) -> int:
    # argparse also runs this on the GBGEN_SEED default when --seed is omitted
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer (--seed and GBGEN_SEED take integers)") from None


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a worker count >= 1")
    return value


def _nvars_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: --n takes comma-separated variable counts, e.g. 2,3,4") from None


def _timeout(text: str) -> float:
    """Seconds for the completion oracle: a number >= 0, or inf for no cap."""
    try:
        value = float(text)
        ok = value >= 0  # false for nan
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number of seconds >= 0 (or inf)")
    return value


@cache
def _generator_stamp() -> dict:
    """Version record for the meta sidecar; adds the git revision when available.

    Computed once per process, as loaded code keeps its revision; callers
    pass on a copy, so the cached record stays as it is.
    """
    stamp = {"generator": f"gbgen {__version__}"}
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            stamp["generator_revision"] = proc.stdout.strip()
    except OSError:
        pass
    return stamp


def _add_generation_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--field", type=parse_field, required=True, help="q for rationals, f<p> for GF(p)")
    p.add_argument("--m", type=int, required=True, help="number of samples")
    p.add_argument("--d", type=int, default=5, help="max degree of the univariate member (default 5)")
    p.add_argument("--d-prime", type=int, default=3, help="max total degree of transform entries (default 3)")
    p.add_argument("--s-max", type=int, default=None, help="max system size (default n+2)")
    p.add_argument("--sigma", type=float, default=1.0, help="fill density of the triangular factors (default 1.0)")
    p.add_argument("--order", default="lex", choices=["lex", "grlex", "grevlex"], help="target term order")
    p.add_argument("--seed", type=_seed, default=os.environ.get("GBGEN_SEED", "0"),
                   help="master seed (default GBGEN_SEED or 0)")
    p.add_argument("--drop-zeros", action="store_true", help="drop zero rows from F instead of keeping them")
    p.add_argument("--verify-fraction", type=float, default=0.01, help="fraction spot-checked inline (default 0.01)")


def _config_from_args(args) -> GenerationConfig:
    return GenerationConfig(
        field=args.field,
        nvars=args.n,
        num_samples=args.m,
        max_degree=args.d,
        max_entry_degree=args.d_prime,
        s_max=args.s_max,
        density=args.sigma,
        order=args.order,
        seed=args.seed,
        drop_zeros=args.drop_zeros,
        verify_fraction=args.verify_fraction,
    )


# Items handed to the worker pool at a time, in units of jobs * chunksize:
# enough to keep the workers busy, few enough to never hold a long input whole
_WINDOW_CHUNKS = 16


def _ordered_map(fn, items, jobs: int, chunksize: int):
    """``map(fn, items)``, spread over ``jobs`` worker processes when jobs > 1."""
    if jobs <= 1:
        yield from map(fn, items)
        return
    # Executor.map submits every item it is given before it yields, so it
    # only ever sees one window of them
    items = iter(items)
    window = _WINDOW_CHUNKS * jobs * chunksize
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch := list(itertools.islice(items, window)):
            yield from pool.map(fn, batch, chunksize=chunksize)


class _Abort(Exception):
    """A command found a failure after it began writing; the message goes to stderr."""


@contextmanager
def _staged(*paths):
    """Yield temporaries next to ``paths``: renamed onto them on success, removed on an exception."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temps
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    for temp, path in zip(temps, paths):
        os.replace(temp, path)


def _render_sample(config: GenerationConfig, index: int):
    pair = generate_sample(config, index)
    return index, pair.seed_used, pair.spot_check, *sample_lines(pair, config)


# The flag that sets each config field.  A config value error opens with the
# field's name, and the report names the flag the user typed instead.
_FLAG_OF_FIELD = {"nvars": "--n", "num_samples": "--m", "max_degree": "--d", "max_entry_degree": "--d-prime",
                  "s_max": "--s-max", "density": "--sigma", "verify_fraction": "--verify-fraction"}


def _bad_values(args, exc: ValueError) -> int:
    """Report values argparse accepted but the command cannot use, as argparse would; exit 2."""
    message = str(exc)
    name, _, rest = message.partition(" ")
    if name in _FLAG_OF_FIELD:
        message = f"{_FLAG_OF_FIELD[name]} {rest}"
    print(f"gbgen {args.command}: error: {message}", file=sys.stderr)
    return 2


def cmd_generate(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        return _bad_values(args, exc)
    jsonl_path = f"{args.out}.jsonl"
    rendered = _ordered_map(partial(_render_sample, config), range(config.num_samples), args.jobs, chunksize=32)
    try:
        with _staged(jsonl_path, f"{args.out}.tokens.txt", f"{args.out}.meta.json") as (
            jsonl_temp, tokens_temp, meta_temp
        ):
            with open(jsonl_temp, "w", encoding="utf-8") as records, \
                    open(tokens_temp, "w", encoding="utf-8") as tokens:
                for index, seed, spot_check, record, token in rendered:
                    if spot_check == "timeout":
                        print(f"TIMEOUT spot check of sample {index} (child_seed {seed}): kept unchecked",
                              file=sys.stderr)
                    records.write(record + "\n")
                    tokens.write(token + "\n")
            write_meta(meta_temp, config, extra=dict(_generator_stamp()))
    except OracleMismatchError as exc:
        print(f"generation aborted: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {config.num_samples} samples to {jsonl_path}")
    return 0


def _check_sample(timeout, pair):
    return pair.index, pair.seed_used, check_pair(pair, timeout)


def cmd_verify(args) -> int:
    checks = _ordered_map(partial(_check_sample, args.timeout), read_jsonl(args.input), args.jobs, chunksize=8)
    failures = 0
    total = 0
    for index, seed, outcome in checks:
        total += 1
        if outcome == "timeout":
            print(f"TIMEOUT sample {index} (child_seed {seed}): no basis within {args.timeout:g} s")
        elif outcome == "mismatch":
            print(f"FAIL sample {index}: completion of F does not give G")
        failures += outcome != "ok"
    print(f"verified {total} samples: {total - failures} ok, {failures} failed")
    return 1 if failures else 0


def cmd_profile(args) -> int:
    profile = profile_dataset(read_jsonl(args.input), check_groebner=not args.no_groebner)
    if args.format == "json":
        print(json.dumps(profile.to_dict(), indent=2))
    else:
        print(profile.format_table())
    return 0


def cmd_bench(args) -> int:
    try:
        configs = [
            GenerationConfig(field=args.field, nvars=n, num_samples=args.m, s_max=args.s_max, density=args.sigma,
                             seed=args.seed)
            for n in args.n
        ]
    except ValueError as exc:
        return _bad_values(args, exc)
    reports = [run_bench(config, timeout=args.timeout) for config in configs]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        print(BenchReport.table_header())
        for r in reports:
            print(r.table_row())
    return 0


def cmd_tokenize(args) -> int:
    count = 0
    try:
        with _staged(args.out) as (temp,), open(temp, "w", encoding="utf-8") as fh:
            for pair in read_jsonl(args.input):
                ring = pair.ring
                line = token_line(pair)
                # cheap paranoia: the line must parse back to the input
                left, right = (side.split(" ")[1:-1] for side in line.split("\t"))
                if parse_prefix_tokens(left, ring) != pair.F or parse_prefix_tokens(right, ring) != pair.G:
                    raise _Abort(f"FAIL sample {pair.index}: tokens do not round-trip")
                fh.write(line + "\n")
                count += 1
    except _Abort as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"tokenized {count} samples into {args.out}")
    return 0


def cmd_fglm(args) -> int:
    count = 0
    stamps = {}  # ring -> the config a record is stamped with: its field, nvars and the target order
    try:
        with _staged(args.out) as (temp,), open(temp, "w", encoding="utf-8") as fh:
            for pair in read_jsonl(args.input):
                if not any(pair.G):
                    raise _Abort(f"sample {pair.index}: cannot convert an empty basis")
                ring = pair.ring
                if ring.order.name() != args.src_order:
                    raise _Abort(f"sample {pair.index} is under {ring.order.name()}, not {args.src_order}")
                if ring not in stamps:
                    stamps[ring] = GenerationConfig(field=ring.field, nvars=ring.nvars, num_samples=0,
                                                    order=args.to_order)
                stamp = stamps[ring]
                target = stamp.target_order()
                try:
                    pair.G = fglm(pair.G, target)
                except DimensionError as exc:
                    raise _Abort(f"sample {pair.index}: {exc}") from None
                pair.F = [f.resorted(target) for f in pair.F]
                fh.write(record_line(pair, stamp) + "\n")
                count += 1
    except _Abort as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"converted {count} samples to {args.to_order} in {args.out}")
    return 0


def cmd_solve(args) -> int:
    failures = 0
    total = 0
    for pair in read_jsonl(args.input):
        total += 1
        try:
            solutions = solve_shape(pair.G)
        except (ShapeError, ValueError) as exc:
            print(f"sample {pair.index}: cannot solve ({exc})")
            failures += 1
            continue
        bad = 0
        for point in solutions.points:
            values = [c.value for c in point]
            if any(f and f.evaluate(values) for f in pair.F):
                bad += 1
        rendered = ["(" + ", ".join(str(c) for c in point) + ")" for point in solutions.points]
        verdict = "ok" if bad == 0 else f"{bad} points fail F"
        print(f"sample {pair.index}: {len(solutions.points)} solutions {rendered} [{verdict}]")
        if bad:
            failures += 1
    print(f"solved {total} samples, {failures} failures")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gbgen", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample (F, G) pairs into dataset files")
    _add_generation_flags(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--jobs", type=_jobs, default=1, help="worker processes (default 1)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run the completion oracle over a dataset")
    p.add_argument("--input", required=True, help="dataset .jsonl path")
    p.add_argument("--timeout", type=_timeout, default=SPOT_CHECK_TIMEOUT,
                   help=f"per-sample seconds for the oracle (default {SPOT_CHECK_TIMEOUT:g}; inf for no cap)")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("profile", help="dataset statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--no-groebner", action="store_true", help="skip the reducedness ratio (faster)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("bench", help="time backward generation against forward completion")
    p.add_argument("--n", type=_nvars_list, required=True,
                   help="variable counts, comma separated (e.g. 2,3,4,5)")
    p.add_argument("--field", type=parse_field, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s-max", type=int, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=_seed, default=os.environ.get("GBGEN_SEED", "0"))
    p.add_argument("--timeout", type=_timeout, default=DEFAULT_TIMEOUT)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("tokenize", help="emit the prefix-token file of a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("fglm", help="convert a dataset to another term order")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="src_order", default="lex", choices=["lex", "grlex", "grevlex"])
    p.add_argument("--to", dest="to_order", required=True, choices=["lex", "grlex", "grevlex"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fglm)

    p = sub.add_parser("solve", help="enumerate varieties of a prime-field dataset")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_solve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except JsonlError as exc:
        print(f"gbgen: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
