"""Measurement logic of the gbgen benchmark, independent of gbgen itself.

Nothing here imports gbgen, so the rules below (the tail percentile, span
self time, the verify outcome tally, metric naming) can be tested without
the package under test.  All timing uses ``time.perf_counter``.
"""

import bisect
import hashlib
import math
import os
import platform
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_BEYOND = 10


def tail_percentile(values, want: float, min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """The ``want`` percentile, or the highest one below it with ``min_beyond`` values beyond.

    Nearest-rank definition: percentile q is the value at 1-based rank
    ceil(q/100 * n) of the sorted values.  Returns ``(q, value)`` with q the
    percentile actually used, so callers can state it with the sample count.
    Raises ValueError when there are too few values for any percentile.
    """
    s = sorted(values)
    n = len(s)
    if n <= min_beyond:
        raise ValueError(f"{n} values: need more than {min_beyond} for a percentile")
    q = min(want, 100.0 * (n - min_beyond) / n)
    rank = max(1, math.ceil(q / 100.0 * n - 1e-9))
    return q, s[rank - 1]


# -- machine speed -----------------------------------------------------------

NOMINAL_PROBE_S = 0.003

_rng = random.Random(1)
_TABLE = {i: (i, 3 * i) for i in range(50_000)}
_KEYS = [_rng.randrange(50_000) for _ in range(1000)]


def _reference_work() -> int:
    """Integer arithmetic, small short-lived dicts and tuples, then lookups
    scattered over a 50k-entry dict.

    gbgen's polynomial code does all three: it computes on small integers,
    allocates small containers for terms, and waits on memory.  A probe that
    did only one or two of them followed gbgen's speed well at some times
    and badly at others (see README).
    """
    x = 0
    for i in range(7000):
        x += i * i % 7
    for i in range(500):
        terms = tuple(sorted({(i, j): j * i % 7 for j in range(4)}.items()))
        x += len(terms) + sum(v for _, v in terms)
    for k in _KEYS:
        x += _TABLE[k][1] % 7
    return x


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


class SpeedProbe:
    """How fast this machine runs Python, over time, relative to a nominal speed.

    The machines this benchmark runs on are shared, and their speed drifts:
    for seconds at a time the same work takes half as long again.  The
    probe times a fixed pure-Python loop that shares no code with gbgen, at
    most every ``every_s`` seconds.  A speed is the nominal probe time over the
    mean measured one near a moment: below 1 while the machine is slower
    than nominal.  The mean, not the median: when the machine's cores are
    shared out in time slices, most probes run whole and a few lose a slice,
    while a long request loses its share of slices.  A wall time multiplied
    by the speed around it is a nominal time, which a change to gbgen moves
    and the drift does not.
    """

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list[tuple[float, float]] = []  # (start, duration), in time order
        self.spent = 0.0
        self._next = 0.0

    def measure(self, times: int = 1):
        for _ in range(times):
            t0 = perf_counter()
            _reference_work()
            t1 = perf_counter()
            self.samples.append((t0, t1 - t0))
            self.spent += t1 - t0
            self._next = t1 + self.every_s

    def maybe(self):
        if perf_counter() >= self._next:
            self.measure()

    def speed_between(self, start: float, end: float, margin: float = 0.5) -> float:
        """Speed from the probes that started within ``margin`` seconds of [start, end].

        The caller probes often enough that there always is one: before each
        set-up, and every ``every_s`` between requests that last well under
        ``margin``.
        """
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - margin)
        hi = bisect.bisect_right(times, end + margin)
        return NOMINAL_PROBE_S / _mean(d for _, d in self.samples[lo:hi])

    @property
    def speed(self) -> float:
        """Speed over the probe's whole life."""
        return NOMINAL_PROBE_S / _mean(d for _, d in self.samples)


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent, request) and counters.

    Spans nest by a stack, so each one records the span that caused it.
    Nothing is written until :meth:`dump` is called at the end of a run.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0, parent, request]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self seconds)."""
        selfs = self_times(self.spans)
        out: dict[str, tuple[int, float]] = {}
        for rec, own in zip(self.spans, selfs):
            calls, total = out.get(rec[0], (0, 0.0))
            out[rec[0]] = (calls + 1, total + own)
        return out

    def dump(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start end parent request\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name} {start:.7f} {end:.7f} {parent} {request}\n")


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    @contextmanager
    def span(self, name: str, request=None):
        yield

    def count(self, name: str, amount=1):
        pass


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


# -- verify outcomes ---------------------------------------------------------

OK, ERROR, TIMEOUT = "ok", "error", "timeout"


@dataclass
class Tally:
    """Outcomes of a closed loop of requests.

    An error (a wrong answer, such as an oracle mismatch, or a failed
    command) fails the run; a timeout is a bounded, recorded outcome that
    only lowers ``ok_frac``.
    """

    attempted: int = 0
    samples: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    timeouts: list = field(default_factory=list)

    def add(self, outcome: str, samples: int = 1, detail=None):
        self.attempted += samples
        if outcome == OK:
            self.samples += samples
        elif outcome == TIMEOUT:
            self.failed += samples
            self.timeouts.append(detail)
        elif outcome == ERROR:
            self.failed += samples
            self.errors.append(detail)
        else:
            raise ValueError(f"unknown outcome {outcome!r}")

    @property
    def correct(self) -> bool:
        return not self.errors

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


# -- run environment ---------------------------------------------------------


def git_revision(root: Path) -> str:
    """HEAD of ``root`` read from .git without running git, or 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_stats(src: Path) -> dict:
    """Line count and content hash of the Python files under ``src``."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def run_environment(root: Path, seeds: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(root),
        "seeds": seeds,
    }
    env.update(source_stats(root / "src"))
    return env


# -- metric definitions ------------------------------------------------------

RUN_SECONDS = 20
COMMAND = ["python3", "gbbench/run.py"]

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p95_ms", "ms", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Spans recorded around the benchmark's calls into each module; each gives
# <name>.calls and <name>.self_s.
SPANS = [
    "shapegen.sample_shape_basis",
    "backward.backward_transform",
    "dataset.sample_to_record",
    "dataset.json_encode",
    "dataset.to_prefix_tokens",
    "dataset.json_decode",
    "dataset.sample_from_record",
    "dataset.parse_prefix_tokens",
    "dataset.profile_dataset",
    "fglm.fglm",
    "poly.resorted",
    "groebner.buchberger",
    "solve.solve_shape",
    "poly.evaluate",
    "cli.main",
    "cli.build_parser",
]

# counter name, unit, better
COUNTERS = [
    ("backward.f_terms", "count", "higher"),
    ("dataset.bytes_written", "B", "higher"),
    ("dataset.tokens", "count", "higher"),
    ("fglm.dim", "count", "higher"),
    ("groebner.pairs_processed", "count", "lower"),
    ("groebner.zero_reductions", "count", "lower"),
    ("groebner.pairs_skipped", "count", "higher"),
    ("groebner.basis_additions", "count", "lower"),
    ("groebner.useful_frac", "frac", "higher"),
    ("groebner.timeouts", "count", "lower"),
    ("solve.points", "count", "higher"),
    ("solve.residues_scanned", "count", "higher"),
    ("trace.overhead", "x", "lower"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for name in SPANS:
        specs.append((f"{name}.calls", "count", "higher"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + COUNTERS


def per_layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Every per-layer metric from a finished traced run, zero where unused."""
    totals = tracer.totals()
    c = tracer.counters
    values = {}
    for name in SPANS:
        calls, own = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
    for name, _, _ in COUNTERS:
        values[name] = c.get(name, 0)
    processed = c.get("groebner.pairs_processed", 0)
    values["groebner.useful_frac"] = c.get("groebner.basis_additions", 0) / processed if processed else 0.0
    values["trace.overhead"] = overhead
    return values


def manifest(workloads) -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": ["gbbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_specs()],
    }
