"""Run one workload of the gbgen benchmark and print its metrics.

    python3 gbbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 gbbench/run.py --write-manifest

With ``--trace 0`` the run sets up several times (reporting the median set-up
time), then runs the workload's end-to-end closed loop for ``--seconds`` and
prints every end-to-end metric.  With ``--trace 1`` it sets up once with
spans, runs the workload rebuilt from gbgen's public functions untraced for
half the time and traced for the other half, and prints every per-layer
metric, including the tracing overhead.  Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a full report (environment, percentiles used, every capped sample)
goes to ``.bench_work/<workload>/``.  The exit code is 0 when every
correctness check passed, 1 when one failed, 2 when gbgen's sources are not
next to the benchmark.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import harness
from harness import OK, NullTracer, SpeedProbe, Tally, Tracer, tail_percentile
from workloads import WORKLOADS, fresh_import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def check_origin(mods):
    origin = Path(mods.gbgen.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"gbgen was imported from {origin}, not from {SRC}")


def closed_loop(st, seconds: float, step, tally: Tally, log: list, probe: SpeedProbe) -> float:
    """Issue requests back to back until ``seconds`` have passed.

    Appends (start time, latency, samples, outcome) of each request to
    ``log`` and returns the wall time, less the time the probe took between
    requests.
    """
    start = perf_counter()
    deadline = start + seconds
    probed = probe.spent
    k = 0
    while True:
        probe.maybe()
        t0 = perf_counter()
        outcome, samples, detail = step(st, k)
        dt = perf_counter() - t0
        log.append((t0, dt, samples, outcome))
        if isinstance(detail, dict):
            detail["elapsed_s"] = dt
        tally.add(outcome, samples, detail)
        k += 1
        if perf_counter() >= deadline:
            return perf_counter() - start - (probe.spent - probed)


def run_end_to_end(wl, work: Path, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    probe = SpeedProbe()
    setups = []  # (start, wall seconds)
    for _ in range(wl.setup_reps):
        probe.measure(9)
        t0 = perf_counter()
        mods = fresh_import()
        st = wl.setup(mods, work, seed, NullTracer())
        setups.append((t0, perf_counter() - t0))
        check_origin(mods)
    probe.measure(9)
    tally, log = Tally(), []
    elapsed = closed_loop(st, seconds, wl.request, tally, log, probe)
    tally.errors.extend(wl.check(st))

    # each time is scaled by the machine's speed around it
    setup_s = [d * probe.speed_between(t, t + d, margin=0.02) for t, d in setups]
    nominal = [dt * probe.speed_between(t, t + dt) for t, dt, _, _ in log]
    # p95 over the requests that finished: a capped request's time is the cap,
    # not the oracle's, so capped ones would pin p95 to the cap.  ok_frac
    # counts the capped share.
    finished = [i for i, (_, _, _, outcome) in enumerate(log) if outcome == OK]
    ms = [1000.0 * x for x in nominal]
    ms_finished = [ms[i] for i in finished]
    wall_ms = [1000.0 * dt for _, dt, _, _ in log]
    q50, p50 = tail_percentile(ms, 50)
    q95, p95 = tail_percentile(ms_finished, 95)
    wall = {
        "setup_s": statistics.median(d for _, d in setups),
        "samples_per_s": tally.samples / elapsed,
        "p50_ms": tail_percentile(wall_ms, 50)[1],
        "p95_ms": tail_percentile([wall_ms[i] for i in finished], 95)[1],
    }
    metrics = {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": tally.samples / sum(nominal),
        "p50_ms": p50,
        "p95_ms": p95,
        "ok_frac": tally.ok_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"wall {wall['setup_s']:.4g}; median of {len(setups)} set-ups: "
        + ", ".join(f"{t:.3f}" for t in setup_s),
        "samples_per_s": f"wall {wall['samples_per_s']:.4g}; {tally.samples} samples completed in {elapsed:.2f} s",
        "p50_ms": f"wall {wall['p50_ms']:.4g}; p{q50:g} of all {len(ms)} requests",
        "p95_ms": f"wall {wall['p95_ms']:.4g}; p{q95:g} of the {len(finished)} finished of {len(ms)} requests",
        "ok_frac": f"{tally.attempted - tally.failed} of {tally.attempted} ok, "
        f"{len(tally.timeouts)} capped, {len(tally.errors)} errors",
        "peak_rss_mb": "ru_maxrss of this run's process",
    }
    t_base = setups[0][0]
    report = {
        "requests": len(log), "finished_requests": len(finished), "elapsed_s": elapsed, "wall": wall, "notes": notes, "speed": probe.speed,
        "setups": [(t - t_base, d) for t, d in setups],
        "probes": [(t - t_base, d) for t, d in probe.samples],
        "log": [(t - t_base, dt, n, outcome) for t, dt, n, outcome in log],
    }
    return tally, metrics, report


def run_traced(wl, work: Path, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    tracer = Tracer()
    mods = fresh_import()
    check_origin(mods)
    with tracer.span("setup"):
        st = wl.setup(mods, work, seed, tracer)
    probe = SpeedProbe()  # runs between requests as in the untraced loop, so the overhead compares like with like
    probe.measure(9)
    plain, traced = Tally(), Tally()
    plain_s = closed_loop(st, seconds / 2, lambda s, k: wl.traced(s, k, NullTracer()), plain, [], probe)
    traced_s = closed_loop(st, seconds / 2, lambda s, k: wl.traced(s, k, tracer), traced, [], probe)
    traced.errors.extend(plain.errors)
    traced.errors.extend(wl.check(st))
    overhead = (traced_s / max(traced.attempted, 1)) / (plain_s / max(plain.attempted, 1))
    metrics = harness.per_layer_metrics(tracer, overhead)
    tracer.dump(work / f"spans-seed{seed}.txt")
    report = {
        "untraced": {"samples": plain.attempted, "elapsed_s": plain_s},
        "traced": {"samples": traced.attempted, "elapsed_s": traced_s, "spans": len(tracer.spans)},
    }
    return traced, metrics, report


def print_table(metrics: dict, units: dict, notes: dict):
    for key, value in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:<34} {value:>14.6g} {units[key]:<6} {note}")


def isolate_process():
    """Process-wide settings for a run from the command line."""
    sys.path.insert(0, str(SRC))
    # gbgen generate stamps `git describe` into its meta file; keep git inside the checkout
    os.environ.update(GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    # one core for the whole run: migrations between cores add to the drift
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None, work_root: Path = ROOT / ".bench_work") -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        text = json.dumps(harness.manifest(WORKLOADS.values()), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "gbgen" / "__init__.py").is_file():
        print(f"gbgen sources not found under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = work_root / wl.name
    work.mkdir(parents=True, exist_ok=True)
    runner = run_traced if args.trace else run_end_to_end
    tally, metrics, report = runner(wl, work, args.seed, args.seconds)

    specs = harness.per_layer_specs() if args.trace else harness.END_TO_END
    units = {spec[0]: spec[1] for spec in specs}
    env = harness.run_environment(ROOT, {"benchmark_seed": args.seed})
    report.update(
        workload=wl.name, trace=args.trace, seconds=args.seconds, environment=env, metrics=metrics,
        attempted=tally.attempted, failed=tally.failed, errors=[str(e) for e in tally.errors],
        capped=tally.timeouts,
    )
    report_path = work / f"report-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, default=str) + "\n", encoding="utf-8")

    print(f"gbgen benchmark: workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if "speed" in report:
        print(f"  machine speed {report['speed']:.4f} of nominal (mean): each time below is its wall time"
              " multiplied by the speed measured around it")
    print_table(metrics, units, report.get("notes", {}))
    for t in tally.timeouts[:5]:
        print(f"  capped: sample {t['index']} child_seed {t['child_seed']} after {t['elapsed_s']:.3f} s, {t['stats']}")
    if len(tally.timeouts) > 5:
        print(f"  ... {len(tally.timeouts) - 5} more capped samples")
    for e in tally.errors[:20]:
        print(f"  ERROR: {e}")
    print(f"  report: {os.path.relpath(report_path, ROOT)}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    isolate_process()
    sys.exit(main())
