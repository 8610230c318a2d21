"""Tests for the benchmark's own logic.

Run with ``python3 -m pytest gbbench/tests -q`` from the repository root.
"""

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from harness import ERROR, OK, TIMEOUT, NAME_RE, Tally, Tracer, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Workload, fresh_import  # noqa: E402


def _gbgen_modules():
    return {k: v for k, v in sys.modules.items() if k == "gbgen" or k.startswith("gbgen.")}


@pytest.fixture(autouse=True)
def restore_gbgen():
    """Put back the gbgen modules other tests imported: runs here import gbgen afresh."""
    saved = _gbgen_modules()
    yield
    for name in _gbgen_modules():
        del sys.modules[name]
    sys.modules.update(saved)


# -- the percentile rule -------------------------------------------------------


def beyond(values, value):
    return sum(1 for v in values if v > value)


def test_p95_needs_ten_samples_beyond():
    values = list(range(1, 201))
    q, v = tail_percentile(values, 95)
    assert q == 95 and v == 190 and beyond(values, v) == 10


def test_percentile_falls_back_to_the_highest_with_ten_beyond():
    values = list(range(1, 101))
    q, v = tail_percentile(values, 95)
    assert q == 90 and v == 90 and beyond(values, v) == 10


def test_percentile_rule_on_random_sizes():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(11, 600)
        values = [rng.random() for _ in range(n)]
        for want in (50, 95):
            q, v = tail_percentile(values, want)
            assert q <= want
            assert beyond(values, v) >= 10
            if q < want:  # the next rank up would leave fewer than ten beyond
                assert beyond(values, sorted(values)[n - 10]) < 10


def test_percentile_refuses_too_few_values():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)), 50)


def test_speed_is_local_to_the_probes_near_a_moment():
    probe = harness.SpeedProbe()
    nominal = harness.NOMINAL_PROBE_S
    probe.samples = [(0.0, nominal), (0.1, nominal), (5.0, 2 * nominal), (5.1, 2 * nominal), (5.2, 2 * nominal)]
    assert probe.speed_between(0.0, 0.05) == pytest.approx(1.0)
    assert probe.speed_between(5.05, 5.06) == pytest.approx(0.5)
    assert probe.speed_between(0.0, 0.1, margin=0.0) == pytest.approx(1.0)
    assert probe.speed == pytest.approx(1 / 1.6)  # the mean of all five
    probe.measure()
    assert len(probe.samples) == 6 and probe.spent > 0


# -- span self time ----------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: together they cover 1..5
        ["a.inner", 1.5, 2.5, 1, 0],
        ["c", 7.0, 8.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 1.0, 1.0])


def test_tracer_self_times_add_up_to_the_root():
    tr = Tracer()
    with tr.span("root", request=3):
        for _ in range(3):
            with tr.span("child"):
                with tr.span("grandchild"):
                    sum(range(1000))
    totals = tr.totals()
    assert totals["child"][0] == 3 and totals["grandchild"][0] == 3
    root = tr.spans[0]
    assert sum(own for _, own in totals.values()) == pytest.approx(root[2] - root[1])
    assert all(rec[4] == 3 for rec in tr.spans)  # one request id for the whole tree
    assert [rec[3] for rec in tr.spans[:3]] == [-1, 0, 1]


# -- names -------------------------------------------------------------------


def test_manifest_names_are_valid_and_unique():
    data = harness.manifest(WORKLOADS.values())
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == harness.manifest(WORKLOADS.values())


# -- outcomes ----------------------------------------------------------------


def test_tally_timeout_lowers_ok_frac_error_fails():
    t = Tally()
    t.add(OK)
    t.add(TIMEOUT, detail={"index": 1})
    assert t.correct and t.ok_frac == 0.5 and t.failed == 1
    t.add(ERROR, detail="wrong basis")
    assert not t.correct and t.attempted == 3


def _verify_state(mods, work):
    wl = WORKLOADS["verify"]
    config = mods.dataset.GenerationConfig(
        field=mods.cli.parse_field("f7"), nvars=2, num_samples=3, seed=5, verify_fraction=0.0
    )
    from workloads import build_corpus

    lines = build_corpus(mods, config, work, harness.NullTracer())
    return wl, SimpleNamespace(mods=mods, seed=5, lines=lines)


def test_verify_request_maps_oracle_outcomes(monkeypatch, tmp_path):
    mods = fresh_import()
    wl, st = _verify_state(mods, tmp_path)
    assert wl.request(st, 0)[0] == OK

    def timeout(gens, timeout=None, chain_criterion=False):
        raise mods.groebner.GroebnerTimeout(timeout, mods.groebner.GroebnerStats(pairs_processed=4))

    monkeypatch.setattr(mods.groebner, "buchberger", timeout)
    outcome, _, detail = wl.request(st, 1)
    assert outcome == TIMEOUT
    assert detail["index"] == 1 and detail["stats"]["pairs_processed"] == 4
    assert detail["child_seed"] == mods.dataset.child_seed(5, 1)

    def wrong(gens, timeout=None, chain_criterion=False):
        return mods.groebner.GroebnerResult([gens[0].ring.one()])

    monkeypatch.setattr(mods.groebner, "buchberger", wrong)
    assert wl.request(st, 2)[0] == ERROR


class Scripted(Workload):
    """A workload whose requests return outcomes from a script."""

    name = "scripted"
    setup_reps = 1

    def __init__(self, bad: str):
        self.bad = bad

    def setup(self, mods, work, seed, tr):
        return SimpleNamespace()

    def request(self, st, k):
        if k % 10 == 3:
            return self.bad, 1, {"index": k, "child_seed": 0, "stats": {}}
        return OK, 1, None


@pytest.mark.parametrize("bad, exit_code", [(TIMEOUT, 0), (ERROR, 1)])
def test_error_fails_the_run_timeout_does_not(monkeypatch, capsys, tmp_path, bad, exit_code):
    monkeypatch.setitem(WORKLOADS, "scripted", Scripted(bad))
    rc = run.main(["--workload", "scripted", "--seed", "1", "--seconds", "0.05"], work_root=tmp_path)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == exit_code
    assert result["correct"] is (bad == TIMEOUT)
    assert result["failed"] > 0
    ok_frac = result["metrics"]["ok_frac"]["value"]
    assert 0.8 < ok_frac < 1.0
    assert set(result["metrics"]) == {m[0] for m in harness.END_TO_END}
    report = json.loads((tmp_path / "scripted" / "report-seed1-trace0.json").read_text())
    assert report["finished_requests"] == report["requests"] - result["failed"]  # p95 skips them
