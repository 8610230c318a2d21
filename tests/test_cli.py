"""End-to-end runs of every CLI subcommand against temp files."""

import json
import multiprocessing
import subprocess
import sys

import pytest

import gbgen
from gbgen import GenerationConfig, backward_transform, dataset, read_jsonl
from gbgen import cli
from gbgen.cli import main, parse_field


def run_cli(*argv):
    return main(list(argv))


def make_dataset(tmp_path, name="ds", field="f7", n="2", m="8", seed="1", extra=()):
    prefix = tmp_path / name
    code = run_cli(
        "generate", "--n", n, "--field", field, "--m", m, "--seed", seed,
        "--verify-fraction", "0", "--out", str(prefix), *extra,
    )
    assert code == 0
    return prefix


def test_parse_field_spellings():
    assert parse_field("q").modulus is None
    assert parse_field("rationals").modulus is None
    assert parse_field("f7").modulus == 7
    assert parse_field("GF31").modulus == 31
    assert parse_field("101").modulus == 101
    with pytest.raises(Exception):
        parse_field("f8")
    with pytest.raises(Exception):
        parse_field("widgets")


@pytest.mark.parametrize("spelling, modulus", [("f4", 4), ("f1", 1), ("f0", 0), ("gf9", 9), ("15", 15)])
def test_non_prime_field_says_why(tmp_path, capsys, spelling, modulus):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--n", "2", "--field", spelling, "--m", "1", "--out", str(tmp_path / "bad"))
    assert exc.value.code == 2
    assert f"argument --field: the modulus {modulus} of {spelling!r} is not a prime" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# huge values are left out: they would start that many worker processes
@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_bad_jobs_are_rejected(tmp_path, capsys, jobs):
    prefix = make_dataset(tmp_path, m="2")
    capsys.readouterr()
    for argv in (["generate", "--n", "2", "--field", "f7", "--m", "2", "--out", str(tmp_path / "bad")],
                 ["verify", "--input", f"{prefix}.jsonl"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--jobs", jobs)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --jobs: {jobs!r} is not a worker count >= 1" in err
    assert not (tmp_path / "bad.jsonl").exists()


@pytest.mark.parametrize("field, n, order", [("f7", "3", "grevlex"), ("q", "2", "lex")])
def test_sample_regenerates_from_meta_alone(tmp_path, field, n, order):
    make_dataset(tmp_path, field=field, n=n, m="6", seed="4", extra=("--order", order))
    meta = json.loads((tmp_path / "ds.meta.json").read_text())
    records = (tmp_path / "ds.jsonl").read_text().splitlines()
    tokens = (tmp_path / "ds.tokens.txt").read_text().splitlines()
    config = GenerationConfig.from_dict(meta["config"])
    for i in (0, 3, 5):
        pair = dataset.generate_sample(config, i)
        assert dataset.record_line(pair, config) == records[i]
        assert dataset.token_line(pair) == tokens[i]


def test_generate_writes_all_artifacts(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    out = capsys.readouterr().out
    assert "wrote 8 samples" in out

    jsonl = (tmp_path / "ds.jsonl").read_text().splitlines()
    assert len(jsonl) == 8
    meta = json.loads((tmp_path / "ds.meta.json").read_text())
    config = GenerationConfig.from_dict(meta["config"])
    assert config.nvars == 2 and config.seed == 1
    assert meta["generator"].startswith("gbgen ")

    tokens = (tmp_path / "ds.tokens.txt").read_text().splitlines()
    assert len(tokens) == 8
    for line in tokens:
        left, right = line.split("\t")
        assert left.startswith("BOS ") and left.endswith(" EOS")
        assert right.startswith("BOS ") and right.endswith(" EOS")

    pairs = list(read_jsonl(prefix.with_suffix(".jsonl")))
    assert [p.index for p in pairs] == list(range(8))


def test_generate_is_deterministic(tmp_path):
    make_dataset(tmp_path, name="a", seed="9")
    make_dataset(tmp_path, name="b", seed="9")
    make_dataset(tmp_path, name="c", seed="10")
    a = (tmp_path / "a.jsonl").read_text()
    assert a == (tmp_path / "b.jsonl").read_text()
    assert a != (tmp_path / "c.jsonl").read_text()


def test_env_var_supplies_default_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("GBGEN_SEED", "9")
    code = run_cli(
        "generate", "--n", "2", "--field", "f7", "--m", "8",
        "--verify-fraction", "0", "--out", str(tmp_path / "env"),
    )
    assert code == 0
    make_dataset(tmp_path, name="flag", seed="9")
    assert (tmp_path / "env.jsonl").read_text() == (tmp_path / "flag.jsonl").read_text()


def test_malformed_env_seed_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GBGEN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--n", "2", "--field", "f7", "--m", "2", "--out", str(tmp_path / "env"))
    assert exc.value.code == 2
    assert "GBGEN_SEED" in capsys.readouterr().err
    assert not (tmp_path / "env.jsonl").exists()


# explicit ids keep each case's name stable when its message changes
@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--s-max", "2", "--s-max 2 below the basis size 3", id="--s-max-2-s_max 2 below the basis size 3"),
    pytest.param("--s-max", "0", "--s-max must be at least 1", id="--s-max-0-s_max"),
    pytest.param("--d", "0", "--d must be at least 1", id="--d-0-max_degree"),
    pytest.param("--sigma", "1.5", "--sigma must lie in [0, 1]", id="--sigma-1.5-density"),
    pytest.param("--m", "-1", "--m must be non-negative", id="--m--1-num_samples"),
    pytest.param("--verify-fraction", "2", "--verify-fraction must lie in [0, 1]",
                 id="--verify-fraction-2-verify_fraction"),
    pytest.param("--n", "0", "--n must be at least 1", id="--n-0-variable"),
    pytest.param("--d-prime", "-1", "--d-prime must be non-negative", id="--d-prime--1-max_entry_degree"),
])
def test_generate_rejects_bad_values(tmp_path, capsys, flag, value, message):
    argv = {"--n": "3", "--field": "f7", "--m": "2", "--out": str(tmp_path / "bad"), flag: value}
    assert run_cli("generate", *(x for pair in argv.items() for x in pair)) == 2
    assert capsys.readouterr() == ("", f"gbgen generate: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_rejects_bad_values(capsys):
    assert run_cli("bench", "--n", "3,2", "--field", "f7", "--m", "1", "--s-max", "2") == 2
    assert capsys.readouterr() == ("", "gbgen bench: error: --s-max 2 below the basis size 3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--n", "2,x", "--field", "f7", "--m", "2")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: '2,x': --n takes comma-separated variable counts" in err
    assert "lambda" not in err


def test_generator_stamp_runs_git_once_per_process(tmp_path, monkeypatch):
    git_calls = []
    real_run, real_write_meta = subprocess.run, cli.write_meta

    def counting_run(cmd, *args, **kwargs):
        git_calls.append(cmd)
        return real_run(cmd, *args, **kwargs)

    def mutating_write_meta(path, config, extra=None):
        real_write_meta(path, config, extra)
        extra["generator"] = "mutated after writing"

    monkeypatch.setattr(cli.subprocess, "run", counting_run)
    monkeypatch.setattr(cli, "write_meta", mutating_write_meta)
    cli._generator_stamp.cache_clear()
    metas = []
    for name in ("first", "second"):
        make_dataset(tmp_path, name=name, m="2")
        metas.append(json.loads((tmp_path / f"{name}.meta.json").read_text()))
    assert len(git_calls) == 1 and git_calls[0][0] == "git"
    first, second = metas
    assert first["generator"] == second["generator"] == f"gbgen {gbgen.__version__}"
    assert first.get("generator_revision") == second.get("generator_revision")


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_timeout_rejects_nonsense(tmp_path, capsys, command, value):
    argv = {"verify": ["--input", str(tmp_path / "none.jsonl")],
            "bench": ["--n", "2", "--field", "f7", "--m", "1"]}[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *argv, "--timeout", value)
    assert exc.value.code == 2
    assert f"argument --timeout: {value!r}" in capsys.readouterr().err


def test_generate_parallel_matches_serial(tmp_path):
    make_dataset(tmp_path, name="serial", m="12")
    make_dataset(tmp_path, name="parallel", m="12", extra=("--jobs", "2"))
    for suffix in (".jsonl", ".tokens.txt"):
        assert (tmp_path / f"serial{suffix}").read_text() == (tmp_path / f"parallel{suffix}").read_text()


def test_spot_check_timeout_is_reported_and_kept(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dataset, "SPOT_CHECK_TIMEOUT", 0)
    prefix = make_dataset(tmp_path, m="4", extra=("--verify-fraction", "1"))
    seeds = [p.seed_used for p in read_jsonl(f"{prefix}.jsonl")]
    assert capsys.readouterr().err.splitlines() == [
        f"TIMEOUT spot check of sample {i} (child_seed {s}): kept unchecked" for i, s in enumerate(seeds)
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_spot_check_mismatch_aborts(tmp_path, monkeypatch, capsys, jobs):
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched transform only when forked")

    def wrong_system(basis, spec, rng):
        sample = backward_transform(basis, spec, rng)
        sample.F = [basis[0].ring.one()]  # generates the unit ideal, not <G>
        return sample

    monkeypatch.setattr(dataset, "backward_transform", wrong_system)
    code = run_cli(
        "generate", "--n", "2", "--field", "f7", "--m", "4", "--seed", "1",
        "--verify-fraction", "1", "--jobs", jobs, "--out", str(tmp_path / "ds"),
    )
    assert code == 1
    assert "generation aborted: sample 0: completion of F does not give G" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_generate_leaves_outputs_untouched(tmp_path, monkeypatch, capsys, jobs):
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched oracle only when forked")
    argv = ["generate", "--n", "2", "--field", "f7", "--m", "40", "--seed", "1", "--verify-fraction", "1", "--jobs", jobs]
    assert run_cli(*argv, "--out", str(tmp_path / "old")) == 0
    suffixes = (".jsonl", ".tokens.txt", ".meta.json")
    before = {suffix: (tmp_path / f"old{suffix}").read_bytes() for suffix in suffixes}

    monkeypatch.setattr(dataset, "check_pair", lambda pair, timeout: "mismatch" if pair.index == 30 else "ok")
    for name in ("old", "new"):
        assert run_cli(*argv, "--out", str(tmp_path / name)) == 1
        assert "generation aborted: sample 30" in capsys.readouterr().err
    # the earlier run is intact, the new prefix got nothing, no temporary is left
    assert {suffix: (tmp_path / f"old{suffix}").read_bytes() for suffix in suffixes} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"old{suffix}" for suffix in suffixes)


def test_ordered_map_pulls_one_window_at_a_time():
    pulled = 0

    def items():
        nonlocal pulled
        for i in range(5000):
            pulled += 1
            yield -i

    results = cli._ordered_map(abs, items(), jobs=2, chunksize=4)
    assert next(results) == 0
    assert pulled <= cli._WINDOW_CHUNKS * 2 * 4 < 5000
    assert list(results) == list(range(1, 5000))


def test_verify_passes_on_generated_dataset(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    assert run_cli("verify", "--input", f"{prefix}.jsonl") == 0
    out = capsys.readouterr().out
    assert "8 ok, 0 failed" in out


def test_verify_flags_doctored_sample(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    path = tmp_path / "ds.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["G"] = ["x0", "x1"]
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    for jobs in ("1", "2"):
        assert run_cli("verify", "--input", str(path), "--jobs", jobs) == 1
        out = capsys.readouterr().out
        assert "FAIL sample 3" in out
        assert "7 ok, 1 failed" in out


def test_verify_fails_on_zero_member_of_G(tmp_path, capsys):
    # a reduced basis never holds 0, so the record fails instead of crashing
    prefix = make_dataset(tmp_path)
    path = tmp_path / "ds.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["G"].append("0")
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for jobs in ("1", "2"):
        assert run_cli("verify", "--input", str(path), "--jobs", jobs) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL sample 3: completion of F does not give G",
            "verified 8 samples: 7 ok, 1 failed",
        ]


def test_verify_timeouts_are_named_and_match_across_jobs(tmp_path, capsys):
    prefix = make_dataset(tmp_path, m="6")
    capsys.readouterr()
    outputs = []
    for jobs in ("1", "2"):
        assert run_cli("verify", "--input", f"{prefix}.jsonl", "--timeout", "0", "--jobs", jobs) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    seeds = [p.seed_used for p in read_jsonl(f"{prefix}.jsonl")]
    assert outputs[0].splitlines() == [
        *(f"TIMEOUT sample {i} (child_seed {s}): no basis within 0 s" for i, s in enumerate(seeds)),
        "verified 6 samples: 0 ok, 6 failed",
    ]


def test_verify_jobs_reports_malformed_line(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    path = tmp_path / "ds.jsonl"
    lines = path.read_text().splitlines()
    lines[5] = lines[5][:-1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("verify", "--input", str(path), "--jobs", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gbgen: {path}:6: bad JSON: ") and err.count("\n") == 1


def test_verify_caps_the_oracle_by_default(tmp_path, monkeypatch, capsys):
    prefix = make_dataset(tmp_path, m="3")
    seen = []

    def recording_check(pair, timeout=None):
        seen.append(timeout)
        return "ok"

    monkeypatch.setattr(cli, "check_pair", recording_check)
    assert run_cli("verify", "--input", f"{prefix}.jsonl") == 0
    assert seen == [dataset.SPOT_CHECK_TIMEOUT] * 3 and dataset.SPOT_CHECK_TIMEOUT == 5.0
    seen.clear()
    assert run_cli("verify", "--input", f"{prefix}.jsonl", "--timeout", "inf") == 0
    assert seen == [float("inf")] * 3


def test_profile_formats(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    assert run_cli("profile", "--input", f"{prefix}.jsonl") == 0
    table = capsys.readouterr().out
    assert "samples: 8" in table and "size" in table

    assert run_cli("profile", "--input", f"{prefix}.jsonl", "--format", "json", "--no-groebner") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_samples"] == 8
    assert "groebner_ratio" not in data["metrics"]["F"]
    assert data["metrics"]["G"]["size"]["mean"] == 2.0


def test_tokenize_reproduces_token_file(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    out_path = tmp_path / "retok.txt"
    assert run_cli("tokenize", "--input", f"{prefix}.jsonl", "--out", str(out_path)) == 0
    capsys.readouterr()
    assert out_path.read_text() == (tmp_path / "ds.tokens.txt").read_text()


def test_failed_tokenize_leaves_no_file(tmp_path, monkeypatch, capsys):
    prefix = make_dataset(tmp_path)
    out_path = tmp_path / "retok.txt"
    monkeypatch.setattr(cli, "parse_prefix_tokens", lambda tokens, ring: [])
    assert run_cli("tokenize", "--input", f"{prefix}.jsonl", "--out", str(out_path)) == 1
    assert "FAIL sample 0: tokens do not round-trip" in capsys.readouterr().err
    monkeypatch.undo()
    bad = tmp_path / "bad.jsonl"
    bad.write_text((tmp_path / "ds.jsonl").read_text() + "{\n")
    assert run_cli("tokenize", "--input", str(bad), "--out", str(out_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gbgen: {bad}:9: bad JSON: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "ds.jsonl", "ds.meta.json", "ds.tokens.txt"]


def test_fglm_conversion_round_trip(tmp_path, capsys):
    prefix = make_dataset(tmp_path, n="3", m="5")
    converted = tmp_path / "grev.jsonl"
    assert run_cli("fglm", "--input", f"{prefix}.jsonl", "--to", "grevlex", "--out", str(converted)) == 0
    capsys.readouterr()

    records = [json.loads(line) for line in converted.read_text().splitlines()]
    assert all(r["order"] == "grevlex" for r in records)
    # the converted pairs must still verify under the completion oracle
    assert run_cli("verify", "--input", str(converted)) == 0
    capsys.readouterr()

    # converting back to lex must reproduce the original G strings
    back = tmp_path / "back.jsonl"
    assert run_cli("fglm", "--input", str(converted), "--from", "grevlex", "--to", "lex", "--out", str(back)) == 0
    capsys.readouterr()
    orig = [json.loads(line) for line in (tmp_path / "ds.jsonl").read_text().splitlines()]
    rtrip = [json.loads(line) for line in back.read_text().splitlines()]
    for a, b in zip(orig, rtrip):
        assert sorted(a["G"]) == sorted(b["G"])


def test_fglm_rejects_wrong_source_order(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    out = tmp_path / "x.jsonl"
    assert run_cli("fglm", "--input", f"{prefix}.jsonl", "--from", "grevlex", "--to", "lex", "--out", str(out)) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.jsonl", "ds.meta.json", "ds.tokens.txt"]


def test_tokenize_record_with_empty_lists(tmp_path, capsys):
    prefix = make_dataset(tmp_path, m="2")
    lines = (tmp_path / "ds.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["F"] = record["G"] = []
    lines[1] = json.dumps(record)
    (tmp_path / "ds.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "retok.txt"
    assert run_cli("tokenize", "--input", f"{prefix}.jsonl", "--out", str(out)) == 0
    assert "tokenized 2 samples" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "BOS EOS\tBOS EOS"


def test_fglm_rejects_empty_basis(tmp_path, capsys):
    prefix = make_dataset(tmp_path, m="3")
    lines = (tmp_path / "ds.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["G"] = []
    lines[1] = json.dumps(record)
    (tmp_path / "ds.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.jsonl"
    assert run_cli("fglm", "--input", f"{prefix}.jsonl", "--to", "grevlex", "--out", str(out)) == 1
    assert "sample 1: cannot convert an empty basis" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.jsonl", "ds.meta.json", "ds.tokens.txt"]


def test_fglm_rejects_positive_dimensional_basis(tmp_path, capsys):
    prefix = make_dataset(tmp_path, m="3")
    lines = (tmp_path / "ds.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["G"] = ["x0 - x1"]
    lines[1] = json.dumps(record)
    (tmp_path / "ds.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.jsonl"
    assert run_cli("fglm", "--input", f"{prefix}.jsonl", "--to", "grevlex", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("sample 1: more than 10000 standard monomials") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.jsonl", "ds.meta.json", "ds.tokens.txt"]


def test_solve_prime_field_dataset(tmp_path, capsys):
    prefix = make_dataset(tmp_path, m="6")
    assert run_cli("solve", "--input", f"{prefix}.jsonl") == 0
    out = capsys.readouterr().out
    assert "solved 6 samples, 0 failures" in out


def test_solve_large_prime_dataset(tmp_path, capsys):
    # scanning all 2^31 - 1 residues would not finish; root finding takes milliseconds
    prefix = make_dataset(tmp_path, field="f2147483647", n="3", m="5")
    assert run_cli("solve", "--input", f"{prefix}.jsonl") == 0
    assert capsys.readouterr().out.endswith("solved 5 samples, 0 failures\n")


def test_solve_rejects_rational_dataset(tmp_path, capsys):
    prefix = make_dataset(tmp_path, name="q", field="q", m="3")
    assert run_cli("solve", "--input", f"{prefix}.jsonl") == 1
    out = capsys.readouterr().out
    assert "cannot solve" in out


def test_bench_table_and_json(tmp_path, capsys):
    assert run_cli("bench", "--n", "2", "--field", "f7", "--m", "3", "--timeout", "2") == 0
    table = capsys.readouterr().out
    assert "backward" in table and "forward" in table

    assert run_cli("bench", "--n", "2,3", "--field", "f7", "--m", "2",
                   "--timeout", "2", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2
    assert data[0]["nvars"] == 2 and data[1]["nvars"] == 3
    for row in data:
        assert row["speedup"] > 1.0
        assert 0.0 <= row["success_rate"] <= 1.0


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gbgen.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "generate" in result.stdout and "bench" in result.stdout
