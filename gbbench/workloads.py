"""The four workloads of the gbgen benchmark.

Each workload is a closed loop with one caller: request k is issued only
after request k-1 has returned.  A workload has

* ``setup``: import gbgen afresh and build the inputs (the corpus) from the
  workload seed;
* ``request``: the end-to-end path, the way a user runs it (``gbgen`` through
  ``gbgen.cli.main`` in-process, or the oracle call ``gbgen verify`` makes);
* ``traced``: the same work rebuilt from gbgen's public functions, with a
  span around every call into a module, for the per-layer numbers;
* ``check``: correctness checks on what the loop left behind.

The benchmark seed only picks the inputs; gbgen receives nothing but the
generated inputs and command lines.  gbgen is never imported at module level
here: ``fresh_import`` loads it inside ``setup`` so that set-up time includes
importing the package.
"""

import importlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from harness import ERROR, OK, TIMEOUT, NullTracer

MODULES = ("orders", "poly", "groebner", "fglm", "shapegen", "backward", "dataset", "solve", "cli")


def fresh_import() -> SimpleNamespace:
    """Drop any loaded gbgen modules and import the package again."""
    for name in [k for k in sys.modules if k == "gbgen" or k.startswith("gbgen.")]:
        del sys.modules[name]
    mods = SimpleNamespace(gbgen=importlib.import_module("gbgen"))
    for name in MODULES:
        setattr(mods, name, importlib.import_module(f"gbgen.{name}"))
    return mods


def run_cli(cli, argv) -> tuple[int, str, str]:
    """``gbgen <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def request_seed(seed: int, k: int) -> int:
    """Master seed of request k of a run with benchmark seed ``seed``."""
    return seed * 1_000_003 + k


def corpus_config(mods, field: str, nvars: int, count: int, seed: int):
    return mods.dataset.GenerationConfig(
        field=mods.cli.parse_field(field), nvars=nvars, num_samples=count, seed=seed, verify_fraction=0.0
    )


def compose_sample(mods, config, index: int, tr):
    """Sample ``index`` of ``config`` by generate_sample's documented draw order.

    Basis, then transform, from one ``random.Random(child_seed(seed, index))``.
    Valid for lex targets without zero dropping or spot checks, which is every
    configuration this benchmark uses; the generate check asserts that the
    result is byte-identical to the library path.
    """
    seed = mods.dataset.child_seed(config.seed, index)
    rng = random.Random(seed)
    with tr.span("shapegen.sample_shape_basis"):
        basis = mods.shapegen.sample_shape_basis(config.shape_spec(), rng)
    with tr.span("backward.backward_transform"):
        sample = mods.backward.backward_transform(basis, config.backward_spec(), rng)
    tr.count("backward.f_terms", sum(f.num_terms() for f in sample.F))
    pair = mods.dataset.SamplePair(
        index=index,
        F=sample.F,
        G=basis,
        s=sample.s,
        seed_used=seed,
        contains_zero=any(not f for f in sample.F),
        over_range=sample.over_range,
    )
    with tr.span("dataset.sample_to_record"):
        record = mods.dataset.sample_to_record(pair, config)
    with tr.span("dataset.json_encode"):
        line = json.dumps(record)
    return pair, line


def build_corpus(mods, config, work: Path, tr) -> list[str]:
    """The corpus of ``config`` as JSONL lines, also written to ``work/corpus.jsonl``.

    Untraced, gbgen builds it (``generate_dataset`` into ``write_jsonl``), so
    set-up time follows gbgen's own generation path.  Traced, it is composed
    from public functions with spans; the generate check shows that both give
    the same bytes.
    """
    path = work / "corpus.jsonl"
    if isinstance(tr, NullTracer):
        mods.dataset.write_jsonl(mods.dataset.generate_dataset(config), path, config)
        return path.read_text(encoding="utf-8").splitlines()
    lines = [compose_sample(mods, config, i, tr)[1] for i in range(config.num_samples)]
    write_lines(path, lines)
    return lines


def token_line(mods, pair, tr) -> tuple[str, list, list]:
    """write_tokens' line for one pair, and the F and G token lists."""
    ds = mods.dataset
    with tr.span("dataset.to_prefix_tokens"):
        left = ds.to_prefix_tokens(pair.F)
    with tr.span("dataset.to_prefix_tokens"):
        right = ds.to_prefix_tokens(pair.G)
    tr.count("dataset.tokens", len(left) + len(right) + 4)
    return " ".join([ds.BOS, *left, ds.EOS]) + "\t" + " ".join([ds.BOS, *right, ds.EOS]), left, right


def traced_read(mods, path, tr):
    """read_jsonl rebuilt: decode and parse each line, spans closed before yielding."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            with tr.span("dataset.json_decode"):
                record = json.loads(line)
            with tr.span("dataset.sample_from_record"):
                pair = mods.dataset.sample_from_record(record)
            yield pair


def parse_args(mods, argv, tr):
    with tr.span("cli.build_parser"):
        return mods.cli.build_parser().parse_args([str(a) for a in argv])


def write_lines(path: Path, lines) -> int:
    data = "".join(line + "\n" for line in lines)
    path.write_text(data, encoding="utf-8")
    return len(data)


class Workload:
    name = ""
    why = ""
    setup_reps = 5

    def setup(self, mods, work: Path, seed: int, tr):
        raise NotImplementedError

    def request(self, st, k: int):
        """One end-to-end request: returns (outcome, samples, detail)."""
        raise NotImplementedError

    def traced(self, st, k: int, tr):
        """The same request rebuilt from public functions, with spans."""
        raise NotImplementedError

    def check(self, st) -> list[str]:
        return []


# -- generate ----------------------------------------------------------------


class Generate(Workload):
    name = "generate"
    why = "the headline backward path: gbgen generate, n=3 GF(7) lex, writing all three files"
    # Samples per request: as many as still leave more than 200 requests in a
    # 20 s run on a machine at two thirds of full speed, so that p95 has 10
    # requests beyond it.  Each call also pays about 8 ms of fixed cost
    # (argparse, `git describe`, the meta file), 12% of a 60-sample call; see
    # README.
    batch = 60
    # The warm-up is a call of the size the ROADMAP measures, so that peak_rss_mb
    # shows what gbgen generate holds in memory for a real dataset.
    warmup = 2000

    def argv(self, st, k, prefix, m=None):
        return ["generate", "--n", 3, "--field", "f7", "--m", m or self.batch, "--seed", request_seed(st.seed, k),
                "--verify-fraction", 0, "--out", st.work / prefix]

    def setup(self, mods, work, seed, tr):
        st = SimpleNamespace(mods=mods, work=work, seed=seed)
        rc, _, err = run_cli(mods.cli, self.argv(st, 0, "warmup", m=self.warmup))
        if rc != 0:
            raise RuntimeError(f"warm-up generate exited {rc}: {err.strip()}")
        return st

    def request(self, st, k):
        rc, _, err = run_cli(st.mods.cli, self.argv(st, k, "cli"))
        if rc != 0:
            return ERROR, self.batch, f"generate request {k} exited {rc}: {err.strip()}"
        return OK, self.batch, None

    def traced(self, st, k, tr, prefix="compose"):
        mods = st.mods
        ds = mods.dataset
        with tr.span("cli.main", request=k):
            args = parse_args(mods, self.argv(st, k, prefix), tr)
            config = ds.GenerationConfig(
                field=args.field, nvars=args.n, num_samples=args.m, max_degree=args.d,
                max_entry_degree=args.d_prime, s_max=args.s_max, density=args.sigma, order=args.order,
                seed=args.seed, drop_zeros=args.drop_zeros, verify_fraction=args.verify_fraction,
            )
            lines, token_lines = [], []
            for i in range(config.num_samples):
                pair, line = compose_sample(mods, config, i, tr)
                lines.append(line)
                token_lines.append(token_line(mods, pair, tr)[0])
            out = Path(args.out)
            written = write_lines(Path(f"{out}.jsonl"), lines)
            written += write_lines(Path(f"{out}.tokens.txt"), token_lines)
            ds.write_meta(f"{out}.meta.json", config, extra={"generator": f"gbgen {mods.gbgen.__version__}"})
            tr.count("dataset.bytes_written", written)
        return OK, config.num_samples, None

    def check(self, st):
        """Two CLI runs of request 0 agree byte for byte, and with the composition."""
        errors = []
        for prefix in ("check_a", "check_b"):
            rc, _, err = run_cli(st.mods.cli, self.argv(st, 0, prefix))
            if rc != 0:
                return [f"generate check run exited {rc}: {err.strip()}"]
        self.traced(st, 0, NullTracer(), prefix="check_c")
        for suffix in (".jsonl", ".tokens.txt", ".meta.json"):
            a = (st.work / f"check_a{suffix}").read_bytes()
            if a != (st.work / f"check_b{suffix}").read_bytes():
                errors.append(f"generate is not deterministic: check_a{suffix} != check_b{suffix}")
            if suffix != ".meta.json" and a != (st.work / f"check_c{suffix}").read_bytes():
                errors.append(f"gbgen generate output {suffix} differs from the composed draw order")
        if len((st.work / "check_a.jsonl").read_text().splitlines()) != self.batch:
            errors.append("generate wrote the wrong number of samples")
        return errors


# -- verify ------------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    why = "the forward oracle as gbgen verify --timeout 5 runs it, on GF(7) n=2 lex samples; heavy-tailed, none near the cap"
    corpus_size = 3000
    cap_s = 5.0  # gbgen verify --timeout 5; see README for why the corpus is n=2

    def setup(self, mods, work, seed, tr):
        config = corpus_config(mods, "f7", 2, self.corpus_size, seed)
        lines = build_corpus(mods, config, work, tr)
        return SimpleNamespace(mods=mods, work=work, seed=seed, lines=lines)

    def request(self, st, k):
        return self.traced(st, k, NullTracer())

    def traced(self, st, k, tr):
        mods = st.mods
        gb = mods.groebner
        cap = self.cap_s
        line = st.lines[k % len(st.lines)]
        with tr.span("request", request=k):
            with tr.span("dataset.json_decode"):
                record = json.loads(line)
            with tr.span("dataset.sample_from_record"):
                pair = mods.dataset.sample_from_record(record)
            where = {"index": pair.index, "child_seed": pair.seed_used, "corpus_seed": st.seed}
            gens = [f for f in pair.F if f]
            if not gens:
                return ERROR, 1, dict(where, error="F has no nonzero member")
            try:
                with tr.span("groebner.buchberger"):
                    result = gb.buchberger(gens, timeout=cap, chain_criterion=True)
            except gb.GroebnerTimeout as exc:
                count_stats(tr, exc.stats)
                tr.count("groebner.timeouts")
                return TIMEOUT, 1, dict(where, cap_s=cap, stats=exc.stats.as_dict())
            count_stats(tr, result.stats)
            ring = result.basis[0].ring
            expected = sorted(pair.G, key=lambda g: ring.order.key(g.leading_monomial))
            if result.basis != expected:
                return ERROR, 1, dict(where, error="completion of F does not give G")
        return OK, 1, None


def count_stats(tr, stats):
    for key in ("pairs_processed", "zero_reductions", "pairs_skipped", "basis_additions"):
        tr.count(f"groebner.{key}", getattr(stats, key))


# -- the read paths ----------------------------------------------------------


class ChunkedCorpus(Workload):
    """A corpus built in set-up and split into small files, one per request."""

    field = ""
    nvars = 0
    corpus_size = 0
    chunk = 1

    def setup(self, mods, work, seed, tr):
        config = corpus_config(mods, self.field, self.nvars, self.corpus_size, seed)
        lines = build_corpus(mods, config, work, tr)
        paths = []
        for c in range(0, len(lines), self.chunk):
            path = work / f"chunk{c // self.chunk:04d}.jsonl"
            write_lines(path, lines[c : c + self.chunk])
            paths.append(path)
        return SimpleNamespace(mods=mods, work=work, seed=seed, paths=paths, done=set())

    def path(self, st, k) -> Path:
        c = k % len(st.paths)
        st.done.add(c)
        return st.paths[c]


def traced_solve(mods, path, tr) -> int:
    """cmd_solve rebuilt; returns the number of failed samples."""
    args = parse_args(mods, ["solve", "--input", path], tr)
    failures = 0
    for pair in traced_read(mods, args.input, tr):
        with tr.span("solve.solve_shape"):
            solutions = mods.solve.solve_shape(pair.G)
        tr.count("solve.points", len(solutions.points))
        tr.count("solve.residues_scanned", pair.G[0].ring.field.modulus)
        bad = 0
        for point in solutions.points:
            values = [c.value for c in point]
            for f in pair.F:
                if not f:
                    continue
                with tr.span("poly.evaluate"):
                    value = f.evaluate(values)
                if value:
                    bad += 1
                    break
        failures += bad > 0
    return failures


class Convert(ChunkedCorpus):
    name = "convert"
    why = "the read paths tokenize, fglm to grevlex, solve and profile on GF(31) n=4 samples, larger than generate's"
    field, nvars, corpus_size, chunk = "f31", 4, 800, 4

    def commands(self, path):
        stem = path.with_suffix("")
        return [
            ["tokenize", "--input", path, "--out", f"{stem}.tokens.txt"],
            ["fglm", "--input", path, "--to", "grevlex", "--out", f"{stem}.grevlex.jsonl"],
            ["solve", "--input", path],
            ["profile", "--input", path],
        ]

    def request(self, st, k):
        for argv in self.commands(self.path(st, k)):
            rc, _, err = run_cli(st.mods.cli, argv)
            if rc != 0:
                return ERROR, self.chunk, f"convert request {k}: gbgen {argv[0]} exited {rc}: {err.strip()}"
        return OK, self.chunk, None

    def traced(self, st, k, tr):
        mods = st.mods
        ds = mods.dataset
        tokenize, fglm_argv, _, _ = self.commands(self.path(st, k))
        path = tokenize[2]

        with tr.span("cli.main", request=k):
            args = parse_args(mods, tokenize, tr)
            token_lines = []
            for pair in traced_read(mods, args.input, tr):
                ring = (pair.G or pair.F)[0].ring
                text, left, right = token_line(mods, pair, tr)
                with tr.span("dataset.parse_prefix_tokens"):
                    same = ds.parse_prefix_tokens(left, ring) == pair.F
                with tr.span("dataset.parse_prefix_tokens"):
                    same = same and ds.parse_prefix_tokens(right, ring) == pair.G
                if not same:
                    return ERROR, self.chunk, f"sample {pair.index}: tokens do not round-trip"
                token_lines.append(text)
            tr.count("dataset.bytes_written", write_lines(Path(args.out), token_lines))

        with tr.span("cli.main", request=k):
            args = parse_args(mods, fglm_argv, tr)
            lines = []
            for pair in traced_read(mods, args.input, tr):
                ring = pair.G[0].ring
                target = mods.orders.order_by_name(args.to_order, ring.nvars)
                tr.count("fglm.dim", mods.fglm.quotient_basis(pair.G).dimension)
                with tr.span("fglm.fglm"):
                    G = mods.fglm.fglm(pair.G, target)
                F = []
                for f in pair.F:
                    with tr.span("poly.resorted"):
                        F.append(f.resorted(target))
                record = {
                    "index": pair.index, "field": ring.field.to_dict(), "nvars": ring.nvars,
                    "order": args.to_order, "s": pair.s, "seed": pair.seed_used,
                    "F": [str(f) for f in F], "G": [str(g) for g in G],
                    "contains_zero": pair.contains_zero, "over_range": pair.over_range,
                }
                with tr.span("dataset.json_encode"):
                    lines.append(json.dumps(record))
            tr.count("dataset.bytes_written", write_lines(Path(args.out), lines))

        with tr.span("cli.main", request=k):
            if traced_solve(mods, path, tr):
                return ERROR, self.chunk, f"convert request {k}: solve found points that fail F"

        with tr.span("cli.main", request=k):
            args = parse_args(mods, ["profile", "--input", path], tr)
            with tr.span("dataset.profile_dataset"):
                profile = ds.profile_dataset(traced_read(mods, args.input, tr), check_groebner=not args.no_groebner)
            profile.format_table()
        return OK, self.chunk, None

    def check(self, st):
        """Every processed chunk: tokens cover it, and grevlex goes back to the stored lex pair."""
        mods = st.mods
        errors = []
        for c in sorted(st.done):
            path = st.paths[c]
            stem = path.with_suffix("")
            stored = list(mods.dataset.read_jsonl(path))
            tokens = Path(f"{stem}.tokens.txt").read_text(encoding="utf-8").splitlines()
            if len(tokens) != len(stored):
                errors.append(f"{path.name}: {len(tokens)} token lines for {len(stored)} samples")
            back = Path(f"{stem}.lex.jsonl")
            argv = ["fglm", "--input", f"{stem}.grevlex.jsonl", "--from", "grevlex", "--to", "lex", "--out", back]
            rc, _, err = run_cli(mods.cli, argv)
            if rc != 0:
                errors.append(f"{path.name}: fglm back to lex exited {rc}: {err.strip()}")
                continue
            for want, got in zip(stored, mods.dataset.read_jsonl(back), strict=True):
                key = want.G[0].ring.order.key
                if sorted(got.G, key=lambda g: key(g.leading_monomial)) != sorted(
                    want.G, key=lambda g: key(g.leading_monomial)
                ) or got.F != want.F:
                    errors.append(f"{path.name}: sample {want.index} does not survive lex -> grevlex -> lex")
        return errors


class SolveBigP(ChunkedCorpus):
    name = "solve-bigp"
    why = "gbgen solve over GF(7919), n=3: root scanning costs O(p*deg), the only workload where the solver dominates"
    field, nvars, corpus_size, chunk = "f7919", 3, 600, 2

    def request(self, st, k):
        rc, out, err = run_cli(st.mods.cli, ["solve", "--input", self.path(st, k)])
        if rc != 0 or not out.rstrip().endswith(f"solved {self.chunk} samples, 0 failures"):
            return ERROR, self.chunk, f"solve request {k} exited {rc}: {(err or out).strip()[-200:]}"
        return OK, self.chunk, None

    def traced(self, st, k, tr):
        with tr.span("cli.main", request=k):
            if traced_solve(st.mods, self.path(st, k), tr):
                return ERROR, self.chunk, f"solve request {k}: points fail F"
        return OK, self.chunk, None


WORKLOADS = {w.name: w for w in (Generate(), Verify(), Convert(), SolveBigP())}
