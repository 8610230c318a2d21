"""Dataset pipeline: seeding, statistics, token and JSONL round-trips."""

import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from gbgen import dataset, poly
from gbgen import field as field_module
from gbgen import (
    GenerationConfig,
    JsonlError,
    PolyRing,
    RATIONALS,
    SamplePair,
    TokenError,
    check_pair,
    child_seed,
    generate_dataset,
    generate_sample,
    grevlex,
    grlex,
    is_reduced_groebner,
    lex,
    parse_prefix_tokens,
    prime_field,
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

F7 = prime_field(7)


def small_config(**overrides):
    base = dict(field=F7, nvars=2, num_samples=5, seed=3, verify_fraction=0.0)
    base.update(overrides)
    return GenerationConfig(**base)


# -- seeding -----------------------------------------------------------------


def test_child_seed_frozen_values():
    # regression anchors: these must never drift or old datasets stop
    # being reproducible
    assert child_seed(0, 0) == 15378838894278201442
    assert child_seed(0, 1) == 17449080249234257484
    assert child_seed(42, 7) == 14082508582367801744


def test_child_seeds_distinct():
    seeds = {child_seed(9, i) for i in range(500)}
    assert len(seeds) == 500


def test_generation_is_deterministic_per_index():
    config = small_config(num_samples=10)
    a = generate_sample(config, 4)
    b = generate_sample(config, 4)
    assert a.F == b.F and a.G == b.G and a.s == b.s
    assert sample_to_record(a, config) == sample_to_record(b, config)
    assert generate_sample(config, 5).F != a.F


def test_samples_follow_config_bounds():
    config = small_config(num_samples=40)
    for pair in generate_dataset(config):
        assert 2 <= pair.s <= 4  # nvars + 2 default
        assert len(pair.F) == pair.s
        assert len(pair.G) == 2
        assert is_reduced_groebner(pair.G)
        assert pair.seed_used == child_seed(3, pair.index)


def test_zero_rows_kept_by_default_and_droppable():
    config = small_config(num_samples=200)
    hit = next(
        (p for p in generate_dataset(config) if p.contains_zero), None
    )
    assert hit is not None, "expected at least one sample with a zero row"
    assert any(not f for f in hit.F)
    dropped = generate_sample(small_config(num_samples=200, drop_zeros=True), hit.index)
    assert all(f for f in dropped.F)
    assert len(dropped.F) < hit.s
    assert not dropped.contains_zero


def test_spot_verification_runs_clean():
    config = small_config(num_samples=6, verify_fraction=1.0)
    assert [p.spot_check for p in generate_dataset(config)] == ["ok"] * 6


def test_spot_verification_catches_wrong_basis():
    config = small_config()
    pair = generate_sample(config, 0)
    ring = pair.G[0].ring
    doctored = SamplePair(
        index=0, F=pair.F, G=[ring.parse("x0"), ring.parse("x1")], s=pair.s, seed_used=0
    )
    assert check_pair(pair) == "ok"
    assert check_pair(doctored) == "mismatch"
    assert check_pair(SamplePair(index=0, F=[ring.zero()], G=pair.G, s=1, seed_used=0)) == "mismatch"


def test_nonlex_target_order():
    config = small_config(nvars=3, order="grevlex", num_samples=4)
    for pair in generate_dataset(config):
        for poly in pair.F + pair.G:
            assert poly.ring.order == grevlex(3)
            # the re-sorted F and the converted G share one ring object
            assert poly.ring is pair.ring
        assert is_reduced_groebner(pair.G)


def test_config_round_trip_and_validation():
    config = small_config(order="grlex", coeff_limit=None, s_max=7)
    assert GenerationConfig.from_dict(config.to_dict()) == config
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()
    # meta.json lists the knobs in field order
    assert list(config.to_dict()) == [f.name for f in dataclasses.fields(GenerationConfig)]
    with pytest.raises(ValueError):
        small_config(nvars=0)
    with pytest.raises(ValueError):
        small_config(verify_fraction=1.5)
    with pytest.raises(ValueError):
        small_config(order="degrevlex")
    # the samplers' checks run when the config is built, not at the first sample
    for bad in ({"s_max": 1}, {"max_degree": 0}, {"density": 1.5}, {"max_entry_degree": -1}, {"num_samples": -1}):
        with pytest.raises(ValueError):
            small_config(**bad)


def test_config_builds_its_specs_and_ring_once(tmp_path):
    config = small_config(nvars=3, num_samples=2)
    assert config.shape_spec() is config.shape_spec()
    assert config.backward_spec() is config.backward_spec()
    assert config.target_order() is config.target_order()
    ring = config.shape_spec().ring()
    assert ring is config.shape_spec().ring()
    pair = generate_sample(config, 0)
    assert pair.ring is ring and all(p.ring is ring for p in pair.F + pair.G)
    # the built objects are no part of the config's value
    twin = GenerationConfig.from_dict(config.to_dict())
    assert twin.shape_spec() is not config.shape_spec()
    assert twin == config and hash(twin) == hash(config) and repr(twin) == repr(config)
    assert twin.shape_spec() == config.shape_spec() and hash(twin.shape_spec()) == hash(config.shape_spec())
    write_meta(tmp_path / "meta.json", config)
    assert json.loads((tmp_path / "meta.json").read_text()) == {"config": config.to_dict()}


# -- prefix tokens -----------------------------------------------------------


def test_token_example_prime_field():
    ring = PolyRing(F7, 2, lex(2))
    assert to_prefix_tokens([ring.parse("x1^3")]) == ["+", "*", "C1", "^", "x1", "E3"]


def test_token_example_rational():
    ring = PolyRing(RATIONALS, 2, lex(2))
    tokens = to_prefix_tokens([ring.parse("-2/3*x0*x1^2 + 1")])
    assert tokens == ["-", "*", "N2", "D3", "^", "x0", "E1", "^", "x1", "E2", "+", "*", "N1", "D1"]


def test_token_zero_and_separator():
    ring = PolyRing(F7, 2, lex(2))
    polys = [ring.parse("x0 + 3"), ring.zero(), ring.parse("2*x1")]
    tokens = to_prefix_tokens(polys)
    assert tokens.count("SEP") == 2
    assert tokens[tokens.index("SEP") + 1] == "C0"
    assert parse_prefix_tokens(tokens, ring) == polys


def test_token_round_trip_random():
    for field, order_fn in itertools.product((F7, prime_field(31), RATIONALS), (lex, grevlex)):
        config = GenerationConfig(
            field=field, nvars=3, num_samples=6, seed=11,
            order="lex" if order_fn is lex else "grevlex", verify_fraction=0.0,
        )
        ring = ring_for(field, 3, config.order)
        for pair in generate_dataset(config):
            assert parse_prefix_tokens(to_prefix_tokens(pair.F), ring) == pair.F
            assert parse_prefix_tokens(to_prefix_tokens(pair.G), ring) == pair.G


# The renderers as they were before their coefficient and monomial parts
# were cached and the text and tokens came from one walk: the reference the
# cached walk must match.


def reference_sign_magnitude(field, a):
    if field.modulus is None:
        mag = abs(a)
        return (1 if a >= 0 else -1), str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    if a > field.modulus // 2:
        return -1, str(field.modulus - a)
    return 1, str(a)


def reference_str(f):
    if not f.terms:
        return "0"
    chunks = []
    for idx, (term, coeff) in enumerate(f.terms):
        sign, mag = reference_sign_magnitude(f.ring.field, coeff)
        mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(term) if e)
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        if idx == 0:
            chunks.append(body if sign > 0 else "-" + body)
        else:
            chunks.append((" + " if sign > 0 else " - ") + body)
    return "".join(chunks)


def reference_tokens(polys):
    out = []
    for idx, f in enumerate(polys):
        if idx:
            out.append("SEP")
        if not f:
            out.append("C0")
        for term, coeff in f.terms:
            if f.ring.field.modulus is None:
                out += ["+" if coeff > 0 else "-", "*", f"N{abs(coeff.numerator)}", f"D{coeff.denominator}"]
            else:
                out += ["+", "*", f"C{coeff}"]
            for i, e in enumerate(term):
                if e:
                    out += ["^", f"x{i}", f"E{e}"]
    return out


def test_rendering_matches_uncached_reference():
    rng = random.Random(29)
    fields = (prime_field(2), F7, prime_field(31), prime_field(2**31 - 1), RATIONALS)
    for field, nvars, order in itertools.product(fields, range(1, 6), (lex, grlex, grevlex)):
        ring = PolyRing(field, nvars, order(nvars))
        polys = []
        for _ in range(12):
            pairs = [((0,) * nvars, rng.randint(1, 30))]
            for _ in range(rng.randint(0, 6)):
                term = tuple(rng.randint(0, 40) for _ in range(nvars))
                pairs.append((term, Fraction(rng.randint(-40, 40), rng.randint(1, 9)) if field.modulus is None
                              else rng.randint(0, field.modulus - 1)))
            polys.append(ring.from_terms(pairs))
        for f in polys:
            assert str(f) == reference_str(f)
        assert to_prefix_tokens(polys) == reference_tokens(polys)


def test_rendering_caches_stay_bounded():
    caches = (poly._monomial_forms, field_module._residue_cache, poly._monomial_exponents)
    for cache in caches:
        cache.cache_clear()
    ring = PolyRing(F7, 2, lex(2))
    side = 130  # 130^2 distinct monomials, more than either monomial cache keeps
    assert side * side > max(cache.cache_info().maxsize for cache in caches)
    for i in range(side):
        f = ring.from_terms(((i, j), 1 + j % 6) for j in range(side))
        assert str(f) == reference_str(f)
        assert to_prefix_tokens([f]) == reference_tokens([f])
        assert ring.parse(str(f)) == f
    # a field too large to fit in the coefficient cache renders without it
    cached = field_module._residue_cache.cache_info().currsize
    big = PolyRing(prime_field(2**31 - 1), 1, lex(1))
    for i in range(side):
        f = big.from_terms(((j,), 1 + i * side + j) for j in range(side))
        assert str(f) == reference_str(f)
        assert to_prefix_tokens([f]) == reference_tokens([f])
    assert field_module._residue_cache.cache_info().currsize == cached
    # fed more residues of 2^31 - 1 than it keeps, the cache stays at its bound
    for r in range(1, side * side):
        assert field_module._residue_cache(2**31 - 1, r) == field_module.residue_forms(2**31 - 1, r)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize


# sha256 of generate_dataset's .jsonl and .tokens.txt bytes: the determinism
# contract pinned to the bytes themselves, not to two runs agreeing
GOLDEN_DIGESTS = [
    ("f7", 3, "lex", 11,
     "1b5ab9f2fcafdbf77a11b936afbdb0107d5d0a9415eac438cb6f5f346c8fbfee",
     "132bbf87996fefa4e78d316651db22050c097561cc87532e7670fc8d267bbab7"),
    ("f31", 3, "grevlex", 12,
     "2a35544682f80781d99b61c1c56e5379e3307aa37b805222107c7b5b9b59cac0",
     "6167b0d6d10552256cc5cc47168e4bfff282dce9acbaada93a6705c7b8cf8322"),
    ("q", 2, "lex", 13,
     "f4326b1003e8256a2c65017b0345390bcfab81339ba278b4c9698e979957a513",
     "d0d34d8d5e00398ad41c659c490e688b2f7c65e05f8b704f42a27a48da6922fb"),
    ("f7", 5, "lex", 14,
     "9ee6244822559df3f99c73c61248340da0635f5e31286cbfebe0799c7a9ba58a",
     "ff8c646b81597d9981428ce3dbad94348489459507fb19b79bf9b76c2d1b1e7e"),
    # FGLM to grlex, and FGLM over Q
    ("f7", 4, "grlex", 15,
     "8836e5e1bca098559a6a224fae978b7cdd0438c7b49104fe8f80115937830bba",
     "fa6f3831620554c14820db959c004451aa93c964921831b29064d43420b2af48"),
    ("q", 3, "grevlex", 16,
     "a1aa9d78679ec4aca1d0540a467802bdfe4dc0b349619147d7169ea5955a9135",
     "aa9b5fdfe2118076b5a430dbdc17491ab24f1b6ea1d053cf02d28a48b21356d3"),
]


@pytest.mark.parametrize("field, nvars, order, seed, jsonl_sha, tokens_sha", GOLDEN_DIGESTS,
                         ids=[f"{f}-n{n}-{o}" for f, n, o, *_ in GOLDEN_DIGESTS])
def test_dataset_bytes_are_pinned(field, nvars, order, seed, jsonl_sha, tokens_sha):
    field = RATIONALS if field == "q" else prime_field(int(field[1:]))
    config = GenerationConfig(field=field, nvars=nvars, num_samples=50, order=order, seed=seed, verify_fraction=0.0)
    records, tokens = hashlib.sha256(), hashlib.sha256()
    for pair in generate_dataset(config):
        records.update((dataset.record_line(pair, config) + "\n").encode())
        tokens.update((dataset.token_line(pair) + "\n").encode())
    assert (records.hexdigest(), tokens.hexdigest()) == (jsonl_sha, tokens_sha)


def test_token_parse_empty_and_errors():
    ring = PolyRing(F7, 2, lex(2))
    assert parse_prefix_tokens([], ring) == []
    cases = [
        ["+"],
        ["+", "*"],
        ["+", "*", "C9"],
        ["-", "*", "C1"],
        ["C0", "+", "*", "C1"],
        ["+", "*", "C1", "^", "x0"],
        ["+", "*", "C1", "^", "x5", "E1"],
        ["+", "*", "C1", "^", "x0", "E0"],
        ["*", "C1"],
        ["+", "*", "Cx"],
    ]
    for tokens in cases:
        with pytest.raises(TokenError):
            parse_prefix_tokens(tokens, ring)
    rq = PolyRing(RATIONALS, 2, lex(2))
    with pytest.raises(TokenError):
        parse_prefix_tokens(["+", "*", "N1"], rq)
    with pytest.raises(TokenError):
        parse_prefix_tokens(["+", "*", "N1", "D0"], rq)


def test_token_parse_merges_and_sorts_terms(assert_canonical):
    ring = PolyRing(F7, 2, lex(2))
    x0 = ["^", "x0", "E1"]
    x1 = ["^", "x1", "E1"]
    # a repeated power triple adds its exponents
    assert parse_prefix_tokens(["+", "*", "C1", *x0, *x0], ring) == [ring.parse("x0^2")]
    # a repeated monomial adds its coefficients, and a sum that vanishes drops out
    assert parse_prefix_tokens(["+", "*", "C3", *x0, "+", "*", "C2", *x0], ring) == [ring.parse("5*x0")]
    assert parse_prefix_tokens(["+", "*", "C3", *x0, "+", "*", "C4", *x0], ring) == [ring.zero()]
    # terms out of order come back in ring order
    rq = PolyRing(RATIONALS, 2, grevlex(2))
    for r, coeff, text in ((ring, ["C2"], "2*x0*x1 + 2*x1^2 + 2"), (rq, ["N2", "D3"], "2/3*x0*x1 + 2/3*x1^2 + 2/3")):
        [f] = parse_prefix_tokens(["+", "*", *coeff, "+", "*", *coeff, *x1, *x1, "+", "*", *coeff, *x0, *x1], r)
        assert_canonical(f)
        assert f == r.parse(text)


def test_token_error_reports_position():
    ring = PolyRing(F7, 2, lex(2))
    with pytest.raises(TokenError) as exc:
        parse_prefix_tokens(["+", "*", "C1", "^", "x0", "E1", "bogus"], ring)
    assert exc.value.pos == 6


# -- JSONL and sidecars -------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    config = small_config(num_samples=12)
    path = tmp_path / "data.jsonl"
    count = write_jsonl(generate_dataset(config), path, config)
    assert count == 12
    back = list(read_jsonl(path))
    fresh = list(generate_dataset(config))
    assert len(back) == 12
    for got, want in zip(back, fresh):
        assert got.index == want.index
        assert got.F == want.F and got.G == want.G
        assert got.s == want.s and got.seed_used == want.seed_used
        assert got.contains_zero == want.contains_zero


def test_jsonl_rational_round_trip(tmp_path):
    config = GenerationConfig(
        field=RATIONALS, nvars=2, num_samples=6, seed=5, verify_fraction=0.0
    )
    path = tmp_path / "q.jsonl"
    write_jsonl(generate_dataset(config), path, config)
    for got, want in zip(read_jsonl(path), generate_dataset(config)):
        assert got.F == want.F and got.G == want.G
        assert got.over_range == want.over_range


def test_jsonl_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    config = small_config(num_samples=2)
    records = [json.dumps(sample_to_record(p, config)) for p in generate_dataset(config)]
    path.write_text(records[0] + "\n{oops\n" + records[1] + "\n")
    with pytest.raises(JsonlError) as exc:
        list(read_jsonl(path))
    assert exc.value.line_no == 2

    missing = json.loads(records[0])
    del missing["G"]
    path.write_text(records[0] + "\n" + json.dumps(missing) + "\n")
    with pytest.raises(JsonlError) as exc:
        list(read_jsonl(path))
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda record: [1, 2], "record must be a JSON object, got list"),
        (lambda record: {**record, "field": 7}, "'field' must be a JSON dict, got int"),
        (lambda record: {**record, "nvars": "2"}, "'nvars' must be a JSON int, got str"),
        (lambda record: {**record, "F": [3]}, "'F' must list polynomials as strings"),
        (lambda record: {**record, "field": {"kind": "prime", "modulus": "7"}}, "modulus must be a prime, got '7'"),
        (lambda record: {**record, "field": {"kind": "rational"}}, "'rational' is not a valid FieldKind"),
        (lambda record: {k: v for k, v in record.items() if k != "seed"}, "missing key 'seed'"),
        (lambda record: {**record, "field": {"modulus": 7}}, "field is missing key 'kind'"),
        (lambda record: {**record, "field": {"kind": "prime"}}, "field is missing key 'modulus'"),
        (lambda record: {**record, "contains_zero": "no"}, "'contains_zero' must be a JSON bool, got str"),
        (lambda record: {**record, "over_range": [1]}, "'over_range' must be a JSON bool, got list"),
        (lambda record: {**record, "over_range": 0}, "'over_range' must be a JSON bool, got int"),
    ],
    ids=["list-record", "int-field", "str-nvars", "int-polynomial", "str-modulus", "bad-kind",
         "no-seed", "no-kind", "no-modulus", "str-contains-zero", "list-over-range", "int-over-range"],
)
def test_jsonl_wrongly_typed_record_is_located(tmp_path, mangle, message):
    config = small_config(num_samples=2)
    records = [sample_to_record(p, config) for p in generate_dataset(config)]
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(records[0]) + "\n" + json.dumps(mangle(records[1])) + "\n")
    with pytest.raises(JsonlError) as exc:
        list(read_jsonl(path))
    assert exc.value.line_no == 2
    assert str(exc.value) == f"{path}:2: {message}"


def test_absent_record_flags_read_false():
    config = small_config(num_samples=1)
    record = sample_to_record(next(generate_dataset(config)), config)
    record["contains_zero"] = record["over_range"] = True
    pair = sample_from_record(record)
    assert pair.contains_zero is True and pair.over_range is True
    del record["contains_zero"], record["over_range"]
    pair = sample_from_record(record)
    assert pair.contains_zero is False and pair.over_range is False


def test_read_jsonl_builds_each_ring_once(tmp_path, monkeypatch):
    config = small_config(field=prime_field(31), num_samples=100)
    path = tmp_path / "f31.jsonl"
    write_jsonl(generate_dataset(config), path, config)
    calls = []
    real = field_module.is_prime
    monkeypatch.setattr(field_module, "is_prime", lambda p: calls.append(p) or real(p))
    pairs = list(read_jsonl(path))
    assert len(pairs) == 100 and calls == [31]
    assert all(pair.ring is pairs[0].ring == ring_for(prime_field(31), 2, "lex") for pair in pairs)


def test_meta_sidecar_round_trips_config(tmp_path):
    config = small_config(order="grevlex", num_samples=3)
    path = tmp_path / "data.meta.json"
    write_meta(path, config, extra={"written": 3})
    meta = json.loads(path.read_text())
    assert meta["written"] == 3
    assert GenerationConfig.from_dict(meta["config"]) == config


def test_token_file_format(tmp_path):
    config = small_config(num_samples=5)
    path = tmp_path / "data.tokens.txt"
    assert write_tokens(generate_dataset(config), path) == 5
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    ring = ring_for(F7, 2, "lex")
    for line, pair in zip(lines, generate_dataset(config)):
        left, right = line.split("\t")
        for side, polys in ((left, pair.F), (right, pair.G)):
            tokens = side.split(" ")
            assert tokens[0] == "BOS" and tokens[-1] == "EOS"
            assert parse_prefix_tokens(tokens[1:-1], ring) == polys


# -- statistics ---------------------------------------------------------------


def test_profile_known_values():
    ring = PolyRing(F7, 2, lex(2))
    G = [ring.parse("x0 - x1"), ring.parse("x1^2")]
    pairs = [
        # first F hides a basis member (not a Groebner basis), second is
        # non-monic; both should miss the reducedness check
        SamplePair(index=0, F=[ring.parse("x0*x1 + x1"), ring.parse("x0*x1 + x1^2"), ring.zero()], G=G, s=3, seed_used=0),
        SamplePair(index=1, F=[ring.parse("2*x0*x1")], G=G, s=1, seed_used=1),
    ]
    profile = profile_dataset(pairs)
    assert profile.num_samples == 2
    assert profile.metrics["F"]["size"] == (2.0, 1.0)
    assert profile.metrics["F"]["num_terms"][0] == 2.5
    assert profile.metrics["F"]["max_degree"] == (2.0, 0.0)
    assert profile.metrics["G"]["size"] == (2.0, 0.0)
    assert profile.metrics["G"]["groebner_ratio"] == (1.0, 0.0)
    assert profile.metrics["F"]["groebner_ratio"] == (0.0, 0.0)
    table = profile.format_table()
    assert "size" in table and "F" in table and "G" in table
    assert profile.to_dict()["metrics"]["F"]["size"]["mean"] == 2.0


def test_profile_of_generated_stream():
    config = small_config(num_samples=30)
    profile = profile_dataset(generate_dataset(config), check_groebner=True)
    assert profile.num_samples == 30
    mean_size = profile.metrics["F"]["size"][0]
    assert 2.0 <= mean_size <= 4.0
    assert profile.metrics["G"]["groebner_ratio"] == (1.0, 0.0)
    assert profile.metrics["F"]["groebner_ratio"][0] <= 0.2


# -- streaming behavior -------------------------------------------------------


def test_generator_is_lazy():
    config = small_config(num_samples=10**6)
    first = list(itertools.islice(generate_dataset(config), 3))
    assert [p.index for p in first] == [0, 1, 2]


def test_streaming_write_stays_flat(tmp_path):
    config = small_config(num_samples=3000)
    tracemalloc.start()
    write_jsonl(generate_dataset(config), tmp_path / "big.jsonl", config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * 1024 * 1024
