"""Dataset pipeline: seeding, statistics, token and JSONL round-trips."""

import dataclasses
import hashlib
import itertools
import json
import pathlib
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbgen import backward, dataset, poly, shapegen
from gbgen import field as field_module
from gbgen import (
    GenerationConfig,
    RATIONALS,
    check_pair,
    generate_dataset,
    grevlex,
    grlex,
    is_reduced_groebner,
    lex,
    prime_field,
)
from gbgen.dataset import (
    JsonlError,
    SamplePair,
    TokenError,
    child_seed,
    generate_sample,
    parse_prefix_tokens,
    profile_dataset,
    read_jsonl,
    record_line,
    ring_for,
    sample_from_record,
    sample_to_record,
    to_prefix_tokens,
    token_line,
    write_jsonl,
    write_meta,
)
from gbgen.poly import Polynomial, PolyRing

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


def test_check_pair_refuses_a_basis_short_of_a_member():
    # the basis F generates has one more member than such a G: a check that
    # compared only the first len(G) members of the completion would pass a G
    # without its largest head, x0 - g0
    for field, nvars, count in ((F7, 3, 20), (RATIONALS, 2, 10)):
        for pair in generate_dataset(small_config(field=field, nvars=nvars, num_samples=count, seed=1)):
            assert check_pair(pair) == "ok"
            for i in range(len(pair.G)):
                short = dataclasses.replace(pair, G=pair.G[:i] + pair.G[i + 1:])
                assert check_pair(short) == "mismatch", (field, pair.index, i)


def test_nonlex_target_order():
    config = small_config(nvars=3, order="grevlex", num_samples=4)
    lex_pairs = generate_dataset(small_config(nvars=3, num_samples=4))
    for pair, lex_pair in zip(generate_dataset(config), lex_pairs):
        for poly in pair.F + pair.G:
            assert poly.ring.order == grevlex(3)
            # the re-sorted F and the converted G share one ring object
            assert poly.ring is pair.ring
        assert is_reduced_groebner(pair.G)
        # converting the same-seed lex pair, as gbgen fglm does, moves its ring too
        dataset.convert_pair(lex_pair, grevlex(3))
        assert (lex_pair.F, lex_pair.G) == (pair.F, pair.G)
        assert lex_pair.ring is lex_pair.G[0].ring and lex_pair.ring.order == grevlex(3)


def test_config_round_trip_and_validation():
    config = small_config(order="grlex", s_max=7)
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
    # meta.json is outside input: a knob of the wrong type built and then failed
    # mid-generation, read a non-empty string as true, or raised a TypeError
    for name, value in (("drop_zeros", "no"), ("seed", "3"), ("seed", 1.5), ("max_degree", 2.5),
                        ("max_entry_degree", 1.5), ("nvars", 2.0), ("num_samples", 2.5), ("max_degree", True),
                        ("density", True), ("density", "0.5"), ("verify_fraction", "0.1"), ("s_max", 4.0),
                        ("s_max", True), ("order", 5)):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            small_config(**{name: value})
        d = small_config().to_dict()
        d[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be "):
            GenerationConfig.from_dict(d)
    # from_dict names the key it cannot use; other missing knobs keep their defaults
    d = small_config().to_dict()
    with pytest.raises(ValueError, match="^unknown config key 'sigma'$"):
        GenerationConfig.from_dict({**d, "sigma": 0.5})
    for name in ("field", "nvars", "num_samples"):
        with pytest.raises(ValueError, match=f"^config is missing key '{name}'$"):
            GenerationConfig.from_dict({k: v for k, v in d.items() if k != name})
    # a config or a field that is no JSON object raised a TypeError
    with pytest.raises(ValueError, match="^config must be a JSON object, got int$"):
        GenerationConfig.from_dict(5)
    with pytest.raises(ValueError, match="^field must be a JSON object, got int$"):
        GenerationConfig.from_dict({**d, "field": 7})
    required = {k: d[k] for k in ("field", "nvars", "num_samples")}
    assert GenerationConfig.from_dict(required) == small_config(seed=0, verify_fraction=0.01)


def test_older_meta_loads_and_regenerates_its_samples():
    # tests/data/legacy_q.* is `generate --n 2 --field q --m 6 --seed 11` as
    # written while the samplers' constants were config knobs, so its meta
    # lists them; two of its samples redraw a transform past the coefficient limit
    data = pathlib.Path(__file__).parent / "data"
    older = json.loads((data / "legacy_q.meta.json").read_text())["config"]
    config = GenerationConfig.from_dict(older)
    lines = (data / "legacy_q.jsonl").read_text().splitlines()
    assert len(lines) == config.num_samples == 6
    for index, line in enumerate(lines):
        assert record_line(generate_sample(config, index), config) == line
    # a new meta.json no longer lists them, and an older one loads only at their values
    retired = {k: v for k, v in older.items() if k not in config.to_dict()}
    assert retired == {"uni_max_terms": shapegen.UNI_MAX_TERMS, "entry_max_terms": backward.ENTRY_MAX_TERMS,
                       "num_range": list(shapegen.NUM_RANGE), "den_range": list(shapegen.DEN_RANGE),
                       "coeff_limit": backward.COEFF_LIMIT, "max_retries": backward.MAX_RETRIES}
    for name, value in (("coeff_limit", None), ("coeff_limit", 1000), ("max_retries", 50.0), ("max_retries", 0),
                        ("num_range", [0, 0]), ("num_range", [-5.0, 5]), ("den_range", [1, 5, 6]),
                        ("uni_max_terms", True), ("entry_max_terms", "2")):
        message = f"^{name} must be {re.escape(repr(retired[name]))}, the samplers' constant, got "
        with pytest.raises(ValueError, match=message + re.escape(repr(value)) + "$"):
            GenerationConfig.from_dict({**older, name: value})
    # nor are they knobs of a new config
    for name, value in retired.items():
        with pytest.raises(TypeError):
            small_config(**{name: value})


def test_config_builds_its_order_and_ring_once(tmp_path):
    config = small_config(nvars=3, num_samples=2)
    assert config.target_order() is config.target_order()
    ring = config.sample_ring()
    assert ring is config.sample_ring() and ring == PolyRing(F7, 3, lex(3))
    pair = generate_sample(config, 0)
    assert pair.ring is ring and all(p.ring is ring for p in pair.F + pair.G)
    # the built objects are no part of the config's value, and a twin shares the ring
    twin = GenerationConfig.from_dict(config.to_dict())
    assert twin == config and hash(twin) == hash(config) and repr(twin) == repr(config)
    assert twin.sample_ring() is ring
    # the benchmark's traced rebuild still reaches the samplers through these
    assert config.shape_spec() is config and config.backward_spec() is config
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
    caches = (poly._monomial_forms, field_module._residue_cache, poly._layout_exponents, dataset._power_exponents,
              dataset._token_number, dataset._fraction)
    for cache in caches:
        cache.cache_clear()
    ring = PolyRing(F7, 2, lex(2))
    side = 130  # 130^2 distinct monomials, more than any monomial cache keeps
    assert side * side > max(cache.cache_info().maxsize for cache in caches)
    for i in range(side):
        f = ring.from_terms(((i, j), 1 + j % 6) for j in range(side))
        assert str(f) == reference_str(f)
        assert to_prefix_tokens([f]) == reference_tokens([f])
        assert ring.parse(str(f)) == f
        assert parse_prefix_tokens(to_prefix_tokens([f]), ring) == [f]
    # a field too large to fit in the coefficient cache renders without it
    cached = field_module._residue_cache.cache_info().currsize
    big = PolyRing(prime_field(2**31 - 1), 1, lex(1))
    for i in range(side):
        f = big.from_terms(((j,), 1 + i * side + j) for j in range(side))
        assert str(f) == reference_str(f)
        assert to_prefix_tokens([f]) == reference_tokens([f])
    assert field_module._residue_cache.cache_info().currsize == cached
    # rational terms spell more numbers and fractions than the reader's caches keep
    rq = PolyRing(RATIONALS, 1, lex(1))
    for i in range(side):
        f = rq.from_terms(((j,), Fraction(i * side + j + 1, i * side + j + 2)) for j in range(side))
        assert parse_prefix_tokens(to_prefix_tokens([f]), rq) == [f]
    # fed more residues of 2^31 - 1 than it keeps, the cache stays at its bound
    for r in range(1, side * side):
        assert field_module._residue_cache(2**31 - 1, r) == field_module.residue_forms(2**31 - 1, r)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize


def test_record_and_token_lines_share_one_render():
    config = GenerationConfig(field=F7, nvars=3, num_samples=1, seed=2, verify_fraction=0.0)
    pair = generate_sample(config, 0)
    record = json.loads(dataset.record_line(pair, config))
    before = poly._monomial_forms.cache_info()
    line = token_line(pair)
    after = poly._monomial_forms.cache_info()
    # the token line reuses the walk of the record line: no monomial is looked up again
    assert after.hits + after.misses == before.hits + before.misses
    assert sum(f.num_terms() for f in pair.F + pair.G) > 0
    assert (record["F"], record["G"]) == ([reference_str(f) for f in pair.F], [reference_str(g) for g in pair.G])
    assert line == "\t".join(" ".join(["BOS", *reference_tokens(polys), "EOS"]) for polys in (pair.F, pair.G))
    # verify --jobs pickles parsed pairs to its workers; a rendered polynomial comes back whole
    for f in pair.F + pair.G:
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and hash(copy) == hash(f)
        assert (str(copy), to_prefix_tokens([copy])) == (reference_str(f), reference_tokens([f]))


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


# the same pins for the knobs the six above leave at their defaults: zero
# entries (density), constant entries (max_entry_degree 0, where an entry
# draws at most as many terms as there are monomials), more zero rows (s_max)
# and their removal (drop_zeros); lex throughout
SPARSE_DIGESTS = [
    ("f7", 3, {"density": 0.5}, 21,
     "943e15b869e15d39d81b822d79b66f2ff840dcf43e5044e03e719d7f707f7310",
     "8069849fcf4176ddb99ce79062d68392156702b2532a25f30a12f84bf409825f"),
    ("f7", 3, {"max_entry_degree": 0}, 22,
     "3d6c5c496ab9d29455cfa6ed861648ce81f5998b9f2b786eb5ee1063da1ca234",
     "5cbe039267d069405b6fce427719548a78a4be4dd5562591b6dcb35dc9fc5546"),
    ("f7", 3, {"s_max": 7}, 23,
     "8fe065368a71748b6e2496bd54d8404da06dfb03eba07a8405a25d46d7cb1464",
     "b05aaf6efee661b9417fad903de77050263b5081c586bf109a35ee8d347deca8"),
    ("f7", 3, {"drop_zeros": True}, 24,
     "bebd11dceeddb3e19be5a36a5cb0359ff5dd70c93012f5cc0186cf77dfe8ed9c",
     "2940cf413ca894f376a374620143de40a58495e4ed7d2d2b23d007f0380a7473"),
    ("q", 2, {"density": 0.5}, 25,
     "dcdad753623fb543f4ac01a23ff7cf1dc8073d7cff911442d15782ac62960d70",
     "1c709d2da24891dedc1fe1ede143b9fa09b5e5447e52d912670efb0c1764180a"),
    ("q", 2, {"max_entry_degree": 0}, 26,
     "b57d3c8060f6957cf2fab8ab7f83cfd482c583d6f105bf9abb8db3a13c9f27f5",
     "fce64bd3fbd66989d22dfd9502747066bdf75dfd6d7e419b2acdbb0c1270c758"),
    ("q", 2, {"s_max": 6}, 27,
     "9caeb4540f3a34836cba435b4bc722465a8b19c3f6c070b34272763cf730c29f",
     "31da5528c85f51aac1c8a3507a3b4de43d195761cbcf04c78fed506bb97d74bf"),
    ("q", 2, {"drop_zeros": True}, 28,
     "a6309afc77cdd0fcbbc3b6c6078153754ac692a0d013ab83bfd6aa356618ace6",
     "0ff0660aaeb756e17271b8e1228ed2a125c6ffca6480e43cd2d5465dcc45dc9d"),
]


# sha256 of the .jsonl bytes gbgen fglm writes for the 50 samples of a
# grevlex set: convert_pair and record_line from grevlex to the two orders
# the six pins above never convert to.  Taken while FGLM still sorted and
# unpacked its new members itself and shape members were built by subtraction.
CONVERSION_DIGESTS = [
    ("f7", 3, 31, "lex", "4f3474df88b52b427d91c352ee367edf2e8bcb434cd6ea5b0eecfbbfcbe70a4c"),
    ("f7", 3, 31, "grlex", "cc46b19ae01aca19f434d0e3c11f38f2515abb338d936709dabd9dda21e48b72"),
    ("q", 3, 32, "lex", "4c7306a9f73da2f77e4d6d56e48bea590d18c1f3a4c27126aaeda46474c01d79"),
    ("q", 3, 32, "grlex", "11705832a813d4ae7cc377bf313762c81d0c8768de1523efc171b4c49a451b5f"),
]


@pytest.mark.parametrize("field, nvars, order, seed, jsonl_sha, tokens_sha", GOLDEN_DIGESTS,
                         ids=[f"{f}-n{n}-{o}" for f, n, o, *_ in GOLDEN_DIGESTS])
def test_dataset_bytes_are_pinned(field, nvars, order, seed, jsonl_sha, tokens_sha):
    assert pinned_digests(field, nvars, seed, order=order) == (jsonl_sha, tokens_sha)


@pytest.mark.parametrize("field, nvars, knobs, seed, jsonl_sha, tokens_sha", SPARSE_DIGESTS,
                         ids=[f"{f}-n{n}-{k}" for f, n, (k,), *_ in SPARSE_DIGESTS])
def test_sparse_dataset_bytes_are_pinned(field, nvars, knobs, seed, jsonl_sha, tokens_sha):
    assert pinned_digests(field, nvars, seed, **knobs) == (jsonl_sha, tokens_sha)


@pytest.mark.parametrize("field, nvars, seed, target, jsonl_sha", CONVERSION_DIGESTS,
                         ids=[f"{f}-n{n}-grevlex-to-{t}" for f, n, _, t, _ in CONVERSION_DIGESTS])
def test_converted_dataset_bytes_are_pinned(field, nvars, seed, target, jsonl_sha):
    field = RATIONALS if field == "q" else prime_field(int(field[1:]))
    config = GenerationConfig(field=field, nvars=nvars, num_samples=50, seed=seed, order="grevlex",
                              verify_fraction=0.0)
    # the record is stamped as gbgen fglm stamps it: the source's field and nvars, the target order
    stamp = GenerationConfig(field=field, nvars=nvars, num_samples=0, order=target)
    records = hashlib.sha256()
    for pair in generate_dataset(config):
        dataset.convert_pair(pair, stamp.target_order())
        records.update((dataset.record_line(pair, stamp) + "\n").encode())
    assert records.hexdigest() == jsonl_sha


def pinned_digests(field, nvars, seed, **knobs):
    """sha256 of the .jsonl and .tokens.txt bytes of 50 samples, without spot checks."""
    field = RATIONALS if field == "q" else prime_field(int(field[1:]))
    config = GenerationConfig(field=field, nvars=nvars, num_samples=50, seed=seed, verify_fraction=0.0, **knobs)
    records, tokens = hashlib.sha256(), hashlib.sha256()
    for pair in generate_dataset(config):
        records.update((dataset.record_line(pair, config) + "\n").encode())
        tokens.update((dataset.token_line(pair) + "\n").encode())
    return records.hexdigest(), tokens.hexdigest()


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
        # an empty member: the writer spells the zero polynomial C0
        ["SEP"],
        ["+", "*", "C1", "SEP"],
        ["SEP", "+", "*", "C1"],
        ["+", "*", "C1", "SEP", "SEP", "C0"],
        # numeric suffixes are ASCII decimal digits and nothing else
        ["+", "*", "C+3"],
        ["+", "*", "C 3"],
        ["+", "*", "C0_1"],
        ["+", "*", "C\u0663"],
        ["+", "*", "C1", "^", "x-0", "E1"],
        ["+", "*", "C1", "^", "x0", "E+2"],
        # a zero coefficient inside a term, and a numeric suffix with a leading zero
        ["+", "*", "C0", "^", "x0", "E1"],
        ["+", "*", "C03"],
        ["+", "*", "C00"],
        ["+", "*", "C1", "^", "x0", "E01"],
        ["+", "*", "C1", "^", "x01", "E1"],
    ]
    for tokens in cases:
        with pytest.raises(TokenError):
            parse_prefix_tokens(tokens, ring)
    rq = PolyRing(RATIONALS, 2, lex(2))
    with pytest.raises(TokenError):
        parse_prefix_tokens(["+", "*", "N1"], rq)
    with pytest.raises(TokenError):
        parse_prefix_tokens(["+", "*", "N1", "D0"], rq)
    for tokens in (["+", "*", "N-3", "D1"], ["+", "*", "N3", "D-2"], ["+", "*", "N 3", "D1"], ["-", "*", "N1", "D1_0"],
                   ["+", "*", "N0", "D1"], ["+", "*", "N2", "D4"], ["+", "*", "N1", "D02"], ["+", "*", "N03", "D2"]):
        with pytest.raises(TokenError):
            parse_prefix_tokens(tokens, rq)
    # each error names the offending token
    for r, tokens, pos in ((ring, ["SEP"], 0), (ring, ["+", "*", "C1", "SEP"], 4),
                           (ring, ["+", "*", "C1", "^", "x0", "E+2"], 5), (ring, ["+", "*", "C0", "^", "x0", "E1"], 2),
                           (ring, ["+", "*", "C1", "^", "x01", "E1"], 4), (rq, ["+", "*", "N0", "D1"], 2),
                           (rq, ["+", "*", "N1", "D1", "-", "*", "N2", "D4"], 6)):
        with pytest.raises(TokenError) as exc:
            parse_prefix_tokens(tokens, r)
        assert exc.value.pos == pos
    assert parse_prefix_tokens(["C0", "SEP", "+", "*", "C1"], ring) == [ring.zero(), ring.one()]


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


# The token-by-token walk that read prefix tokens before the reader matched
# each member's grammar, kept as the reference for its language, values and
# error positions.
def reference_parse_prefix_tokens(tokens, ring):
    tokens = list(tokens)
    if not tokens:
        return []
    rational = ring.field.modulus is None
    polys = []
    pending = []
    pos = start = 0
    n = len(tokens)

    def flush():
        if pos == start:
            raise TokenError(pos, "empty polynomial")
        polys.append(Polynomial(ring, poly._combination(ring, [(1, None, pending)])))
        pending.clear()

    def number(at):
        digits = tokens[at][1:]
        if not (digits.isdigit() and digits.isascii()) or (digits[0] == "0" and len(digits) > 1):
            raise TokenError(at, f"malformed number in {tokens[at]!r}")
        return int(digits)

    while pos < n:
        tok = tokens[pos]
        if tok == "SEP":
            flush()
            pos = start = pos + 1
            continue
        if tok == "C0":
            if pending:
                raise TokenError(pos, "C0 must stand alone for the zero polynomial")
            pos += 1
            if pos < n and tokens[pos] != "SEP":
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
            num, den = number(pos), number(pos + 1)
            if den == 0:
                raise TokenError(pos + 1, "zero denominator")
            coeff = Fraction(sign * num, den)
            if not num or coeff.denominator != den:
                raise TokenError(pos, f"N{num} D{den} is not a nonzero fraction in lowest terms")
            pos += 2
        else:
            if pos >= n or not tokens[pos].startswith("C"):
                raise TokenError(pos, "expected a residue token")
            coeff = number(pos)
            if sign < 0:
                raise TokenError(pos - 2, "prime-field terms always carry '+'")
            if not 0 < coeff < ring.field.modulus:
                raise TokenError(pos, f"residue {coeff} out of range for a term")
            pos += 1
        exps = [0] * ring.nvars
        while pos < n and tokens[pos] == "^":
            if pos + 2 >= n or not tokens[pos + 1].startswith("x") or not tokens[pos + 2].startswith("E"):
                raise TokenError(pos, "expected '^ xi Ei'")
            var, exp = number(pos + 1), number(pos + 2)
            if var >= ring.nvars:
                raise TokenError(pos + 1, f"variable x{var} out of range")
            if exp < 1:
                raise TokenError(pos + 2, "exponent tokens must be positive")
            exps[var] += exp
            pos += 3
        pending.append((tuple(exps), coeff))
    flush()
    return polys


def token_outcome(parse, tokens, ring):
    """The polynomials with their coefficient types, or the error's position and message."""
    try:
        polys = parse(tokens, ring)
    except TokenError as exc:
        return "error", exc.pos, str(exc)
    return "ok", [(f.ring, tuple((t, type(c), c) for t, c in f.terms)) for f in polys]


def assert_tokens_parse_like_reference(tokens, ring):
    assert token_outcome(parse_prefix_tokens, tokens, ring) == token_outcome(reference_parse_prefix_tokens, tokens, ring), \
        tokens


TOKEN_RINGS = [PolyRing(f, 3, order(3)) for f in (F7, prime_field(7919), RATIONALS) for order in (lex, grevlex)]


def term_tokens(ring, coeff, triples):
    """The tokens of one term, its power triples as given: in any order, a variable repeated."""
    if ring.field.modulus is None:
        head = ["+" if coeff > 0 else "-", "*", f"N{abs(coeff.numerator)}", f"D{coeff.denominator}"]
    else:
        head = ["+", "*", f"C{coeff}"]
    return head + [tok for i, e in triples for tok in ("^", f"x{i}", f"E{e}")]


def number_mutants(ring, tokens, at):
    """Tokens that may replace the numeric token ``at``; all but the first few break a rule of TOKENS.md."""
    tok = tokens[at]
    prefix, digits = tok[0], tok[1:]
    # the values one and zero, out of range or too large a residue, and the
    # same number spelled with a leading zero, a Unicode digit or a blank
    out = [f"{prefix}1", f"{prefix}0", f"x{ring.nvars}", f"{prefix}0{digits}", f"{prefix}{digits}\u0663",
           f"{prefix}\u0663", f"{prefix} {digits}", f"{tok} "]
    if ring.field.modulus is not None:
        out += [f"C{ring.field.modulus - 1}", f"C{ring.field.modulus}", f"C{ring.field.modulus + 4}"]
    # an N/D pair taken out of lowest terms from either side
    if prefix == "D" and int(tokens[at - 1][1:]) > 1:
        out.append(f"D{2 * int(tokens[at - 1][1:])}")
    if prefix == "N" and int(tokens[at + 1][1:]) > 1:
        out.append(f"N{3 * int(tokens[at + 1][1:])}")
    return out


# tokens that may replace or join any token of a stream
STRAY_TOKENS = ["", "+ *", "SEP", "C0", "+", "-", "*", "^", "x1", "E2", "C1", "N1", "D1", "bogus",
                "x0 E1", "E1 ^ x1 E1"]


@st.composite
def token_streams(draw):
    ring = draw(st.sampled_from(TOKEN_RINGS))
    mod = ring.field.modulus
    coeffs = (st.integers(1, mod - 1) if mod is not None
              else st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
    monomials = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    if draw(st.booleans()):
        # what the writer emits: canonical members, a zero one among them
        polys = draw(st.lists(st.lists(st.tuples(monomials, coeffs), max_size=6).map(ring.from_terms),
                              min_size=1, max_size=3))
        tokens = to_prefix_tokens(polys)
    else:
        # terms in any order, a monomial or a variable's power triple repeated
        triples = st.lists(st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, 3)), max_size=4)
        members = draw(st.lists(st.lists(st.tuples(coeffs, triples), min_size=1, max_size=6),
                                min_size=1, max_size=3))
        tokens = []
        for k, member in enumerate(members):
            if draw(st.booleans()):
                member = member + [(draw(coeffs), draw(st.sampled_from(member))[1])]
            tokens += (["SEP"] if k else []) + [tok for c, t in member for tok in term_tokens(ring, c, t)]
    # at most one token changed: a number respelled, a token replaced, inserted or deleted
    kind = draw(st.sampled_from(["none", "number", "number", "number", "replace", "insert", "delete"]))
    numbers = [i for i, tok in enumerate(tokens) if tok[:1] in ("C", "N", "D", "x", "E") and tok[1:].isdigit()]
    if kind == "number" and numbers:
        at = draw(st.sampled_from(numbers))
        tokens = tokens[:at] + [draw(st.sampled_from(number_mutants(ring, tokens, at)))] + tokens[at + 1:]
    elif kind in ("replace", "insert", "delete"):
        at = draw(st.integers(0, len(tokens) - (kind != "insert")))
        mutant = [] if kind == "delete" else [draw(st.sampled_from(STRAY_TOKENS))]
        tokens = tokens[:at] + mutant + tokens[at + (kind != "insert"):]
    return tokens, ring


@settings(max_examples=800, deadline=None)
@given(token_streams())
def test_token_parse_matches_reference_walk(stream):
    assert_tokens_parse_like_reference(*stream)


def test_token_parse_matches_reference_walk_on_named_cases():
    r7, rq = PolyRing(F7, 2, grevlex(2)), PolyRing(RATIONALS, 2, lex(2))
    l7, gq = PolyRing(F7, 2, lex(2)), PolyRing(RATIONALS, 2, grevlex(2))
    x0, x1 = ["^", "x0", "E1"], ["^", "x1", "E1"]
    cases = [
        (r7, ["+", "*", "C1", *x0, "SEP", "C0", "SEP", "+", "*", "C3", *x1, "+", "*", "C2"]),
        (r7, ["+", "*", "C2", "+", "*", "C1", *x0]),  # out of order
        (r7, ["+", "*", "C2", *x0, "+", "*", "C5", *x0]),  # a repeated monomial whose sum vanishes
        (r7, ["+", "*", "C2", *x1, *x0, *x1]),  # repeated power triples
        (r7, ["+", "*", "C 2"]),  # a token holding a blank
        (r7, ["+ *", "C2"]),
        (r7, ["+", "*", "C1", "SEP", "", "SEP", "C0"]),  # an empty token
        (r7, ["+", "*", "C\u0663"]),  # a Unicode digit
        (PolyRing(prime_field(7919), 2, lex(2)), ["+", "*", "C1\u0663", "^", "x0", "E1\u0662"]),
        (r7, ["+", "*", "C03"]),  # leading zeros
        (r7, ["+", "*", "C1", "^", "x00", "E1"]),
        (rq, ["+", "*", "N03", "D1"]),
        (r7, ["+", "*", "C0", *x0]),  # a zero coefficient in a term
        (r7, ["+", "*", "C1", "^", "x0", "E02"]),  # a leading zero
        (r7, ["+", "*", "C7"]),  # a residue >= p
        (r7, ["-", "*", "C3", *x0]),  # a '-' over GF(p)
        (rq, ["+", "*", "N3", "D6", *x0]),  # not in lowest terms
        (rq, ["-", "*", "N3", "D2", *x0, "+", "*", "N1", "D1", *x1]),  # out of order over Q
        (r7, ["+", "*", "C1", "SEP", "SEP", "+", "*", "C1"]),  # a stray SEP
        (r7, ["+", "*", "C1", "^", "x2", "E1"]),  # a variable out of range
        (r7, ["+", "*", "C1", "SEP", None]),  # a token that is no str
        # a token holding a blank where a power triple's variable or exponent stands
        (l7, ["+", "*", "C1", "^", "x0 E1"]),
        (l7, ["+", "*", "C1", "^", "x0", "E1 ^ x1 E1"]),
        (gq, ["+", "*", "N1", "D1", "^", "x0 E1"]),
        (gq, ["+", "*", "N1", "D1", "^", "x0", "E1 ^ x1 E1"]),
    ]
    for ring, tokens in cases:
        assert_tokens_parse_like_reference(tokens, ring)


def test_token_error_reports_position():
    ring = PolyRing(F7, 2, lex(2))
    with pytest.raises(TokenError) as exc:
        parse_prefix_tokens(["+", "*", "C1", "^", "x0", "E1", "bogus"], ring)
    assert exc.value.pos == 6


def test_token_that_is_no_str_is_located():
    # where a token's prefix is checked, one that is no str fails as any wrong token there
    r7, rq = PolyRing(F7, 2, lex(2)), PolyRing(RATIONALS, 2, lex(2))
    cases = [
        (r7, ["+", "*", None], 2, "expected a residue token"),
        (r7, ["+", "*", "C1", "^", None, "E1"], 3, "expected '^ xi Ei'"),
        (r7, ["+", "*", "C1", "^", "x0", 7], 3, "expected '^ xi Ei'"),
        (rq, ["+", "*", None, "D1"], 2, "expected numerator and denominator tokens"),
        (rq, ["+", "*", "N1", None], 2, "expected numerator and denominator tokens"),
    ]
    for ring, tokens, pos, message in cases:
        with pytest.raises(TokenError) as exc:
            parse_prefix_tokens(tokens, ring)
        assert (exc.value.pos, str(exc.value)) == (pos, f"token {pos}: {message}"), tokens


def test_token_number_past_the_digit_limit_is_located():
    # int() refuses more than 4300 digits by default; the walk names the token instead
    big = "1" * 5000
    r7, rq = PolyRing(F7, 2, lex(2)), PolyRing(RATIONALS, 2, lex(2))
    cases = [
        (r7, ["+", "*", "C" + big], 2),
        (r7, ["+", "*", "C1", "^", "x" + big, "E1"], 4),
        (r7, ["+", "*", "C1", "^", "x0", "E" + big], 5),
        (rq, ["+", "*", "N" + big, "D1"], 2),
        (rq, ["+", "*", "N1", "D" + big], 3),
    ]
    for ring, tokens, pos in cases:
        with pytest.raises(TokenError) as exc:
            parse_prefix_tokens(tokens, ring)
        assert (exc.value.pos, str(exc.value)) == (pos, f"token {pos}: number of 5000 digits is too long to read")


def test_token_exponent_past_the_packed_limit_is_located():
    # named at the variable that takes the exponent, or the total degree
    # under a graded order, past the limit; at the limit the tokens read
    r7, g7 = PolyRing(F7, 2, lex(2)), PolyRing(F7, 2, grevlex(2))
    cases = [
        (r7, ["+", "*", "C1", "^", "x0", "E20000"], 4, "exponent 20000 of x0"),
        (r7, ["+", "*", "C1", "^", "x1", "E9000", "^", "x1", "E9000"], 7, "exponent 18000 of x1"),
        (g7, ["+", "*", "C1", "^", "x0", "E9000", "^", "x1", "E9000"], 7, "total degree 18000"),
        # one past the limit, in a repeated variable and in the total degree
        (r7, ["+", "*", "C1", "^", "x1", "E8000", "^", "x1", "E8384"], 7, "exponent 16384 of x1"),
        (g7, ["+", "*", "C1", "^", "x0", "E8000", "^", "x1", "E8384"], 7, "total degree 16384"),
    ]
    for ring, tokens, pos, named in cases:
        with pytest.raises(TokenError) as exc:
            parse_prefix_tokens(tokens, ring)
        message = f"token {pos}: {named} is past the limit 16383 of a packed monomial"
        assert (exc.value.pos, str(exc.value)) == (pos, message)
    tokens = ["+", "*", "C1", "^", "x0", "E16383", "^", "x1", "E16383"]
    assert parse_prefix_tokens(tokens, r7) == [r7.parse("x0^16383*x1^16383")]
    tokens = ["+", "*", "C1", "^", "x1", "E8000", "^", "x1", "E8383"]
    assert parse_prefix_tokens(tokens, r7) == [r7.parse("x1^16383")]
    tokens = ["+", "*", "C1", "^", "x0", "E8000", "^", "x1", "E8383"]
    assert parse_prefix_tokens(tokens, g7) == [g7.parse("x0^8000*x1^8383")]


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
        (lambda record: {**record, "field": {"kind": "rational"}},
         "field kind must be 'prime' or 'rationals', got 'rational'"),
        (lambda record: {**record, "field": {"kind": "prime", "modulus": [7]}}, "modulus must be a prime, got [7]"),
        (lambda record: {**record, "field": {"kind": "prime", "modulus": {"a": 1}}},
         "modulus must be a prime, got {'a': 1}"),
        (lambda record: {**record, "field": {"kind": "prime", "modulus": 7.0}}, "modulus must be a prime, got 7.0"),
        (lambda record: {**record, "field": {"kind": "prime", "modulus": True}}, "modulus must be a prime, got True"),
        (lambda record: {**record, "field": {"kind": "prime", "modulus": None}}, "modulus must be a prime, got None"),
        (lambda record: {k: v for k, v in record.items() if k != "seed"}, "missing key 'seed'"),
        (lambda record: {**record, "field": {"modulus": 7}}, "field is missing key 'kind'"),
        (lambda record: {**record, "field": {"kind": "prime"}}, "field is missing key 'modulus'"),
        (lambda record: {**record, "contains_zero": "no"}, "'contains_zero' must be a JSON bool, got str"),
        (lambda record: {**record, "over_range": [1]}, "'over_range' must be a JSON bool, got list"),
        (lambda record: {**record, "over_range": 0}, "'over_range' must be a JSON bool, got int"),
        (lambda record: {**record, "nvars": 0}, "'nvars' must be at least 1, got 0"),
        (lambda record: {**record, "nvars": -3}, "'nvars' must be at least 1, got -3"),
    ],
    ids=["list-record", "int-field", "str-nvars", "int-polynomial", "str-modulus", "bad-kind", "list-modulus",
         "dict-modulus", "float-modulus", "bool-modulus", "null-modulus",
         "no-seed", "no-kind", "no-modulus", "str-contains-zero", "list-over-range", "int-over-range",
         "zero-nvars", "negative-nvars"],
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
    # building the config cached GF(31) already
    prime_field.cache_clear()
    pairs = list(read_jsonl(path))
    assert len(pairs) == 100 and calls == [31]
    assert all(pair.ring is pairs[0].ring == ring_for(prime_field(31), 2, "lex") for pair in pairs)
    # a caller decoding record by record, as the benchmark's verify does, holds no cache of its own
    prime_field.cache_clear()
    calls.clear()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    decoded = [sample_from_record(record) for record in records]
    assert calls == [31] and all(pair.ring is pairs[0].ring for pair in decoded)


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
    path.write_text("".join(token_line(pair) + "\n" for pair in generate_dataset(config)))
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
