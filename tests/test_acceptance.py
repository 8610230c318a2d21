"""Acceptance checks for the generation pipeline.

Seven criteria, one printed pass/fail line each (run with ``pytest -s``).
They exercise the full stack at realistic scale: oracle correctness over
six corpora, non-basis ratios, profile statistics, the generation/forward
speed gap, order-conversion properties, curated fixture regression, and
the property suites (axioms, round-trips, determinism, solver soundness).
"""

import hashlib
import itertools
import json
import random
import time

from gbgen import (
    GenerationConfig,
    RATIONALS,
    ShapeBasisSpec,
    buchberger,
    fglm,
    generate_dataset,
    grevlex,
    is_reduced_groebner,
    lex,
    parse_prefix_tokens,
    prime_field,
    profile_dataset,
    read_jsonl,
    run_bench,
    sample_shape_basis,
    sample_to_record,
    solve_shape,
    to_prefix_tokens,
    write_jsonl,
)
from gbgen.orders import TermOrder, OrderKind

F7 = prime_field(7)
F31 = prime_field(31)

# corpus densities: full fill at n=2, thinned factors at n=3
DENSITY = {2: 1.0, 3: 0.6}

FIELDS = [("F7", F7), ("F31", F31), ("Q", RATIONALS)]

_corpora: dict = {}


def corpus(n: int, field_label: str, field) -> list:
    """200 samples per (n, field) cell, cached across criteria."""
    key = (n, field_label)
    if key not in _corpora:
        config = GenerationConfig(
            field=field,
            nvars=n,
            num_samples=200,
            density=DENSITY[n],
            seed=1000 + 10 * n + len(field_label),
            verify_fraction=0.0,
        )
        _corpora[key] = (config, list(generate_dataset(config)))
    return _corpora[key]


def canon(basis):
    return sorted(basis, key=lambda g: g.ring.order.key(g.leading_monomial))


def report(ok: bool, label: str, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_oracle_correctness():
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    for (n, (label, field)) in itertools.product((2, 3), FIELDS):
        _, samples = corpus(n, label, field)
        for pair in samples:
            recovered = buchberger([f for f in pair.F if f], chain_criterion=True).basis
            if recovered != canon(pair.G):
                mismatches += 1
            checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 600
    report(
        ok,
        "criterion 1, oracle correctness",
        f"{checked - mismatches}/{checked} scrambled systems re-derive their basis "
        f"in {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_2_non_groebner_ratio():
    worst = 0.0
    for (n, (label, field)) in itertools.product((2, 3), FIELDS):
        _, samples = corpus(n, label, field)
        hits = 0
        for pair in samples:
            nonzero = [f for f in pair.F if f]
            if nonzero and is_reduced_groebner(nonzero):
                hits += 1
        worst = max(worst, hits / len(samples))
    ok = worst <= 0.05
    report(
        ok,
        "criterion 2, scrambled systems stay non-Groebner",
        f"worst corpus ratio {worst:.3f} (allowed 0.05)",
    )


def test_criterion_3_profile_reproduction():
    start = time.perf_counter()
    config = GenerationConfig(
        field=F7, nvars=2, num_samples=1000, density=1.0, seed=7, verify_fraction=0.0
    )
    samples = list(generate_dataset(config))
    profile = profile_dataset(samples, check_groebner=False)
    elapsed = time.perf_counter() - start

    mean_size = profile.metrics["F"]["size"][0]
    mean_terms = profile.metrics["F"]["num_terms"][0]
    mean_maxdeg = profile.metrics["F"]["max_degree"][0]
    g_sizes = {len(p.G) for p in samples}
    checks = [
        abs(mean_size - 3.0) <= 0.3,
        abs(mean_terms - 21.0) <= 4.0,
        abs(mean_maxdeg - 8.0) <= 1.2,
        g_sizes == {2},
        elapsed < 60,
    ]
    report(
        all(checks),
        "criterion 3, profile reproduction",
        f"mean |F| {mean_size:.2f} (3.0+-0.3), mean terms {mean_terms:.1f} (21+-4), "
        f"mean max degree {mean_maxdeg:.2f} (8.0+-1.2), |G| sizes {sorted(g_sizes)}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_speed_gap():
    config = GenerationConfig(
        field=F7, nvars=3, num_samples=100, density=0.6, seed=21, verify_fraction=0.0
    )
    rep = run_bench(config, timeout=5.0)
    gap_ok = rep.backward_seconds * 100 <= rep.forward_seconds

    gen_total = 0.0
    for n in (2, 3, 4, 5):
        cfg = GenerationConfig(
            field=F7, nvars=n, num_samples=1000, seed=n, verify_fraction=0.0
        )
        gen_total += run_bench(cfg, forward=False).backward_seconds
    bulk_ok = gen_total < 5.0
    report(
        gap_ok and bulk_ok,
        "criterion 4, generation speed",
        f"n=3 backward {rep.backward_seconds:.3f}s vs forward {rep.forward_seconds:.1f}s "
        f"({rep.speedup:.0f}x, need >=100x, {rep.timeouts} timeouts); "
        f"4x1000 samples generated in {gen_total:.2f}s (budget 5s)",
    )


def test_criterion_5_order_conversion():
    start = time.perf_counter()
    rng = random.Random(55)
    failures = 0
    total = 0
    for n in (2, 3):
        spec = ShapeBasisSpec(field=F7, nvars=n)
        target = grevlex(n)
        for _ in range(50):
            total += 1
            G = sample_shape_basis(spec, rng)
            converted = fglm(G, target)
            direct = buchberger([g.resorted(target) for g in G]).basis
            back = fglm(converted, lex(n))
            if not (is_reduced_groebner(converted) and converted == direct and back == canon(G)):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120
    report(
        ok,
        "criterion 5, order conversion",
        f"{total - failures}/{total} bases convert, match direct completion and "
        f"round-trip in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_6_fixture_regression(known_pairs):
    failures = []
    for name, ring, F, G in known_pairs:
        recovered = buchberger(F).basis
        if recovered != canon(G):
            failures.append(name)
    ok = len(known_pairs) >= 10 and not failures
    report(
        ok,
        "criterion 6, curated fixture regression",
        f"{len(known_pairs) - len(failures)}/{len(known_pairs)} curated pairs reproduced exactly"
        + (f"; failing: {failures}" if failures else ""),
    )


def _order_axioms_hold(trials: int) -> bool:
    rng = random.Random(404)
    orders = [TermOrder(kind, arity) for kind in OrderKind for arity in (1, 2, 3, 4)]
    for _ in range(trials):
        order = rng.choice(orders)
        a, b, c = (
            tuple(rng.randrange(7) for _ in range(order.arity)) for _ in range(3)
        )
        ab = order.compare(a, b)
        # totality and antisymmetry
        if ab != -order.compare(b, a):
            return False
        if (ab == 0) != (a == b):
            return False
        # multiplicativity: comparisons survive a common factor
        shifted = order.compare(
            tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
        )
        if ab != shifted:
            return False
        # the constant term is minimal
        if a != (0,) * order.arity and order.compare((0,) * order.arity, a) != -1:
            return False
    return True


def _field_axioms_hold(trials: int) -> bool:
    from fractions import Fraction

    rng = random.Random(405)
    for spec in (F7, F31, RATIONALS):
        for _ in range(trials):
            if spec.modulus is not None:
                a, b, c = (rng.randrange(spec.modulus) for _ in range(3))
            else:
                a, b, c = (
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
                )
            if spec.add(a, spec.add(b, c)) != spec.add(spec.add(a, b), c):
                return False
            if spec.mul(a, spec.mul(b, c)) != spec.mul(spec.mul(a, b), c):
                return False
            if spec.mul(a, spec.add(b, c)) != spec.add(spec.mul(a, b), spec.mul(a, c)):
                return False
            if a and spec.mul(a, spec.inv(a)) != spec.one():
                return False
            if spec.add(a, spec.neg(a)) != spec.zero():
                return False
    return True


def _round_trips_hold(tmp_path) -> bool:
    for key in ((2, "F7"), (3, "Q")):
        config, samples = _corpora[key]
        ring = samples[0].G[0].ring
        for pair in samples[:60]:
            if parse_prefix_tokens(to_prefix_tokens(pair.F), ring) != pair.F:
                return False
            if parse_prefix_tokens(to_prefix_tokens(pair.G), ring) != pair.G:
                return False
        path = tmp_path / f"ac7-{key[0]}{key[1]}.jsonl"
        write_jsonl(samples[:60], path, config)
        for got, want in zip(read_jsonl(path), samples[:60]):
            if got.F != want.F or got.G != want.G:
                return False
    return True


def _dataset_hash(config: GenerationConfig) -> str:
    digest = hashlib.sha256()
    for pair in generate_dataset(config):
        digest.update(json.dumps(sample_to_record(pair, config)).encode())
    return digest.hexdigest()


def _determinism_holds() -> bool:
    base = dict(field=F31, nvars=3, num_samples=40, verify_fraction=0.0)
    h1 = _dataset_hash(GenerationConfig(seed=77, **base))
    h2 = _dataset_hash(GenerationConfig(seed=77, **base))
    h3 = _dataset_hash(GenerationConfig(seed=78, **base))
    return h1 == h2 and h1 != h3


def _solver_sound(total: int) -> bool:
    half = total // 2
    for key, budget in (((2, "F7"), half), ((3, "F31"), total - half)):
        _, samples = _corpora[key]
        for pair in samples[:budget]:
            solution = solve_shape(pair.G)
            if not solution.complete:
                return False
            for point in solution.points:
                values = [c.value for c in point]
                for poly in pair.F + pair.G:
                    if poly and poly.evaluate(values):
                        return False
    return True


def test_criterion_7_property_suites(tmp_path):
    # the corpora are cached by criterion 1; make sure they exist when this
    # test runs alone
    for (n, (label, field)) in itertools.product((2, 3), FIELDS):
        corpus(n, label, field)

    orders_ok = _order_axioms_hold(100_000)
    fields_ok = _field_axioms_hold(2000)
    trips_ok = _round_trips_hold(tmp_path)
    seeds_ok = _determinism_holds()
    solver_ok = _solver_sound(200)
    ok = orders_ok and fields_ok and trips_ok and seeds_ok and solver_ok
    report(
        ok,
        "criterion 7, property suites",
        f"order axioms (100000 triples): {orders_ok}; field axioms: {fields_ok}; "
        f"token/JSONL round-trips: {trips_ok}; seed determinism: {seeds_ok}; "
        f"solver soundness (200 samples): {solver_ok}",
    )
