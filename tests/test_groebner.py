"""Completion oracle: S-polynomials, Buchberger, basis predicates."""

import itertools
import json
import pathlib
import random
import time

import pytest

from gbgen import (
    GroebnerTimeout,
    RATIONALS,
    buchberger,
    check_pair,
    grevlex,
    grlex,
    is_reduced_groebner,
    lex,
    prime_field,
)
from gbgen.dataset import GenerationConfig, SamplePair, generate_sample
from gbgen.fglm import fglm
from gbgen.groebner import _interreduced, _unpacked
from gbgen.poly import Polynomial, PolyRing, _packed, normal_form

R7 = PolyRing(prime_field(7), 2, lex(2))
RQ = PolyRing(RATIONALS, 2, lex(2))


def term_div(a, b):
    """Componentwise difference a - b of two exponent vectors, b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def term_lcm(a, b):
    """Exponent vector of the lcm of two monomials."""
    return tuple(map(max, a, b))


def term_divides(a, b):
    """Whether the monomial with exponents ``a`` divides the one with ``b``."""
    return all(x <= y for x, y in zip(a, b))


def s_polynomial(f, g):
    """S(f, g): both leading terms lifted to their lcm and cancelled.

    The completion loop forms S-polynomials on packed members; this is the
    textbook formula on polynomials, for the tests.
    """
    if not f or not g:
        raise ValueError("S-polynomials need nonzero inputs")
    field = f.ring.field
    (tf, cf), (tg, cg) = f.leading_term, g.leading_term
    lcm = term_lcm(tf, tg)
    left = f.ring.from_terms([(term_div(lcm, tf), field.inv(cf))]) * Polynomial(f.ring, f.terms[1:])
    right = g.ring.from_terms([(term_div(lcm, tg), field.inv(cg))]) * Polynomial(g.ring, g.terms[1:])
    return left - right


def reduce_basis(polys):
    """The reduced form of a Groebner basis: buchberger's last step, on its own."""
    polys = [f for f in polys if f]
    ring = polys[0].ring
    return _unpacked(ring, _interreduced(ring, [_packed(f) for f in polys], None))


def canon(basis):
    return sorted(basis, key=lambda g: g.ring.order.key(g.leading_monomial))


def as_pair(F, G):
    return SamplePair(index=0, F=F, G=G, s=len(F), seed_used=0)


def test_s_polynomial_hand_value():
    s = s_polynomial(R7.parse("x0 - 3*x1"), R7.parse("x1^3"))
    assert s == R7.parse("-3*x1^4")


def test_s_polynomial_cancels_heads(assert_canonical):
    rng = random.Random(3)
    for field in (prime_field(7), prime_field(31), RATIONALS):
        for order in (lex, grlex, grevlex):
            ring = PolyRing(field, 3, order(3))
            checked = 0
            for _ in range(60):
                f, g = (
                    ring.from_terms([(tuple(rng.randint(0, 4) for _ in range(3)), rng.randint(1, 5)) for _ in range(4)])
                    for _ in range(2)
                )
                if not f or not g:
                    continue
                s = s_polynomial(f, g)
                assert_canonical(s)
                # test-local reference: (1/lc f) x^(L - lt f) f - (1/lc g) x^(L - lt g) g
                lcm = term_lcm(f.leading_monomial, g.leading_monomial)
                left = ring.from_terms([(term_div(lcm, f.leading_monomial), field.inv(f.leading_coefficient))]) * f
                right = ring.from_terms([(term_div(lcm, g.leading_monomial), field.inv(g.leading_coefficient))]) * g
                assert s == left - right, (field, order)
                if s:
                    assert ring.order.key(s.leading_monomial) < ring.order.key(lcm)
                checked += 1
            assert checked > 50, (field, order)


def test_s_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        s_polynomial(R7.zero(), R7.one())


def test_buchberger_known_pairs(known_pairs):
    for pair_id, ring, F, G in known_pairs:
        result = buchberger(F)
        assert result.basis == canon(G), pair_id
        assert result.stats.pairs_processed >= 0
        assert result.stats.elapsed >= 0


def test_buchberger_skips_zero_inputs():
    F = [R7.zero(), R7.parse("x0 + x1"), R7.zero()]
    assert buchberger(F).basis == [R7.parse("x0 + x1")]
    with pytest.raises(ValueError):
        buchberger([R7.zero()])


def test_buchberger_textbook_lift():
    # a classic: the twisted cubic style pair over the rationals
    ring = PolyRing(RATIONALS, 2, lex(2))
    F = [ring.parse("x0^2 - x1"), ring.parse("x0^3 - x0")]
    basis = buchberger(F).basis
    assert is_reduced_groebner(basis)
    # x1 elimination: x0*x1 - x0 and x1^2 - x1 style members must appear
    assert check_pair(as_pair(F, basis)) == "ok"
    # completing a reduced basis gives it back
    assert buchberger(basis).basis == basis


def test_known_non_basis_detected():
    # common factor blocks the pair from reducing to zero
    F = [R7.parse("x0*x1 + x1"), R7.parse("x0*x1 + x1^2")]
    assert not is_reduced_groebner(F)
    basis = buchberger(F).basis
    assert is_reduced_groebner(basis)


def test_is_reduced_groebner_on_known_pairs(known_pairs):
    for pair_id, ring, F, G in known_pairs:
        assert is_reduced_groebner(G), pair_id
        assert not is_reduced_groebner([f for f in F if f]), pair_id


def test_is_reduced_rejects_interreduced_non_basis():
    # monic, and no term of one member is divisible by the other's head, but
    # the heads share x0 and the S-polynomial x0 - x1^2 does not reduce
    G = [R7.parse("x0^2 - x1"), R7.parse("x0*x1 - 1")]
    assert not is_reduced_groebner(G)


def test_is_reduced_accepts_basis_with_overlapping_heads():
    # a reduced grevlex basis whose heads share variables, so the criterion
    # must reduce those S-polynomials rather than skip them as coprime
    G = fglm([R7.parse("x0 + x1^2"), R7.parse("x1^3 + x1")], grevlex(2))
    assert [str(g) for g in G] == ["x1^2 + x0", "x0*x1 - x1", "x0^2 - x0"]
    assert is_reduced_groebner(G)


def test_is_reduced_rejects_non_monic():
    G = [RQ.parse("2*x0 + 2"), RQ.parse("x1")]
    assert not is_reduced_groebner(G)
    assert is_reduced_groebner([g.scaled(RQ.field.inv(g.leading_coefficient)) for g in G])


def test_is_reduced_rejects_redundant_member():
    G = [RQ.parse("x0"), RQ.parse("x1"), RQ.parse("x0 + x1")]
    assert is_reduced_groebner(G[:2])
    assert not is_reduced_groebner(G)


def test_is_reduced_rejects_reducible_tail():
    # tail of the first member is divisible by the second member's head
    G = [RQ.parse("x0^2 + x1"), RQ.parse("x1")]
    assert not is_reduced_groebner(G)


def test_is_reduced_rejects_zero_member():
    assert not is_reduced_groebner([RQ.parse("x0"), RQ.zero()])


def test_is_reduced_refuses_members_from_different_rings():
    # as buchberger, fglm and normal_form do: a verdict over two fields, or in
    # the packing of the first member's order only, answers no question
    mixed_fields = [R7.variable(0), PolyRing(prime_field(5), 2, lex(2)).variable(1)]
    mixed_orders = [R7.variable(0), PolyRing(prime_field(7), 2, grevlex(2)).variable(1)]
    for polys in (mixed_fields, mixed_orders):
        with pytest.raises(ValueError, match="^basis members must share one ring$"):
            is_reduced_groebner(polys)


def test_reduce_basis_idempotent_and_canonical():
    F = [RQ.parse("x0 - x1"), RQ.parse("2*x0 - 2*x1"), RQ.parse("x1^2 - 1"), RQ.parse("x0*x1 - x0")]
    reduced = reduce_basis(F)
    assert reduced == reduce_basis(reduced)
    assert is_reduced_groebner(reduced)


def test_determinism():
    F = [R7.parse("x0^2*x1^2 + 2*x0*x1^4 + x1^4"), R7.parse("x0^2*x1^5 + 2*x0*x1^7 + x0 + x1^7 + 2*x1^2")]
    a = buchberger(F)
    b = buchberger(F)
    assert a.basis == b.basis
    assert a.stats.pairs_processed == b.stats.pairs_processed
    assert a.stats.zero_reductions == b.stats.zero_reductions


def test_buchberger_matches_pinned_bases_and_counters():
    # bases and counters of both updates, pinned by tests/data/make_buchberger_pins.py:
    # the bases and the plain counters before the completion loop kept its
    # members packed, the chain counters once the Gebauer-Moller update took
    # the sugar strategy
    pins = json.loads((pathlib.Path(__file__).parent / "data" / "buchberger_pins.json").read_text())
    fields = {"f2": prime_field(2), "f7": prime_field(7), "f7919": prime_field(7919), "q": RATIONALS}
    seen = set()
    for case in pins["cases"]:
        config = GenerationConfig(field=fields[case["field"]], nvars=case["nvars"], num_samples=40, order=case["order"],
                                  seed=pins["seed"], density=pins["density"], verify_fraction=0.0)
        F = [f for f in generate_sample(config, case["index"]).F if f]
        for update in ("plain", "chain"):
            result = buchberger(F, chain_criterion=update == "chain")
            where = (case["field"], case["order"], case["nvars"], case["index"], update)
            assert [str(g) for g in result.basis] == case["basis"], where
            assert [getattr(result.stats, c) for c in pins["counters"]] == case[update], where
        seen.add((case["field"], case["order"]))
    assert len(seen) == 12


def test_chain_criterion_agrees():
    cases = itertools.product((prime_field(7), prime_field(7919), RATIONALS), ("lex", "grlex", "grevlex"), (2, 3))
    for field, order, n in cases:
        config = GenerationConfig(
            field=field, nvars=n, num_samples=12, max_degree=3, density=0.6,
            order=order, seed=5 + n, verify_fraction=0.0,
        )
        for index in range(config.num_samples):
            case = (str(field), order, n, index)
            pair = generate_sample(config, index)
            F = [f for f in pair.F if f]
            plain = buchberger(F)
            pruned = buchberger(F, chain_criterion=True)
            assert pruned.basis == plain.basis == canon(pair.G), case
            assert pruned.stats.pairs_processed <= plain.stats.pairs_processed, case
            for stats in (plain.stats, pruned.stats):
                assert stats.pairs_processed == stats.zero_reductions + stats.basis_additions, case
            assert plain.stats.redundant_members == 0, case


def test_gebauer_moller_drops_queued_pair_and_members():
    F = [R7.parse("x0^3*x1 + x0"), R7.parse("x0*x1^3 + x1")]
    # (f0, f1) gives f2 = -x0^2*x1 + x0*x1^2, whose head divides f0's head:
    # f0 is redundant and (f0, f2), (f1, f2) are queued.  (f0, f2) gives
    # f3 = x0 - x1; its head strictly divides lcm(f1, f2) = x0^2*x1^3 and
    # differs from the lcm of f3 with f1 (x0*x1^3) and with f2 (x0^2*x1),
    # so criterion B drops (f1, f2), and f1 and f2 are redundant.  Of f3's
    # new pairs (f1, f3) and (f2, f3), one gives zero and one gives
    # f4 = x1^4 + x1, whose one new pair (f3, f4) is coprime.
    pruned = buchberger(F, chain_criterion=True)
    plain = buchberger(F)
    assert [str(g) for g in pruned.basis] == ["x1^4 + x1", "x0 - x1"]
    assert pruned.basis == plain.basis
    stats = pruned.stats
    assert (stats.pairs_processed, stats.zero_reductions, stats.basis_additions) == (4, 1, 3)
    assert stats.pairs_skipped == 2  # (f1, f2) by criterion B, (f3, f4) coprime
    assert stats.redundant_members == 3  # f0, f1, f2
    # the plain update drops the one coprime pair, (f3, f4), when it forms it
    stats = plain.stats
    counts = (stats.pairs_processed, stats.zero_reductions, stats.pairs_skipped, stats.basis_additions,
              stats.redundant_members)
    assert counts == (9, 6, 1, 3, 0)


def test_timeout_raises_with_stats():
    # katsura-like dense system over the rationals; tiny budget must trip
    ring = PolyRing(RATIONALS, 3, grevlex(3))
    F = [
        ring.parse("x0 + 2*x1 + 2*x2 - 1"),
        ring.parse("x0^2 + 2*x1^2 + 2*x2^2 - x0"),
        ring.parse("2*x0*x1 + 2*x1*x2 - x1"),
    ]
    with pytest.raises(GroebnerTimeout) as exc:
        buchberger(F, timeout=0.0)
    assert exc.value.stats is not None
    assert exc.value.timeout == 0.0


def test_timeout_bounds_each_reduction():
    # GF(7) n=5 seed 1 sample 703: its completion runs for over a minute, and
    # the cap must still hold within each reduction.  The spot-check coin
    # flip is drawn last, so verify_fraction leaves the pair as it is.
    config = GenerationConfig(field=prime_field(7), nvars=5, num_samples=1000, seed=1, verify_fraction=0.0)
    pair = generate_sample(config, 703)
    start = time.perf_counter()
    assert check_pair(pair, timeout=2.0) == "timeout"
    assert time.perf_counter() - start < 3.0


def test_small_corpus_completes_within_the_cap():
    # GF(7) n=3 seed 1: under the normal strategy 4 of the first 300 samples
    # ran past a 5 s cap; under sugar each finishes in a fraction of a second
    config = GenerationConfig(field=prime_field(7), nvars=3, num_samples=300, seed=1, verify_fraction=0.0)
    for index in range(config.num_samples):
        assert check_pair(generate_sample(config, index), timeout=5.0) == "ok", index


def test_exponent_past_the_packed_limit_is_located():
    # in a generator, and in a product the completion forms: x0 - x1^10000
    # reduces the S-polynomial of the two to x1^20000 + 1.  Text past the
    # limit does not parse, so the first generator is built from a monomial.
    cases = [
        ([R7.from_terms([((40000, 0), 1)]) - R7.variable(1), R7.parse("x1^2")], "exponent 40000 of x0"),
        ([R7.parse("x0 - x1^10000"), R7.parse("x0^2 + 1")], "exponent 20000 of x1"),
        ([RQ.parse("x0*x1 - x1^10000"), RQ.parse("x0^2 + 1")], "exponent 19999 of x1"),
    ]
    for F, named in cases:
        for chain in (False, True):
            with pytest.raises(ValueError) as exc:
                buchberger(F, chain_criterion=chain)
            assert str(exc.value) == f"{named} is past the limit 16383 of a packed monomial", (F, chain)


def test_graded_lcm_past_the_limit_raises_only_when_queued():
    # under grevlex a packed monomial holds its total degree too: the lcm of
    # two heads of degree 9001 has degree 18000, which only a queued pair
    # needs as a key.  Coprime heads form no pair, so their lcm of degree
    # 18000 raises nothing.
    ring = PolyRing(prime_field(7), 2, grevlex(2))
    overlapping = [ring.parse("x0^9000*x1 + 1"), ring.parse("x0*x1^9000 + 1")]
    coprime = [ring.parse("x0^9000 + 1"), ring.parse("x1^9000 + 1")]
    for chain in (False, True):
        with pytest.raises(ValueError) as exc:
            buchberger(overlapping, chain_criterion=chain)
        assert str(exc.value) == "total degree 18000 is past the limit 16383 of a packed monomial", chain
        assert [str(g) for g in buchberger(coprime, chain_criterion=chain).basis] == ["x1^9000 + 1", "x0^9000 + 1"]


def test_check_pair_on_known_pairs(known_pairs):
    for pair_id, ring, F, G in known_pairs:
        assert check_pair(as_pair(F, G)) == "ok", pair_id
    # and a negative case
    assert check_pair(as_pair([R7.parse("x0")], [R7.parse("x1")])) == "mismatch"


def test_grevlex_completion_matches_lex_ideal():
    # same ideal completed under two orders: both reduced, same membership tests
    F = [RQ.parse("x0^2 + x1^2 - 1"), RQ.parse("x0 - x1^2")]
    lex_basis = buchberger(F).basis
    grv = [f.resorted(grevlex(2)) for f in F]
    grv_basis = buchberger(grv).basis
    assert is_reduced_groebner(lex_basis)
    assert is_reduced_groebner(grv_basis)
    from gbgen.poly import normal_form

    probe = RQ.parse("x1^4 + x0^2 - 1") * RQ.parse("x0 + 3")
    member = RQ.parse("x0^2 + x1^2 - 1") * RQ.parse("x1 - 5")
    assert normal_form(member, lex_basis) == RQ.zero()
    assert not normal_form(member.resorted(grevlex(2)), grv_basis)


def reference_is_reduced_groebner(polys) -> bool:
    """The reducedness test as a nested loop over the pairs of ``polys``."""
    polys = list(polys)
    if not polys or any(not f for f in polys):
        return False
    one = polys[0].ring.field.one()
    if any(f.leading_coefficient != one for f in polys):
        return False
    heads = [f.leading_monomial for f in polys]
    for i, f in enumerate(polys):
        for j, h in enumerate(heads):
            if i != j and any(term_divides(h, t) for t, _ in f.terms):
                return False
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not any(map(min, heads[i], heads[j])):
                continue  # coprime heads
            if normal_form(s_polynomial(polys[i], polys[j]), polys, top_only=True):
                return False
    return True


def test_is_reduced_groebner_matches_nested_loop():
    cases = itertools.product((prime_field(7), prime_field(7919), RATIONALS), ("lex", "grevlex"), (2, 3))
    # verdicts on the reduced G and its two near misses that stay monic and
    # interreduced, so that the S-pair test alone decides them
    by_s_pairs = {True: 0, False: 0}
    for field, order, n in cases:
        config = GenerationConfig(field=field, nvars=n, num_samples=10, density=0.6, order=order, seed=40 + n,
                                  verify_fraction=0.0)
        for index in range(config.num_samples):
            pair = generate_sample(config, index)
            F = [f for f in pair.F if f]
            G = canon(pair.G)
            ring = G[0].ring
            # one tail coefficient of G changed: the first member with a tail gains 1 there
            k = next(k for k, g in enumerate(G) if len(g.terms) > 1)
            changed = G[:k] + [G[k] + ring.from_terms([(G[k].terms[1][0], field.one())])] + G[k + 1 :]
            shifted = F[:-1] + [F[-1] * ring.parse("x0 + 1")]
            monic = [f.scaled(field.inv(f.leading_coefficient)) for f in F]
            monic_shifted = [f.scaled(field.inv(f.leading_coefficient)) for f in shifted]
            inputs = [G, changed, G[:-1], F, shifted, monic, monic_shifted]
            for at, polys in enumerate(inputs):
                expected = reference_is_reduced_groebner(polys)
                assert is_reduced_groebner(polys) == expected, (str(field), order, n, index, at)
                if at < 3:
                    by_s_pairs[expected] += 1
    # a lex shape basis has coprime heads, so only grevlex near misses fail it
    assert by_s_pairs[True] > 100 and by_s_pairs[False] > 30, by_s_pairs
