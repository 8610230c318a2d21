"""Completion oracle: S-polynomials, Buchberger, basis predicates."""

import random

import pytest

from gbgen import (
    GroebnerTimeout,
    PolyRing,
    RATIONALS,
    SamplePair,
    buchberger,
    check_pair,
    fglm,
    grevlex,
    grlex,
    is_reduced_groebner,
    lex,
    prime_field,
    reduce_basis,
    s_polynomial,
)
from gbgen.orders import term_div, term_lcm

R7 = PolyRing(prime_field(7), 2, lex(2))
RQ = PolyRing(RATIONALS, 2, lex(2))


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
                left = ring.monomial(field.inv(f.leading_coefficient), term_div(lcm, f.leading_monomial)) * f
                right = ring.monomial(field.inv(g.leading_coefficient), term_div(lcm, g.leading_monomial)) * g
                assert s == left - right, (field, order)
                if s:
                    assert ring.order.compare(s.leading_monomial, lcm) == -1
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
    assert is_reduced_groebner([g.monic() for g in G])


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


def test_chain_criterion_agrees():
    rng = random.Random(5)
    from gbgen import BackwardSpec, ShapeBasisSpec, backward_transform, sample_shape_basis

    spec = ShapeBasisSpec(field=prime_field(7), nvars=2, max_degree=3)
    bspec = BackwardSpec(s_max=4)
    for _ in range(25):
        G = sample_shape_basis(spec, rng)
        F = [f for f in backward_transform(G, bspec, rng).F if f]
        plain = buchberger(F)
        pruned = buchberger(F, chain_criterion=True)
        assert plain.basis == pruned.basis
        assert pruned.stats.pairs_processed <= plain.stats.pairs_processed


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
    from gbgen import normal_form

    probe = RQ.parse("x1^4 + x0^2 - 1") * RQ.parse("x0 + 3")
    member = RQ.parse("x0^2 + x1^2 - 1") * RQ.parse("x1 - 5")
    assert normal_form(member, lex_basis) == RQ.zero()
    assert not normal_form(member.resorted(grevlex(2)), grv_basis)
