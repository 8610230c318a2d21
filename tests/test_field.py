"""Field arithmetic: canonical forms, axioms, inverses, rendering."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbgen import RATIONALS, prime_field
from gbgen.field import FieldElement, FieldSpec
from gbgen.field import is_prime

F7 = prime_field(7)
F31 = prime_field(31)


def test_prime_validation():
    for p in (2, 3, 5, 7, 31, 101, 2**61 - 1):
        assert prime_field(p).modulus == p
    for bad in (0, 1, 4, 6, 9, 15, 100, 561):
        with pytest.raises(ValueError):
            prime_field(bad)
    for bad in (4, 7.0, True, "rationals"):
        with pytest.raises(ValueError, match=repr(bad)):
            FieldSpec(bad)
    # one object per modulus, and a typed cache: 7.0 is not served GF(7)
    assert prime_field(7) is prime_field(7) == FieldSpec(7)
    with pytest.raises(ValueError, match="7.0"):
        prime_field(7.0)


def test_is_prime_against_sieve():
    limit = 1000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, limit + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n]


def test_is_prime_pseudoprimes_and_large_primes():
    # Carmichael numbers and strong pseudoprimes to the smallest bases: 561
    # and 3215031751 fool Fermat tests, 2047 is a strong pseudoprime to base
    # 2, 1373653 to bases 2 and 3, and 3825123056546413051 to every prime
    # base up to 31, so only base 37 exposes it
    for composite in (561, 2047, 1373653, 3215031751, 3825123056546413051, (2**31 - 1) * (2**61 - 1)):
        assert not is_prime(composite)
    for prime in (2**31 - 1, 2**61 - 1, 1000000007):
        assert is_prime(prime)


def test_rationals_take_no_modulus():
    # a field is its modulus, and the rationals' is None
    assert FieldSpec(None) == RATIONALS and RATIONALS.modulus is None


def test_canonical_residues():
    assert F7.canon(-3) == 4
    assert F7.canon(10) == 3
    assert F7.canon(0) == 0
    assert F31.canon(-15) == 16


def test_canonical_fractions_are_reduced():
    v = RATIONALS.canon(Fraction(2, 4))
    assert (v.numerator, v.denominator) == (1, 2)
    v = RATIONALS.canon(Fraction(3, -6))
    assert (v.numerator, v.denominator) == (-1, 2)


def test_exhaustive_inverses_f31():
    for a in range(1, 31):
        assert F31.mul(a, F31.inv(a)) == 1


def test_fermat_little_theorem():
    # a^(p-1) by p-2 multiplications through the field's own mul
    for field in (F7, F31):
        p = field.modulus
        for a in range(1, p):
            power = a
            for _ in range(p - 2):
                power = field.mul(power, a)
            assert power == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(Fraction(0))


@given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_field_axioms_f31(a, b, c):
    f = F31
    a, b, c = f.canon(a), f.canon(b), f.canon(c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, 0) == a
    assert f.mul(a, 1) == a
    assert f.add(a, f.canon(-a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
def test_field_axioms_rationals(a, b, c):
    f = RATIONALS
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.canon(-a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_balanced_rendering():
    assert F7.render(4) == "-3"
    assert F7.render(3) == "3"
    assert F7.render(6) == "-1"
    assert F7.render(0) == "0"
    assert F31.render(16) == "-15"
    assert F31.render(15) == "15"
    assert RATIONALS.render(Fraction(-5, 4)) == "-5/4"
    assert RATIONALS.render(Fraction(3)) == "3"


def test_element_hash_and_eq():
    seen = {FieldElement(F7, 2), FieldElement(F7, 2), FieldElement(F7, 4)}
    assert len(seen) == 2
    assert FieldElement(F7, 2) != FieldElement(F31, 2)
    assert FieldElement(F7, 4).value == 4 and str(FieldElement(F7, 4)) == "-3"
    assert str(FieldElement(RATIONALS, Fraction(-1, 2))) == "-1/2"
    assert FieldElement(F7, 4) and not FieldElement(F7, 0)


def test_field_kind_is_validated():
    for bad in ("rational", 7, None):
        with pytest.raises(ValueError, match=repr(bad)):
            FieldSpec.from_dict({"kind": bad})
    # None is the rationals' modulus, but a prime header must name a prime
    for bad in (None, [7], 7.0):
        with pytest.raises(ValueError, match=f"^modulus must be a prime, got {re.escape(repr(bad))}$"):
            FieldSpec.from_dict({"kind": "prime", "modulus": bad})


def test_spec_serialization_round_trip():
    for spec in (F7, F31, RATIONALS):
        assert FieldSpec.from_dict(spec.to_dict()) == spec


def test_random_arithmetic_cross_check_int():
    # residues must track plain integer arithmetic through canon
    rng = random.Random(4)
    for _ in range(500):
        a, b = rng.randint(-999, 999), rng.randint(-999, 999)
        assert F31.add(F31.canon(a), F31.canon(b)) == (a + b) % 31
        assert F31.mul(F31.canon(a), F31.canon(b)) == (a * b) % 31
