"""Exact scalar arithmetic over the rationals and over prime fields.

Coefficients are stored as plain Python values: ``fractions.Fraction`` for the
rationals (always in lowest terms with positive denominator, which Fraction
guarantees by construction) and ``int`` residues in ``0..p-1`` for a prime
field.  ``FieldSpec`` carries the arithmetic on those raw values, and every
polynomial, completion and conversion routine works on them directly.
``FieldElement`` only tags a value with its field, for the coordinates of
the points ``solve_shape`` returns; it has no arithmetic of its own.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Coeff = int | Fraction


class FieldKind(enum.Enum):
    RATIONALS = "rationals"
    PRIME = "prime"


# the first twelve primes: as Miller-Rabin bases they decide every n below
# 3.18 * 10^23 exactly; the least strong pseudoprime to all of them is
# 318665857834031151167461 [Sorenson & Webster 2017]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for every p below 3.18 * 10^23, far past any modulus a dataset
    uses; above that bound a composite passing all twelve bases would be
    accepted.
    """
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient domain: the rationals, or integers modulo a prime."""

    kind: FieldKind
    modulus: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, FieldKind):
            raise ValueError(f"field kind must be a FieldKind, got {self.kind!r}")
        if self.kind is FieldKind.PRIME:
            if not isinstance(self.modulus, int) or not is_prime(self.modulus):
                raise ValueError(f"modulus must be a prime, got {self.modulus!r}")
        else:
            if self.modulus is not None:
                raise ValueError("the rationals take no modulus")

    def zero(self) -> Coeff:
        return Fraction(0) if self.modulus is None else 0

    def one(self) -> Coeff:
        return Fraction(1) if self.modulus is None else 1

    def canon(self, value) -> Coeff:
        """Coerce ``value`` into canonical form for this field.

        Rationals accept int, Fraction or a numeric string; prime fields
        accept any int (reduced into ``0..p-1``).
        """
        if self.modulus is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator % self.modulus
            raise ValueError(f"cannot coerce non-integer {value} into GF({self.modulus})")
        return int(value) % self.modulus

    def add(self, a: Coeff, b: Coeff) -> Coeff:
        return a + b if self.modulus is None else (a + b) % self.modulus

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        return a * b if self.modulus is None else (a * b) % self.modulus

    def neg(self, a: Coeff) -> Coeff:
        return -a if self.modulus is None else (-a) % self.modulus

    def inv(self, a: Coeff) -> Coeff:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.modulus is None:
            return 1 / a
        return pow(a, -1, self.modulus)

    def pow(self, a: Coeff, e: int) -> Coeff:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.modulus is None:
            return a**e
        return pow(a, e, self.modulus)

    @property
    def forms(self):
        """This field's coefficient formatter: ``forms(modulus, a)`` gives the four strings of :func:`residue_forms`."""
        if self.modulus is None:
            return rational_forms
        return _residue_cache if self.modulus <= _RESIDUE_CACHE_SIZE else residue_forms

    def render(self, a: Coeff) -> str:
        if not a:
            return "0"
        sign, alone, _, _ = self.forms(self.modulus, a)
        return sign + alone[3:]

    def to_dict(self) -> dict:
        if self.modulus is None:
            return {"kind": "rationals"}
        return {"kind": "prime", "modulus": self.modulus}

    @staticmethod
    def from_dict(d: dict) -> "FieldSpec":
        if "kind" not in d:
            raise ValueError("field is missing key 'kind'")
        kind = FieldKind(d["kind"])
        if kind is FieldKind.RATIONALS:
            return RATIONALS
        if "modulus" not in d:
            raise ValueError("field is missing key 'modulus'")
        return FieldSpec(kind, d["modulus"])

    def __str__(self):
        return "QQ" if self.modulus is None else f"GF({self.modulus})"


RATIONALS = FieldSpec(FieldKind.RATIONALS)


# A GF(p) field with at most this many nonzero residues keeps their formats
# in one bounded cache, the whole field at once.  A larger field formats each
# residue afresh: a GF(7919) corpus of 600 samples meets each residue about
# four times, so caching all 7918 of them held about 3 MB and saved no time.
_RESIDUE_CACHE_SIZE = 1 << 10


def residue_forms(p: int, r: int) -> tuple[str, str, str, str]:
    """How the nonzero residue ``r`` of GF(p) prints, as four strings.

    They are its sign as a polynomial's first term, a later constant term,
    a later term up to its monomial, and its prefix token.  Residues above
    p/2 print as their negative balanced representative, so 4 mod 7 gives
    ("-", " - 3", " - 3*", "+ * C4") and 6 mod 7 gives ("-", " - 1", " - ", "+ * C6").
    """
    if r > p // 2:
        sign, sep, mag = "-", " - ", str(p - r)
    else:
        sign, sep, mag = "", " + ", str(r)
    # a later term opens with a three-character separator; a unit factor is not printed
    return sign, sep + mag, sep if mag == "1" else f"{sep}{mag}*", f"+ * C{r}"


_residue_cache = lru_cache(maxsize=_RESIDUE_CACHE_SIZE)(residue_forms)


def rational_forms(p: None, a: Fraction) -> tuple[str, str, str, str]:
    """The four strings of :func:`residue_forms` for a nonzero rational.

    ``p`` is the rationals' modulus None, taken so that a caller holds one
    formatter per field.  -5/4 gives ("-", " - 5/4", " - 5/4*", "- * N5 D4").
    """
    num, den = a.numerator, a.denominator
    sign, sep, token_sign = ("-", " - ", "-") if num < 0 else ("", " + ", "+")
    num = abs(num)
    mag = str(num) if den == 1 else f"{num}/{den}"
    return sign, sep + mag, sep if mag == "1" else f"{sep}{mag}*", f"{token_sign} * N{num} D{den}"


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(FieldKind.PRIME, p)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A solution coordinate: a raw value tagged with its field.

    ``solve_shape`` returns its points as tuples of these; ``value`` is the
    raw residue (or Fraction), ``str`` prints it balanced, and an element is
    truthy when nonzero.
    """

    spec: FieldSpec
    value: Coeff

    def __bool__(self):
        return bool(self.value)

    def __str__(self):
        return self.spec.render(self.value)
