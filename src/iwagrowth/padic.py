"""The two things the library needs from Q_p.

``ExtendedRational`` is an exact rational extended by +infinity, used for
every ord_p value in the library.  ``PadicUnit`` is a p-adic unit known mod
p^N: the scalar u of the finite-level maps ``H_sharp G_1 + u H_flat G_2``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonUnit, ValidationError, require_int

DEFAULT_PRECISION = 64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_odd_prime(p: int) -> bool:
    """Trial division by _SMALL_PRIMES, then strong probable-prime tests to
    those bases.  That is exact below PRIMALITY_BOUND, the least strong
    pseudoprime to all of them (Sorenson and Webster, 2015); from the bound
    on, p raises ValidationError.  Anything but an int (a bool, a float) is
    not an odd prime."""
    if isinstance(p, bool) or not isinstance(p, int):
        return False
    if p >= PRIMALITY_BOUND:
        raise ValidationError(
            f"p = {p} is not below {PRIMALITY_BOUND}, the bound of the primality test"
        )
    if p < 3:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q != 2
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
    d = (p - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    """Refuse a p that is not an odd prime: ValidationError("p is not an odd
    prime").  Every constructor and entry point that takes a prime checks it
    here."""
    if not is_odd_prime(p):
        raise ValidationError(f"{p} is not an odd prime")


# The valuation up to which int_valuation divides by p once a step.
_PLAIN_STEPS = 16


def int_valuation(n: int, p: int) -> int:
    """ord_p of a nonzero integer.

    Up to _PLAIN_STEPS it divides by p once a step.  Past that it divides by
    p^(2^j) for j = 0, 1, ... while that divides, which takes out
    p^(2^j - 1) and leaves a valuation below 2^j, and then by the same
    powers going back down, one bit of the rest each: O(log v) divisions
    for a valuation v.
    """
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == _PLAIN_STEPS:
            break
    else:
        return v
    powers = [p]
    while True:
        q, r = divmod(n, powers[-1])
        if r:
            break
        n = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[j])
        if not r:
            n = q
            v += 1 << j
    return v


@functools.total_ordering
class ExtendedRational:
    """An exact rational or +infinity; infinity absorbs addition and is maximal."""

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | int | None = 0):
        # A Fraction is immutable, so one handed in is kept, not copied.  Any
        # other value but an int (a bool, a float, a str) is refused.
        self._value = (value if value is None or isinstance(value, Fraction)
                       else Fraction(require_int(value, "value")))

    @classmethod
    def infinity(cls) -> "ExtendedRational":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("infinite ExtendedRational has no finite value")
        return self._value

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return ExtendedRational.infinity()
        return ExtendedRational(self._value + other._value)

    __radd__ = __add__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return f"ExtendedRational({str(self)!r})"

    def __str__(self):
        return "inf" if self.is_infinite else str(self._value)

    def to_json(self) -> str:
        return str(self)


def _coerce(x):
    """x as an ExtendedRational; NotImplemented unless it is one, an int or
    a Fraction (a bool is none of these), so that comparing with or adding
    anything else falls back to Python's default (unequal, or TypeError)
    instead of converting it."""
    if isinstance(x, ExtendedRational):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return ExtendedRational(x)
    return NotImplemented


INF = ExtendedRational.infinity()


@dataclass(frozen=True)
class PadicUnit:
    """A p-adic unit known mod p^precision; residue is kept reduced."""

    prime: int
    residue: int
    precision: int

    def __post_init__(self):
        require_odd_prime(self.prime)
        if require_int(self.precision, "precision") < 1:
            raise ValidationError("precision must be positive")
        u = require_int(self.residue, "residue") % self.prime**self.precision
        if u % self.prime == 0:
            raise ValidationError("unit part must be invertible mod p")
        object.__setattr__(self, "residue", u)


def unit_from_int(u: int, p: int, precision: int = DEFAULT_PRECISION) -> PadicUnit:
    """Build a p-adic unit from an integer.  A bad p or precision raises
    ValidationError (from PadicUnit); a multiple of a good p raises NonUnit."""
    if (is_odd_prime(p) and require_int(precision, "precision") >= 1
            and require_int(u, "residue") % p == 0):
        raise NonUnit(f"{u} is divisible by {p}")
    return PadicUnit(p, u, precision)
