"""Exact and finite-precision scalar arithmetic over Q_p.

A ``PadicNumber`` stores a valuation, a unit residue mod p^N and the relative
precision N.  Exact zero is a distinct state: an operation that can only bound
a valuation below the known precision raises ``IndeterminateValuation`` instead
of silently returning zero.  ``ExtendedRational`` is an exact rational extended
by +infinity, used for every ord_p value in the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, IndeterminateValuation, NonUnit, ValidationError

DEFAULT_PRECISION = 64


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def int_valuation(n: int, p: int) -> int:
    """ord_p of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@functools.total_ordering
class ExtendedRational:
    """An exact rational or +infinity; infinity absorbs addition and is maximal."""

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | int | None = 0):
        self._value = None if value is None else Fraction(value)

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
    a Fraction, so that comparing with or adding anything else falls back to
    Python's default (unequal, or TypeError) instead of converting it."""
    if isinstance(x, ExtendedRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ExtendedRational(x)
    return NotImplemented


INF = ExtendedRational.infinity()


@dataclass(frozen=True)
class PadicNumber:
    """Element of Q_p: p^valuation * unit, with unit known mod p^precision.

    ``valuation is None`` encodes exact zero (unit is None as well).
    """

    prime: int
    valuation: int | None
    unit: int | None
    precision: int

    def __post_init__(self):
        if not is_odd_prime(self.prime):
            raise ValidationError(f"{self.prime} is not an odd prime")
        if self.precision < 1:
            raise ValidationError("precision must be positive")
        if self.valuation is None:
            if self.unit is not None:
                raise ValidationError("exact zero carries no unit")
            return
        pn = self.prime ** self.precision
        u = self.unit % pn
        if u % self.prime == 0:
            raise ValidationError("unit part must be invertible mod p")
        object.__setattr__(self, "unit", u)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls(p, None, None, precision)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        if n == 0:
            return cls.zero(p, precision)
        v = int_valuation(n, p)
        return cls(p, v, n // p**v, precision)

    @classmethod
    def from_rational(cls, q: Fraction, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        if q == 0:
            return cls.zero(p, precision)
        vn = int_valuation(q.numerator, p) if q.numerator else 0
        vd = int_valuation(q.denominator, p)
        un = q.numerator // p**vn
        ud = q.denominator // p**vd
        pn = p**precision
        return cls(p, vn - vd, un * pow(ud, -1, pn) % pn, precision)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def is_unit(self) -> bool:
        return self.valuation == 0

    @property
    def abs_precision(self) -> int | None:
        """Exponent up to which the value is known: p^abs_precision."""
        return None if self.is_zero else self.valuation + self.precision

    # -- arithmetic --------------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber"):
        if self.prime != other.prime:
            raise ValidationError("mixed primes")

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.prime
        v = min(self.valuation, other.valuation)
        room = min(self.abs_precision, other.abs_precision) - v
        s = (
            self.unit * p ** (self.valuation - v)
            + other.unit * p ** (other.valuation - v)
        ) % p**room
        if s == 0:
            raise IndeterminateValuation(
                f"sum vanishes mod p^{room} above valuation {v}"
            )
        w = int_valuation(s, p)
        new_prec = room - w
        if new_prec < 1:
            raise IndeterminateValuation("no residual precision after cancellation")
        return PadicNumber(p, v + w, (s // p**w) % p**new_prec, new_prec)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        pn = self.prime ** self.precision
        return PadicNumber(self.prime, self.valuation, (-self.unit) % pn, self.precision)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        prec = min(self.precision, other.precision)
        if self.is_zero or other.is_zero:
            return PadicNumber.zero(self.prime, prec)
        pn = self.prime**prec
        return PadicNumber(
            self.prime,
            self.valuation + other.valuation,
            (self.unit * other.unit) % pn,
            prec,
        )

    def inverse(self) -> "PadicNumber":
        if self.is_zero:
            raise DivisionByZero("inverse of exact zero")
        pn = self.prime ** self.precision
        return PadicNumber(
            self.prime, -self.valuation, pow(self.unit, -1, pn), self.precision
        )

    def unit_residue(self) -> int:
        """The unit part mod p^precision; requires a p-adic unit."""
        if not self.is_unit:
            raise NonUnit(f"valuation {self.valuation} is not 0")
        return self.unit

    def ord(self) -> ExtendedRational:
        """ord_p, normalized so ord_p(p) = 1; +infinity for exact zero."""
        if self.is_zero:
            return INF
        return ExtendedRational(self.valuation)

    def __str__(self):
        if self.is_zero:
            return f"0 (exact, p={self.prime})"
        return f"{self.unit}*{self.prime}^{self.valuation} + O({self.prime}^{self.abs_precision})"


def unit_from_int(u: int, p: int, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Build a p-adic unit from an integer; rejects multiples of p."""
    if u % p == 0:
        raise NonUnit(f"{u} is divisible by {p}")
    return PadicNumber(p, 0, u, precision)
