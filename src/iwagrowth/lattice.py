"""The image lattice of the signed Coleman maps and the finite-level maps.

A pair (G_1, G_2) lies in the image lattice exactly when
(p-1) G_1(0) = (2-a_v) G_2(0).  The finite-level map sends (G_1, G_2) to
H_sharp G_1 + u H_flat G_2 mod omega_n for a unit u; the witness pair
(-X H_flat(n-1), u^(-1) X H_sharp(n-1)) lands on omega_(n-1), which is the
constructive content of the containment Im >= omega_(n-1) * Lambda_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonUnit, ValidationError
from .iwapoly import IwaPoly, omega
from .logmat import LocalCurveData, cross_identity_check, h_entries  # noqa: F401  (re-exported)
from .padic import DEFAULT_PRECISION, PadicNumber, unit_from_int


@dataclass(frozen=True)
class LatticePair:
    """Coordinates (G_1, G_2) in Lambda + Lambda."""

    g1: IwaPoly
    g2: IwaPoly

    def __post_init__(self):
        if self.g1.prime != self.g2.prime:
            raise ValidationError("mixed primes")

    @property
    def prime(self) -> int:
        return self.g1.prime

    def __add__(self, other: "LatticePair") -> "LatticePair":
        return LatticePair(self.g1 + other.g1, self.g2 + other.g2)

    def scale(self, f: IwaPoly) -> "LatticePair":
        return LatticePair(f * self.g1, f * self.g2)


def _as_unit(u, p: int) -> PadicNumber:
    if isinstance(u, int):
        return unit_from_int(u, p, DEFAULT_PRECISION)
    if not isinstance(u, PadicNumber):
        raise ValidationError(f"unit must be int or PadicNumber, got {type(u)}")
    if u.prime != p:
        raise ValidationError("unit prime does not match curve data")
    if not u.is_unit:
        raise NonUnit(f"valuation {u.valuation} is not 0")
    return u


def in_image(pair: LatticePair, data: LocalCurveData, n_prec: int | None = None) -> bool:
    """(p-1) G_1(0) = (2-a_v) G_2(0) mod p^N, with N the least of n_prec
    and the moduli of G_1 and G_2; exactly when none of them is set."""
    if n_prec is not None and n_prec < 1:
        raise ValidationError("precision must be >= 1")
    p = pair.prime
    diff = (p - 1) * pair.g1(0) - (2 - data.a_v) * pair.g2(0)
    precs = [e for e in (n_prec, pair.g1.mod_prec, pair.g2.mod_prec) if e is not None]
    if not precs:
        return diff == 0
    return diff % p ** min(precs) == 0


def h_u_map(pair: LatticePair, data: LocalCurveData, n: int, u) -> IwaPoly:
    """H_sharp G_1 + u H_flat G_2 mod omega_n, at the working modulus of u.

    u = +-1 (as plain int) keeps the computation exact.  The reduction is
    skipped when the total has degree below p^n = deg omega_n, where it
    would return the total unchanged; a witness image (degree at most
    p^(n-1) + p^(n-2) - 1) is such a total, so omega_n is not built for it.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    p = pair.prime
    sharp, flat = h_entries(data, n)
    if isinstance(u, int) and u in (1, -1):
        total = sharp * pair.g1 + (flat * pair.g2).scale(u)
    else:
        uu = _as_unit(u, p)
        total = (sharp * pair.g1 + (flat * pair.g2).scale(uu.unit_residue())) \
            .with_modulus(uu.precision)
    if total.degree < p**n:
        return total
    return total % omega(p, n)


def witness(data: LocalCurveData, n: int, u) -> LatticePair:
    """(-X H_flat(n-1), u^(-1) X H_sharp(n-1)), a lattice member mapping to
    omega_(n-1) under the level-n map."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    p = data.prime
    sharp, flat = h_entries(data, n - 1)
    x = IwaPoly.x(p)
    if isinstance(u, int) and u in (1, -1):
        return LatticePair(-(x * flat), (x * sharp).scale(u))
    uu = _as_unit(u, p)
    inv = uu.inverse().unit_residue()
    return LatticePair(
        -(x * flat),
        (x * sharp).scale(inv).with_modulus(uu.precision),
    )
