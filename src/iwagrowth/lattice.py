"""The image lattice of the signed Coleman maps and the finite-level maps.

A pair (G_1, G_2) lies in the image lattice exactly when
(p-1) G_1(0) = (2-a_v) G_2(0).  The finite-level map sends (G_1, G_2) to
H_sharp G_1 + u H_flat G_2 mod omega_n for a unit u; the witness pair
(-X H_flat(n-1), u^(-1) X H_sharp(n-1)) lands on omega_(n-1), which is the
constructive content of the containment Im >= omega_(n-1) * Lambda_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .iwapoly import IwaPoly, omega
from .logmat import LocalCurveData, cross_identity_check, h_entries  # noqa: F401  (re-exported)
from .padic import DEFAULT_PRECISION, PadicUnit, unit_from_int


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


def _unit(u, p: int) -> tuple[int, int | None]:
    """u as (residue, modulus exponent N): an int +-1 stays exact (N is
    None); any other int becomes a unit mod p^DEFAULT_PRECISION."""
    if isinstance(u, int):
        if u in (1, -1):
            return u, None
        u = unit_from_int(u, p, DEFAULT_PRECISION)
    elif not isinstance(u, PadicUnit):
        raise ValidationError(f"unit must be int or PadicUnit, got {type(u)}")
    elif u.prime != p:
        raise ValidationError("unit prime does not match curve data")
    return u.residue, u.precision


def _at_modulus(f: IwaPoly, prec: int | None) -> IwaPoly:
    return f if prec is None else f.with_modulus(prec)


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

    u is an int or a PadicUnit; the int +-1 keeps the computation exact.
    The reduction is skipped when the total has degree below p^n =
    deg omega_n, where it would return the total unchanged; a witness image (degree at most
    p^(n-1) + p^(n-2) - 1) is such a total, so omega_n is not built for it.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    p = pair.prime
    sharp, flat = h_entries(data, n)
    residue, prec = _unit(u, p)
    total = _at_modulus(sharp * pair.g1 + (flat * pair.g2).scale(residue), prec)
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
    residue, prec = _unit(u, p)
    inv = residue if prec is None else pow(residue, -1, p**prec)  # +-1 = its inverse
    return LatticePair(-(x * flat), _at_modulus((x * sharp).scale(inv), prec))
