"""The image lattice of the signed Coleman maps and the finite-level maps.

A pair (G_1, G_2) lies in the image lattice exactly when
(p-1) G_1(0) = (2-a_v) G_2(0).  The finite-level map sends (G_1, G_2) to
H_sharp G_1 + u H_flat G_2 mod omega_n for a unit u; the witness pair
(-X H_flat(n-1), u^(-1) X H_sharp(n-1)) lands on omega_(n-1), which is the
constructive content of the containment Im >= omega_(n-1) * Lambda_n.

A unit known mod p^N enters as a constant IwaPoly with that modulus, so each
result is known modulo the least modulus of its operands (IwaPoly._join_prec).
The map folds u into G_2 and reads its total through logmat._map_total,
which reads a pair congruent to the witness pair off the level's exact
total (logmat._witness_total): after the cross identity, the witness map at
every unit forms no product of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, require_level
from .iwapoly import IwaPoly, omega
from .logmat import LocalCurveData, _map_total, _witness_rows
from .logmat import cross_identity_check  # noqa: F401  (re-exported)
from .padic import DEFAULT_PRECISION, PadicUnit, unit_from_int


@dataclass(frozen=True)
class LatticePair:
    """Coordinates (G_1, G_2) in Lambda + Lambda: IwaPolys at one prime."""

    g1: IwaPoly
    g2: IwaPoly

    def __post_init__(self):
        if not all(isinstance(g, IwaPoly) for g in (self.g1, self.g2)):
            raise ValidationError("coordinates must be IwaPoly")
        if self.g1.prime != self.g2.prime:
            raise ValidationError("mixed primes")


def _unit(u, p: int) -> IwaPoly:
    """u as a constant IwaPoly: exact for the int +-1; any other int becomes
    a unit mod p^DEFAULT_PRECISION, and a PadicUnit keeps its precision."""
    if isinstance(u, int):
        if u in (1, -1):
            return IwaPoly.const(p, u)
        u = unit_from_int(u, p, DEFAULT_PRECISION)
    elif not isinstance(u, PadicUnit):
        raise ValidationError(f"unit must be int or PadicUnit, got {type(u)}")
    elif u.prime != p:
        raise ValidationError("unit prime does not match curve data")
    return IwaPoly.const(p, u.residue, u.precision)


def in_image(pair: LatticePair, data: LocalCurveData) -> bool:
    """(p-1) G_1(0) = (2-a_v) G_2(0), modulo the least modulus of G_1 and
    G_2; exactly when neither has one.  A pair at another prime than the
    curve's raises ValidationError("mixed primes")."""
    p = data.prime
    g1_0, g2_0 = (IwaPoly.const(g.prime, g.coeff(0), g.mod_prec) for g in (pair.g1, pair.g2))
    diff = IwaPoly.const(p, p - 1) * g1_0 - IwaPoly.const(p, 2 - data.a_v) * g2_0
    return diff.is_zero


def h_u_map(pair: LatticePair, data: LocalCurveData, n: int, u) -> IwaPoly:
    """H_sharp G_1 + u H_flat G_2 mod omega_n, modulo the least modulus of
    u, G_1 and G_2; exact when none has one.

    u is an int or a PadicUnit; the int +-1 is exact.  u is folded into G_2
    first, as H_sharp G_1 + H_flat (u G_2), which is the same total in Z[X]
    and mod p^k, and logmat._map_total gives the total: on a witness pair
    u G_2 = X H_sharp(n-1) for every unit, so the map reads the level's
    exact total (logmat._witness_total), reduced mod p^k, and forms no
    product once that total is cached.  The reduction mod omega_n is
    skipped when the total has degree below p^n = deg omega_n, where it
    would return the total unchanged; a witness image (degree at most
    p^(n-1) + p^(n-2) - 1) is such a total, so omega_n is not built for it.
    """
    require_level(n)
    p = data.prime
    total = _map_total(data, n, pair.g1, _unit(u, p) * pair.g2)
    return total if total.degree < p**n else total % omega(p, n)


def witness(data: LocalCurveData, n: int, u) -> LatticePair:
    """(-X H_flat(n-1), u^(-1) X H_sharp(n-1)), a lattice member mapping to
    omega_(n-1) under the level-n map; its second coordinate is known modulo
    u's modulus.  The coordinates at u = 1 are logmat._witness_rows."""
    require_level(n)
    p = data.prime
    g1, x_sharp = _witness_rows(data, n)
    inv = _unit(u, p)
    if inv.mod_prec is not None:  # +-1 is its own inverse
        inv = IwaPoly.const(p, pow(inv.coeff(0), -1, p**inv.mod_prec), inv.mod_prec)
    return LatticePair(g1, inv * x_sharp)
