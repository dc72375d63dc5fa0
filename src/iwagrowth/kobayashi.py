"""Kobayashi ranks of the quotient towers Lambda/(f, omega_n).

Three routes that must agree on finite towers:

* closed form: ord_eps of f(eps_n), scaled by the coefficient-ring degree;
* resultant oracle: first differences of ord_p Res(f, omega_n), using that
  the tower module has size p^(ord_p Res);
* elementary-divisor oracle: the kernel minus the cokernel length of the
  projection between consecutive levels.  That difference is e_n - e_(n-1),
  the size exponents of Lambda/(f, omega_n) read off from valuation-pivot
  elimination of the multiplication-by-f lattices over Z/p^N, with N
  doubled from 16 until the finite level-n module is eliminated; no
  resultant is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFinite, PhiDividesF, PrecisionExhausted, ValidationError
from .iwapoly import IwaPoly, WeierstrassData, gcd_with_omega, omega, ord_eps, totient
from .padic import int_valuation
from .polyres import resultant

CLOSED_FORM = "closed_form"
RESULTANT_ORACLE = "resultant_oracle"
SNF_ORACLE = "snf_oracle"
FINITE_TOWER = "finite_tower"


@dataclass(frozen=True)
class TowerOfQuotients:
    """The system Lambda/(f, omega_n); coeff_degree k > 1 models coefficients
    in the ring of integers of a degree-k extension."""

    f: IwaPoly
    coeff_degree: int = 1

    def __post_init__(self):
        if self.f.is_zero:
            raise ValidationError("defining element must be nonzero")
        if self.coeff_degree < 1:
            raise ValidationError("coefficient degree must be >= 1")

    @property
    def prime(self) -> int:
        return self.f.prime


@dataclass(frozen=True)
class NablaResult:
    n: int
    value: int
    method: str

    def to_json(self) -> dict:
        return {"n": self.n, "value": self.value, "method": self.method}


def nabla_closed_form(t: TowerOfQuotients, n: int) -> NablaResult:
    """k * ord_eps f(eps_n); requires Phi_n not dividing f."""
    o = ord_eps(t.f, n)
    if o.is_infinite:
        raise PhiDividesF(f"Phi_{n} divides f")
    return NablaResult(n, t.coeff_degree * int(o.value), CLOSED_FORM)


def _finite_tower_f(t: TowerOfQuotients, n: int) -> IwaPoly:
    """The oracles' shared preamble: f with any modulus lifted away, once n
    is a valid level and Lambda/(f, omega_n) is known to be finite."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    f = t.f if t.f.mod_prec is None else t.f.lift()
    if gcd_with_omega(f, n + 1).degree > 0:  # factors X, Phi_1..Phi_n of omega_n
        raise NotFinite("f shares a factor with omega_n")
    return f


def nabla_resultant_oracle(t: TowerOfQuotients, n: int) -> NablaResult:
    """ord_p Res(f, omega_n) - ord_p Res(f, omega_(n-1)), exact integers."""
    f = _finite_tower_f(t, n)
    p = t.prime
    e_hi = int_valuation(resultant(f.coeffs, omega(p, n).coeffs), p)
    e_lo = int_valuation(resultant(f.coeffs, omega(p, n - 1).coeffs), p)
    return NablaResult(n, t.coeff_degree * (e_hi - e_lo), RESULTANT_ORACLE)


def elementary_divisor_valuations(rows: list[list[int]], p: int, prec: int) -> list[int]:
    """Valuations of the elementary divisors of an integer matrix, computed
    by minimal-valuation pivoting over Z/p^prec.

    Raises PrecisionExhausted when a needed pivot is indistinguishable from
    zero at the working modulus (an elementary divisor reaching p^prec, or an
    infinite cokernel).
    """
    pn = p**prec
    m = [[x % pn for x in row] for row in rows]
    act_rows = list(range(len(m)))
    act_cols = list(range(len(m[0]))) if m else []
    vals: list[int] = []
    while act_rows and act_cols:
        best = None  # (val, row, col)
        for i in act_rows:
            mi = m[i]
            for j in act_cols:
                x = mi[j]
                if x == 0:
                    continue
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                    if best is not None and v >= best[0]:
                        break
                else:
                    best = (v, i, j)
                    if v == 0:
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            raise PrecisionExhausted(
                f"remaining block vanishes mod {p}^{prec} with "
                f"{len(act_cols)} columns unpivoted"
            )
        v, pi, pj = best
        vals.append(v)
        pivot = m[pi][pj]
        unit_inv = pow(pivot // p**v, -1, pn)
        prow = m[pi]
        for i in act_rows:
            if i == pi:
                continue
            entry = m[i][pj]
            if entry == 0:
                continue
            factor = (entry // p**v) * unit_inv % pn
            row = m[i]
            for j in act_cols:
                row[j] = (row[j] - factor * prow[j]) % pn
        act_rows.remove(pi)
        act_cols.remove(pj)
    if act_cols:
        raise NotFinite("matrix has a nontrivial kernel direction: infinite cokernel")
    return vals


def _mult_matrix_columns(f: IwaPoly, m: int) -> list[list[int]]:
    """Columns of multiplication by f on Z[X]/omega_m, as coefficient lists."""
    p = f.prime
    w = omega(p, m)
    d = p**m
    cur = (f % w).coeffs
    cols = []
    for _ in range(d):
        padded = list(cur) + [0] * (d - len(cur))
        cols.append(padded)
        # multiply by X and reduce once mod the monic omega_m
        nxt = [0] + list(cur)
        if len(nxt) - 1 == d:
            lead = nxt.pop()
            nxt = [c - lead * w.coeff(i) for i, c in enumerate(nxt)]
        cur = tuple(nxt)
    return cols


def nabla_snf_oracle(t: TowerOfQuotients, n: int) -> NablaResult:
    """length ker pi - length coker pi for pi: Lambda/(f, omega_n) ->
    Lambda/(f, omega_(n-1)), via elementary divisors over Z/p^N.

    With e_m the size exponent of Lambda/(f, omega_m), length ker pi =
    e_n - e_aug and length coker pi = e_prev - e_aug, where e_aug is the size
    exponent of the image of the augmented lattice (f, omega_(n-1)) inside
    Z[X]/omega_n.  The e_aug terms cancel, so the value is e_n - e_prev and
    the augmented lattice is never eliminated.

    N starts at 16 and doubles until the level-n elimination finishes.  This
    ends: the coprimality gate makes Lambda/(f, omega_n) finite, of size
    p^e_n, so no elementary divisor has valuation above e_n, and the
    elimination over Z/p^N fails only when every remaining divisor reaches
    p^N.  Lambda/(f, omega_(n-1)) is a quotient of Lambda/(f, omega_n), so
    its elementary divisors are no larger and its elimination finishes at
    the same N.
    """
    f = _finite_tower_f(t, n)
    p = t.prime
    cols = _mult_matrix_columns(f, n)
    prec = 16
    while True:
        try:
            e_n = sum(elementary_divisor_valuations(cols, p, prec))
            break
        except PrecisionExhausted:
            prec *= 2
    e_prev = sum(elementary_divisor_valuations(_mult_matrix_columns(f, n - 1), p, prec))
    return NablaResult(n, t.coeff_degree * (e_n - e_prev), SNF_ORACLE)


def nabla_asymptotic(w: WeierstrassData, p: int, n: int) -> int:
    """phi(p^n) * mu + lambda: the stabilized value of the closed form."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return totient(p, n) * w.mu + w.lam


def nabla_finite_tower(sizes: list[int]) -> list[NablaResult]:
    """First differences of the size exponents e(M_n) of a finite tower."""
    return [
        NablaResult(i + 1, b - a, FINITE_TOWER)
        for i, (a, b) in enumerate(zip(sizes, sizes[1:]))
    ]
