"""Kobayashi ranks of the quotient towers Lambda/(f, omega_n).

Three routes that must agree on finite towers:

* closed form: ord_eps of f(eps_n), scaled by the coefficient-ring degree;
* resultant oracle: first differences of ord_p Res(f, omega_n), using that
  the tower module has size p^(ord_p Res);
* elementary-divisor oracle: the kernel minus the cokernel length of the
  projection between consecutive levels.  That difference is e_n - e_(n-1),
  the size exponents of Lambda/(f, omega_n), read off from valuation-pivot
  elimination over Z/p^N of multiplication by omega_m on Z_p[X]/(f) when
  f's leading coefficient is a unit, and by f on Z_p[X]/(omega_m)
  otherwise.  N doubles from 16 until the finite level-n module is
  eliminated; no resultant or eps-valuation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFinite, PhiDividesF, PrecisionExhausted, ValidationError
from .iwapoly import IwaPoly, WeierstrassData, coprime_to_omega, omega, ord_eps, totient
from .padic import int_valuation
from .polyres import resultant

CLOSED_FORM = "closed_form"
RESULTANT_ORACLE = "resultant_oracle"
SNF_ORACLE = "snf_oracle"
FINITE_TOWER = "finite_tower"


@dataclass(frozen=True)
class TowerOfQuotients:
    """The system Lambda/(f, omega_n) for an exact nonzero f: the lifts of an
    f known mod p^N can define towers of different ranks."""

    f: IwaPoly

    def __post_init__(self):
        if self.f.is_zero:
            raise ValidationError("defining element must be nonzero")
        if self.f.mod_prec is not None:
            raise ValidationError("defining element must be exact, not known mod p^N")

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
    """ord_eps f(eps_n); requires Phi_n not dividing f."""
    o = ord_eps(t.f, n)
    if o.is_infinite:
        raise PhiDividesF(f"Phi_{n} divides f")
    return NablaResult(n, int(o.value), CLOSED_FORM)


def _finite_tower_f(t: TowerOfQuotients, n: int) -> IwaPoly:
    """The oracles' preamble: f, once n is valid and Lambda/(f, omega_n) finite."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not coprime_to_omega(t.f, n):
        raise NotFinite("f shares a factor with omega_n")
    return t.f


def nabla_resultant_oracle(t: TowerOfQuotients, n: int) -> NablaResult:
    """ord_p Res(f, omega_n) - ord_p Res(f, omega_(n-1)), exact integers."""
    f = _finite_tower_f(t, n)
    p = t.prime
    e_hi = int_valuation(resultant(f.coeffs, omega(p, n).coeffs), p)
    e_lo = int_valuation(resultant(f.coeffs, omega(p, n - 1).coeffs), p)
    return NablaResult(n, e_hi - e_lo, RESULTANT_ORACLE)


def elementary_divisor_valuations(rows: list[list[int]], p: int, prec: int) -> list[int]:
    """Valuations of the elementary divisors of an integer matrix, computed
    by minimal-valuation pivoting over Z/p^prec.

    The active block's least valuation never falls: after a pivot of
    valuation v < prec, minimal in its block, every row operation subtracts
    multiples of entries divisible by p^v, and reduction mod p^prec keeps
    that divisibility.  So the pivot search stops at the first entry of the
    last pivot's valuation.  A row operation touches only the nonzero
    columns of the pivot row that are still active (the pivot's own column
    is never read again), which is what a banded matrix keeps cheap.

    Raises PrecisionExhausted when a needed pivot is indistinguishable from
    zero at the working modulus (an elementary divisor reaching p^prec, or an
    infinite cokernel).
    """
    pn = p**prec
    m = [[x % pn for x in row] for row in rows]
    act_rows = list(range(len(m)))
    act_cols = list(range(len(m[0]))) if m else []
    vals: list[int] = []
    lo = 0  # the active block's least valuation, a lower bound for every pivot
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
                    if v == lo:
                        break
            if best is not None and best[0] == lo:
                break
        if best is None:
            raise PrecisionExhausted(
                f"remaining block vanishes mod {p}^{prec} with "
                f"{len(act_cols)} columns unpivoted"
            )
        v, pi, pj = best
        lo = v
        vals.append(v)
        act_rows.remove(pi)
        act_cols.remove(pj)
        prow = m[pi]
        pv = p**v
        unit_inv = pow(prow[pj] // pv, -1, pn)
        support = None  # the pivot row's nonzero active columns, once needed
        for i in act_rows:
            row = m[i]
            if row[pj]:
                if support is None:
                    support = [(j, prow[j]) for j in act_cols if prow[j]]
                factor = (row[pj] // pv) * unit_inv % pn
                for j, x in support:
                    row[j] = (row[j] - factor * x) % pn
    if act_cols:
        raise NotFinite("matrix has a nontrivial kernel direction: infinite cokernel")
    return vals


def _omega_columns(f: IwaPoly, m: int, prec: int) -> list[list[int]]:
    """Columns of multiplication by a on (Z/p^prec)[X]/(b), as coefficient
    lists, with (a, b) = (omega_m, f) when f's leading coefficient is a unit
    and (f, omega_m) otherwise, so that b is a unit times a monic polynomial.

    Either cokernel is Z_p[X]/(f, omega_m), which is Lambda/(f, omega_m)
    because omega_m is distinguished.  The matrix is deg f square in the
    first case and p^m square in the second.  In the first case omega_m mod
    (f, p^prec) is 1 + X raised m times to the p-th power, by squaring, less
    1: the exact omega_m (p^m + 1 binomial coefficients) is never built, and
    a large p costs O(m log p) products mod f.
    """
    p = f.prime
    pn = p**prec
    unit_lead = f.coeffs[-1] % p != 0
    b = f.coeffs if unit_lead else omega(p, m).coeffs
    inv = pow(b[-1], -1, pn)
    tail = [c * inv % pn for c in b[:-1]]  # b made monic is X^d + tail
    d = len(tail)
    if not d:
        return []

    def times_x_plus(cur, c):
        """X * cur + c mod (b, p^prec); X^d = -tail."""
        lead = cur[-1]
        cur = [c % pn] + cur[:-1]
        if lead:
            cur = [(x - lead * y) % pn for x, y in zip(cur, tail)]
        return cur

    def horner(a):
        """a mod (b, p^prec)."""
        col = [0] * d
        for c in reversed(a):
            col = times_x_plus(col, c)
        return col

    def times(u, v):
        """u * v mod (b, p^prec), reduced from the top in place."""
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v, i):
                    prod[j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            lead = prod[k] % pn
            if lead:
                for i, y in enumerate(tail, k - d):
                    prod[i] -= lead * y
        return [x % pn for x in prod[:d]]

    if unit_lead:
        col = horner((1, 1))
        for _ in range(m):
            base = col
            for bit in bin(p)[3:]:
                col = times(col, col)
                if bit == "1":
                    col = times(col, base)
        col[0] = (col[0] - 1) % pn
    else:
        col = horner(f.coeffs)
    cols = [col]
    for _ in range(d - 1):
        cols.append(times_x_plus(cols[-1], 0))
    return cols


def nabla_snf_oracle(t: TowerOfQuotients, n: int) -> NablaResult:
    """length ker pi - length coker pi for pi: Lambda/(f, omega_n) ->
    Lambda/(f, omega_(n-1)), via elementary divisors over Z/p^N.

    With e_m the size exponent of Lambda/(f, omega_m), length ker pi =
    e_n - e_aug and length coker pi = e_prev - e_aug, where e_aug is the size
    exponent of the image of the augmented lattice (f, omega_(n-1)) inside
    Z[X]/omega_n.  The e_aug terms cancel, so the value is e_n - e_prev and
    the augmented lattice is never eliminated.

    Each e_m is read from _omega_columns' presentation on the small side,
    of rank deg f or p^m.  Its columns are reduced mod p^N, so they are
    rebuilt for each N.

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
    prec = 16
    while True:
        try:
            e_n = sum(elementary_divisor_valuations(_omega_columns(f, n, prec), p, prec))
            break
        except PrecisionExhausted:
            prec *= 2
    e_prev = sum(elementary_divisor_valuations(_omega_columns(f, n - 1, prec), p, prec))
    return NablaResult(n, e_n - e_prev, SNF_ORACLE)


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
