"""Kobayashi ranks of the quotient towers Lambda/(f, omega_n).

Three routes that must agree on finite towers:

* closed form: ord_eps of f(eps_n), scaled by the coefficient-ring degree;
* resultant oracle: first differences of ord_p Res(f, omega_n), using that
  the tower module has size p^(ord_p Res), each read from
  polyres._omega_resultant (omega_resultant without its input checks, which
  f's IwaPoly has passed), which picks its own route to Res(f, omega_n);
* elementary-divisor oracle: the kernel minus the cokernel length of the
  projection between consecutive levels.  That difference is e_n - e_(n-1),
  the size exponents of Lambda/(f, omega_n), read off from valuation-pivot
  elimination over Z/p^N of the presentation _omega_columns builds in the
  group-ring coordinate T = 1 + X, whose first column is T raised n times
  to the p-th power by the same iwapoly._p_power, mod (h, p^N).  The
  content p^mu of f is factored out first: on the Z_p-free group ring of
  rank p^n it adds exactly mu p^n to the size exponent (_size_exponent),
  and only f / p^mu is presented.  Each level doubles its own N from 16
  until its finite module is eliminated; no resultant, eps-valuation or
  omega_m is involved.

Both oracles are one difference of per-level exponents (_tower_difference),
each exponent read from a cache keyed by (f, m), so a caller climbing the
tower computes every level once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotFinite, PhiDividesF, PrecisionExhausted, ValidationError, require_level
from .iwapoly import (
    IwaPoly,
    WeierstrassData,
    _divmod,
    _mu_lambda,
    _mul,
    _p_power,
    _require_exact_size,
    coprime_to_omega,
    ord_eps,
    totient,
)
from .padic import int_valuation
from .polyres import _omega_resultant

CLOSED_FORM = "closed_form"
RESULTANT_ORACLE = "resultant_oracle"
SNF_ORACLE = "snf_oracle"
FINITE_TOWER = "finite_tower"

# Entries of each per-level exponent cache.  A caller climbing one f's tower
# asks level n, then n - 1, and at n + 1 adds level n + 1 before it re-reads
# level n, the least recently used of the three: three entries hold every hit.
_LEVEL_CACHE_SIZE = 3


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


def exceeds_digits(t: TowerOfQuotients, n: int, digits: int) -> bool:
    """Whether nabla_closed_form(t, n) provably has more than digits decimal
    digits (0: no limit), decided without forming p^n.

    When deg f < phi(p^n), the value is phi(p^n) v + i0 (ord_eps), v the
    p-adic valuation of the content of f; so for v >= 1 it is at least
    (p-1) p^(n-1) v.  Both that bound and deg f < phi(p^n) are read from
    logarithms, each with a digit of margin for their float rounding.  An n
    below 1 is left to nabla_closed_form to refuse.
    """
    if n < 1 or not digits:
        return False
    p, f = t.prime, t.f
    v = _mu_lambda(f)[0]
    if not v:
        return False
    log_phi = math.log10(p - 1) + (n - 1) * math.log10(p)
    return log_phi >= math.log10(f.degree + 1) + 1 and log_phi + math.log10(v) >= digits + 1


def _tower_difference(t: TowerOfQuotients, n: int, exponent, method: str) -> NablaResult:
    """exponent(f, n) - exponent(f, n - 1), the body of both oracles, once n
    is valid and Lambda/(f, omega_n) is finite (then so is its quotient
    Lambda/(f, omega_(n-1))).  Level n is read before level n - 1, the order
    _LEVEL_CACHE_SIZE's bound on each exponent's cache assumes."""
    require_level(n)
    if not coprime_to_omega(t.f, n):
        raise NotFinite("f shares a factor with omega_n")
    e_n = exponent(t.f, n)
    return NablaResult(n, e_n - exponent(t.f, n - 1), method)


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _resultant_exponent(f: IwaPoly, m: int) -> int:
    """ord_p Res(f, omega_m), an exact integer, refused as omega(p, m) is."""
    return int_valuation(_omega_resultant(f.coeffs, f.prime, m), f.prime)


def nabla_resultant_oracle(t: TowerOfQuotients, n: int) -> NablaResult:
    """ord_p Res(f, omega_n) - ord_p Res(f, omega_(n-1))."""
    return _tower_difference(t, n, _resultant_exponent, RESULTANT_ORACLE)


def elementary_divisor_valuations(rows: list[dict[int, int]], p: int, prec: int) -> list[int]:
    """Valuations of the elementary divisors of a square integer matrix,
    given by its sparse rows ({column: entry}, each column below len(rows)),
    computed by minimal-valuation pivoting over Z/p^prec.

    The active block's least valuation never falls: after a pivot of
    valuation v < prec, minimal in its block, every row operation subtracts
    multiples of entries divisible by p^v, and reduction mod p^prec keeps
    that divisibility.  So the pivot search stops at the first entry of the
    last pivot's valuation.  Each row keeps only its nonzero active entries,
    and a column-to-rows index lists the active rows with a nonzero in each
    active column.  So a pivot updates only the rows that meet its column,
    each over the pivot row's nonzeros, which keeps a banded or circulant
    matrix cheap.

    Raises PrecisionExhausted when a needed pivot is indistinguishable from
    zero at the working modulus: an elementary divisor reaching p^prec, or a
    singular matrix (an infinite cokernel).
    """
    pn = p**prec
    m: list[dict[int, int]] = []
    meets: list[set[int]] = [set() for _ in rows]  # column -> active rows
    for i, row in enumerate(rows):
        kept = {}
        for j, x in row.items():
            x %= pn
            if x:
                kept[j] = x
                meets[j].add(i)
        m.append(kept)
    act_rows = dict.fromkeys(range(len(m)))  # an ordered set
    vals: list[int] = []
    lo = 0  # the active block's least valuation, a lower bound for every pivot
    while act_rows:
        best = None  # (val, row, col)
        for i in act_rows:
            for j, x in m[i].items():
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
                f"{len(act_rows)} columns unpivoted"
            )
        v, pi, pj = best
        lo = v
        vals.append(v)
        del act_rows[pi]
        prow = m[pi]
        pv = p**v
        unit_inv = pow(prow.pop(pj) // pv, -1, pn)
        for j in prow:
            meets[j].discard(pi)
        support = list(prow.items())  # active columns only
        hit = meets[pj]
        hit.discard(pi)
        meets[pj] = set()
        for i in hit:
            row = m[i]
            factor = (row.pop(pj) // pv) * unit_inv % pn
            for j, y in support:
                x = row.get(j)
                z = ((x or 0) - factor * y) % pn
                if z:
                    if x is None:
                        meets[j].add(i)
                    row[j] = z
                elif x is not None:
                    del row[j]
                    meets[j].discard(i)
    return vals


def _shift(coeffs) -> list[int]:
    """g(T) = f(T-1) by the Horner rule g <- g (T - 1) + c_i.  It keeps f's
    degree and leading coefficient, and g(0) = f(-1)."""
    g: list[int] = []
    for c in reversed(coeffs):
        g = _mul(g, [-1, 1])
        g[0] += c
    return g


def _circulant_columns(g, size: int, pn: int) -> list[dict[int, int]]:
    """Columns of multiplication by g(T) on (Z/pn)[T]/(T^size - 1) in the
    basis T^j: column j holds g_k at row (j + k) mod size."""
    folded = _divmod(g, [-1] + [0] * (size - 1) + [1], pn)[1]
    band = [(k, x) for k, x in enumerate(folded) if x]
    return [{(j + k) % size: x for k, x in band} for j in range(size)]


def _omega_columns(f: IwaPoly, m: int, prec: int) -> list[dict[int, int]]:
    """A square presentation over Z/p^prec of Lambda/(f, omega_m), as sparse
    columns ({row: entry}).

    omega_m is distinguished, so Lambda/(omega_m) is Z_p[X]/(omega_m): with
    T = 1 + X, the group ring Z_p[T]/(T^(p^m) - 1), in which f is
    g(T) = f(T-1) (_shift) and T is a unit.  T -> T^(-1) takes g to a unit
    times its reversal g[::-1] and T^(p^m) - 1 to a unit times itself, so
    the module is both Z_p[T]/(g, T^(p^m) - 1) and the same with g[::-1].
    Two forms:

    * g's leading coefficient (f's) or g[0] = f(-1) a unit: multiplication
      by T^(p^m) - 1 on (Z/p^prec)[T]/(h), deg f square, with h the one of
      g and g[::-1] with a unit lead, made monic.  Z_p[T]/(h) is free of
      rank deg f.  The first column, T^(p^m) - 1 mod (h, p^prec), is T
      raised m times to the p-th power by iwapoly._p_power, each product
      reduced mod (h, p^prec), less 1: a large p costs O(m log p) products
      mod h, and this form has no size bound.
    * otherwise (mu > 0, or p dividing the leading coefficient and f(-1)):
      the circulant of multiplication by g on the group ring, deg f + 1
      nonzeros per column.  It has p^m columns, so it is refused with
      ValidationError above MAX_EXACT_P_POWER, as omega is.

    _size_exponent presents f / p^mu, never an f with mu > 0, so there the
    circulant is built only for p dividing both lc f and f(-1).
    """
    p = f.prime
    pn = p**prec
    g = _shift(f.coeffs)
    h = g if g[-1] % p else g[::-1]
    if h[-1] % p == 0:
        _require_exact_size(p, m)
        return _circulant_columns(g, p**m, pn)
    inv = pow(h[-1], -1, pn)
    h = [c * inv % pn for c in h]
    d = len(h) - 1
    if not d:
        return []
    col = _divmod([0, 1], h, pn)[1]  # T mod h
    col = _p_power(col, p, m, lambda x, y: _divmod(_mul(x, y), h, pn)[1])
    col[0] = (col[0] - 1) % pn
    cols = [col]
    for _ in range(d - 1):
        cols.append(_divmod([0] + cols[-1], h, pn)[1])
    return [{i: x for i, x in enumerate(c) if x} for c in cols]


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _size_exponent(f: IwaPoly, m: int) -> int:
    """e_m, with Lambda/(f, omega_m) of size p^e_m, for f coprime to omega_m.

    The content p^mu of f is factored out first, and f0 = f / p^mu is
    presented.  Lambda_m = Z_p[T]/(T^(p^m) - 1) is Z_p-free of rank p^m, so
    p^mu is a nonzerodivisor on it, and so is f0, which is coprime to
    omega_m as f is.  Then
        0 -> Lambda_m/(f0) --(p^mu)--> Lambda_m/(p^mu f0) -> Lambda_m/(p^mu) -> 0
    is exact, and e_m(f) = mu p^m + e_m(f0).  So a mu > 0 f whose f0 has a
    unit lead or f0(-1) a unit is presented deg f square, past
    MAX_EXACT_P_POWER, not as a p^m square circulant.

    e_m(f0) is read from _omega_columns' presentation, eliminated over
    Z/p^N.  The columns are reduced mod p^N, so they are rebuilt for each N.
    N starts at 16 and doubles until the elimination finishes.  This ends:
    the module is finite, of size p^e_m(f0), so no elementary divisor has
    valuation above e_m(f0), and the elimination over Z/p^N fails only when
    every remaining divisor reaches p^N.  Whatever N finishes it, the
    valuations it returns are exact, so e_m does not depend on N.
    """
    p = f.prime
    mu = _mu_lambda(f)[0]
    f0 = IwaPoly._of(p, [c // p**mu for c in f.coeffs], None) if mu else f
    prec = 16
    while True:
        try:
            cols = _omega_columns(f0, m, prec)
            return mu * p**m + sum(elementary_divisor_valuations(cols, p, prec))
        except PrecisionExhausted:
            prec *= 2


def nabla_snf_oracle(t: TowerOfQuotients, n: int) -> NablaResult:
    """length ker pi - length coker pi for pi: Lambda/(f, omega_n) ->
    Lambda/(f, omega_(n-1)), via elementary divisors over Z/p^N.

    With e_m the size exponent of Lambda/(f, omega_m), length ker pi =
    e_n - e_aug and length coker pi = e_prev - e_aug, where e_aug is the size
    exponent of the image of the augmented lattice (f, omega_(n-1)) inside
    Z[X]/omega_n.  The e_aug terms cancel, so the value is e_n - e_prev and
    the augmented lattice is never eliminated.

    Both levels are finite by _tower_difference's coprimality gate and read
    from _size_exponent, which eliminates each level at its own N.
    """
    return _tower_difference(t, n, _size_exponent, SNF_ORACLE)


def nabla_asymptotic(w: WeierstrassData, p: int, n: int) -> int:
    """phi(p^n) * mu + lambda: the stabilized value of the closed form."""
    require_level(n)
    return totient(p, n) * w.mu + w.lam


def nabla_finite_tower(sizes: list[int]) -> list[NablaResult]:
    """First differences of the size exponents e(M_n) of a finite tower."""
    return [
        NablaResult(i + 1, b - a, FINITE_TOWER)
        for i, (a, b) in enumerate(zip(sizes, sizes[1:]))
    ]
