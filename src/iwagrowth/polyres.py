"""Exact integer resultants.

Two independent routes are provided.  ``resultant`` walks the fraction-free
subresultant remainder sequence (the coefficients of each remainder are
determinants of Sylvester sub-matrices, so intermediate growth is the minimal
possible without rational arithmetic).  ``resultant_bareiss`` eliminates the
full Sylvester matrix with Bareiss pivoting; it is quadratically slower and is
kept as a cross-check for the PRS route.

Each pseudo-remainder is computed by Horner and costs
O((deg a - deg b + 1) * deg b) products, so resultant(f, omega_n) for a
small f costs about p^n * deg f products at its first step.
omega_resultant(f, p, n) is resultant(f, omega_n) with the route picked
here: while p^n < _POWERED_MIN_RATIO * deg f (deg f >= p^n included) it is
that Horner pass over omega(p, n); past it, it skips that step and forms
the first remainder prem(omega_n, f) from 1 + X raised n times to the p-th
power mod f, by the package's one p-th-power chain (iwapoly._p_power) at
about 2 n log2(p) products of degree below deg f, each divided by one fixed
power of lc f, and enters the same subresultant loop (_subresultant_tail)
with the same sign and state.  Either way it refuses as omega(p, n) does.

Polynomials are plain lists/tuples of ints, index i = coefficient of X^i.
"""

from __future__ import annotations

from typing import Sequence

from .errors import require_int, require_level
from .iwapoly import _mul, _p_power, _require_exact_size, _trim, omega
from .padic import require_odd_prime


def _deg(c: Sequence[int]) -> int:
    return len(c) - 1


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over Z.

    Horner from the top of a: the running remainder is a window of deg b
    coefficients, rescaled by lc(b) at each step, and each incoming
    coefficient of a is multiplied by the running power of lc(b).  That is
    O((deg a - deg b + 1) * deg b) products.
    """
    db = _deg(b)
    lb = b[-1]
    e = len(a) - db  # deg a - deg b + 1
    if e <= 0:
        return _trim(list(a))
    if db == 0:
        return []  # everything vanishes mod a nonzero constant
    w = list(a[e:])  # the top deg b coefficients of a, of degree < deg b
    power = 1
    for k in range(e - 1, -1, -1):
        # w <- lc(b) * X * w + power * a_k - t * b, whose X^(deg b) term cancels
        power *= lb
        t = w[-1]
        if t:
            w = [power * a[k] - t * b[0]] + [lb * x - t * y for x, y in zip(w, b[1:db])]
        else:
            w = [power * a[k]] + [lb * x for x in w[:-1]]
    return _trim(w)


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) via the subresultant polynomial remainder sequence, for
    integer coefficients: any other is refused before any work."""
    return _resultant([require_int(c, "coefficient") for c in f],
                      [require_int(c, "coefficient") for c in g])


def _resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """resultant for integer coefficients the caller has checked."""
    a = _trim(list(f))
    b = _trim(list(g))
    if not a or not b:
        return 0
    s = 1
    if _deg(a) < _deg(b):
        if _deg(a) % 2 == 1 and _deg(b) % 2 == 1:
            s = -s
        a, b = b, a
    if _deg(b) == 0:
        return s * b[0] ** _deg(a)
    return _subresultant_tail(_deg(a), b, _prem(a, b), s)


def _subresultant_tail(da: int, b: list[int], r: list[int], s: int) -> int:
    """The subresultant loop from its first pseudo-remainder r = prem(a, b),
    for deg a = da >= deg b >= 1 and s the sign so far; a itself is read
    only through its degree, so a caller may form r without a."""
    gg = 1
    hh = 1
    while True:
        db = _deg(b)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        a, da = b, db
        divisor = gg * hh**delta
        b = [c // divisor for c in r]
        gg = a[-1]
        if delta >= 1:
            # h <- g^delta / h^(delta-1), exact by the subresultant theory
            hh = gg**delta // hh ** (delta - 1)
        if not b:
            return 0
        if _deg(b) == 0:
            num = b[0] ** da
            return s * (num // hh ** (da - 1))
        r = _prem(a, b)


def _omega_prem(f: list[int], p: int, n: int) -> list[int]:
    """prem(omega_n, f) = L^(N-d+1) (omega_n mod f), for omega_n =
    (1+X)^N - 1, N = p^n, d = deg f and L = lc f, without forming omega_n.

    Q_e = L^e ((1+X)^e mod f) is an integer list, kept d long: the
    remainder's denominator is at most L^max(e-d+1, 0).  Q_1 = L (1 + X)
    (L - f_0 when d = 1), raised n times to the p-th power by
    iwapoly._p_power.  A product Q_a Q_b, 2d - 1 long, is L^(a+b) times a
    list whose remainder mod f is (1+X)^(a+b) mod f, so _prem takes it to
    L^(d-1) Q_(a+b), and every step divides exactly by the one constant
    L^(d-1).  Last, Q_N / L^min(N, d-1) = L^max(N-d+1, 0) ((1+X)^N mod f)
    is the pseudo-remainder of (1+X)^N, integral, and omega_n's -1 is
    L^max(N-d+1, 0) (-1) mod f.  That is about 2 n log2(p) products of
    degree below d, in place of the Horner pass over omega_n's N + 1
    coefficients.
    """
    d = _deg(f)
    if d <= 0:
        return []  # everything vanishes mod a nonzero constant
    lc, size = f[-1], p**n
    step = lc ** (d - 1)

    def times(x, y):  # Q_(a+b) from Q_a and Q_b
        r = [c // step for c in _prem(_mul(x, y), f)]
        return r + [0] * (d - len(r))

    q = _p_power([lc, lc] + [0] * (d - 2) if d > 1 else [lc - f[0]], p, n, times)
    top = lc ** min(size, d - 1)
    col = [c // top for c in q]
    col[0] -= lc ** max(size - d + 1, 0)
    return _trim(col)


# The ratio p^n / deg f from which omega_resultant forms Res(f, omega_n)
# by powers of 1 + X, not by resultant's Horner pass over omega_n.
# Measured (CPython 3.11, Horner/powered time ratio of the whole
# resultant, omega_n already built, five seeded f per degree at lc 1, -1, p,
# -2p and 3p^2, p^n up to 2187; ranges, then the median): for deg f = 1 to
# 10 at p = 3, 5, 7 it is 0.3 to 1.5 (0.6) below ratio 10, 0.7 to 1.9 (1.1)
# from 10 to 15 and 0.8 to 2.0 (1.3) from 16 to 19, each f's first level at
# or above 16.  Past 50 it is 1.0 to 4.7 (1.6) for deg f >= 6, where the
# rest of the sequence, the same on both, dominates, and 2.7 to 300 (9) for
# deg f <= 3.
_POWERED_MIN_RATIO = 16


def omega_resultant(f: Sequence[int], p: int, n: int) -> int:
    """Res(f, omega_n) = resultant(f, omega(p, n).coeffs) for an odd prime
    p and integer coefficients f, refused first as omega(p, n) refuses n
    and p, then at a coefficient that is not an integer, before any work.
    The oracle in kobayashi calls _omega_resultant, with a built IwaPoly's
    prime and coefficients."""
    require_level(n, 0)
    require_odd_prime(p)
    return _omega_resultant([require_int(c, "coefficient") for c in f], p, n)


def _omega_resultant(f: Sequence[int], p: int, n: int) -> int:
    """omega_resultant for a prime p and integer f the caller has checked,
    refused as omega(p, n) refuses n.  While p^n < _POWERED_MIN_RATIO deg f,
    which covers deg f >= p^n, that is the call made, to resultant's
    unchecked body, so omega_n's coefficients are not checked; past it, the
    subresultant loop is entered at its first pseudo-remainder, formed by
    _omega_prem, with the sign resultant takes as it swaps f to the
    divisor's place."""
    require_level(n, 0)
    _require_exact_size(p, n)
    a = _trim(list(f))
    size = p**n
    if size < _POWERED_MIN_RATIO * _deg(a):
        return _resultant(a, omega(p, n).coeffs)
    if not a:
        return 0
    s = -1 if _deg(a) % 2 == 1 and size % 2 == 1 else 1
    if _deg(a) == 0:
        return a[0] ** size
    return _subresultant_tail(size, a, _omega_prem(a, p, n), s)


def resultant_bareiss(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) as the Bareiss determinant of the Sylvester matrix, for
    integer coefficients: any other is refused before any work."""
    a = _trim([require_int(c, "coefficient") for c in f])
    b = _trim([require_int(c, "coefficient") for c in g])
    if not a or not b:
        return 0
    da, db = _deg(a), _deg(b)
    if da == 0 and db == 0:
        return 1
    n = da + db
    m = [[0] * n for _ in range(n)]
    ra = a[::-1]
    rb = b[::-1]
    for i in range(db):
        for j, c in enumerate(ra):
            m[i][i + j] = c
    for i in range(da):
        for j, c in enumerate(rb):
            m[db + i][i + j] = c
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
