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
omega_resultant skips that step: it forms the first remainder
prem(omega_n, f) from 1 + X raised n times to the p-th power mod f, by the
package's one p-th-power chain (iwapoly._p_power) at about 2 n log2(p)
products of degree below deg f, each divided by one fixed power of lc f,
and enters the same subresultant loop (_subresultant_tail) with the same
sign and state.

Polynomials are plain lists/tuples of ints, index i = coefficient of X^i.
"""

from __future__ import annotations

from typing import Sequence

from .iwapoly import _mul, _p_power, _trim


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
    """Res(f, g) via the subresultant polynomial remainder sequence."""
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
            den = hh ** (da - 1) if da >= 1 else 1
            return s * (num // den)
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


def omega_resultant(f: Sequence[int], p: int, n: int) -> int:
    """Res(f, omega_n), omega_n = (1+X)^(p^n) - 1, for deg f < p^n: the
    subresultant loop of resultant(f, omega_n) entered at its first
    pseudo-remainder, formed by _omega_prem, with the same sign."""
    a = _trim(list(f))
    size = p**n
    if not a:
        return 0
    if _deg(a) >= size:
        raise ValueError(f"deg f = {_deg(a)} is not below p^n = {size}")
    # the sign resultant(f, omega_n) takes as it swaps f to the divisor's place
    s = -1 if _deg(a) % 2 == 1 and size % 2 == 1 else 1
    if _deg(a) == 0:
        return a[0] ** size
    return _subresultant_tail(size, a, _omega_prem(a, p, n), s)


def resultant_bareiss(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) as the Bareiss determinant of the Sylvester matrix."""
    a = _trim(list(f))
    b = _trim(list(g))
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
