"""Exact integer resultants.

Two independent routes are provided.  ``resultant`` walks the fraction-free
subresultant remainder sequence (the coefficients of each remainder are
determinants of Sylvester sub-matrices, so intermediate growth is the minimal
possible without rational arithmetic).  ``resultant_bareiss`` eliminates the
full Sylvester matrix with Bareiss pivoting; it is quadratically slower and is
kept as a cross-check for the PRS route.

Each pseudo-remainder is computed by Horner and costs
O((deg a - deg b + 1) * deg b) products, so Res(f, omega_n) for a small f
costs about p^n * deg f products at its first step.

Polynomials are plain lists/tuples of ints, index i = coefficient of X^i.
"""

from __future__ import annotations

from typing import Sequence


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


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
    gg = 1
    hh = 1
    while True:
        da, db = _deg(a), _deg(b)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _prem(a, b)
        a = b
        divisor = gg * hh**delta
        b = [c // divisor for c in r]
        gg = a[-1]
        if delta >= 1:
            # h <- g^delta / h^(delta-1), exact by the subresultant theory
            hh = gg**delta // hh ** (delta - 1)
        if not b:
            return 0
        if _deg(b) == 0:
            da = _deg(a)
            num = b[0] ** da
            den = hh ** (da - 1) if da >= 1 else 1
            return s * (num // den)


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
