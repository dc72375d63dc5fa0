"""Polynomial arithmetic in Lambda = Z_p[[X]] truncated to polynomials.

Every sum of coefficient lists goes through _plus, and every product
through _mul: the schoolbook loop when either list has fewer than
_PACK_MIN_LEN = 16 coefficients, and otherwise two-point Kronecker
substitution: two integer products, of the lists' values at 2^s and at
-2^s, whose sum and difference are read back exactly as the even- and
odd-index product coefficients at slot width w = 2s, with w a multiple of 8
and 2^(w-1) above min(len a, len b) max|a_i| max|b_j|.  x^(p^n), by
square-and-multiply with a caller's product, is _p_power, the one chain
both rank oracles raise 1 + X by.
Provides the cyclotomic family omega_n = (1+X)^(p^n) - 1 and
Phi_n = omega_n / omega_(n-1), both read from T = 1 + X and refused with
ValidationError when p^n exceeds MAX_EXACT_P_POWER; _from_t,
which reads polynomials in the group-ring coordinate T = 1 + X into X (a
Taylor shift; Phi_n and H_(v,n) are sparse in T).  A polynomial in T has
one format, its terms {e: w} for w T^e; _phi_t, logmat._t_rows and
logmat._second_row build exactly that.  Each polynomial is read on its
own, into one output list, and each of its terms streams its binomial
coefficients into that list, so that the readout's peak memory is about
that of its result; ord_eps(f, n),
the valuation of f at eps_n = zeta_(p^n) - 1 in the totally ramified
quotient Z_p[X]/Phi_n (read off the coefficients of f, reduced mod Phi_n
only when its degree reaches phi(p^n)); and mu/lambda extraction, one
gcd reading (_mu_lambda) that ord_eps and the rank oracles share.
Coefficients are exact arbitrary-size integers; a polynomial may optionally
carry a p^N reduction flag, in which case every operation stays at (the
minimum of) the working moduli and precision loss is reported by raising,
never by silent truncation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .errors import (
    NonUnitLeadingCoefficient,
    PrecisionExhausted,
    ValidationError,
    ZeroPolynomial,
    require_int,
    require_ints,
    require_level,
)
from .padic import INF, ExtendedRational, int_valuation, require_odd_prime


def _plus(a, b) -> list[int]:
    """a + b coefficientwise, as a new list: the package's one addition of
    coefficient lists."""
    m = min(len(a), len(b))
    return [*map(operator.add, a, b), *a[m:], *b[m:]]


# The shorter operand's length from which _mul packs.  Packing costs about
# 9 us even for a 2x2 product (schoolbook: 1 us).  Measured crossover
# (CPython 3.11, schoolbook/packed time ratio, coefficients of 8 to 400
# bits): at n x n it is 0.7-0.95 at n = 16 and reaches 1 at n = 18 to 24;
# at n by 500 it is 1.3-2.0 at n = 16 and reaches 1 at n = 8 to 12.  In the
# benchmark's tower workload, products of 19-22 by 61-105 coefficients run
# 1.8-2.2 times faster packed, and those of 8 by 19-43 0.65-1.1 times, so
# the latter stay schoolbook (BENCH_29.json).
_PACK_MIN_LEN = 16


def _mul(a, b) -> list[int]:
    """The product of two coefficient lists, constant term first, as a list
    of len(a) + len(b) - 1 coefficients (trailing zeros kept).

    When either list is shorter than _PACK_MIN_LEN, the schoolbook loop.
    Otherwise two-point Kronecker substitution (Harvey's KS2).  Each list's
    even- and odd-index coefficients are packed at a slot width of w = 2s
    bits, as a_e(2^w) and a_o(2^w), and a(2^s) and a(-2^s) are
    a_e(2^w) +- 2^s a_o(2^w).  The two products h(2^s) = a(2^s) b(2^s) and
    h(-2^s) = a(-2^s) b(-2^s) of h = ab, each about half the size of one
    product at 2^w, are formed by CPython; their sum is 2 h_e(2^w) and their
    difference 2^(s+1) h_o(2^w), so both shifts back are exact.  Every
    product coefficient has |c_k| at most min(len a, len b) max|a_i|
    max|b_j|, and w, a multiple of 8, has 2^(w-1) above that: each half is
    read slot by slot by _unpack, and the halves are interleaved.
    """
    if len(a) < _PACK_MIN_LEN or len(b) < _PACK_MIN_LEN:  # no min(): it costs 15% at 3x2
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    if not bound:  # a zero list: the slots would be too narrow for the other
        return [0] * (len(a) + len(b) - 1)
    size = (bound.bit_length() + 8) // 8  # bytes per slot: 2^(8 size - 1) > bound
    s = 4 * size  # half a slot, in bits
    ae, ao = _pack(a[0::2], size), _pack(a[1::2], size) << s
    be, bo = _pack(b[0::2], size), _pack(b[1::2], size) << s
    plus = (ae + ao) * (be + bo)
    minus = (ae - ao) * (be - bo)
    slots = len(a) + len(b) - 1
    out = [0] * slots
    out[0::2] = _unpack((plus + minus) >> 1, size, (slots + 1) // 2)
    out[1::2] = _unpack((plus - minus) >> (s + 1), size, slots // 2)
    return out


def _unpack(value: int, size: int, slots: int) -> list[int]:
    """The coefficients c_0, ..., c_(slots-1) of value = sum c_k 2^(8 size k),
    for |c_k| < 2^(8 size - 1): with 2^(8 size - 1) added to every slot, each
    lies in [0, 2^(8 size)) and is read without borrows, and the offset is
    taken off again."""
    half = 1 << (8 * size - 1)
    value += int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    data = value.to_bytes(slots * size, "little")
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, slots * size, size)]


def _pack(a, size: int) -> int:
    """sum a_i 2^(8 size i) for |a_i| < 2^(8 size): the nonnegative
    coefficients' bytes less the negative ones'."""
    zero = bytes(size)
    value = int.from_bytes(b"".join(x.to_bytes(size, "little") if x > 0 else zero for x in a),
                           "little")
    if min(a) < 0:
        value -= int.from_bytes(b"".join((-x).to_bytes(size, "little") if x < 0 else zero
                                         for x in a), "little")
    return value


def _divmod(a, b, pn: int | None = None) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r and len(r) <= deg b, for a monic list b; over Z,
    or mod pn when pn is given.  Mod pn each quotient digit is reduced as it
    is formed, and the remainder once, at the end."""
    d = len(b) - 1
    low = b[:-1]  # b's lead is 1, and the entries it would clear are dropped
    r = list(a)
    q = [0] * max(len(r) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + d] if pn is None else r[k + d] % pn
        q[k] = c
        if c:
            for i, y in enumerate(low, k):
                r[i] -= c * y
    del r[d:]
    return q, (r if pn is None else [x % pn for x in r])


def _p_power(x, p: int, n: int, times):
    """x raised n times to the p-th power, x^(p^n), by square-and-multiply
    on the bits of p, each product formed by times(a, b): the one such chain
    of the package, run mod a polynomial by both rank oracles."""
    for _ in range(n):
        base = x
        for bit in bin(p)[3:]:
            x = times(x, x)
            if bit == "1":
                x = times(x, base)
    return x


def _trim(c: list[int]) -> list[int]:
    """c with its trailing zeros popped, in place."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _reduced(c: list[int], p: int, mod_prec: int | None) -> tuple[int, ...]:
    """The list c reduced mod p^mod_prec (when mod_prec is given) with its
    trailing zeros dropped; c may be consumed."""
    if mod_prec is not None:
        pn = p**mod_prec
        c = [x % pn for x in c]
    return tuple(_trim(c))


@dataclass(frozen=True)
class IwaPoly:
    """Element of Lambda: coeffs[i] holds the coefficient of X^i."""

    prime: int
    coeffs: tuple[int, ...]
    mod_prec: int | None = None

    def __post_init__(self):
        # The prime, the coefficients and the modulus come from a caller, so
        # they are checked here; results of ring operations are built by _of,
        # which does not.
        require_odd_prime(self.prime)
        if self.mod_prec is not None and require_int(self.mod_prec, "mod_prec") < 1:
            raise ValidationError("mod_prec must be positive")
        coeffs = require_ints(self.coeffs, "coefficient")
        object.__setattr__(self, "coeffs", _reduced(coeffs, self.prime, self.mod_prec))

    @classmethod
    def _of(cls, prime: int, coeffs: list[int], mod_prec: int | None) -> "IwaPoly":
        """A ring operation's result: the fresh list coeffs reduced mod
        p^mod_prec and trimmed, as the public constructor would leave it.
        prime and mod_prec are an operand's, validated when it was built, or
        the caller's, validated by it (omega, phi_poly), so they are not
        checked again; nor are the coefficients, which the library computed.
        The fields are written to the instance dict, as object.__setattr__
        would, at half its cost."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["prime"], d["coeffs"], d["mod_prec"] = prime, _reduced(coeffs, prime, mod_prec), mod_prec
        return obj

    # -- basics ------------------------------------------------------------

    @classmethod
    def const(cls, prime: int, value: int, mod_prec: int | None = None) -> "IwaPoly":
        return cls(prime, (value,), mod_prec)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def with_modulus(self, mod_prec: int) -> "IwaPoly":
        if self.mod_prec is not None and self.mod_prec < mod_prec:
            raise PrecisionExhausted(
                f"cannot raise modulus p^{self.mod_prec} to p^{mod_prec}"
            )
        return IwaPoly(self.prime, self.coeffs, mod_prec)

    # -- ring operations ---------------------------------------------------

    def _join_prec(self, other: "IwaPoly") -> int | None:
        if self.prime != other.prime:
            raise ValidationError("mixed primes")
        if self.mod_prec is None:
            return other.mod_prec
        if other.mod_prec is None:
            return self.mod_prec
        return min(self.mod_prec, other.mod_prec)

    def __add__(self, other: "IwaPoly") -> "IwaPoly":
        prec = self._join_prec(other)
        return IwaPoly._of(self.prime, _plus(self.coeffs, other.coeffs), prec)

    def __neg__(self) -> "IwaPoly":
        return IwaPoly._of(self.prime, [-c for c in self.coeffs], self.mod_prec)

    def __sub__(self, other: "IwaPoly") -> "IwaPoly":
        prec = self._join_prec(other)
        return IwaPoly._of(self.prime, _plus(self.coeffs, [-c for c in other.coeffs]), prec)

    def __mul__(self, other: "IwaPoly") -> "IwaPoly":
        prec = self._join_prec(other)
        return IwaPoly._of(self.prime, _mul(self.coeffs, other.coeffs), prec)

    def scale(self, k: int) -> "IwaPoly":
        return IwaPoly._of(self.prime, [k * c for c in self.coeffs], self.mod_prec)

    def __divmod__(self, other: "IwaPoly") -> tuple["IwaPoly", "IwaPoly"]:
        """f = q*g + r with deg r < deg g, for a monic g (X, Phi_n and omega_n
        are the divisors the library needs); exact over Z when both inputs
        are exact, mod p^N (_divmod) when either is modular."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        prec = self._join_prec(other)
        if other.coeffs[-1] != 1:
            raise NonUnitLeadingCoefficient(
                f"division needs a monic divisor, got leading coefficient {other.coeffs[-1]}"
            )
        q, r = _divmod(self.coeffs, other.coeffs, None if prec is None else self.prime**prec)
        return IwaPoly._of(self.prime, q, prec), IwaPoly._of(self.prime, r, prec)

    def __floordiv__(self, other: "IwaPoly") -> "IwaPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "IwaPoly") -> "IwaPoly":
        return divmod(self, other)[1]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.prime,
            "coeffs": [str(c) for c in self.coeffs],
            "mod_prec": self.mod_prec,
        }


@dataclass(frozen=True)
class WeierstrassData:
    """mu = minimal coefficient valuation, lambda = least index attaining it."""

    mu: int
    lam: int

    def __post_init__(self):
        require_int(self.mu, "mu")
        require_int(self.lam, "lam")


def totient(p: int, n: int) -> int:
    """phi(p^n) = p^n - p^(n-1) for n >= 1; 1 for n = 0.  A p or n that is
    not an integer, or an n below 0, is refused."""
    require_int(p, "p")
    require_level(n, 0)
    return p**n - p ** (n - 1) if n >= 1 else 1


def _from_t(terms: dict[int, int]) -> list[int]:
    """The X-coefficients of one polynomial in T = 1 + X, given as its terms
    {e: w}, w T^e: a sparse Taylor shift, streamed.

    w T^e is w (1+X)^e.  The output is one list of max(e) + 1 coefficients.
    A constant term (e = 0) is added into its X^0 coefficient at once, and
    every other term is streamed on its own (_add_binomials).  The first
    stream finds the list zero past X^0, so it stores its values rather
    than adding them.  No binomial row, per-weight sum or slice is built,
    so the readout's peak memory is about that of its result.  A caller
    with several polynomials reads each by its own call.
    """
    out = [0] * (max(terms, default=-1) + 1)
    store = True
    for e, w in terms.items():
        if e:
            _add_binomials(out, e, w, store)
            store = False
        else:
            out[0] += w
    return out


def _add_binomials(out: list[int], m: int, c: int, store: bool) -> None:
    """Add c C(m, k) into out[k], for k = 0..m; m >= 1.

    c C(m, k) is streamed by C(m, k+1) = C(m, k)(m - k)/(k + 1), exact for
    any integer weight c, and each value is added at once into out[k] and
    its mirror out[m - k].  With store set, out is still all zeros past
    out[0], so the loop stores each value in both places instead: a
    mirrored pair then holds one integer, not two equal copies, and no
    0 + c is formed (omega(3, 9) keeps 18.4 MiB of coefficients instead of
    36.9).
    """
    out[0] += c  # k = 0 and its mirror k = m
    out[m] += c
    half = (m - 1) // 2  # the k with 0 < k < m - k
    if store:
        for k in range(1, half + 1):
            c = c * (m + 1 - k) // k
            out[k] = out[m - k] = c
    else:
        for k in range(1, half + 1):
            c = c * (m + 1 - k) // k
            out[k] += c
            out[m - k] += c
    if m > 1 and m % 2 == 0:  # the middle k = m/2, its own mirror
        out[half + 1] += c * (half + 2) // (half + 1)


# The largest p^n for which omega(p, n), phi_poly(p, n) and the second row
# of H_(v,n) are built: they hold about p^n coefficients of up to p^n bits,
# 300 MiB for omega(3, 10).
# It admits 3^9, 5^6 and 7^5.  With the streamed readout (_from_t) and
# Phi_1 applied in X a window at a time (_times_phi_1), one process
# building h_matrix at its top levels peaks at 68 MiB RSS at
# (p, a_v, n) = (3, +-3, 9), 41 MiB at (3, 0, 9), 36 MiB at (5, 0, 6) and
# 40 MiB at (7, 0, 5) (CPython 3.11, Linux x86-64).
MAX_EXACT_P_POWER = 2**15


def _require_exact_size(p: int, n: int) -> None:
    # p >= 3, so n >= the bound's bit length is over it without forming p**n
    if n >= MAX_EXACT_P_POWER.bit_length() or p**n > MAX_EXACT_P_POWER:
        raise ValidationError(f"p^n = {p}^{n} is above {MAX_EXACT_P_POWER}, too large to build")


# typed: omega(3.0, 2) and omega(3, True) would otherwise hit the entries of
# omega(3, 2) and omega(3, 1) and never be refused; phi_poly's cache likewise
@functools.lru_cache(maxsize=None, typed=True)
def omega(p: int, n: int) -> IwaPoly:
    """omega_n = (1+X)^(p^n) - 1; omega_0 = X: one readout (_from_t) of the
    two terms of T^(p^n) - 1, one stream, which stores C(p^n, k) once for k
    and p^n - k."""
    require_level(n, 0)
    require_odd_prime(p)
    _require_exact_size(p, n)
    return IwaPoly._of(p, _from_t({p**n: 1, 0: -1}), None)


def _phi_t(p: int, m: int) -> dict[int, int]:
    """Phi_m in T = 1 + X, sum_(i<p) T^(i*p^(m-1)), as the terms {e: w}
    that _from_t reads: the p exponents i*p^(m-1), each of weight 1.
    phi_poly reads it into X from m = 2 on, and logmat._t_rows shifts the
    terms of K_(m-1)'s first row by its exponents, for m >= 2."""
    q = p ** (m - 1)
    return dict.fromkeys(range(0, p * q, q), 1)


@functools.lru_cache(maxsize=None, typed=True)
def phi_poly(p: int, n: int) -> IwaPoly:
    """Phi_n = omega_n / omega_(n-1), Eisenstein of degree phi(p^n).  At
    n = 1 it is omega_1 / X, the coefficients of omega(p, 1) from X^1 on,
    the same integers: one streamed recurrence, where reading its p terms
    in T would stream p, O(p^2) work.  From n = 2 on it is one readout
    (_from_t) of its p terms in T (_phi_t): p recurrences streamed into one
    list, the first stored.
    """
    require_level(n)
    require_odd_prime(p)
    _require_exact_size(p, n)
    if n == 1:
        return IwaPoly._of(p, list(omega(p, 1).coeffs[1:]), None)
    return IwaPoly._of(p, _from_t(_phi_t(p, n)), None)


# The window of _times_phi_1, in coefficients: each window is copied, so at
# most this many of a list's integers are held twice at once.  Measured on
# the benchmark's tower series (CPython 3.11, x86-64): windows of 64 read
# 2-4% faster at its X-pass levels, but a round of the series then peaked
# 0.15 MiB higher in RSS than with every entry streamed from T; with
# windows of 16 it peaks no higher.
_PHI_1_WINDOW = 16


def _times_phi_1(a: list[int], p: int, c: int = 0, b=()) -> None:
    """a becomes Phi_1 a + c b in place, with Phi_1 = ((1+X)^p - 1)/X: as
    many coefficients as _mul(phi_poly(p, 1).coeffs, a) has, or as b when c
    is nonzero and b is longer.

    Coefficient k of Phi_1 a is sum_(j=1..p) C(p, j) a[k+1-j], p Pascal
    passes (times 1 + X) less the j = 0 term.  The passes run on windows of
    _PHI_1_WINDOW coefficients, top down, so each window reads only
    coefficients below it, which still hold a: a copy of a[lo+1-p:hi] and a
    zero in place of a[hi], each pass one map that drops its lowest slot,
    and then c b[lo:hi] added, so no whole-list sum is formed.
    """
    size = max(len(a) + p - 1, len(b) if c else 0)
    a.extend([0] * (size - len(a)))
    for hi in range(size, 0, -_PHI_1_WINDOW):
        lo = max(hi - _PHI_1_WINDOW, 0)
        start = lo + 1 - p
        buf = [0] * -start + a[:hi] if start < 0 else a[start:hi]
        buf.append(0)
        base = buf[p:]  # the j = 0 terms
        for _ in range(p):
            buf = list(map(operator.add, buf[1:], buf))
        row = list(map(operator.sub, buf, base))
        if c:
            part = b[lo:hi]
            row[:len(part)] = map(operator.add, row, map(c.__mul__, part))
        a[lo:hi] = row


def ord_eps(f: IwaPoly, n: int) -> ExtendedRational:
    """eps_n-adic valuation of f(eps_n), normalized so ord(eps_n) = 1
    (= totient * ord_p).

    Z_p[eps_n] = Z_p[X]/Phi_n is totally ramified of degree e = phi(p^n) and
    eps_n is a uniformizer (Serre, Local Fields, I.6).  f is reduced mod
    Phi_n only when deg f >= e, so Phi_n is built only then.  For the
    representative sum c_i eps_n^i with i < e, the term valuations
    e*ord_p(c_i) + i are distinct mod e, so no cancellation is possible and
    the valuation is their minimum.  It is read as e*v + i0, with
    (v, i0) = (mu, lambda) of the representative (_mu_lambda): a term with
    a larger ord_p is at least e*(v+1) > e*v + i0.  It equals
    ord_p of the norm Res(Phi_n, rep).  For f mod p^N a nonzero coefficient
    has ord_p below N, so the minimum is below N*e and is the same for every
    lift of f; only a zero residue raises PrecisionExhausted.  As
    e >= 2^n > deg f once n exceeds deg f's bit length, e is formed for the
    reduction test only below that, and for the result only when v >= 1.
    """
    require_level(n)
    p = f.prime
    if n <= f.degree.bit_length() and f.degree >= totient(p, n):
        f = f % phi_poly(p, n)
    if f.is_zero:
        if f.mod_prec is not None:
            raise PrecisionExhausted(
                f"element vanishes mod {p}^{f.mod_prec}: ord only bounded below"
            )
        return INF
    v, i0 = _mu_lambda(f)
    return ExtendedRational(totient(p, n) * v + i0 if v else i0)


def _mu_lambda(f: IwaPoly) -> tuple[int, int]:
    """(mu, lambda) of a nonzero f: mu = ord_p of the gcd of its
    coefficients, the least coefficient ord_p, and lambda the first index i
    with ord_p(c_i) = mu, the first c_i not divisible by p^(mu+1)."""
    p = f.prime
    mu = int_valuation(math.gcd(*f.coeffs), p)
    pmu1 = p ** (mu + 1)
    for i, c in enumerate(f.coeffs):  # a loop, not next(...): half the cost
        if c % pmu1:
            return mu, i


def mu_lambda(f: IwaPoly) -> WeierstrassData:
    """mu = min coefficient ord_p, lambda = least index attaining it."""
    if f.is_zero:
        if f.mod_prec is not None:
            raise PrecisionExhausted(f"polynomial vanishes mod p^{f.mod_prec}")
        raise ZeroPolynomial("mu/lambda undefined for 0")
    return WeierstrassData(*_mu_lambda(f))


def coprime_to_omega(f: IwaPoly, n: int) -> bool:
    """Whether the exact f shares no factor with omega_n = X Phi_1 ... Phi_n.
    The factors are irreducible, so that is f(0) != 0 and ord_eps(f, m) < inf
    for m = 1..n.  Phi_m has degree phi(p^m), so it cannot divide a nonzero
    f once phi(p^m) > deg f: the loop stops at the first such m, and costs
    nothing more in n.  Below it ord_eps builds Phi_m, as deg f >= phi(p^m)."""
    require_level(n, 0)
    if f.coeff(0) == 0:
        return False
    for m in range(1, n + 1):
        if totient(f.prime, m) > f.degree:
            return True
        if ord_eps(f, m).is_infinite:
            return False
    return True
