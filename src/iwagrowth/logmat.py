"""The 2x2 matrices A_v, C_(v,n), H_(v,n), M_(v,n) and their valuation data.

H_(v,n) = C_(v,n)...C_(v,1) is built by one recursion from H_0 = I,
H_n = C_(v,n) H_(n-1): the first row is a_v H(n-1) plus the second row of
H(n-1), and the second row is -Phi_n times the first row of H(n-1).  The
direct product of the C_(v,m) is kept as an oracle in selfcheck and the
tests.  The second row is read as H_n = K_n C_(v,1), K_n = C_(v,n)...C_(v,2)
built by the same recursion from K_1 = I in the group-ring coordinate
T = 1 + X (_t_rows), where every Phi_m with m >= 2 is p lone terms
T^(i*p^(m-1)): -Phi_m K(m-1) is p shifted copies of K(m-1), with small
integer coefficients, and no polynomial product is formed; K's entries
are terms {e: w}, w T^e.  C_(v,1) is applied last: row i of H_n is
(a_v K_i0 - Phi_1 K_i1, K_i0).  The T rows are built by one loop per call,
which checks the size bound once and is not cached: rebuilding them costs
far less than the X readouts.  Each level's second row is read into X once
(_second_row): each entry of K by its own Taylor shift (iwapoly._from_t),
which streams each term's binomial coefficients into that entry's one
output list, and Phi_1 by p Pascal passes over windows of that list
(iwapoly._times_phi_1), or, while K_11 has at most p terms, as
(1 - T^p) K_11 read by a shift of its own and divided by X.  So the
readout's peak memory is about that of the row it returns; the first row
follows in X by the same step, and these two readouts are H's only
caches.  The print-limit bound values K at T = 2, which is X = 1, as
sum w 2^e, times C_(v,1) at T = 2.
M_(v,n) = A_v^(n+1) H_(v,n) is kept as an integer matrix with an explicit
power-of-p denominator exponent, so no p-adic division ever happens inside a
matrix product.
The cross identity is checked times X, as the level-n map at u = 1 on the
witness pair (_witness_rows, which lattice.witness reads too).  Its exact
total is cached by _witness_total, one entry keyed by the level, and
lattice.h_u_map reads it through _map_total: a pair congruent mod p^k to
the witness pair reads that total reduced mod p^k, and any other forms its
products on operands reduced mod p^k.  So a level forms one pair of
products, for the determinant check and the cross identity, and the
witness map at every unit reads their total (u is folded into G2).
The parity-split closed form of the valuation table is stated once, in
integers scaled by phi(p^n), by _tails, which forms phi(p^n) from the same
power; parity_tails is it with n checked.  The closed-form table and the
growth terms read _tails after their own checks, and the signature reads
only the carrier rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError, require_int, require_level
from .iwapoly import (
    IwaPoly,
    _from_t,
    _phi_t,
    _plus,
    _reduced,
    _require_exact_size,
    _times_phi_1,
    omega,
    ord_eps,
    phi_poly,
    totient,
)
from .padic import INF, ExtendedRational, int_valuation, require_odd_prime

SHARP = "sharp"
FLAT = "flat"


@dataclass(frozen=True)
class LocalCurveData:
    """Supersingular local data: prime and trace of Frobenius."""

    prime: int
    a_v: int

    def __post_init__(self):
        require_odd_prime(self.prime)
        if require_int(self.a_v, "a_v") % self.prime != 0:
            raise ValidationError(
                f"supersingular trace must be divisible by p: a_v={self.a_v}, p={self.prime}"
            )
        if self.a_v**2 > 4 * self.prime:
            raise ValidationError(
                f"Weil bound violated: a_v^2={self.a_v**2} > 4p={4 * self.prime}"
            )

    @property
    def r_v(self) -> ExtendedRational:
        """ord_p(a_v), which is 1 or +infinity by the Weil bound."""
        if self.a_v == 0:
            return INF
        return ExtendedRational(int_valuation(self.a_v, self.prime))


@dataclass(frozen=True)
class LogMatrix2:
    """2x2 matrix of polynomials times p^(-denom_exp)."""

    entries: tuple[tuple[IwaPoly, IwaPoly], tuple[IwaPoly, IwaPoly]]
    denom_exp: int = 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def det(self) -> IwaPoly:
        """Determinant of the integer part (value has denominator p^(2*denom_exp))."""
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def __mul__(self, other: "LogMatrix2") -> "LogMatrix2":
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
            for i in range(2)
        )
        return LogMatrix2(rows, self.denom_exp + other.denom_exp)

    def to_json(self) -> dict:
        return {
            "denom_exp": self.denom_exp,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }


@dataclass(frozen=True)
class ValuationMatrix:
    """2x2 matrix of ord_p values."""

    entries: tuple[tuple[ExtendedRational, ExtendedRational],
                   tuple[ExtendedRational, ExtendedRational]]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_json(self) -> dict:
        return {"entries": [[e.to_json() for e in row] for row in self.entries]}


@dataclass
class StructureReport:
    """Outcome of an exact identity check, with located failures."""

    passed: bool
    failures: list[str] = field(default_factory=list)


def c_matrix(data: LocalCurveData, n: int) -> LogMatrix2:
    """C_(v,n) = [[a_v, 1], [-Phi_n, 0]]."""
    require_level(n)
    p = data.prime
    return LogMatrix2(
        (
            (IwaPoly.const(p, data.a_v), IwaPoly.const(p, 1)),
            (-phi_poly(p, n), IwaPoly.const(p, 0)),
        )
    )


def _t_rows(p: int, a_v: int, n: int) -> tuple[tuple[dict[int, int], ...], ...]:
    """Both rows of K_n = C_(v,n)...C_(v,2) (the identity at n <= 1) in
    T = 1 + X, each entry as the terms {e: nonzero w}, w T^e, that
    iwapoly._from_t reads, so that H_(v,n) = K_n C_(v,1) for n >= 1.  One
    loop from K_1 = I with K_m = C_(v,m) K_(m-1): the first row is
    a_v*K_(m-1) plus the second row of K_(m-1), and the second row is
    -Phi_m K_(m-1), Phi_m the p terms T^(i*q), q = p^(m-1), for every
    m >= 2 (iwapoly._phi_t).

    So every product is a shift, and no two keys collide: the first row of
    K_(m-1) has degree below p^(m-2), so its exponents lie below q and the
    p shifts are disjoint.  Phi_1 is applied last, by _second_row.  No
    polynomial product is formed.  Every dict is made by this call and not
    cached, so the a_v merge updates it in place.

    Phi_n's size bound is checked once, first, so a level past it is refused
    before any work; it bounds every lower level too.
    """
    _require_exact_size(p, n)
    first, second = ({0: 1}, {}), ({}, {0: 1})
    for m in range(2, n + 1):
        low = tuple({e + k: -w for k in _phi_t(p, m) for e, w in terms.items()}
                    for terms in first)
        if a_v:
            for last, terms in zip(first, second):
                for e, c in last.items():
                    c = terms.pop(e, 0) + a_v * c
                    if c:
                        terms[e] = c
        first, second = second, low
    return first, second


# _second_row folds Phi_1 into T while K_11 has at most this many terms per
# unit of p, and applies it in X (iwapoly._times_phi_1) past that.  Measured
# at every level of the benchmark's tower series (CPython 3.11, x86-64,
# in-process medians of 21 rounds, three runs, X pass over fold, each entry
# read by its own _from_t call on both sides): 0.94-1.54 where K_11 is one
# term; 1.02-1.50 where it is p terms (394-422 against 281-302 us at
# (7, 0, 3), 1.08-1.30 at (3, +-3, 4)); 0.94-1.06 at 3p terms; and
# 0.56-0.92 from 5p terms on (where K_11 is empty, both read the fold).
_FOLD_MAX_RATIO = 1


@functools.lru_cache(maxsize=None)
def _second_row(p: int, a_v: int, n: int) -> tuple[IwaPoly, IwaPoly]:
    """Second row of H_(v,n), (a_v K_10 - Phi_1 K_11, K_10) for the second
    row (K_10, K_11) of K_n (_t_rows), read into X; (0, 1) at n = 0.

    K_10 is read into X first, by a Taylor shift of its own (_from_t), and
    the first entry by a second.  When K_11 has more than p terms
    (_FOLD_MAX_RATIO), that second shift reads -K_11, and Phi_1 is applied
    there with a_v K_10 added, window by window (_times_phi_1): p Pascal
    passes cost less than streaming each term of K_11 twice.  Otherwise
    -Phi_1 K_11 is folded into T as (1 - T^p) K_11 / (T - 1): each term
    w T^e gives the terms e: w and e + p: -w, and the shift reads
    (1 - T^p) K_11.  Its X^0 coefficient, its value at T = 1, is 0 and is
    dropped, which divides by X, and a_v K_10 is added in X.  The two sets
    of exponents never meet: K_11 is (C_(v,n)...C_(v,3))_10, a polynomial
    in T^(p^2), so its exponents are multiples of p^2, and the shifted ones
    are p mod p^2.  An exponent of K_10 that the second shift also reads is
    streamed once by each.
    """
    if n == 0:
        return IwaPoly._of(p, [], None), IwaPoly._of(p, [1], None)
    k0, k1 = _t_rows(p, a_v, n)[1]
    second = _from_t(k0)
    if len(k1) > _FOLD_MAX_RATIO * p:
        first = _from_t({e: -w for e, w in k1.items()})
        _times_phi_1(first, p, a_v, second)
    else:
        first = _from_t({**k1, **{e + p: -w for e, w in k1.items()}})
        del first[:1]  # 0, the value at T = 1: what is left is divided by X
        if a_v:
            first = _plus(first, [a_v * x for x in second])
    return IwaPoly._of(p, first, None), IwaPoly._of(p, second, None)


@functools.lru_cache(maxsize=None)
def _first_row(p: int, a_v: int, n: int) -> tuple[IwaPoly, IwaPoly]:
    """First row of H_(v,n): (1, 0) at n = 0, then a_v*H_(n-1) plus the
    second row of H_(v,n-1), which for a_v = 0 is the level-n first row
    itself.  The second row comes first, so a level past the size bound is
    refused before any lower level is built.
    """
    if n == 0:
        return IwaPoly._of(p, [1], None), IwaPoly._of(p, [], None)
    low = _second_row(p, a_v, n - 1)
    if a_v == 0:
        return low
    return tuple(IwaPoly._of(p, _plus([a_v * x for x in h.coeffs], c.coeffs), None)
                 for h, c in zip(_first_row(p, a_v, n - 1), low))


def h_entries(data: LocalCurveData, n: int) -> tuple[IwaPoly, IwaPoly]:
    """(H_sharp, H_flat): the first row of H_(v,n)."""
    require_level(n, 0)
    return _first_row(data.prime, data.a_v, n)


def _witness_rows(data: LocalCurveData, n: int) -> tuple[IwaPoly, IwaPoly]:
    """(-X H_flat(n-1), X H_sharp(n-1)), exact: the witness pair at u = 1."""
    x_sharp, x_flat = (IwaPoly._of(data.prime, [0, *e.coeffs], None)
                       for e in h_entries(data, n - 1))
    return -x_flat, x_sharp


@functools.lru_cache(maxsize=1)
def _witness_total(data: LocalCurveData, n: int) -> IwaPoly:
    """H_sharp(n) G1 + H_flat(n) G2 on the witness pair (_witness_rows),
    exact: the left side of the cross identity.  One entry, keyed by the
    level, so a level's determinant check, cross identity and witness map at
    every unit form one pair of products.  H's row is read first, so a
    level past the size bound is refused before any work."""
    (sharp, flat), (g1, g2) = h_entries(data, n), _witness_rows(data, n)
    return sharp * g1 + flat * g2


def _map_total(data: LocalCurveData, n: int, g1: IwaPoly, g2: IwaPoly) -> IwaPoly:
    """H_sharp(n) g1 + H_flat(n) g2, known mod p^k for the least modulus k
    of g1 and g2 (exact when neither has one).  A pair congruent mod p^k to
    the witness pair reads _witness_total reduced mod p^k, since congruent
    operands give congruent totals; any other forms its two products on H's
    row, g1 and g2 reduced mod p^k.  Equal coefficients are compared before
    any are reduced: lattice.witness's G1 is the exact witness row."""
    # H's row first, so a level past the size bound is refused at once
    p, k, rows = data.prime, g1._join_prec(g2), h_entries(data, n)
    if all(a.coeffs == b.coeffs
           or _reduced(list(a.coeffs), p, k) == _reduced(list(b.coeffs), p, k)
           for a, b in zip((g1, g2), _witness_rows(data, n))):
        return IwaPoly._of(p, list(_witness_total(data, n).coeffs), k)
    sharp, flat, a, b = (IwaPoly._of(p, list(e.coeffs), k) for e in (*rows, g1, g2))
    return sharp * a + flat * b


def cross_identity_check(data: LocalCurveData, n: int) -> StructureReport:
    """X (H_flat(n) H_sharp(n-1) - H_sharp(n) H_flat(n-1)) = omega_(n-1),
    exactly: the level-n map at u = 1 on _witness_rows, read from
    _witness_total.  X is not a zero divisor, so this is the identity
    -H_sharp(n) H_flat(n-1) + H_flat(n) H_sharp(n-1) = omega_(n-1)/X, and a
    failure reports that identity's difference."""
    require_level(n)
    off = _witness_total(data, n) - omega(data.prime, n - 1)
    failures = [] if off.is_zero else [f"cross identity off by {off.coeffs[1:]}"]
    return StructureReport(not failures, failures)


def h_matrix(data: LocalCurveData, n: int) -> LogMatrix2:
    """H_(v,n) = C_(v,n)...C_(v,1); H_0 is the identity, the recursion's
    seed, and comes out of the same two rows as every other level.

    Built from the recursion's two rows and the block shape
    H_(v,n) = [[H_sharp(n), H_flat(n)], [-Phi_n H_sharp(n-1), -Phi_n H_flat(n-1)]],
    which holds because H_(v,n) = C_(v,n) H_(v,n-1) and the second row of
    C_(v,n) is (-Phi_n, 0).  The second row is the recursion's own term
    (_second_row, read from T = 1 + X), so no Phi_n product is formed.  It is
    built first: it stands for Phi_n, so a level past the size bound is
    refused before the first row is built.
    """
    require_level(n, 0)
    p = data.prime
    second = _second_row(p, data.a_v, n)
    return LogMatrix2((_first_row(p, data.a_v, n), second))


def _a_power(data: LocalCurveData, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """p^(n+1) A_v^(n+1) = [[0, -1], [p, a_v]]^(n+1), an integer matrix."""
    p, a_v = data.prime, data.a_v
    a, b, c, d = 1, 0, 0, 1
    for _ in range(n + 1):  # [[a, b], [c, d]] times [[0, -1], [p, a_v]]
        a, b, c, d = p * b, a_v * b - a, p * d, a_v * d - c
    return (a, b), (c, d)


def m_matrix(data: LocalCurveData, n: int) -> LogMatrix2:
    """M_(v,n) = A_v^(n+1) H_(v,n), A_v = p^(-1) [[0, -1], [p, a_v]]."""
    require_level(n)
    h = h_matrix(data, n)  # first, so a level past the size bound is refused at once
    power = _a_power(data, n)
    rows = tuple(
        tuple(h[0, j].scale(power[i][0]) + h[1, j].scale(power[i][1]) for j in range(2))
        for i in range(2)
    )
    return LogMatrix2(rows, denom_exp=n + 1)


def exceeds_digits(data: LocalCurveData, n: int, digits: int, m: bool = False) -> bool:
    """Whether H_(v,n) (M_(v,n) when m) provably has a coefficient of more
    than digits decimal digits (0: no limit), decided without building it.

    First refuses, as h_matrix would, a level past the size bound.  The
    entries are valued at X = 1, which is T = 2, over the integers: H(2) is
    K(2) C_(v,1)(2), with each entry of K (_t_rows) valued as sum w 2^e over
    its terms and C_(v,1)(2) = [[a_v, 1], [-(2^p - 1), 0]], as Phi_1 is
    (T^p - 1)/(T - 1).
    M's rows are p^(n+1) A_v^(n+1) times H's.  Every entry has degree below
    p^n, so at most p^n coefficients, and its largest coefficient is at
    least |E(1)|/p^n.  So an entry with |E(1)| >= p^n 10^digits has a
    coefficient of more than digits digits.
    """
    if n < 1 or not digits:
        return False
    p, a_v = data.prime, data.a_v
    (k00, k01), (k10, k11) = ([sum(w << e for e, w in terms.items()) for terms in row]
                              for row in _t_rows(p, a_v, n))
    phi_1 = (1 << p) - 1
    h00, h01, h10, h11 = a_v * k00 - phi_1 * k01, k00, a_v * k10 - phi_1 * k11, k10
    if m:
        (a, b), (c, d) = _a_power(data, n)
        h00, h01, h10, h11 = (a * h00 + b * h10, a * h01 + b * h11,
                              c * h00 + d * h10, c * h01 + d * h11)
    largest = max(abs(h00), abs(h01), abs(h10), abs(h11))
    # largest < 2^bit_length, so well below the bound 10^digits is not formed
    if largest.bit_length() + 1 < n * math.log2(p) + digits * math.log2(10):
        return False
    return largest >= p**n * 10**digits


def det_structure_check(data: LocalCurveData, n: int,
                        h: LogMatrix2 | None = None) -> StructureReport:
    """Assert det H_(v,n) = omega_n / X and the block shape of H_(v,n).

    The library's own H_(v,n) (h None, or h with the rows of h_matrix) has
    the block shape by construction: its second row is the recursion's term
    -Phi_n H(n-1).  Then det H = Phi_n * (H01 H_sharp(n-1) - H00 H_flat(n-1))
    and omega_n / X = Phi_n * omega_(n-1) / X, so in the domain Z[X] the
    determinant identity is cross_identity_check, and no determinant is
    formed.  Any other h has its second row compared against the recursion's
    and its full determinant against omega_n / X.  An h that is not a 2x2
    LogMatrix2 of IwaPolys raises ValidationError, and so does one at
    another prime ("mixed primes").
    """
    require_level(n)
    match h:
        case None | LogMatrix2(entries=((IwaPoly(), IwaPoly()), (IwaPoly(), IwaPoly()))):
            if h is not None and any(e.prime != data.prime for row in h.entries for e in row):
                raise ValidationError("mixed primes")
        case _:
            raise ValidationError("h must be a 2x2 LogMatrix2 of IwaPoly")
    own = h_matrix(data, n)  # so a level past the size bound is refused before any product
    if h is None or h.entries == own.entries:
        det_ok, shape = cross_identity_check(data, n).passed, []
    else:
        det_ok = h.det() == IwaPoly(data.prime, omega(data.prime, n).coeffs[1:])
        shape = [f"entry (1,{j}) != -Phi_n * H_{name}(n-1)"
                 for j, name in enumerate((SHARP, FLAT)) if h[1, j] != own[1, j]]
    failures = ([] if det_ok else ["det != omega_n/X"]) + shape
    return StructureReport(not failures, failures)


def valuation_matrix(data: LocalCurveData, n: int) -> ValuationMatrix:
    """ord_p of every entry of H_(v,n)(eps_n), via eps-adic valuations.

    By the block shape of H_(v,n) (see h_matrix) the second row is Phi_n
    times a polynomial, so it vanishes at eps_n and its entries are INF;
    only the first row, H_sharp(n) and H_flat(n), is valued.  Its entries
    have degree < p^(n-1) <= phi(p^n), so they are their own residues mod
    Phi_n and ord_eps never builds Phi_n here.
    """
    require_level(n)
    entries = h_entries(data, n)  # before totient, which is slow past the size bound
    phi_deg = totient(data.prime, n)
    first = []
    for entry in entries:
        o = ord_eps(entry, n)
        first.append(o if o.is_infinite else ExtendedRational(o.value / phi_deg))
    return ValuationMatrix((tuple(first), (INF, INF)))


def _carrier(n: int) -> str:
    """The carrier column of the first row at level n: sharp at odd n, flat
    at even n (see parity_tails)."""
    require_level(n)
    return SHARP if n % 2 == 1 else FLAT


def parity_tails(p: int, n: int) -> tuple[str, int, int]:
    """(carrier, even, odd): the parity-split closed form of the first row of
    ord_p H_(v,n)(eps_n), with both tails scaled by phi(p^n) to integers.

    The carrier entry is sharp at odd n and flat at even n and equals
    r_v + even/phi(p^n); the other entry is odd/phi(p^n).  Let
    O(m) = (p^m - p^(m mod 2))/(p+1), exact because p = -1 (mod p+1); then
    O(m) = p^(m-1) - p^(m-2) + ... = phi(p^m) * sum_(i=1..floor(m/2)) p^(1-2i),
    and odd = O(n), even = O(n-1).  Both come from the one power p^(n-1):
    odd = p * even, plus p - 1 at even n.  n is checked here (_carrier);
    the closed form itself is _tails.
    """
    carrier = _carrier(n)
    even, odd, _ = _tails(p, n)
    return carrier, even, odd


def _tails(p: int, n: int) -> tuple[int, int, int]:
    """(even, odd, phi(p^n)) at level n >= 1, with parity_tails's even and
    odd, all three from the one power p^(n-1).  Neither p nor n is checked:
    a caller passes a level it has checked."""
    q = p ** (n - 1)
    if n % 2:
        even = (q - 1) // (p + 1)
        return even, p * even, q * (p - 1)
    even = (q - p) // (p + 1)
    return even, p * even + p - 1, q * (p - 1)


def valuation_matrix_closed_form(data: LocalCurveData, n: int) -> ValuationMatrix:
    """The parity-split closed form for ord_p(H_(v,n)(eps_n))."""
    carrier = _carrier(n)
    even, odd, phi_deg = _tails(data.prime, n)
    rv_entry = data.r_v + ExtendedRational(Fraction(even, phi_deg))
    other = ExtendedRational(Fraction(odd, phi_deg))
    first = (rv_entry, other) if carrier == SHARP else (other, rv_entry)
    return ValuationMatrix((first, (INF, INF)))


def signature(data: LocalCurveData, n: int) -> str:
    """The dominant column of the first row: the symbol with strictly
    smaller ord_p.  For every place this is flat at odd n and sharp at even n.

    It is the column parity_tails does not name as the carrier: the carrier
    entry is at least r_v >= 1 (r_v is 1 or infinity by the Weil bound), and
    the other is O(n)/phi(p^n) <= p/(p^2-1) < 1, so the two never tie.  Only
    n's parity is read, so p^n is not formed.
    """
    return FLAT if _carrier(n) == SHARP else SHARP


def m_convergence_gap(data: LocalCurveData, n: int, deg_cap: int) -> ExtendedRational:
    """min ord_p over low-degree coefficients of M_(v,n+1) - M_(v,n).

    Convergence of the finite stages shows up as this gap being nondecreasing
    in n.  deg_cap = 0 restricts to constant coefficients.

    With P = [[0, -1], [p, a_v]], P C_(v,n+1) - pI = (Phi_(n+1) - p)
    [[1, 0], [-a_v, 0]] and -Phi_(n+1) H_n[0] = H_(n+1)[1], so
    M_(v,n+1) - M_(v,n) = -p^-(n+2) w (x) (H_(n+1)[1] + p H_n[0]) with
    w = P^(n+1) (1, -a_v) (_a_power): the gap is min ord_p(w_i) - (n+2) plus
    the least ord_p of that row's first deg_cap + 1 coefficients.  Level n+1
    comes first, so a level past the size bound is refused before level n.
    """
    if require_int(n, "n") < 1 or require_int(deg_cap, "deg_cap") < 0:
        raise ValidationError("need n >= 1 and deg_cap >= 0")
    p, a_v = data.prime, data.a_v
    low = _second_row(p, a_v, n + 1)
    row = [c for entry, h in zip(low, h_entries(data, n))
           for c in _plus(entry.coeffs[:deg_cap + 1], [p * x for x in h.coeffs[:deg_cap + 1]])]
    if not any(row):
        return INF
    w = [a - a_v * b for a, b in _a_power(data, n)]  # nonzero: det P = p
    return ExtendedRational(min(int_valuation(x, p) for x in w if x) - (n + 2)
                            + min(int_valuation(c, p) for c in row if c))
