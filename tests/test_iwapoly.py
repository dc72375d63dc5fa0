import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iwagrowth import iwapoly, logmat
from iwagrowth.errors import (
    NonUnitLeadingCoefficient,
    PrecisionExhausted,
    ValidationError,
    ZeroPolynomial,
)
from iwagrowth.iwapoly import (
    IwaPoly,
    _divmod,
    _from_t,
    _mul,
    _p_power,
    _times_phi_1,
    coprime_to_omega,
    mu_lambda,
    omega,
    ord_eps,
    phi_poly,
    totient,
)
from iwagrowth.padic import ExtendedRational, int_valuation
from iwagrowth.polyres import resultant


class TestIwaPoly:
    def test_trimming_and_degree(self):
        f = IwaPoly(3, (1, 2, 0, 0))
        assert f.coeffs == (1, 2) and f.degree == 1
        assert IwaPoly(3, ()).is_zero
        assert IwaPoly(3, (0,)).degree == -1

    def test_modular_reduction(self):
        f = IwaPoly(3, (10, 27), mod_prec=2)
        assert f.coeffs == (1,)

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValidationError):
            IwaPoly(3, (1,)) + IwaPoly(5, (1,))

    def test_arithmetic(self):
        x = IwaPoly(3, (0, 1))
        f = (x + IwaPoly.const(3, 1)) * (x - IwaPoly.const(3, 1))
        assert f == IwaPoly(3, (-1, 0, 1))
        assert f.scale(2) == IwaPoly(3, (-2, 0, 2))

    def test_divmod_exact(self):
        f = IwaPoly(3, (-1, 0, 1))
        g = IwaPoly(3, (1, 1))
        q, r = divmod(f, g)
        assert q == IwaPoly(3, (-1, 1)) and r.is_zero

    def test_divmod_needs_unit_lead(self):
        f = IwaPoly(3, (1, 1, 1))
        with pytest.raises(NonUnitLeadingCoefficient):
            divmod(f, IwaPoly(3, (1, 3)))
        with pytest.raises(NonUnitLeadingCoefficient):
            divmod(f, IwaPoly(3, (1, 2)))  # unit lead, but not monic
        with pytest.raises(NonUnitLeadingCoefficient):
            divmod(f, IwaPoly(3, (1, 2), mod_prec=4))  # a unit mod 3^4 is not enough
        with pytest.raises(NonUnitLeadingCoefficient):
            divmod(f, IwaPoly(3, (1, -1)))

    def test_with_modulus_cannot_raise(self):
        f = IwaPoly(3, (1,), mod_prec=2)
        with pytest.raises(PrecisionExhausted):
            f.with_modulus(5)
        assert f.with_modulus(1).mod_prec == 1


def test_totient():
    assert totient(3, 0) == 1
    assert [totient(3, n) for n in (1, 2, 3)] == [2, 6, 18]
    assert totient(5, 2) == 20


def test_omega_and_phi():
    assert omega(3, 0) == IwaPoly(3, (0, 1))
    assert omega(3, 1) == IwaPoly(3, (0, 3, 3, 1))
    assert omega(7, 2).coeffs == (0,) + tuple(comb(49, k) for k in range(1, 50))
    phi1 = phi_poly(3, 1)
    assert phi1 == IwaPoly(3, (3, 3, 1))
    # Eisenstein: constant term p, middle coefficients divisible by p, monic
    for p, n in ((3, 2), (5, 1), (3, 3)):
        phi = phi_poly(p, n)
        assert phi.degree == totient(p, n)
        assert phi.coeff(0) == p and phi.coeffs[-1] == 1
        assert all(c % p == 0 for c in phi.coeffs[:-1])
    # telescoping product: X * Phi_1 * ... * Phi_n = omega_n
    for p in (3, 5, 7):
        acc = omega(p, 0)
        for m in (1, 2, 3):
            acc = acc * phi_poly(p, m)
            assert acc == omega(p, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_phi_1_is_omega_1_over_x(p):
    assert phi_poly(p, 1) == omega(p, 1) // omega(p, 0)


@pytest.mark.parametrize("build", [omega, phi_poly])
@pytest.mark.parametrize("n", [1, 2])
def test_exact_omega_and_phi_refuse_p_n_above_the_bound(build, n):
    # p = 2^61 - 1: built without the bound, this would fail at once
    with pytest.raises(ValidationError, match="above 32768"):
        build(2**61 - 1, n)


# SHA-256 of omega(p, n)'s coefficients in hex, comma-separated, at the top
# p^n under MAX_EXACT_P_POWER for p = 3, 5 and 7, recorded from a build that
# read omega off a binomial row of its own; hex, because the middle
# coefficients are past str()'s digit limit.
OMEGA_DIGESTS = {
    (3, 9): "19ee4b9e01177f4574dc212eac533047ec62a36193ef507951566629642c8767",
    (5, 6): "afaa9e40098bf52989ebc0c2b21037330dd21ba8e8c8cdc0039045e5034047a1",
    (7, 5): "cd57e5a6032168dcf3c2b3a1191b64d6d0be7ed60480160c8e9abc4cbbd9971e",
}


@pytest.mark.parametrize("p, n", sorted(OMEGA_DIGESTS))
def test_omega_matches_its_pinned_digest(p, n):
    coeffs = omega(p, n).coeffs
    assert len(coeffs) == p**n + 1
    digest = hashlib.sha256(",".join(format(c, "x") for c in coeffs).encode())
    assert digest.hexdigest() == OMEGA_DIGESTS[p, n]


def test_ord_eps_uniformizer():
    # ord(eps_n) = 1 and ord(p) = totient
    for p, n in ((3, 1), (3, 2), (5, 2), (7, 1)):
        assert ord_eps(IwaPoly(p, (0, 1)), n) == 1
        assert ord_eps(IwaPoly.const(p, p), n) == totient(p, n)


def test_ord_eps_multiplicative():
    f = IwaPoly(3, (3, 1))
    g = IwaPoly(3, (0, 2, 1))
    n = 2
    of = ord_eps(f, n)
    og = ord_eps(g, n)
    assert ord_eps(f * g, n) == of + og


def test_ord_eps_exact_zero_is_infinite():
    assert ord_eps(phi_poly(3, 2), 2).is_infinite


def test_ord_eps_modular_zero_raises():
    with pytest.raises(PrecisionExhausted):
        ord_eps(IwaPoly.const(3, 9, mod_prec=2), 1)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=-3000, max_value=3000), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-50, max_value=50), max_size=3),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    st.booleans(),
)
def test_ord_eps_is_ord_of_norm(p, n, coeffs, pad, mod_prec, vanish):
    """ord_eps agrees with ord_p Res(Phi_n, rep), the norm of the element,
    where rep = f mod Phi_n; pad raises deg f past phi(p^n) without
    changing rep."""
    f = IwaPoly(p, tuple(coeffs))
    if n == 0:
        with pytest.raises(ValidationError, match="n must be >= 1"):
            ord_eps(f, n)
        return
    phi = phi_poly(p, n)
    f = f + IwaPoly(p, tuple(pad)) * phi
    if vanish:  # a multiple of Phi_n, or a polynomial that is 0 mod p^N
        f = f * phi if mod_prec is None else f.scale(p**mod_prec)
    if mod_prec is not None:
        f = f.with_modulus(mod_prec)
    rep = f % phi
    if rep.is_zero:
        if mod_prec is None:
            assert ord_eps(f, n).is_infinite
        else:
            with pytest.raises(PrecisionExhausted):
                ord_eps(f, n)
        return
    v = int_valuation(resultant(phi.coeffs, rep.coeffs), p)
    # a nonzero residue mod p^N is valued below N*phi(p^n), so it is certified
    assert mod_prec is None or v < mod_prec * totient(p, n)
    assert ord_eps(f, n) == ExtendedRational(v)


def test_mu_lambda():
    # 9*(X^2 + ...) with a unit coefficient first at X^2
    f = IwaPoly(3, (27, 54, 9, 45))
    w = mu_lambda(f)
    assert (w.mu, w.lam) == (2, 2)
    # two indices tie at the least ord_p: lambda is the first of them
    w = mu_lambda(IwaPoly(3, (3, 6, 9, 1, 2)))
    assert (w.mu, w.lam) == (0, 3)
    with pytest.raises(ZeroPolynomial):
        mu_lambda(IwaPoly(3, ()))
    with pytest.raises(PrecisionExhausted):
        mu_lambda(IwaPoly(3, (9,), mod_prec=1))


@given(st.sampled_from((3, 5, 7)),
       st.lists(st.tuples(st.integers(0, 6), st.integers(-50, 50)), min_size=1, max_size=8))
def test_mu_lambda_is_the_least_term_valuation(p, terms):
    """The gcd reading of (mu, lambda) is the least (ord_p c_i, i) over the
    nonzero coefficients."""
    f = IwaPoly(p, tuple(p**v * c for v, c in terms))
    assume(not f.is_zero)
    w = mu_lambda(f)
    assert (w.mu, w.lam) == min((int_valuation(c, p), i) for i, c in enumerate(f.coeffs) if c)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7)),
    n=st.integers(min_value=0, max_value=4),
    coeffs=st.lists(st.integers(min_value=-3000, max_value=3000), min_size=1, max_size=9),
    planted=st.lists(st.booleans(), min_size=5, max_size=5),
    nudge=st.integers(min_value=0, max_value=3),
)
# deg f = 7 >= phi(9) with no factor; Phi_1 planted; Phi_2 planted above
# level n = 1; X and Phi_2 planted, then pushed off by 9.
@example(p=3, n=2, coeffs=[1, 0, 0, 0, 0, 0, 0, 1], planted=[False] * 5, nudge=0)
@example(p=3, n=1, coeffs=[1, 1], planted=[False, True, False, False, False], nudge=0)
@example(p=5, n=1, coeffs=[2], planted=[False, False, True, False, False], nudge=0)
@example(p=3, n=2, coeffs=[1], planted=[True, False, True, False, False], nudge=2)
def test_coprime_to_omega(p, n, coeffs, planted, nudge):
    """Against the rule it replaces: f meets omega_n exactly when one of
    the factors X, Phi_1..Phi_n leaves remainder zero.  Factors of omega_4
    of degree at most 100 are planted, some pushed off by adding p^nudge, so
    deg f reaches phi(p^m) both with and without Phi_m dividing f."""
    factors = [omega(p, 0)] + [phi_poly(p, m) for m in range(1, 5)]
    f = IwaPoly(p, tuple(coeffs))
    for fac, plant in zip(factors, planted):
        if plant and fac.degree <= 100:
            f = f * fac
    if nudge:
        f = f + IwaPoly.const(p, p**nudge)
    meets = any((f % fac).is_zero for fac in factors[: n + 1])
    assert coprime_to_omega(f, n) is not meets


def test_coprime_to_omega_rejects_negative_level():
    with pytest.raises(ValidationError, match="n must be >= 0"):
        coprime_to_omega(IwaPoly(3, (1, 1)), -1)


def test_coprime_to_omega_stops_at_the_degree():
    # Phi_m has degree phi(p^m) > 1 for every m >= 1: one level decides
    t0 = time.perf_counter()
    assert coprime_to_omega(IwaPoly(3, (3, 1)), 20000) is True
    assert time.perf_counter() - t0 < 0.05


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((3, 5, 7)), n=st.integers(0, 6),
       planted=st.sampled_from((0, 1, 2)), data=st.data())
@example(p=3, n=6, planted=2, data=None)  # Phi_2 (deg 6) times 3 + X
@example(p=7, n=6, planted=1, data=None)  # Phi_1 (deg 6) times 3 + X
def test_coprime_to_omega_matches_the_full_loop(p, n, planted, data):
    """The degree stop changes no answer: against every level's ord_eps,
    for deg f <= 12 with Phi_1 or Phi_2 planted where its degree allows."""
    factor = phi_poly(p, planted) if planted else IwaPoly.const(p, 1)
    assume(factor.degree <= 12)
    if data is None:
        cofactor = [3, 1]
    else:
        cofactor = data.draw(st.lists(st.integers(-50, 50), min_size=1,
                                      max_size=13 - factor.degree))
    f = factor * IwaPoly(p, tuple(cofactor))
    full = f.coeff(0) != 0 and all(not ord_eps(f, m).is_infinite for m in range(1, n + 1))
    assert coprime_to_omega(f, n) is full


small_polys = st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(small_polys, small_polys)
def test_mu_of_product_adds(fc, gc):
    f = IwaPoly(3, tuple(fc))
    g = IwaPoly(3, tuple(gc))
    if f.is_zero or g.is_zero:
        return
    wf, wg, wfg = mu_lambda(f), mu_lambda(g), mu_lambda(f * g)
    assert wfg.mu == wf.mu + wg.mu
    assert wfg.lam == wf.lam + wg.lam


@settings(max_examples=30, deadline=None)
@given(small_polys)
def test_division_by_omega_round_trips(fc):
    f = IwaPoly(3, tuple(fc))
    w = omega(3, 1)
    q, r = divmod(f, w)
    assert q * w + r == f
    assert r.degree < w.degree
    # a monic divisor: reducing mod 3^2 commutes with the division
    assert divmod(f.with_modulus(2), w) == (q.with_modulus(2), r.with_modulus(2))


kernel_lists = st.lists(st.integers(-10**6, 10**6), max_size=12)


def _value(coeffs, t):
    return sum(c * t**i for i, c in enumerate(coeffs))


@given(kernel_lists, kernel_lists)
@example([], [])
@example([], [1, 2])
def test_list_product_agrees_with_evaluation(a, b):
    prod = _mul(a, b)
    assert len(prod) == max(len(a) + len(b) - 1, 0)
    # the coefficients are far below 10^30 / 2, so that point fixes all of them
    for t in (-2, -1, 0, 1, 3, 10**30):
        assert _value(prod, t) == _value(a, t) * _value(b, t)


def _schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _long_list(draw):
    """0-48 signed coefficients of up to about 700 bits, with a run of zeros
    and up to 3 trailing zeros: lists of 16 or more go through the packed
    route."""
    bits = draw(st.integers(0, 700))
    entry = st.integers(-(2**bits), 2**bits)
    coeffs = draw(st.lists(st.one_of(entry, st.just(0)), max_size=48))
    if coeffs and draw(st.booleans()):
        start = draw(st.integers(0, len(coeffs) - 1))
        stop = min(start + draw(st.integers(1, 20)), len(coeffs))
        coeffs[start:stop] = [0] * (stop - start)
    return coeffs + [0] * draw(st.integers(0, 3))


# The middle coefficient of each square is the slot bound itself:
# 20 (2^129 - 1)^2 needs 263 bits, so the 264-bit slot has no bit to spare,
# and 16 (2^126 - 1)^2 needs 256, so a slot without the sign bit carries.
_ALL_ONES = [2**129 - 1] * 20
_ALL_ONES_256 = [2**126 - 1] * 16
# The same magnitudes with alternating signs: a(2^s) and a(-2^s), the two
# points of the packed route, then differ in sign at the slot bound.
_ALTERNATING = [(-1)**i * (2**129 - 1) for i in range(20)]


@settings(max_examples=200, deadline=None)
@given(_long_list(), _long_list())
@example([1] * 15, [1] * 15)
@example([-1] * 16, [1] * 16)
@example(list(range(-8, 9)), [2**64] * 17)
@example([0] * 16, [2**100 + 1] * 17)  # a zero list beside a wide one
@example([7] + [0] * 15, [0] * 16 + [-3])
@example(_ALL_ONES, _ALL_ONES)
@example(_ALL_ONES, [-(2**129 - 1)] * 20)
@example(_ALL_ONES_256, _ALL_ONES_256)
@example(list(range(1, 17)), list(range(-16, 0)))  # 31 slots: 16 even, 15 odd
@example(list(range(1, 17)), list(range(-17, 0)))  # 32 slots: 16 even, 16 odd
@example([5, 0] * 8, list(range(-8, 9)))  # odd-index coefficients all 0
@example([0, -5] * 8, [3, 0] * 9)  # even-index ones all 0, and odd ones
@example(_ALTERNATING, _ALTERNATING)
@example(_ALTERNATING, _ALL_ONES)
def test_packed_product_is_the_schoolbook_list(a, b):
    assert _mul(a, b) == _schoolbook(a, b)


@given(kernel_lists, st.lists(st.integers(-10**6, 10**6), max_size=8),
       st.sampled_from((None, 3, 9, 25, 7**5, 3**40)))
@example([], [], None)  # a = [], deg b = 0
@example([], [5, 0, 2], 9)
@example([1, 2], [0, 0, 0, 4], None)  # deg a < deg b
@example([1, 2], [0, 0, 0, 4], 25)
def test_list_division_by_a_monic_list(a, b_low, pn):
    b = b_low + [1]
    q, r = _divmod(a, b, pn)
    assert len(r) <= len(b) - 1
    back = [x + y for x, y in zip_longest(_mul(q, b), r, fillvalue=0)]
    gap = [x - y for x, y in zip_longest(a, back, fillvalue=0)]
    if pn is None:
        assert not any(gap)
    else:
        assert all(x % pn == 0 for x in gap)
        assert all(0 <= x < pn for x in r)


# (x, M) with 0 <= x < M < 2^64
_residues = st.integers(1, 2**64 - 1).flatmap(
    lambda m: st.tuples(st.integers(0, m - 1), st.just(m)))


@given(st.sampled_from((3, 5, 7, 11, 13)), st.integers(0, 6), _residues)
@example(3, 0, (5, 7))  # n = 0: x itself
@example(13, 6, (2**64 - 2, 2**64 - 1))  # x = -1 mod M
def test_p_power_chain_is_the_p_to_the_n_th_power(p, n, residue):
    # the bits of p after its lead, 1, 01, 11, 011 and 101, take a square
    # alone, a square then a product, or both in turn
    x, modulus = residue
    assert _p_power(x, p, n, lambda a, b: a * b % modulus) == pow(x, p**n, modulus)


def _ring_results(f, g, monic):
    """Every ring operation's result on built operands: +, -, unary -, *,
    scale, and divmod by a monic polynomial."""
    return [f + g, f - g, g - f, -f, f * g, f.scale(-6), *divmod(f, monic)]


def test_ring_operations_do_not_revalidate_the_prime(monkeypatch):
    operands = [
        (IwaPoly(3, (4, -2, 9)), IwaPoly(3, (1, 5)), IwaPoly(3, (2, 0, 1))),
        (IwaPoly(5, (7, 1, 3, 2), 3), IwaPoly(5, (11, 4)), IwaPoly(5, (1, 1))),
        (IwaPoly(7, (3, 1), 2), IwaPoly(7, (50, 6, 1), 1), IwaPoly(7, (0, 4, 1), 4)),
    ]

    def refuse(_):
        raise AssertionError("is_odd_prime called")

    monkeypatch.setattr("iwagrowth.padic.is_odd_prime", refuse)
    for f, g, monic in operands:
        for r in _ring_results(f, g, monic):
            assert r.prime == f.prime


poly_coeffs = st.lists(st.integers(-10**12, 10**12), max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 7)), poly_coeffs, poly_coeffs,
       st.lists(st.integers(-10**6, 10**6), max_size=4),
       st.sampled_from((None, 1, 2, 5)), st.sampled_from((None, 1, 3)))
def test_ring_results_are_reduced_and_trimmed(p, a, b, monic_low, fp, gp):
    """A result is what the public constructor makes of its fields."""
    f, g = IwaPoly(p, tuple(a), fp), IwaPoly(p, tuple(b), gp)
    for r in _ring_results(f, g, IwaPoly(p, tuple(monic_low) + (1,))):
        assert r == IwaPoly(r.prime, r.coeffs, r.mod_prec)
        assert type(r.coeffs) is tuple


def _ord_eps_as_minimum(f, n):
    """ord_eps by its definition, min over the terms of e*ord_p(c_i) + i."""
    e = totient(f.prime, n)
    return min(e * int_valuation(c, f.prime) + i for i, c in enumerate(f.coeffs) if c)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(1, 3), st.data(),
       st.sampled_from((None, 1, 2, 4)))
def test_ord_eps_reads_the_minimum_term_valuation(p, n, data, mod_prec):
    """Below degree e = phi(p^n), ord_eps = e*v_p(gcd) + the first index of
    a coefficient with that valuation, which is the minimum term valuation."""
    e = totient(p, n)
    size = data.draw(st.integers(0, min(e, 10)))
    coeffs = [p ** data.draw(st.integers(0, 5)) * data.draw(st.integers(-p**3, p**3))
              for _ in range(size)]
    f = IwaPoly(p, tuple(coeffs), mod_prec)
    assert f.degree < e
    if f.is_zero:
        if mod_prec is None:
            assert ord_eps(f, n).is_infinite
        else:
            with pytest.raises(PrecisionExhausted):
                ord_eps(f, n)
        return
    assert ord_eps(f, n) == ExtendedRational(_ord_eps_as_minimum(f, n))


# A polynomial in T = 1 + X as blocks of consecutive exponents, each a run of
# one coefficient or drawn term by term, after gaps of 0 to 6 (a gap of 0
# joins two blocks, exponent 0 may be used).
t_blocks = st.lists(
    st.tuples(st.integers(0, 6), st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=6),
              st.booleans()),
    max_size=5)


def _t_terms(blocks):
    """The blocks as the run endpoints {(m, s): w} that _from_t reads: a lone
    term c T^e is (e, 0): c and a run a..b-1 of c is (a, 1): -c and
    (b, 1): c.  Weights that meet at one key are summed, and zeros dropped."""
    terms, e = {}, 0
    for gap, coeffs, run in blocks:
        e += gap
        if run:
            ends = (((e, 1), -coeffs[0]), ((e + len(coeffs), 1), coeffs[0]))
        else:
            ends = (((e + i, 0), c) for i, c in enumerate(coeffs))
        for key, w in ends:
            terms[key] = terms.get(key, 0) + w
        e += len(coeffs)
    return {key: w for key, w in terms.items() if w}


def _expand_in_x(terms):
    """The endpoints {(m, s): w} summed as w T^m (s = 0) or
    w (1 + T + ... + T^(m-1)) (s = 1), then expanded in X by repeated
    products with 1 + X."""
    dense = {}
    for (m, s), w in terms.items():
        for e in range(m) if s else (m,):
            dense[e] = dense.get(e, 0) + w
    out, power = [], [1]
    for e in range(max(dense, default=-1) + 1):
        if dense.get(e):
            out = [a + dense[e] * b for a, b in zip_longest(out, power, fillvalue=0)]
        power = _mul(power, [1, 1])
    while out and out[-1] == 0:
        out.pop()
    return out


# The benchmark's tower series: (p, a_v, top level).
TOWER_SERIES = ((3, 0, 7), (3, 3, 6), (3, -3, 6), (5, 0, 5), (7, 0, 4))


@given(t_blocks, t_blocks)
@example([], [])
@example([(0, [1], False)], [])  # the constant 1
@example([(0, [1, 1, 1], True)], [(0, [1, 1, 1, 1, 1], True)])  # Phi_1 at p = 3 and 5
@example([(0, [8, -1, -1], False)], [(0, [3], False)])  # H_2 at p = 3, a_v = 3
@example([(3, [-2] * 5, True), (4, [5], False)], [(0, [7], False), (9, [-1], False)])
@example([(0, [1, 1, 2, 2, -3], False)], [(1, [1, 2, 3], False), (0, [4, 4, 4], True)])
@example([(66, [3, -1], False)], [(2, [1] * 6, True)])
@example([(1, [2] * 3, True), (2, [2] * 4, True)], [(0, [2] * 2, True), (3, [2] * 2, True)])
@example([(0, [1, 1, 2, 2, 1, 1], False)], [(3, [1, 1, 2, 2, 1, 1], False)])  # staircases
@example([(0, [3] * 4, True), (1, [3], False)], [(0, [-1] * 2, True), (5, [-1], False)])
def test_t_readout_matches_the_powers_of_one_plus_x(a, b):
    """The readout gives each entry in X, with its rows shared between the
    two entries or built for one alone."""
    ta, tb = _t_terms(a), _t_terms(b)
    expected = [_expand_in_x(ta), _expand_in_x(tb)]
    assert _from_t([ta, tb]) == expected
    assert _from_t([ta]) == expected[:1]


def test_t_readout_builds_one_or_two_rows_per_run(monkeypatch):
    """A run from exponent 0 streams one binomial recurrence and a run from
    a > 0 two, whatever its length (valmat --p 32749 --av 0 --n 2 reads
    Phi_1, a run of 32,749 terms, as one); each distinct exponent is
    streamed once per call for both entries, so over the benchmark's tower
    series H streams at most 350 (437 when every entry of H, Phi_1
    included, was streamed from T)."""
    streamed = []
    stream = iwapoly._add_binomials
    monkeypatch.setattr(iwapoly, "_add_binomials",
                        lambda m, *args: streamed.append(m) or stream(m, *args))
    assert _from_t([{(0, 1): -7, (40, 1): 7}]) == [[7 * comb(40, k) for k in range(1, 41)]]
    assert streamed == [40]
    streamed.clear()
    _from_t([{(5, 1): -7, (40, 1): 7}])
    assert streamed == [5, 40]
    streamed.clear()
    for cached in (logmat._second_row, logmat._first_row):
        cached.cache_clear()
    for p, a_v, top in TOWER_SERIES:
        for n in range(top + 1):
            logmat.h_matrix(logmat.LocalCurveData(p, a_v), n)
    assert len(streamed) <= 350


@pytest.mark.parametrize("p, a_v, n", [(3, 3, 7), (3, -3, 7), (5, 0, 5), (3, 0, 7), (7, 0, 5)])
def test_t_readout_peak_is_its_result(p, a_v, n):
    """The streamed readout holds one output list per entry and no row or
    partial sum, and Phi_1 is applied in X one window at a time, so reading
    a second row of H into X peaks at no more than 1.25 times the memory it
    keeps (the binomial-row readout took 4.6-9.1 times at the first four
    levels)."""
    logmat._second_row.cache_clear()
    tracemalloc.start()
    try:
        logmat._second_row(p, a_v, n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * kept


def test_runs_value_at_t_2_is_the_term_sum():
    """Every entry of K's T rows, at every level n >= 1 of the tower series,
    is lone terms, so sum w 2^e over them is its value at T = 2, which is
    X = 1; times C_(v,1)(2) = [[a_v, 1], [-(2^p - 1), 0]] that is the sum of
    the coefficients of the matching h_matrix entry, the value
    logmat.exceeds_digits reads."""
    for p, a_v, top in TOWER_SERIES:
        for n in range(1, top + 1):
            h = logmat.h_matrix(logmat.LocalCurveData(p, a_v), n)
            for i, row in enumerate(logmat._t_rows(p, a_v, n)):
                k0, k1 = (sum(w << e for (e, _), w in terms.items()) for terms in row)
                at = (p, a_v, n, i)
                assert all(s == 0 for terms in row for _, s in terms), at
                assert a_v * k0 - ((1 << p) - 1) * k1 == sum(h[i, 0].coeffs), at
                assert k0 == sum(h[i, 1].coeffs), at


# Coefficient lists for the Phi_1 kernel: zeros, signs and sizes from one
# to 2^200, at lengths up to two windows plus 12, so around one window
# +- p; the examples add lengths around 64, several windows.
phi_1_lists = st.lists(st.one_of(st.just(0), st.integers(-(2**200), 2**200)),
                       max_size=2 * iwapoly._PHI_1_WINDOW + 12)


@given(st.sampled_from([3, 5, 7, 11]), phi_1_lists, st.sampled_from([0, 3, -3, 7]), phi_1_lists)
@example(3, [], 0, [])
@example(3, [1], 0, [])
@example(3, [1] * 13, 0, [])
@example(7, [-3] * 23, 0, [])
@example(11, [2**64] * 5, 0, [])
@example(5, [1, -1] * 8, 3, [1] * 21)
@example(5, [-1] * 64, 0, [])
@example(7, [2**100] * 57, 0, [])
@example(11, [5, 0, -5] * 25, 0, [])
@example(3, [1] * 61, 3, [-1] * 70)
@example(7, [0] * 65, -3, [9] * 128)
@example(11, [-2] * 53, 7, [1] * 20)
def test_phi_1_kernel_is_the_product(p, a, c, b):
    """_times_phi_1 turns a into Phi_1 a + c b in place: the product
    _mul(phi_poly(p, 1).coeffs, a), trailing zeros kept, plus c b."""
    out = list(a)
    _times_phi_1(out, p, c, b)
    expected = _mul(phi_poly(p, 1).coeffs, a)
    if c:
        expected = [x + c * y for x, y in zip_longest(expected, b, fillvalue=0)]
    assert out == expected


@pytest.mark.parametrize("p, n", [(3, 6), (3, 9), (5, 4), (7, 3)])
def test_omega_stores_one_integer_per_mirrored_pair(p, n):
    """The first stream into a fresh readout list stores its values, so
    C(p^n, k) and its mirror C(p^n, p^n - k) are one integer, not two
    equal copies."""
    coeffs, top = omega.__wrapped__(p, n).coeffs, p**n
    assert all(coeffs[k] is coeffs[top - k] for k in range(1, top // 2 + 1))
