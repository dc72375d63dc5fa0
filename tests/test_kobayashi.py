import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iwagrowth import iwapoly, kobayashi, polyres
from iwagrowth.errors import NotFinite, PhiDividesF, PrecisionExhausted, ValidationError
from iwagrowth.iwapoly import IwaPoly, WeierstrassData, coprime_to_omega, omega, phi_poly, totient
from iwagrowth.kobayashi import (
    TowerOfQuotients,
    _circulant_columns,
    _omega_columns,
    _shift,
    elementary_divisor_valuations,
    nabla_asymptotic,
    nabla_closed_form,
    nabla_finite_tower,
    nabla_resultant_oracle,
    nabla_snf_oracle,
)


class TestTower:
    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            TowerOfQuotients(IwaPoly(3, ()))

    def test_rejects_an_f_known_mod_p_n(self):
        # X + 9 mod 3^2: its lifts X and X + 9 give infinite and finite towers
        with pytest.raises(ValidationError, match="exact"):
            TowerOfQuotients(IwaPoly(3, (9, 1), mod_prec=2))


def _sparse(matrix):
    """A dense square matrix as the kernel's sparse rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _dense(cols, size):
    """Sparse square columns as a dense list of columns, for sympy."""
    return [[col.get(i, 0) for i in range(size)] for col in cols]


class TestElementaryDivisors:
    def test_diagonal(self):
        vals = elementary_divisor_valuations(_sparse([[9, 0], [0, 3]]), 3, 8)
        assert sorted(vals) == [1, 2]

    def test_row_operations_invariant(self):
        a = [[9, 0], [9, 3]]
        assert sorted(elementary_divisor_valuations(_sparse(a), 3, 8)) == [1, 2]

    def test_infinite_cokernel(self):
        with pytest.raises(PrecisionExhausted):
            elementary_divisor_valuations(_sparse([[1, 0], [2, 0]]), 3, 8)

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            elementary_divisor_valuations(_sparse([[81]]), 3, 2)


def _outcome(rows, p, prec):
    try:
        return sorted(elementary_divisor_valuations(rows, p, prec))
    except PrecisionExhausted:
        return "exhausted"


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((3, 5, 7)), c=st.integers(0, 3),
       rows=st.integers(1, 4).flatmap(lambda k: st.lists(
           st.lists(st.integers(-30, 30), min_size=k, max_size=k),
           min_size=k, max_size=k)))
@example(p=3, c=2, rows=[[1, 1], [1, 4]])  # least valuation rises from 2 to 3
def test_divisors_shift_under_scaling(p, c, rows):
    # p^c * A has the divisors of A, each times p^c.  A is eliminated at
    # p^(prec - c), so each outcome holds exactly when the other does.
    prec = 12
    scaled = [[p**c * x for x in row] for row in rows]
    base = _outcome(_sparse(rows), p, prec - c)
    expect = base if base == "exhausted" else [v + c for v in base]
    assert _outcome(_sparse(scaled), p, prec) == expect


def _f_columns(f, m):
    """Multiplication by f on Z[X]/omega_m: the p^m x p^m presentation of
    Lambda/(f, omega_m) from the other side."""
    p = f.prime
    w = omega(p, m)
    d = p**m
    cur = list((f % w).coeffs)
    cols = []
    for _ in range(d):
        cols.append(cur + [0] * (d - len(cur)))
        cur = [0] + cur
        if len(cur) - 1 == d:
            lead = cur.pop()
            cur = [c - lead * w.coeff(i) for i, c in enumerate(cur)]
    return cols


def _unit_at_minus_one(f):
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(f.coeffs)) % f.prime != 0


@st.composite
def _tower_levels(draw):
    """(f, m) with p^m <= 49 and f coprime to omega_m, in four shapes."""
    p = draw(st.sampled_from((3, 5, 7)))
    m = draw(st.integers(0, {3: 3, 5: 2, 7: 2}[p]))
    shape = draw(st.sampled_from(("unit lead", "p | lead", "mu > 0", "deg >= p^m")))
    deg = draw(st.integers(p**m, p**m + 3) if shape == "deg >= p^m" else st.integers(0, 8))
    coeffs = draw(st.lists(st.integers(-p**3, p**3), min_size=deg, max_size=deg))
    lead = draw(st.sampled_from([u for u in range(-p + 1, p) if u]))
    if shape in ("p | lead", "deg >= p^m"):
        lead *= p
    scale = p ** draw(st.integers(1, 2)) if shape == "mu > 0" else 1
    f = IwaPoly(p, tuple(scale * c for c in coeffs + [lead]))
    assume(coprime_to_omega(f, m))
    return f, m


@settings(max_examples=120, deadline=None)
@given(_tower_levels())
# A p | lead f goes to the reversal when f(-1) is a unit, and otherwise to the
# circulant of f(T-1) on Z[T]/(T^(p^m) - 1), whose coefficients fold mod
# T^(p^m) - 1 once deg f >= p^m.
@example((IwaPoly(3, (3, 1, 3)), 1))  # f(-1) = 5: reversal, deg f = p^m - 1
@example((IwaPoly(3, (1, 0, 0, 3)), 1))  # f(-1) = -2: reversal, deg f = p^m
@example((IwaPoly(3, (3, 1) + (0,) * 8 + (3,)), 2))  # f(-1) = 5: reversal, deg f = 10 > p^m = 9
@example((IwaPoly(3, (3, 0, 0, 3)), 1))  # f(-1) = 0: circulant, deg f = p^m
@example((IwaPoly(3, (1, 1) + (0,) * 8 + (3,)), 2))  # f(-1) = 3: circulant, deg f = 10 > 9
@example((IwaPoly(5, (9, 25)), 0))  # unit constant, p | lead at m = 0: f(0)
def test_omega_columns_match_f_columns(case):
    # Both presentations have cokernel Lambda/(f, omega_m), so they share
    # their non-unit elementary divisors; their sizes differ by unit ones.
    f, m = case
    p, prec = f.prime, 24
    dense = _outcome(_sparse(_f_columns(f, m)), p, prec)
    cols = _omega_columns(f, m, prec)
    # square, as elementary_divisor_valuations requires: each row index in a
    # column is below the column count
    assert all(i < len(cols) for col in cols for i in col)
    small = _outcome(cols, p, prec)
    strip = lambda o: o if o == "exhausted" else [v for v in o if v]  # noqa: E731
    assert strip(small) == strip(dense)


def _sympy_outcome(cols, p, prec):
    """elementary_divisor_valuations' outcome, read off sympy's Smith normal
    form over ZZ: the p-valuations of its diagonal, or "exhausted" when one
    of them is 0 or reaches p^prec."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(cols), domain=ZZ)
    diag = [int(snf[i, i]) for i in range(min(snf.shape))]
    vals = []
    for d in diag:
        v = 0
        while d and d % p == 0 and v < prec:
            d //= p
            v += 1
        if not d or v >= prec:
            return "exhausted"
        vals.append(v)
    return sorted(vals)


@st.composite
def _p_lead_levels(draw):
    """(f, m) with f's leading coefficient divisible by p and f coprime to
    omega_m.  p^m <= 9 keeps sympy's Smith form fast; at 25 and 27 it
    sometimes runs for seconds."""
    p = draw(st.sampled_from((3, 5, 7)))
    m = draw(st.integers(1, {3: 2, 5: 1, 7: 1}[p]))
    deg = draw(st.integers(1, 6))
    low = draw(st.lists(st.integers(-p**2, p**2), min_size=deg, max_size=deg))
    lead = p * draw(st.sampled_from([u for u in range(-p + 1, p) if u]))
    scale = p ** draw(st.integers(0, 1))
    f = IwaPoly(p, tuple(scale * c for c in low + [lead]))
    assume(coprime_to_omega(f, m))
    return f, m


@settings(max_examples=60, deadline=None)
@given(_p_lead_levels(), st.sampled_from((2, 4, 8)), st.randoms(use_true_random=False))
@example((IwaPoly(3, (9, 1, 3)), 2), 8, None)  # f(-1) = 11, reversal: rank > 0
@example((IwaPoly(3, (81, 0, 3)), 1), 2, None)  # circulant: a divisor reaching p^prec
def test_p_lead_divisors_match_sympy_smith_form(case, prec, rng):
    # The presentation the code builds (the reversal where f(-1) is a unit,
    # else the circulant) and the circulant itself are eliminated with sparse
    # pivot rows, each updating only its nonzero columns: the divisors must
    # still be the exact ones.  Shuffling rows and columns keeps the divisors and
    # moves the pivots.
    f, m = case
    p = f.prime
    cols = _omega_columns(f, m, prec)
    assert len(cols) == (f.degree if _unit_at_minus_one(f) else p**m)
    for sparse in (cols, _circulant_columns(_shift(f.coeffs), p**m, p**prec)):
        matrix = _dense(sparse, len(sparse))
        if rng is not None:
            order = list(range(len(matrix)))
            rng.shuffle(order)
            matrix = [[row[j] for j in order] for row in matrix]
            rng.shuffle(matrix)
        assert _outcome(_sparse(matrix), p, prec) == _sympy_outcome(matrix, p, prec)


def _size(cols, p, prec):
    return sum(elementary_divisor_valuations(cols, p, prec))


@settings(max_examples=60, deadline=None)
@given(_p_lead_levels())
@example((IwaPoly(3, (3, 1, 2, 0, 9)), 5))  # 3^5 circulant columns against 4
@example((IwaPoly(7, (1, 7, 0, 7)), 2))
def test_involution_and_circulant_give_the_same_size(case):
    # Where f(-1) is a unit, the reversal (deg f square) and the circulant
    # (p^m square) present the same module, so they give the same e_m.
    f, m = case
    assume(_unit_at_minus_one(f))
    p, prec = f.prime, 32
    rev = _size(_omega_columns(f, m, prec), p, prec)
    assert rev == _size(_circulant_columns(_shift(f.coeffs), p**m, p**prec), p, prec)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=8), st.integers(-20, 20))
def test_shift_is_f_at_t_minus_one(coeffs, t):
    g = _shift(coeffs)
    value = lambda a, x: sum(c * x**i for i, c in enumerate(a))  # noqa: E731
    assert value(g, t) == value(coeffs, t - 1)
    assert len(g) == len(coeffs) and g[-1] == coeffs[-1]
    assert g[0] == value(coeffs, -1)


@st.composite
def _p_lead_towers(draw):
    """(f, n) with p | lead f, p^n <= 243 and f coprime to omega_n."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, {3: 5, 5: 3, 7: 2}[p]))
    deg = draw(st.integers(0, 6))
    low = draw(st.lists(st.integers(-p**3, p**3), min_size=deg, max_size=deg))
    lead = p * draw(st.sampled_from([u for u in range(-p + 1, p) if u]))
    scale = p ** draw(st.integers(0, 2))
    f = IwaPoly(p, tuple(scale * c for c in low + [lead]))
    assume(coprime_to_omega(f, n))
    return f, n


@settings(max_examples=40, deadline=None)
@given(_p_lead_towers())
@example((IwaPoly(3, (3, 1, 2, 0, 9)), 5))  # f(-1) = 13 a unit: reversal
@example((IwaPoly(3, (1, 1, 0, 3)), 5))  # f(-1) = -3 with mu = 0: circulant
@example((IwaPoly(3, (3, 3, 6, 9)), 5))  # mu = 1, f / 3 has f(-1) = -1: reversal
def test_p_lead_snf_oracle_matches_other_routes(case):
    f, n = case
    t = TowerOfQuotients(f)
    routes = (nabla_closed_form, nabla_resultant_oracle, nabla_snf_oracle)
    a, b, c = (route(t, n).value for route in routes)
    assert a == b == c, (f.coeffs, n, a, b, c)


def _clear_level_caches():
    for cached in (kobayashi._resultant_exponent, kobayashi._size_exponent):
        cached.cache_clear()


def test_snf_oracle_builds_no_omega_for_p_lead(monkeypatch):
    def refuse(p, n):
        raise AssertionError(f"omega({p}, {n}) built")

    _clear_level_caches()  # levels cached by an earlier test would skip the route
    monkeypatch.setattr(polyres, "omega", refuse)
    for coeffs, n in (((3, 1, 2, 0, 9), 4), ((1, 1, 0, 3), 4), ((3, 3, 6, 9), 4)):
        t = TowerOfQuotients(IwaPoly(3, coeffs))
        assert nabla_snf_oracle(t, n).value == nabla_closed_form(t, n).value


def test_resultant_oracle_builds_no_omega_above_the_crossover(monkeypatch):
    def refuse(p, n):
        raise AssertionError(f"omega({p}, {n}) built")

    _clear_level_caches()
    monkeypatch.setattr(polyres, "omega", refuse)
    for p, coeffs, n in ((3, (1, 3, 9, 27), 6), (3, (3, 1), 4), (3, (3, 1, 2, 0, 9), 5),
                         (5, (2, 1, 5), 4)):
        f = IwaPoly(p, coeffs)
        assert p ** (n - 1) >= polyres._POWERED_MIN_RATIO * f.degree  # both levels
        t = TowerOfQuotients(f)
        assert nabla_resultant_oracle(t, n).value == nabla_closed_form(t, n).value


@pytest.mark.parametrize("coeffs, n", [
    ((3, 1, 2, 0, 9), 8),
    ((3, 1, 2, 0, 9), 12),  # reversal: 3^12 is past the circulant's size bound
    ((1, 1, 0, 3), 9),  # a 3^9 square circulant
])
def test_p_lead_snf_oracle_past_the_dense_matrix(coeffs, n):
    t = TowerOfQuotients(IwaPoly(3, coeffs))
    assert nabla_snf_oracle(t, n).value == nabla_closed_form(t, n).value


def test_circulant_refuses_above_the_size_bound():
    t = TowerOfQuotients(IwaPoly(3, (1, 1, 0, 3)))  # mu = 0, f(-1) = -3
    with pytest.raises(ValidationError, match="3\\^10 is above 32768"):
        nabla_snf_oracle(t, 10)


def _eliminated(columns, p):
    """The size exponent of a presentation columns(prec), eliminated over
    Z/p^prec with prec doubled from 16 until it finishes, as
    kobayashi._size_exponent does."""
    prec = 16
    while True:
        try:
            return _size(columns(prec), p, prec)
        except PrecisionExhausted:
            prec *= 2


@st.composite
def _content_levels(draw):
    """(f, mu, m) with f = p^mu f0, mu in {1, 2}, f0 of unit content and
    either lead, p^m <= 243 and f coprime to omega_m."""
    p = draw(st.sampled_from((3, 5, 7)))
    m = draw(st.integers(0, {3: 5, 5: 3, 7: 2}[p]))
    deg = draw(st.integers(0, 6))
    low = draw(st.lists(st.integers(-p**3, p**3), min_size=deg, max_size=deg))
    unit = draw(st.sampled_from([u for u in range(-p + 1, p) if u]))
    lead = p ** draw(st.integers(0, 1)) * unit
    f0 = low + [lead]
    assume(math.gcd(*f0) % p)
    mu = draw(st.integers(1, 2))
    f = IwaPoly(p, tuple(p**mu * c for c in f0))
    assume(coprime_to_omega(f, m))
    return f, mu, m


@settings(max_examples=60, deadline=None)
@given(_content_levels())
@example((IwaPoly(3, (3, 3, 0, 9)), 1, 3))  # f / 3 = 1 + X + 3X^3, f(-1) = -3: circulant
@example((IwaPoly(5, (25, 50)), 2, 0))  # f / 25 = 1 + 2X at m = 0: Lambda_0 = Z_p
def test_content_adds_mu_p_m_to_the_size(case):
    # Lambda_m is Z_p-free of rank p^m, so p^mu adds mu p^m to the size
    # exponent of f / p^mu; the p^m square circulant of f itself, the route
    # the content took before it was factored out, stays the oracle.
    f, mu, m = case
    p = f.prime
    f0 = IwaPoly(p, tuple(c // p**mu for c in f.coeffs))
    e = kobayashi._size_exponent.__wrapped__(f, m)
    assert e == mu * p**m + _eliminated(lambda prec: _omega_columns(f0, m, prec), p)
    g = _shift(f.coeffs)
    assert e == _eliminated(lambda prec: _circulant_columns(g, p**m, p**prec), p)


def test_mu_1_tower_past_the_circulant_size_bound(monkeypatch):
    def refuse(g, size, pn):
        raise AssertionError(f"a {size} square circulant built")

    _clear_level_caches()
    monkeypatch.setattr(kobayashi, "_circulant_columns", refuse)
    t = TowerOfQuotients(IwaPoly(3, (3, 3, 6, 9)))
    assert nabla_snf_oracle(t, 12).value == nabla_closed_form(t, 12).value == 354294


def test_constant_p_all_methods():
    t = TowerOfQuotients(IwaPoly.const(3, 3))
    for n in (1, 2):
        expect = totient(3, n)  # ord_eps(p) = phi(p^n)
        assert nabla_closed_form(t, n).value == expect
        assert nabla_resultant_oracle(t, n).value == expect
        assert nabla_snf_oracle(t, n).value == expect


def test_closed_form_with_a_unit_content_forms_no_totient(monkeypatch):
    # with v = 0 the answer is the index i0 alone, and phi(p^n) >= 2^n exceeds
    # deg f, so phi(p^n) is needed neither for the answer nor for a reduction
    totient_of = iwapoly.totient

    def small_totient(p, n):
        if n > 64:
            raise AssertionError(f"phi({p}^{n}) formed")
        return totient_of(p, n)

    monkeypatch.setattr(iwapoly, "totient", small_totient)
    f = IwaPoly(3, (3, 1))
    assert iwapoly.ord_eps(f, 10**9) == 1
    assert nabla_closed_form(TowerOfQuotients(f), 10**9).value == 1
    assert iwapoly.ord_eps(f, 2) == 1


def test_x_is_the_uniformizer():
    t = TowerOfQuotients(IwaPoly(3, (0, 1)))
    assert nabla_closed_form(t, 1).value == 1
    # X divides omega_n, so the quotient tower is infinite for the oracles
    with pytest.raises(NotFinite):
        nabla_resultant_oracle(t, 1)
    with pytest.raises(NotFinite):
        nabla_snf_oracle(t, 1)


def test_phi_divisor_raises():
    f = phi_poly(3, 1) * (IwaPoly(3, (0, 1)) - IwaPoly.const(3, 3))
    t = TowerOfQuotients(f)
    with pytest.raises(PhiDividesF):
        nabla_closed_form(t, 1)
    # closed form still works above the shared level
    assert nabla_closed_form(t, 2).value == 3
    # oracles need full coprimality with omega_n
    with pytest.raises(NotFinite):
        nabla_resultant_oracle(t, 2)
    with pytest.raises(NotFinite):
        nabla_snf_oracle(t, 2)


def test_snf_modulus_grows_past_p128():
    # Lambda/(X + 3^130, omega_1) is finite, but its elementary divisors at
    # level 1 reach past 3^128: the oracle must keep doubling its modulus.
    t = TowerOfQuotients(IwaPoly(3, (3**130, 1)))
    assert nabla_snf_oracle(t, 1).value == nabla_closed_form(t, 1).value == 1


def test_climbing_oracles_compute_each_level_once(monkeypatch):
    # Level n's call reads level n - 1 from the call before it, so climbing
    # n = 1..4 makes one resultant and one elimination per level 0..4.  The
    # resultant is counted at its per-level entry, whichever route it takes:
    # this f divides omega_m for m <= 3 and powers 1 + X at m = 4.
    calls = {"omega_resultant": 0, "elementary_divisor_valuations": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(kobayashi, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(kobayashi, name, counted)
    _clear_level_caches()
    t = TowerOfQuotients(IwaPoly(3, (3, 1, 2, 0, 9)))
    for n in range(1, 5):
        nabla_resultant_oracle(t, n)
        nabla_snf_oracle(t, n)
    assert calls == {"omega_resultant": 5, "elementary_divisor_valuations": 5}
    # the saving is the caches' own: once cleared, a level costs two again
    _clear_level_caches()
    nabla_resultant_oracle(t, 4)
    nabla_snf_oracle(t, 4)
    assert calls == {"omega_resultant": 7, "elementary_divisor_valuations": 7}


@pytest.mark.parametrize("f, top", [
    # (X + 2·3^12)(1 + X): e_4 = 16 and e_5 = 17 need N = 32, e_3 = 15 not
    (IwaPoly(3, (2 * 3**12, 1)) * IwaPoly(3, (1, 1)), 5),
    (IwaPoly(3, (3**130, 1)), 3),  # every level needs N = 256
])
def test_routes_agree_in_either_level_order(f, top):
    # Each level's exponent is exact whatever N finished it, so a level
    # cached by a call above it or below it gives the same values.
    t = TowerOfQuotients(f)
    routes = (nabla_closed_form, nabla_resultant_oracle, nabla_snf_oracle)
    levels = range(1, top + 1)
    by_order = []
    for order in (levels[::-1], levels):
        _clear_level_caches()
        values = {n: [route(t, n).value for route in routes] for n in order}
        by_order.append([values[n] for n in levels])
    assert by_order[0] == by_order[1]
    assert all(a == b == c for a, b, c in by_order[0]), by_order[0]


def test_triple_agreement_random():
    rng = random.Random(17)
    p = 3
    done = 0
    while done < 15:
        coeffs = tuple(rng.randint(-p**6, p**6) for _ in range(rng.randint(1, 11)))
        f = IwaPoly(p, coeffs)
        if not coprime_to_omega(f, 3):
            continue
        done += 1
        t = TowerOfQuotients(f)
        for n in (1, 2, 3):
            a = nabla_closed_form(t, n).value
            b = nabla_resultant_oracle(t, n).value
            c = nabla_snf_oracle(t, n).value
            assert a == b == c, (coeffs, n, a, b, c)


@pytest.mark.parametrize("coeffs, expect", [
    ((10, 7, 1), 1),
    ((375, 5, 1), 2),
    ((25, 0, 0, 1), 3),
])
def test_three_routes_agree_at_p5_level_4(coeffs, expect):
    # Z[X]/omega_4 has rank 625 at p = 5: the elimination route must stay
    # cheap enough for this to be a unit test.
    t = TowerOfQuotients(IwaPoly(5, coeffs))
    routes = (nabla_closed_form, nabla_resultant_oracle, nabla_snf_oracle)
    assert [route(t, 4).value for route in routes] == [expect] * 3


@pytest.mark.parametrize("route", [nabla_closed_form, nabla_resultant_oracle,
                                   nabla_snf_oracle])
def test_routes_refuse_level_0(route):
    with pytest.raises(ValidationError, match="n must be >= 1"):
        route(TowerOfQuotients(IwaPoly(3, (1, 1))), 0)


def test_asymptotic():
    assert nabla_asymptotic(WeierstrassData(1, 2), 3, 2) == 8
    assert nabla_asymptotic(WeierstrassData(0, 5), 3, 4) == 5
    with pytest.raises(ValidationError):
        nabla_asymptotic(WeierstrassData(0, 0), 3, 0)


def test_asymptotic_matches_closed_form_for_stable_f():
    # f = p * X^2 * unit has mu=1, lambda=2; stable once phi(p^n) > lambda
    f = IwaPoly(3, (0, 0, 3, 3 * 7))
    t = TowerOfQuotients(f)
    for n in (2, 3, 4):
        assert nabla_closed_form(t, n).value == \
            nabla_asymptotic(WeierstrassData(1, 2), 3, n)


def test_finite_tower_differences():
    results = nabla_finite_tower([0, 2, 5, 9])
    assert [r.value for r in results] == [2, 3, 4]
    assert [r.n for r in results] == [1, 2, 3]
    assert all(r.method == "finite_tower" for r in results)
