import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iwagrowth.errors import NotFinite, PhiDividesF, PrecisionExhausted, ValidationError
from iwagrowth.iwapoly import IwaPoly, WeierstrassData, coprime_to_omega, omega, phi_poly, totient
from iwagrowth.kobayashi import (
    TowerOfQuotients,
    _omega_columns,
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


class TestElementaryDivisors:
    def test_diagonal(self):
        vals = elementary_divisor_valuations([[9, 0], [0, 3]], 3, 8)
        assert sorted(vals) == [1, 2]

    def test_row_operations_invariant(self):
        a = [[9, 0], [9, 3]]
        assert sorted(elementary_divisor_valuations(a, 3, 8)) == [1, 2]

    def test_redundant_generators(self):
        # columns of [3] and [9] generate 3Z: one divisor of valuation 1
        vals = elementary_divisor_valuations([[3], [9]], 3, 8)
        assert vals == [1]

    def test_infinite_cokernel(self):
        with pytest.raises((NotFinite, PrecisionExhausted)):
            elementary_divisor_valuations([[1, 0], [2, 0]], 3, 8)

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            elementary_divisor_valuations([[81]], 3, 2)


def _outcome(cols, p, prec):
    try:
        return sorted(elementary_divisor_valuations(cols, p, prec))
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
    base = _outcome(rows, p, prec - c)
    expect = base if base == "exhausted" else [v + c for v in base]
    assert _outcome(scaled, p, prec) == expect


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
# With p | lead the kernel multiplies by f on Z[X]/omega_m, and its Horner
# reduces f mod omega_m once deg f >= p^m.
@example((IwaPoly(3, (3, 1, 3)), 1))  # p | lead, deg f = p^m - 1: no reduction
@example((IwaPoly(3, (1, 0, 0, 3)), 1))  # p | lead, deg f = p^m: one reduction
@example((IwaPoly(3, (3, 1) + (0,) * 8 + (3,)), 2))  # p | lead, deg f = 10 > p^m = 9
@example((IwaPoly(5, (9, 25)), 0))  # unit constant, p | lead at m = 0: f(0)
def test_omega_columns_match_f_columns(case):
    # Both presentations have cokernel Lambda/(f, omega_m), so they share
    # their non-unit elementary divisors; their sizes differ by unit ones.
    f, m = case
    p, prec = f.prime, 24
    dense = _outcome(_f_columns(f, m), p, prec)
    small = _outcome(_omega_columns(f, m, prec), p, prec)
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
    omega_m: multiplication by f on Z_p[X]/(omega_m), banded up to the rows
    where X^j f wraps round omega_m.  p^m <= 9 keeps sympy's Smith form
    fast; at 25 and 27 it sometimes runs for seconds."""
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
@example((IwaPoly(3, (9, 1, 3)), 2), 8, None)  # unit-free constant term: rank > 0
@example((IwaPoly(3, (81, 0, 3)), 1), 2, None)  # a divisor reaching p^prec
def test_p_lead_divisors_match_sympy_smith_form(case, prec, rng):
    # The pivot rows of this banded matrix are sparse, and only their
    # nonzero columns are updated: the divisors must still be the exact ones.
    # Shuffling rows and columns keeps the divisors and moves the pivots.
    f, m = case
    cols = _omega_columns(f, m, prec)
    assert len(cols) == f.prime**m
    if rng is not None:
        order = list(range(len(cols)))
        rng.shuffle(order)
        cols = [[row[j] for j in order] for row in cols]
        rng.shuffle(cols)
    assert _outcome(cols, f.prime, prec) == _sympy_outcome(cols, f.prime, prec)


def test_constant_p_all_methods():
    t = TowerOfQuotients(IwaPoly.const(3, 3))
    for n in (1, 2):
        expect = totient(3, n)  # ord_eps(p) = phi(p^n)
        assert nabla_closed_form(t, n).value == expect
        assert nabla_resultant_oracle(t, n).value == expect
        assert nabla_snf_oracle(t, n).value == expect


def test_x_is_the_uniformizer():
    t = TowerOfQuotients(IwaPoly.x(3))
    assert nabla_closed_form(t, 1).value == 1
    # X divides omega_n, so the quotient tower is infinite for the oracles
    with pytest.raises(NotFinite):
        nabla_resultant_oracle(t, 1)
    with pytest.raises(NotFinite):
        nabla_snf_oracle(t, 1)


def test_phi_divisor_raises():
    f = phi_poly(3, 1) * (IwaPoly.x(3) - IwaPoly.const(3, 3))
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
