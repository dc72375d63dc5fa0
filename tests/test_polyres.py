import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from iwagrowth.errors import ValidationError
from iwagrowth.iwapoly import omega
from iwagrowth.polyres import _omega_prem, _prem, omega_resultant, resultant, resultant_bareiss


def ref_resultant(f, g):
    """Res(f, g) = lc(f)^deg g * prod g(root_i) via the product formula over
    the roots of f, computed symbolically through sympy for small cases."""
    import sympy

    x = sympy.symbols("x")
    fp = sympy.Poly(list(reversed(f)), x)
    gp = sympy.Poly(list(reversed(g)), x)
    # sympy's convention can differ in sign; compare absolute values
    return int(sympy.resultant(fp, gp))


def test_constants():
    assert resultant([5], [0, 0, 1]) == 25
    assert resultant([0, 1], [3]) == 3
    assert resultant([], [1, 1]) == 0
    assert omega_resultant([], 3, 2) == 0  # the zero f, on the powered route


def test_common_root_gives_zero():
    # x - 2 divides both
    f = [-2, 1]
    g = [2, -3, 1]  # (x-1)(x-2)
    assert resultant(f, g) == 0
    assert resultant_bareiss(f, g) == 0


def test_known_value():
    # Res(x^2+1, x^2-1) = 4
    assert resultant([1, 0, 1], [-1, 0, 1]) == 4


def test_product_formula_linear():
    # Res(x-a, g) = g(a) for monic linear f
    g = [7, -2, 0, 5]
    for a in range(-3, 4):
        gval = sum(c * a**i for i, c in enumerate(g))
        assert resultant([-a, 1], g) == gval


coeffs = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs)
@example([1, 0, 1], [0, 1])  # zero pivot: Bareiss swaps rows (Res = 1)
@example([2, 0, 0, 1], [0, 3])  # and again (Res = -54)
def test_prs_equals_bareiss(f, g):
    assert resultant(f, g) == resultant_bareiss(f, g)


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs)
def test_swap_symmetry(f, g):
    df = len([c for c in f])
    r1 = resultant(f, g)
    r2 = resultant(g, f)
    assert abs(r1) == abs(r2)
    assert r1 in (r2, -r2)


def test_matches_sympy_up_to_sign():
    rng = random.Random(11)
    for _ in range(25):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        ours = resultant(f, g)
        assert abs(ours) == abs(ref_resultant(f, g))


def test_multiplicativity():
    rng = random.Random(3)
    for _ in range(10):
        f = [rng.randint(-5, 5) for _ in range(4)] + [1]
        g = [rng.randint(-5, 5) for _ in range(3)] + [1]
        h = [rng.randint(-5, 5) for _ in range(3)] + [1]
        gh = [0] * (len(g) + len(h) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                gh[i + j] += a * b
        # f monic: Res(f, gh) = Res(f, g) Res(f, h)
        assert resultant(f, gh) == resultant(f, g) * resultant(f, h)


def test_large_degree_runs():
    rng = random.Random(5)
    f = [rng.randint(-100, 100) for _ in range(80)] + [1]
    g = [rng.randint(-100, 100) for _ in range(60)] + [1]
    r = resultant(f, g)
    assert isinstance(r, int) and math.gcd(r, 1) == 1


def _prem_by_fractions(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b by long division over Q."""
    e = len(a) - len(b) + 1
    r = [Fraction(b[-1] ** max(e, 0) * c) for c in a]
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(b):
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        while r and r[-1] == 0:
            r.pop()
    assert all(c.denominator == 1 for c in r)
    return [int(c) for c in r]


# Mostly zeros, so that a has runs of zero middle coefficients.
sparse_coeff = st.one_of(st.just(0), st.integers(-40, 40))
# deg a up to 90 (a = 0 included) against deg b at most 6, whose leading
# coefficient is +-1, a multiple of p = 3 or a composite.
long_a = st.one_of(
    st.just([]),
    st.tuples(st.lists(sparse_coeff, max_size=90), st.integers(1, 40) | st.integers(-40, -1))
    .map(lambda t: t[0] + [t[1]]),
)
short_b = st.tuples(st.lists(sparse_coeff, max_size=6),
                    st.sampled_from((1, -1, 3, -9, 6, 10, -12))).map(lambda t: t[0] + [t[1]])


@settings(max_examples=80, deadline=None)
@given(long_a, short_b)
@example([], [1, 1])  # a = 0
@example([5, 7], [1, 2, 0, 3])  # deg a < deg b
@example([1] + [0] * 80 + [2], [0, 0, 6])  # zero middle coefficients, lc(b) = 6
def test_prem_is_the_scaled_remainder_on_unbalanced_pairs(a, b):
    assert _prem(a, b) == _prem_by_fractions(a, b)


@settings(max_examples=25, deadline=None)
@given(long_a, short_b)
@example([1] + [0] * 80 + [1], [3, 0, 0, 3])  # lc(b) = p: a is scaled by 3^79
def test_prs_equals_bareiss_on_unbalanced_pairs(a, b):
    assert resultant(a, b) == resultant_bareiss(a, b)
    assert resultant(b, a) == resultant_bareiss(b, a)


@st.composite
def f_and_level(draw):
    """(f, p, n): deg f from 0 to 10, lc +-1, a multiple of p or negative,
    and p^n at most 729, on both sides of omega_resultant's crossover."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    n = draw(st.integers(0, {3: 6, 5: 4, 7: 3, 11: 2}[p]))
    lc = draw(st.sampled_from((1, -1, p, -p, 2 * p, -2)))
    return draw(st.lists(sparse_coeff, max_size=10)) + [lc], p, n


@settings(max_examples=80, deadline=None)
@given(f_and_level())
@example(([4, 3], 3, 3))  # d = 1: Q_1 = L - f_0 = -1, powered
@example(([5, -3], 3, 1))  # d = 1 below the crossover
@example(([1, 2, 0, 0, 0, 0, 0, 0, 0, 0, -3], 3, 2))  # d = 10 >= p^n = 9
@example(([2, 0, 0, 7], 7, 0))  # d = 3 >= p^0 = 1: omega_0 = X
@example(([0, 5, 1], 5, 3))  # f(0) = 0: Res = 0
@example(([1, 0, 2, 3], 3, 4))  # lc = p, powered: 81 >= 16 * 3
@example(([1, 3, 9, 27], 3, 4))  # lc = p^3 at d = 3, powered: each product divided by 27^2
@example(([5, 1, 2, 0, 25], 5, 3))  # lc = p^2 at d = 4, powered: 125 >= 16 * 4
@example(([2, 1, 0, 0, 0, 0, 1, -6], 5, 1))  # d = 7 > p^n + 1, lc = -6: Q_5 / L^5
def test_powered_remainder_and_resultant_equal_omegas(case):
    f, p, n = case
    om = list(omega(p, n).coeffs)
    assert _omega_prem(f, p, n) == _prem(om, f)
    assert omega_resultant(f, p, n) == resultant(f, om)


def test_omega_resultant_refuses_as_omega_does():
    # 3^10 is past the size bound; the powered route would answer
    for call in (lambda: omega(3, 10), lambda: omega_resultant([3, 1], 3, 10)):
        with pytest.raises(ValidationError, match="above 32768"):
            call()
