from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from iwagrowth.errors import (
    DivisionByZero,
    IndeterminateValuation,
    NonUnit,
    ValidationError,
)
from iwagrowth.padic import (
    INF,
    ExtendedRational,
    PadicNumber,
    int_valuation,
    is_odd_prime,
    unit_from_int,
)


def test_is_odd_prime():
    assert [q for q in range(20) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19]


def test_int_valuation():
    assert int_valuation(45, 3) == 2
    assert int_valuation(-45, 3) == 2
    assert int_valuation(7, 3) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 3)


class TestExtendedRational:
    def test_ordering(self):
        assert ExtendedRational(Fraction(1, 3)) < ExtendedRational(1) < INF
        assert not INF < INF
        assert INF == ExtendedRational.infinity()

    def test_infinity_absorbs_addition(self):
        assert (INF + ExtendedRational(5)).is_infinite
        assert (ExtendedRational(5) + INF).is_infinite

    def test_compares_only_with_numbers(self):
        assert ExtendedRational(1) == 1
        assert ExtendedRational(1) == Fraction(2, 2)
        assert ExtendedRational(Fraction(1, 2)) < 1
        assert INF != None  # noqa: E711
        assert ExtendedRational(1) != "1"
        assert ExtendedRational(1) != "a"
        assert ExtendedRational(1) != 1.0
        with pytest.raises(TypeError):
            ExtendedRational(1) < "2"
        with pytest.raises(TypeError):
            INF + None

    def test_json_round_trip(self):
        assert INF.to_json() == "inf"
        assert ExtendedRational(Fraction(-7, 9)).to_json() == "-7/9"
        assert ExtendedRational(4).to_json() == "4"


class TestPadicNumber:
    def test_from_int(self):
        a = PadicNumber.from_int(18, 3)
        assert a.valuation == 2 and a.unit == 2

    def test_from_rational(self):
        a = PadicNumber.from_rational(Fraction(2, 9), 3, precision=4)
        assert a.valuation == -2 and a.unit == 2
        b = PadicNumber.from_rational(Fraction(1, 2), 3, precision=2)
        assert (2 * b.unit) % 9 == 1

    def test_exact_zero(self):
        z = PadicNumber.zero(3)
        assert z.is_zero and z.ord().is_infinite
        assert (z + PadicNumber.from_int(5, 3)).unit == 5

    def test_addition_tracks_cancellation(self):
        a = PadicNumber.from_int(1, 3, precision=5)
        b = PadicNumber.from_int(8, 3, precision=5)
        s = a + b
        assert s.valuation == 2 and s.unit == 1
        # cancellation eats two digits of relative precision
        assert s.precision == 3

    def test_indeterminate_on_full_cancellation(self):
        a = PadicNumber.from_int(1, 3, precision=2)
        b = PadicNumber.from_int(-1 + 27, 3, precision=2)
        with pytest.raises(IndeterminateValuation):
            a + b

    def test_inverse(self):
        a = PadicNumber.from_int(6, 3, precision=4)
        inv = a.inverse()
        assert inv.valuation == -1
        assert (a * inv).unit == 1

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            PadicNumber.zero(3).inverse()

    def test_unit_residue_requires_unit(self):
        with pytest.raises(NonUnit):
            PadicNumber.from_int(3, 3).unit_residue()
        with pytest.raises(NonUnit):
            unit_from_int(6, 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PadicNumber(4, 0, 1, 8)
        with pytest.raises(ValidationError):
            PadicNumber(3, 0, 3, 8)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_multiplication_matches_integers(a, b):
    p = 5
    x = PadicNumber.from_int(a, p)
    y = PadicNumber.from_int(b, p)
    z = PadicNumber.from_int(a * b, p)
    prod = x * y
    assert prod.valuation == z.valuation
    assert (prod.unit - z.unit) % p**prod.precision == 0


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6))
def test_addition_matches_integers(a, b):
    p = 7
    x = PadicNumber.from_int(a, p)
    y = PadicNumber.from_int(b, p)
    try:
        s = x + y
    except IndeterminateValuation:
        # only possible when the integer sum is 0 beyond precision
        assert int_valuation(a + b, p) >= 1 if a + b else True
        return
    z = PadicNumber.from_int(a + b, p)
    assert s.valuation == z.valuation
    if not s.is_zero:
        assert (s.unit - z.unit) % p**s.precision == 0
