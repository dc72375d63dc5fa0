from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from iwagrowth.errors import NonUnit, ValidationError
from iwagrowth.padic import (
    DEFAULT_PRECISION,
    INF,
    PRIMALITY_BOUND,
    ExtendedRational,
    PadicUnit,
    int_valuation,
    is_odd_prime,
    unit_from_int,
)


def test_is_odd_prime():
    assert [q for q in range(20) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19]
    # only an int is a prime: 3.0 == 3, and a float past the bound is no prime either
    assert not any(map(is_odd_prime, (3.0, 5.0, True, "3", 1e30)))


def test_is_odd_prime_matches_sympy_below_10_5():
    import sympy

    assert ([q for q in range(10**5) if is_odd_prime(q)]
            == [q for q in range(3, 10**5) if sympy.isprime(q)])


@pytest.mark.parametrize("q", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to the primes up to 23
    318665857834031151167461,  # strong pseudoprime to the primes up to 37
])
def test_is_odd_prime_rejects_strong_pseudoprimes(q):
    assert not is_odd_prime(q)


@pytest.mark.parametrize("q", [2**31 - 1, 2**61 - 1])
def test_is_odd_prime_accepts_mersenne_primes(q):
    assert is_odd_prime(q)


def test_is_odd_prime_refuses_p_past_its_bound():
    assert PRIMALITY_BOUND == 3317044064679887385961981
    with pytest.raises(ValidationError, match=str(PRIMALITY_BOUND)):
        is_odd_prime(2**89 - 1)


def test_int_valuation():
    assert int_valuation(45, 3) == 2
    assert int_valuation(-45, 3) == 2
    assert int_valuation(7, 3) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 3)


@given(st.sampled_from((3, 5, 7, 11)), st.integers(0, 700),
       st.integers(-10**6, 10**6).filter(bool))
@example(3, 16, 2)  # the last valuation of one division a step
@example(3, 17, -2)
@example(7, 343, 38)  # v = 343, as in ord_7 Res(7 (3 + 5X), omega_3)
def test_int_valuation_by_powers_matches_one_division_a_step(p, v, unit):
    """Past a small valuation int_valuation divides by p^(2^j): it agrees
    with dividing by p once a step, also when the drawn unit is itself a
    multiple of p."""
    n = rest = p**v * unit
    plain = 0
    while rest % p == 0:
        rest //= p
        plain += 1
    assert int_valuation(n, p) == plain


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

    def test_equal_values_hash_equal(self):
        assert hash(ExtendedRational(2)) == hash(ExtendedRational(Fraction(4, 2)))
        table = {INF: "inf", ExtendedRational(2): "two"}
        assert table[ExtendedRational.infinity()] == "inf"
        assert table[ExtendedRational(Fraction(4, 2))] == "two"
        assert len({INF, ExtendedRational.infinity(), ExtendedRational(2)}) == 2

    def test_repr(self):
        assert repr(INF) == "ExtendedRational('inf')"
        assert repr(ExtendedRational(Fraction(-7, 9))) == "ExtendedRational('-7/9')"


class TestPadicUnit:
    def test_residue_is_reduced(self):
        u = PadicUnit(3, -1, 4)
        assert u.residue == 80 and u.precision == 4
        assert unit_from_int(161, 3, 4) == u
        assert unit_from_int(5, 7).precision == DEFAULT_PRECISION

    def test_validation(self):
        with pytest.raises(ValidationError, match="4 is not an odd prime"):
            PadicUnit(4, 1, 8)
        with pytest.raises(ValidationError, match="precision must be positive"):
            PadicUnit(3, 1, 0)
        with pytest.raises(ValidationError, match="unit part must be invertible mod p"):
            PadicUnit(3, 3, 8)

    def test_unit_from_int_rejects_multiples_of_p(self):
        with pytest.raises(NonUnit, match="6 is divisible by 3"):
            unit_from_int(6, 3)

    @pytest.mark.parametrize("u, p, precision", [
        (1, 0, 8), (8, 4, 8), (6, 4, 8), (9, 9, 8), (4, 2, 8), (5, -3, 8),
        (3, 3, 0), (1, 3, -1),
    ])
    def test_unit_from_int_checks_prime_and_precision_first(self, u, p, precision):
        with pytest.raises(ValidationError):
            unit_from_int(u, p, precision)
