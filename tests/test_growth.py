import random

import pytest
from hypothesis import given, settings, strategies as st

from iwagrowth.errors import InfiniteTerm, NotAvZero, ValidationError
from iwagrowth.growth import (
    GrowthScenario,
    SsPrime,
    av_zero_closed_form,
    exceeds_digits,
    s_term,
    sha_delta,
    sha_table,
    t_term,
    validate_scenario,
)
from iwagrowth.iwapoly import totient
from iwagrowth.kobayashi import nabla_finite_tower
from iwagrowth.logmat import FLAT, SHARP, LocalCurveData, valuation_matrix


def one_prime(p, degree=1, a_v=0, **kw):
    return GrowthScenario(p, (SsPrime(degree, a_v),), **kw)


class TestScenario:
    def test_vector_length_checked(self):
        with pytest.raises(ValidationError):
            one_prime(3, sigma=("flat", "flat"))

    def test_vector_entries_checked(self):
        with pytest.raises(ValidationError):
            one_prime(3, sigma=("neutral",))

    def test_negative_invariants_rejected(self):
        with pytest.raises(ValidationError):
            one_prime(3, mu_sigma=-1)

    def test_json_round_trip(self):
        sc = GrowthScenario(3, (SsPrime(2, 0), SsPrime(1, 3)), sigma=None,
                            tau=("sharp", "sharp"), mu_sigma=1, lambda_sigma=2,
                            r_inf=1, base_n0=1, base_e0=4)
        assert GrowthScenario.from_json(sc.to_json()) == sc

    def test_default_signs(self):
        sc = one_prime(3)
        assert sc.signs(1) == sc.signs(7) == ("flat",)
        assert sc.signs(2) == sc.signs(8) == ("sharp",)

    def test_places_built_once_per_level(self, monkeypatch):
        from iwagrowth import growth

        built = []

        def counting(p, a_v):
            built.append((p, a_v))
            return LocalCurveData(p, a_v)

        monkeypatch.setattr(growth, "LocalCurveData", counting)
        sc = GrowthScenario(3, (SsPrime(1, 0), SsPrime(2, 3)))
        sha_table(sc, 4)
        sha_delta(sc, 5)
        s_term(sc, 3)
        t_term(sc, 6)
        validate_scenario(sc)
        assert built == [(3, 0), (3, 3)]  # once per place for the whole scenario


class TestTerms:
    def test_s_term_values(self):
        assert s_term(one_prime(3, degree=2), 3) == 12
        assert s_term(one_prime(3), 1) == 0
        assert s_term(one_prime(3, a_v=3, sigma=("sharp",)), 3) == 20

    def test_t_term_values(self):
        assert t_term(one_prime(3), 2) == 2
        assert t_term(one_prime(3, degree=2), 4) == 40

    def test_parity_preconditions(self):
        with pytest.raises(ValidationError):
            s_term(one_prime(3), 2)
        with pytest.raises(ValidationError):
            t_term(one_prime(3), 3)

    def test_infinite_term(self):
        with pytest.raises(InfiniteTerm):
            t_term(one_prime(3, tau=("flat",)), 2)
        with pytest.raises(InfiniteTerm):
            s_term(one_prime(3, sigma=("sharp",)), 1)

    def test_empty_places_rejected(self):
        with pytest.raises(ValidationError):
            s_term(GrowthScenario(3, ()), 1)


class TestClosedForm:
    def test_values(self):
        assert av_zero_closed_form(one_prime(3, degree=2), 3) == 12
        assert av_zero_closed_form(one_prime(3), 2) == 2
        assert av_zero_closed_form(one_prime(3), 1) == 0

    def test_requires_av_zero(self):
        with pytest.raises(NotAvZero):
            av_zero_closed_form(one_prime(3, a_v=3), 3)

    def test_matches_terms_on_grid(self):
        rng = random.Random(2)
        for p in (3, 5, 7):
            for _ in range(3):
                places = tuple(SsPrime(rng.randint(1, 5), 0)
                               for _ in range(rng.randint(1, 3)))
                sc = GrowthScenario(p, places)
                for n in range(1, 10):
                    term = s_term(sc, n) if n % 2 else t_term(sc, n)
                    assert term == av_zero_closed_form(sc, n)

    def test_staircase_strictly_increasing(self):
        sc = one_prime(3, degree=2)
        odd = [s_term(sc, n) for n in (1, 3, 5, 7, 9)]
        even = [t_term(sc, n) for n in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(odd, odd[1:]))
        assert all(a < b for a, b in zip(even, even[1:]))


class TestShaDelta:
    def test_worked_scenario(self):
        sc = one_prime(3, degree=2, mu_sigma=0, lambda_sigma=5, r_inf=2)
        assert sha_delta(sc, 3) == 15

    def test_trivial_and_mu_cases(self):
        assert sha_delta(one_prime(3), 1) == 0
        assert sha_delta(one_prime(3, mu_tau=1), 2) == 2 + totient(3, 2)

    def test_r_inf_shifts_by_constant(self):
        base = one_prime(3, degree=2, lambda_sigma=5, lambda_tau=5)
        shifted = one_prime(3, degree=2, lambda_sigma=5, lambda_tau=5, r_inf=3)
        for n in (1, 2, 3, 4):
            assert sha_delta(base, n) - sha_delta(shifted, n) == 3


class TestTable:
    def worked(self):
        return one_prime(3, degree=2, mu_sigma=0, lambda_sigma=5,
                         mu_tau=0, lambda_tau=5, r_inf=2, base_n0=0, base_e0=0)

    def test_prefix_sums(self):
        rows = sha_table(self.worked(), 5)
        cum = 0
        for r in rows:
            cum += r.delta
            assert r.cumulative == cum
        assert rows[2].n == 3 and rows[2].delta == 15

    def test_round_trip_with_finite_tower(self):
        sc = self.worked()
        rows = sha_table(sc, 5)
        sizes = [sc.base_e0] + [r.cumulative for r in rows]
        assert [x.value for x in nabla_finite_tower(sizes)] == [r.delta for r in rows]

    def test_anchor_below_n_max_required(self):
        sc = one_prime(3, base_n0=4)
        with pytest.raises(ValidationError):
            sha_table(sc, 3)
        assert sha_table(one_prime(3, base_n0=4, base_e0=0), 4) == []

    def test_negative_cumulative_flagged(self):
        sc = one_prime(3, r_inf=5, base_n0=0, base_e0=0)
        rows = sha_table(sc, 1)
        assert rows[0].cumulative < 0 and rows[0].warning


def test_table_rows_agree_with_the_per_level_api():
    # seeded p = 3 scenarios: every row of the one-pass table is the level's
    # sha_delta and S or T, and an inconsistent sign stops the table at the
    # level where the per-level API raises, with the same text
    rng = random.Random(20)
    finished = stopped = 0
    for _ in range(60):
        places = tuple(SsPrime(rng.randint(1, 6), rng.choice((0, 3, -3)))
                       for _ in range(rng.randint(1, 3)))

        def vec():
            return None if rng.random() < 0.4 else tuple(
                rng.choice(("sharp", "flat")) for _ in places)

        sc = GrowthScenario(3, places, sigma=vec(), tau=vec(),
                            mu_sigma=rng.randint(0, 2), lambda_sigma=rng.randint(0, 9),
                            mu_tau=rng.randint(0, 2), lambda_tau=rng.randint(0, 9),
                            r_inf=rng.randint(0, 6), base_n0=rng.randint(0, 3),
                            base_e0=rng.randint(0, 40))
        n_max = sc.base_n0 + 6
        levels = []
        for n in range(sc.base_n0 + 1, n_max + 1):
            try:
                term = s_term(sc, n) if n % 2 == 1 else t_term(sc, n)
                levels.append((n, term, sha_delta(sc, n)))
            except InfiniteTerm as exc:
                with pytest.raises(InfiniteTerm) as caught:
                    sha_table(sc, n_max)
                assert str(caught.value) == str(exc)
                assert len(sha_table(sc, n - 1)) == len(levels)
                stopped += 1
                break
        else:
            rows = sha_table(sc, n_max)
            assert [(r.n, r.s_or_t, r.delta) for r in rows] == levels
            assert all(r.delta == r.s_or_t + r.phi_mu + r.lam - r.r_inf for r in rows)
            finished += 1
    assert finished and stopped


def test_deltas_match_the_computed_valuation_tables():
    # sha_delta sums the closed-form parity tails; here each place's term is
    # read off the valuation table computed from H instead, in the column of
    # its sign.  A default sign is the column with the smaller computed
    # entry, and InfiniteTerm must be raised exactly where a selected entry
    # is infinite.
    rng = random.Random(21)
    tables = {}
    finite = infinite = 0
    for _ in range(60):
        places = tuple(SsPrime(rng.randint(1, 6), rng.choice((0, 3, -3)))
                       for _ in range(rng.randint(1, 3)))

        def vec():
            return None if rng.random() < 0.4 else tuple(
                rng.choice((SHARP, FLAT)) for _ in places)

        sc = GrowthScenario(3, places, sigma=vec(), tau=vec(),
                            mu_sigma=rng.randint(0, 2), lambda_sigma=rng.randint(0, 9),
                            mu_tau=rng.randint(0, 2), lambda_tau=rng.randint(0, 9),
                            r_inf=rng.randint(0, 6))
        for n in range(1, 8):
            phi = totient(3, n)
            explicit = sc.sigma if n % 2 == 1 else sc.tau
            term, selected_inf = 0, False
            for i, w in enumerate(places):
                if (w.a_v, n) not in tables:
                    tables[w.a_v, n] = valuation_matrix(LocalCurveData(3, w.a_v), n)
                row = tables[w.a_v, n].entries[0]
                if explicit is None:
                    assert row[0] != row[1]
                    entry = min(row)
                else:
                    entry = row[0 if explicit[i] == SHARP else 1]
                if entry.is_infinite:
                    selected_inf = True
                else:
                    term += w.degree * phi * entry.value
            mu, lam = (sc.mu_sigma, sc.lambda_sigma) if n % 2 else (sc.mu_tau, sc.lambda_tau)
            if selected_inf:
                with pytest.raises(InfiniteTerm):
                    sha_delta(sc, n)
                infinite += 1
            else:
                assert sha_delta(sc, n) == term + phi * mu + lam - sc.r_inf
                finite += 1
    assert (finite, infinite) == (354, 66)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]),
       st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=40))
def test_digit_bound_is_sound_and_fires_within_one_level(p, degrees, base_n0, digits):
    # exceeds_digits may claim an unprintable table only when its last row's
    # S_or_T really has more digits than the limit, and it claims one at the
    # latest one level after S_or_T first has.  With a_v = 0 and default
    # signs, S_or_T is D*O(n) itself, the bound's tightest case.
    sc = GrowthScenario(p, tuple(SsPrime(d, 0) for d in degrees), base_n0=base_n0)
    terms = [0] + [r.s_or_t for r in sha_table(sc, base_n0 + 119)]
    last = None
    for n, term in enumerate(terms, base_n0):
        if exceeds_digits(sc, n, digits):
            assert len(str(term)) > digits
        elif last is not None:
            assert n - last < 1
        if last is None and len(str(term)) > digits:
            last = n
    assert last is not None


def test_digit_bound_needs_no_power_of_p():
    sc = one_prime(3, degree=2)
    assert exceeds_digits(sc, 10**9, 4300)
    assert exceeds_digits(sc, 10**400, 640)
    assert not exceeds_digits(sc, 10**9, 0)  # 0 means no limit
    assert not exceeds_digits(one_prime(3, base_n0=10**9), 10**9, 640)  # an empty table
    with pytest.raises(InfiniteTerm):
        exceeds_digits(one_prime(3, sigma=("sharp",)), 10**9, 640)
    with pytest.raises(InfiniteTerm):  # the first even level, after an odd one
        exceeds_digits(one_prime(3, base_n0=4, tau=("flat",)), 10**9, 640)
    assert not exceeds_digits(one_prime(3, base_n0=4, tau=("flat",)), 5, 640)


def test_digit_bound_fires_one_level_after_the_last_printable_row():
    # S_or_T has 4300 digits at level 9013 and 4301 at 9014, where the bound's
    # logarithm first passes 4300 (it reads 4299.94 at 9013)
    sc = one_prime(3, degree=2)
    assert not exceeds_digits(sc, 9013, 4300)
    assert exceeds_digits(sc, 9014, 4300)


class TestValidateScenario:
    def test_weil_violation(self):
        rep = validate_scenario(one_prime(5, a_v=5))
        assert not rep.ok and any("Weil" in v for v in rep.violations)

    def test_defaults_reported(self):
        rep = validate_scenario(one_prime(3))
        assert rep.ok
        assert rep.default_sigma == ("flat",)
        assert rep.default_tau == ("sharp",)

    def test_empty_places(self):
        rep = validate_scenario(GrowthScenario(3, ()))
        assert not rep.ok

    def test_inconsistent_signature(self):
        rep = validate_scenario(one_prime(3, tau=("flat",)))
        assert not rep.ok


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7]),
       st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=9))
def test_terms_always_integers(p, degrees, n):
    sc = GrowthScenario(p, tuple(SsPrime(d, 0) for d in degrees))
    value = s_term(sc, n) if n % 2 else t_term(sc, n)
    assert isinstance(value, int) and value >= 0
