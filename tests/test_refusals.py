"""Refusals at the edge of each public entry point: a level below its floor,
a bad modulus, division by zero, the value of infinity, an empty prime list
and a float or bool where an integer belongs each raise their documented
error, not a wrong answer."""

import pytest

from iwagrowth import growth, iwapoly, kobayashi, lattice, logmat
from iwagrowth.errors import ValidationError
from iwagrowth.iwapoly import (IwaPoly, WeierstrassData, coprime_to_omega, omega, ord_eps, phi_poly,
                               totient)
from iwagrowth.padic import INF, ExtendedRational, PadicUnit, require_odd_prime, unit_from_int
from iwagrowth.polyres import omega_resultant, resultant, resultant_bareiss
from iwagrowth.selfcheck import run_selfcheck

ONE = IwaPoly(3, (1,))
CURVE = logmat.LocalCurveData(3, 3)
PAIR = lattice.LatticePair(ONE, ONE)
SCENARIO = growth.GrowthScenario(3, (growth.SsPrime(2, 0),))
TOWER = kobayashi.TowerOfQuotients(ONE)

REFUSALS = {
    "omega": (lambda: omega(3, -1), ValidationError, "n must be >= 0"),
    "omega_resultant": (lambda: omega_resultant([3, 1], 3, -1), ValidationError,
                        "n must be >= 0"),
    "phi_poly": (lambda: phi_poly(3, 0), ValidationError, "n must be >= 1"),
    "ord_eps": (lambda: ord_eps(ONE, 0), ValidationError, "n must be >= 1"),
    "coprime_to_omega": (lambda: coprime_to_omega(ONE, -1), ValidationError, "n must be >= 0"),
    "c_matrix": (lambda: logmat.c_matrix(CURVE, 0), ValidationError, "n must be >= 1"),
    "h_entries": (lambda: logmat.h_entries(CURVE, -1), ValidationError, "n must be >= 0"),
    "cross_identity_check": (lambda: logmat.cross_identity_check(CURVE, 0), ValidationError,
                             "n must be >= 1"),
    "h_matrix": (lambda: logmat.h_matrix(CURVE, -1), ValidationError, "n must be >= 0"),
    "m_matrix": (lambda: logmat.m_matrix(CURVE, 0), ValidationError, "n must be >= 1"),
    "det_structure_check": (lambda: logmat.det_structure_check(CURVE, 0), ValidationError,
                            "n must be >= 1"),
    "valuation_matrix": (lambda: logmat.valuation_matrix(CURVE, 0), ValidationError,
                         "n must be >= 1"),
    "signature": (lambda: logmat.signature(CURVE, 0), ValidationError, "n must be >= 1"),
    "h_u_map": (lambda: lattice.h_u_map(PAIR, CURVE, 0, 1), ValidationError, "n must be >= 1"),
    "witness": (lambda: lattice.witness(CURVE, 0, 1), ValidationError, "n must be >= 1"),
    "nabla_asymptotic": (lambda: kobayashi.nabla_asymptotic(WeierstrassData(0, 0), 3, 0),
                         ValidationError, "n must be >= 1"),
    "nabla_resultant_oracle": (lambda: kobayashi.nabla_resultant_oracle(TOWER, 0),
                               ValidationError, "n must be >= 1"),
    "nabla_snf_oracle": (lambda: kobayashi.nabla_snf_oracle(TOWER, 0), ValidationError,
                         "n must be >= 1"),
    "av_zero_closed_form": (lambda: growth.av_zero_closed_form(SCENARIO, 0), ValidationError,
                            "n must be >= 1"),
    "sha_delta": (lambda: growth.sha_delta(SCENARIO, 0), ValidationError, "n must be >= 1"),
    "zero_modulus": (lambda: IwaPoly(3, (1,), 0), ValidationError, "mod_prec must be positive"),
    "divmod_by_zero": (lambda: divmod(ONE, IwaPoly(3, ())), ZeroDivisionError,
                       "polynomial division by zero"),
    "infinite_value": (lambda: INF.value, ValueError, "no finite value"),
    "no_primes": (lambda: run_selfcheck(p_list=()), ValidationError, "need at least one prime"),
    "lattice_pair_int": (lambda: lattice.LatticePair(1, 2), ValidationError,
                         "coordinates must be IwaPoly"),
    "tower_str_f": (lambda: kobayashi.TowerOfQuotients("f"), ValidationError,
                    "defining element must be IwaPoly, got str"),
    "tower_none_f": (lambda: kobayashi.TowerOfQuotients(None), ValidationError,
                     "defining element must be IwaPoly, got NoneType"),
    "det_structure_check_mixed_primes": (
        lambda: logmat.det_structure_check(logmat.LocalCurveData(3, 0), 2,
                                           logmat.h_matrix(logmat.LocalCurveData(5, 0), 2)),
        ValidationError, "mixed primes"),
}

# A float, and a bool where an int is expected, at each integer input a
# caller can pass: refused, not computed with.
NOT_INT = "must be an integer, got"
REFUSALS |= {
    "is_odd_prime_float": (lambda: require_odd_prime(3.0), ValidationError,
                           "3.0 is not an odd prime"),
    "is_odd_prime_bool": (lambda: require_odd_prime(True), ValidationError,
                          "True is not an odd prime"),
    "omega_float_p": (lambda: omega(3.0, 2), ValidationError, "3.0 is not an odd prime"),
    "omega_bool_n": (lambda: omega(3, True), ValidationError, f"n {NOT_INT} True"),
    "phi_poly_float_p": (lambda: phi_poly(5.0, 1), ValidationError, "5.0 is not an odd prime"),
    "omega_resultant_composite_p": (lambda: omega_resultant([1, 1], 9, 2), ValidationError,
                                    "9 is not an odd prime"),
    "omega_resultant_float_coefficient": (lambda: omega_resultant([1.5, 1], 3, 2),
                                          ValidationError, f"coefficient {NOT_INT} 1.5"),
    "phi_poly_bool_n": (lambda: phi_poly(3, True), ValidationError, f"n {NOT_INT} True"),
    "iwapoly_float_coefficient": (lambda: IwaPoly(3, (1, 2.5)), ValidationError,
                                  f"coefficient {NOT_INT} 2.5"),
    "iwapoly_bool_coefficient": (lambda: IwaPoly(3, (True,)), ValidationError,
                                 f"coefficient {NOT_INT} True"),
    "iwapoly_float_mod_prec": (lambda: IwaPoly(3, (10**20 + 1,), 2.5), ValidationError,
                               f"mod_prec {NOT_INT} 2.5"),
    "iwapoly_bool_mod_prec": (lambda: IwaPoly(3, (1,), True), ValidationError,
                              f"mod_prec {NOT_INT} True"),
    "curve_float_a_v": (lambda: logmat.valuation_matrix(logmat.LocalCurveData(3, 3.0), 3),
                        ValidationError, f"a_v {NOT_INT} 3.0"),
    "curve_bool_a_v": (lambda: logmat.LocalCurveData(3, False), ValidationError,
                       f"a_v {NOT_INT} False"),
    "curve_float_p": (lambda: logmat.LocalCurveData(3.0, 3), ValidationError,
                      "3.0 is not an odd prime"),
    "h_matrix_float_n": (lambda: logmat.h_matrix(CURVE, 2.0), ValidationError, f"n {NOT_INT} 2.0"),
    "h_matrix_bool_n": (lambda: logmat.h_matrix(CURVE, True), ValidationError, f"n {NOT_INT} True"),
    "gap_float_deg_cap": (lambda: logmat.m_convergence_gap(CURVE, 2, 1.5), ValidationError,
                          f"deg_cap {NOT_INT} 1.5"),
    "gap_bool_deg_cap": (lambda: logmat.m_convergence_gap(CURVE, 2, True), ValidationError,
                         f"deg_cap {NOT_INT} True"),
    "gap_float_n": (lambda: logmat.m_convergence_gap(CURVE, 2.0, 1), ValidationError,
                    f"n {NOT_INT} 2.0"),
    "unit_float_residue": (lambda: PadicUnit(3, 2.0, 4), ValidationError, f"residue {NOT_INT} 2.0"),
    "unit_bool_residue": (lambda: PadicUnit(3, True, 4), ValidationError,
                          f"residue {NOT_INT} True"),
    "unit_float_precision": (lambda: PadicUnit(3, 2, 4.0), ValidationError,
                             f"precision {NOT_INT} 4.0"),
    "unit_bool_precision": (lambda: PadicUnit(3, 2, True), ValidationError,
                            f"precision {NOT_INT} True"),
    "unit_from_int_float_precision": (lambda: unit_from_int(2, 3, 2.5), ValidationError,
                                      f"precision {NOT_INT} 2.5"),
    "unit_from_int_float_multiple": (lambda: unit_from_int(3.0, 3, 4), ValidationError,
                                     f"residue {NOT_INT} 3.0"),
    "unit_from_int_bool": (lambda: unit_from_int(True, 3, 4), ValidationError,
                           f"residue {NOT_INT} True"),
    "ss_prime_float_degree": (lambda: growth.SsPrime(1.5, 0), ValidationError,
                              f"degree {NOT_INT} 1.5"),
    "ss_prime_bool_degree": (lambda: growth.SsPrime(True, 0), ValidationError,
                             f"degree {NOT_INT} True"),
    "ss_prime_float_a_v": (lambda: growth.SsPrime(1, 0.0), ValidationError, f"a_v {NOT_INT} 0.0"),
    "ss_prime_bool_a_v": (lambda: growth.SsPrime(1, False), ValidationError,
                          f"a_v {NOT_INT} False"),
    "scenario_float_p": (lambda: growth.GrowthScenario(3.0, (growth.SsPrime(1, 0),)),
                         ValidationError, f"prime {NOT_INT} 3.0"),
    "scenario_bool_p": (lambda: growth.GrowthScenario(True, (growth.SsPrime(1, 0),)),
                        ValidationError, f"prime {NOT_INT} True"),
    "scenario_float_invariant": (lambda: growth.GrowthScenario(3, (growth.SsPrime(1, 0),),
                                                               r_inf=1.0),
                                 ValidationError, f"r_inf {NOT_INT} 1.0"),
    "scenario_bool_anchor": (lambda: growth.GrowthScenario(3, (growth.SsPrime(1, 0),),
                                                           base_n0=False),
                             ValidationError, f"base_n0 {NOT_INT} False"),
    "sha_table_float_n_max": (lambda: growth.sha_table(SCENARIO, 4.0), ValidationError,
                              f"n_max {NOT_INT} 4.0"),
    "sha_table_bool_n_max": (lambda: growth.sha_table(SCENARIO, True), ValidationError,
                             f"n_max {NOT_INT} True"),
    "s_term_float_n": (lambda: growth.s_term(SCENARIO, 3.0), ValidationError, f"n {NOT_INT} 3.0"),
    "t_term_float_n": (lambda: growth.t_term(SCENARIO, 2.0), ValidationError, f"n {NOT_INT} 2.0"),
    "s_term_bool_n": (lambda: growth.s_term(SCENARIO, True), ValidationError, f"n {NOT_INT} True"),
    "sha_delta_float_n": (lambda: growth.sha_delta(SCENARIO, 2.0), ValidationError,
                          f"n {NOT_INT} 2.0"),
    "selfcheck_float_p": (lambda: run_selfcheck((3.0,), 2), ValidationError,
                          "3.0 is not an odd prime"),
    "selfcheck_float_n_max": (lambda: run_selfcheck((3,), 2.0), ValidationError,
                              f"n_max {NOT_INT} 2.0"),
    "selfcheck_bool_n_max": (lambda: run_selfcheck((3,), True), ValidationError,
                             f"n_max {NOT_INT} True"),
    "selfcheck_float_seed": (lambda: run_selfcheck((3,), 2, 0.5), ValidationError,
                             f"seed {NOT_INT} 0.5"),
    "selfcheck_bool_seed": (lambda: run_selfcheck((3,), 2, False), ValidationError,
                            f"seed {NOT_INT} False"),
    "resultant_float_coefficient": (lambda: resultant([1.5, 1], [1, 1]), ValidationError,
                                    f"coefficient {NOT_INT} 1.5"),
    "resultant_bareiss_float_coefficient": (lambda: resultant_bareiss([1.5, 1], [1, 1]),
                                            ValidationError, f"coefficient {NOT_INT} 1.5"),
    "nabla_finite_tower_float_size": (lambda: kobayashi.nabla_finite_tower([1.5, 2.5]),
                                      ValidationError, f"size {NOT_INT} 1.5"),
    "nabla_finite_tower_str_size": (lambda: kobayashi.nabla_finite_tower(["a", "b"]),
                                    ValidationError, f"size {NOT_INT} 'a'"),
    "nabla_asymptotic_float_mu": (lambda: kobayashi.nabla_asymptotic(WeierstrassData(1.5, 2), 3, 2),
                                  ValidationError, f"mu {NOT_INT} 1.5"),
    "nabla_asymptotic_composite_p": (lambda: kobayashi.nabla_asymptotic(WeierstrassData(1, 2), 4, 2),
                                     ValidationError, "4 is not an odd prime"),
    "totient_float_p": (lambda: totient(3.0, 2), ValidationError, f"p {NOT_INT} 3.0"),
    "totient_bool_n": (lambda: totient(3, True), ValidationError, f"n {NOT_INT} True"),
    "extended_rational_float": (lambda: ExtendedRational(0.1), ValidationError,
                                f"value {NOT_INT} 0.1"),
    "extended_rational_bool": (lambda: ExtendedRational(True), ValidationError,
                               f"value {NOT_INT} True"),
    "extended_rational_fraction_str": (lambda: ExtendedRational("1/2"), ValidationError,
                                       f"value {NOT_INT} '1/2'"),
    "extended_rational_str": (lambda: ExtendedRational("x"), ValidationError,
                              f"value {NOT_INT} 'x'"),
}

# A sequence of integers that is not iterable at all, a foreign H, a place
# that is not an SsPrime and a sign vector that is not iterable: refused, not
# a TypeError or AttributeError.
NOT_INTS = "must be an iterable of integers, got"
REFUSALS |= {
    "iwapoly_int_coefficients": (lambda: IwaPoly(3, 12), ValidationError,
                                 f"coefficients {NOT_INTS} int"),
    "iwapoly_none_coefficients": (lambda: IwaPoly(3, None), ValidationError,
                                  f"coefficients {NOT_INTS} NoneType"),
    "iwapoly_str_coefficients": (lambda: IwaPoly(3, "12"), ValidationError,
                                 f"coefficient {NOT_INT} '1'"),
    "resultant_int_f": (lambda: resultant(5, [1]), ValidationError,
                        f"coefficients {NOT_INTS} int"),
    "resultant_bareiss_none_f": (lambda: resultant_bareiss(None, [1]), ValidationError,
                                 f"coefficients {NOT_INTS} NoneType"),
    "omega_resultant_int_f": (lambda: omega_resultant(7, 3, 2), ValidationError,
                              f"coefficients {NOT_INTS} int"),
    "nabla_finite_tower_int_sizes": (lambda: kobayashi.nabla_finite_tower(5), ValidationError,
                                     f"sizes {NOT_INTS} int"),
    "det_structure_check_str_h": (lambda: logmat.det_structure_check(CURVE, 2, "x"),
                                  ValidationError, "h must be a 2x2 LogMatrix2 of IwaPoly"),
    "det_structure_check_int_entries": (
        lambda: logmat.det_structure_check(CURVE, 2, logmat.LogMatrix2(((1, 2), (3, 4)))),
        ValidationError, "h must be a 2x2 LogMatrix2 of IwaPoly"),
    "scenario_none_places": (lambda: growth.GrowthScenario(3, None), ValidationError,
                             "ss_primes must be an iterable of SsPrime"),
    "scenario_dict_place": (lambda: growth.GrowthScenario(3, ({"degree": 1, "a_v": 0},)),
                            ValidationError, "ss_primes must be an iterable of SsPrime"),
    "scenario_int_sigma": (lambda: growth.GrowthScenario(3, (growth.SsPrime(1, 0),), sigma=5),
                           ValidationError,
                           "sigma must be an iterable of 'sharp' or 'flat', got int"),
    "scenario_float_tau": (lambda: growth.GrowthScenario(3, (growth.SsPrime(1, 0),), tau=3.5),
                           ValidationError,
                           "tau must be an iterable of 'sharp' or 'flat', got float"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


def test_float_prime_scenario_is_refused_not_tabled():
    # Computed in floats, the 40th row's cumulative is 264 off the exact one.
    with pytest.raises(ValidationError):
        growth.sha_table(growth.GrowthScenario(3.0, (growth.SsPrime(1, 0),)), 40)


@pytest.mark.parametrize("build", [omega, phi_poly])
def test_composite_p_is_refused_before_building(build, monkeypatch):
    # 9^4 is under the size bound, so a late check would build 6,562
    # coefficients first
    monkeypatch.setattr(iwapoly, "_from_t", lambda entries: pytest.fail("built"))
    with pytest.raises(ValidationError, match="9 is not an odd prime"):
        build(9, 4)


def test_cached_levels_do_not_admit_floats_or_bools():
    # 3.0 == 3 and True == 1 hash alike, so an untyped cache would answer
    # these from the entries built here
    omega(3, 1), omega(3, 2), phi_poly(3, 1)
    for call in (lambda: omega(3, True), lambda: omega(3.0, 2), lambda: phi_poly(3, True)):
        with pytest.raises(ValidationError):
            call()
