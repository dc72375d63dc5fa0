"""Refusals at the edge of each public entry point: a level below its floor,
a bad modulus, division by zero, the value of infinity and an empty prime
list each raise their documented error, not a wrong answer."""

import pytest

from iwagrowth import growth, kobayashi, lattice, logmat
from iwagrowth.errors import ValidationError
from iwagrowth.iwapoly import IwaPoly, WeierstrassData, coprime_to_omega, omega, ord_eps, phi_poly
from iwagrowth.padic import INF
from iwagrowth.polyres import omega_resultant
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
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()
