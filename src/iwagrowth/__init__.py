"""Exact arithmetic for the local objects of supersingular Iwasawa theory:
ord_p values extended by infinity and p-adic units known mod p^N, the
Iwasawa algebra modulo omega_n, logarithmic matrices and their valuation
tables, signed Coleman image lattices, Kobayashi ranks, and Sha-growth
predictions."""

from .errors import (
    InfiniteTerm,
    IwagrowthError,
    NonUnit,
    NonUnitLeadingCoefficient,
    NotAvZero,
    NotFinite,
    PhiDividesF,
    PrecisionExhausted,
    ValidationError,
    ZeroPolynomial,
)
from .growth import (
    GrowthScenario,
    ScenarioReport,
    SsPrime,
    TableRow,
    av_zero_closed_form,
    s_term,
    sha_delta,
    sha_table,
    t_term,
    validate_scenario,
)
from .iwapoly import (
    IwaPoly,
    WeierstrassData,
    coprime_to_omega,
    mu_lambda,
    omega,
    ord_eps,
    phi_poly,
    totient,
)
from .kobayashi import (
    NablaResult,
    TowerOfQuotients,
    nabla_asymptotic,
    nabla_closed_form,
    nabla_finite_tower,
    nabla_resultant_oracle,
    nabla_snf_oracle,
)
from .lattice import LatticePair, h_u_map, in_image, witness
from .logmat import (
    FLAT,
    SHARP,
    LocalCurveData,
    LogMatrix2,
    StructureReport,
    ValuationMatrix,
    c_matrix,
    cross_identity_check,
    det_structure_check,
    h_entries,
    h_matrix,
    m_convergence_gap,
    m_matrix,
    signature,
    valuation_matrix,
    valuation_matrix_closed_form,
)
from .padic import DEFAULT_PRECISION, INF, ExtendedRational, PadicUnit, unit_from_int
from .polyres import resultant, resultant_bareiss
from .selfcheck import CriterionResult, run_selfcheck

__version__ = "0.1.0"
