"""End-to-end identity and oracle suites, one per acceptance criterion.

Each check_* function exercises its full default grid, intersected with the
primes in p_list and capped at n_max, and returns a CriterionResult.  The
grids are deterministic given the seed; changing the seed changes the random
fixtures but must not change pass/fail.  Each criterion is a generator that
yields one outcome per comparison it makes, None or the failure text; a
failed precondition is its case's one outcome, and the comparisons it guards
are not made.  The criterion() runner times and counts the outcomes, so the
case count is what ran, and a criterion that yields nothing (for example
because none of its primes is in p_list) fails."""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from .errors import ValidationError
from .growth import GrowthScenario, SsPrime, av_zero_closed_form, s_term, sha_delta, sha_table, t_term
from .iwapoly import IwaPoly, coprime_to_omega, mu_lambda, omega, ord_eps, totient
from .kobayashi import (
    TowerOfQuotients,
    nabla_asymptotic,
    nabla_closed_form,
    nabla_finite_tower,
    nabla_resultant_oracle,
    nabla_snf_oracle,
)
from .lattice import h_u_map, in_image, witness
from .logmat import (
    LocalCurveData,
    c_matrix,
    det_structure_check,
    h_matrix,
    m_convergence_gap,
    valuation_matrix,
    valuation_matrix_closed_form,
)
from .padic import is_odd_prime, unit_from_int

DEFAULT_PRIMES = (3, 5, 7)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.name}): {status} [{self.seconds:.1f}s] {self.detail}"


def _curves(p_list):
    """(data, cap) for each curve of the valuation-table grid: levels 1..cap."""
    for p, avs, cap in ((3, (0, 3, -3), 6), (5, (0,), 4), (7, (0,), 4)):
        if p in p_list:
            for av in avs:
                yield LocalCurveData(p, av), cap


def _curve_grid(p_list, n_max):
    """(data, n) pairs of the valuation-table grid."""
    return [(data, n) for data, cap in _curves(p_list) for n in range(1, min(cap, n_max) + 1)]


def criterion(number, name):
    """Turn a generator of outcomes, None or the failure text of each
    comparison, into a check_* that times, counts and reports them."""
    def runner(outcomes_of):
        @functools.wraps(outcomes_of)
        def check(p_list=DEFAULT_PRIMES, n_max=9, seed=0) -> CriterionResult:
            t0 = time.perf_counter()
            outcomes = list(outcomes_of(p_list, n_max, seed))
            failures = [o for o in outcomes if o is not None]
            if failures:
                detail = f"{len(failures)} of {len(outcomes)} cases failed; first: {failures[0]}"
            elif not outcomes:
                detail = "0 cases: nothing in the grid was run"
            else:
                detail = f"{len(outcomes)} cases"
            return CriterionResult(number, name, bool(outcomes) and not failures, detail,
                                   time.perf_counter() - t0)
        return check
    return runner


@criterion(1, "valuation tables")
def check_valuation_tables(p_list, n_max, seed):
    for data, n in _curve_grid(p_list, n_max):
        a = valuation_matrix(data, n)
        b = valuation_matrix_closed_form(data, n)
        yield None if a.entries == b.entries else f"p={data.prime} av={data.a_v} n={n}"


@criterion(2, "determinant and block structure")
def check_matrix_structure(p_list, n_max, seed):
    for data, n in _curve_grid(p_list, n_max):
        # the grid climbs n = 1, 2, ... for each curve: prod = C_n...C_1
        prod = c_matrix(data, n) if n == 1 else c_matrix(data, n) * prod
        case = f"p={data.prime} av={data.a_v} n={n}"
        if h_matrix(data, n) != prod:
            yield f"{case}: H differs from the C product"
            continue
        rep = det_structure_check(data, n)
        yield None if rep.passed else f"{case}: {rep.failures[0]}"


@criterion(3, "witness mapping")
def check_witness_mapping(p_list, n_max, seed):
    for data, n in _curve_grid(p_list, n_max):
        p = data.prime
        units = (1, unit_from_int(1 + p, p, 48), unit_from_int(p - 1, p, 48))
        for u in units:
            w = witness(data, n, u)
            if not in_image(w, data):
                yield f"p={p} av={data.a_v} n={n}: witness outside lattice"
                continue
            img = h_u_map(w, data, n, u)
            target = omega(p, n - 1)
            if img.mod_prec is not None:
                target = target.with_modulus(img.mod_prec)
            yield None if img == target else f"p={p} av={data.a_v} n={n} u={u}"


def _random_coprime_poly(rng, p, deg_cap, coeff_bound, omega_level):
    while True:
        deg = rng.randint(0, deg_cap)
        coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(deg + 1))
        f = IwaPoly(p, coeffs)
        if coprime_to_omega(f, omega_level):
            return f


def _structured_rank_polys(p):
    """Fixed f for the elementary-divisor route's branches that a random f
    almost never takes (kobayashi._omega_columns): p | lead with f(-1) a
    unit, presented through the reversal of f(T-1); and mu >= 1, or p
    dividing both the leading coefficient and f(-1), presented as the
    circulant of f(T-1) on Z_p[T]/(T^(p^m) - 1), also with deg f >= p^m,
    where its coefficients fold (at m = 0 for the mu >= 1 f, at m = 1 for
    pX^3 + X + 1 at p = 3).
    By their Newton polygons none has a root eps_n, so each is coprime to
    every omega_n."""
    return [
        IwaPoly(p, (p**2, p)),  # p(X + p): mu = 1, lambda = 1; circulant
        IwaPoly(p, (p**5, p**3, p**2)),  # p^2 (X^2 + pX + p^3): mu = 2; circulant
        IwaPoly(p, (p**2, 1, 0, p)),  # pX^3 + X + p^2: lambda = 1; f(-1) a unit
        IwaPoly(p, (1, 1, 0, p)),  # pX^3 + X + 1: a unit; f(-1) = -p, circulant
        IwaPoly(p, (p,) + (0,) * p + (1, p)),  # deg p + 2, lambda = p + 1; f(-1) = 1
    ]


@criterion(4, "rank oracle triple agreement")
def check_rank_oracles(p_list, n_max, seed):
    for p, cap in ((3, 5), (5, 3), (7, 3)):
        if p not in p_list:
            continue
        rng = random.Random(seed * 1000003 + p)
        fs = [_random_coprime_poly(rng, p, 10, p**6, cap) for _ in range(50)]
        for f in fs + _structured_rank_polys(p):
            tower = TowerOfQuotients(f)
            for n in range(1, min(cap, n_max) + 1):
                a = nabla_closed_form(tower, n).value
                b = nabla_resultant_oracle(tower, n).value
                c = nabla_snf_oracle(tower, n).value
                yield None if a == b == c else f"p={p} f={f.coeffs} n={n}: {a},{b},{c}"


@criterion(5, "asymptotic valuation law")
def check_asymptotic_law(p_list, n_max, seed):
    p = 3
    if p not in p_list:
        return
    rng = random.Random(seed * 1000003 + 101)
    for _ in range(20):
        mu = rng.randint(0, 3)
        d_deg = rng.randint(0, 4)
        # distinguished part: monic, lower coefficients divisible by p
        d = IwaPoly(p, tuple(p * rng.randint(-9, 9) for _ in range(d_deg)) + (1,))
        u_deg = rng.randint(0, 4)
        unit_c0 = rng.choice([c for c in range(-9, 10) if c % p != 0])
        u = IwaPoly(p, (unit_c0,) + tuple(rng.randint(-9, 9) for _ in range(u_deg)))
        f = (d * u).scale(p**mu)
        inv = mu_lambda(f)
        if (inv.mu, inv.lam) != (mu, d_deg):
            yield f"mu/lambda read-off failed for {f.coeffs}"
            continue
        # stabilization: ord matches once lambda < phi(p^n)
        start = 1
        while totient(p, start) <= d_deg:
            start += 1
        for n in range(start, min(5, n_max) + 1):
            o = ord_eps(f, n)
            expect = nabla_asymptotic(inv, p, n)
            ok = not o.is_infinite and o.value == expect
            yield None if ok else f"f={f.coeffs} n={n}: {o} != {expect}"


@criterion(6, "growth closed forms")
def check_growth_closed_forms(p_list, n_max, seed):
    rng = random.Random(seed * 1000003 + 211)
    for p in (3, 5, 7):
        if p not in p_list:
            continue
        for _ in range(5):
            degs = tuple(SsPrime(rng.randint(1, 6), 0)
                         for _ in range(rng.randint(1, 4)))
            sc = GrowthScenario(p, degs)
            for n in range(1, min(9, n_max) + 1):
                term = s_term(sc, n) if n % 2 == 1 else t_term(sc, n)
                yield None if term == av_zero_closed_form(sc, n) else f"p={p} degs={degs} n={n}"


@criterion(7, "growth composition")
def check_growth_composition(p_list, n_max, seed):
    if 3 not in p_list:
        return
    sc = GrowthScenario(3, (SsPrime(2, 0),), mu_sigma=0, lambda_sigma=5,
                        mu_tau=0, lambda_tau=5, r_inf=2, base_n0=0, base_e0=0)
    delta = sha_delta(sc, 3)
    yield None if delta == 15 else f"worked scenario delta(3) = {delta} != 15"
    rows = sha_table(sc, 5)
    cum = sc.base_e0
    sizes = [sc.base_e0]
    for r in rows:
        cum += r.delta
        yield None if r.cumulative == cum else f"row n={r.n} cumulative {r.cumulative} != {cum}"
        sizes.append(r.cumulative)
    recovered = [x.value for x in nabla_finite_tower(sizes)]
    yield (None if recovered == [r.delta for r in rows]
           else "finite-tower differences do not recover the deltas")


@criterion(8, "convergence gaps")
def check_convergence_gaps(p_list, n_max, seed):
    # a gap at n reads level n+1, so n stops below the curve's cap: every
    # level is one that criterion 2 builds
    for data, cap in _curves(p_list):
        gaps = [m_convergence_gap(data, n, 10) for n in range(1, min(cap - 1, n_max) + 1)]
        for a, b in zip(gaps, gaps[1:]):
            if b < a:
                yield f"p={data.prime} av={data.a_v}: gaps {[str(g) for g in gaps]} not monotone"
                break
            yield None


ALL_CHECKS = (
    check_valuation_tables,
    check_matrix_structure,
    check_witness_mapping,
    check_rank_oracles,
    check_asymptotic_law,
    check_growth_closed_forms,
    check_growth_composition,
    check_convergence_gaps,
)


def run_selfcheck(p_list=DEFAULT_PRIMES, n_max=9, seed=0) -> bool:
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if not p_list:
        raise ValidationError("need at least one prime")
    for p in p_list:
        if not is_odd_prime(p):
            raise ValidationError(f"{p} is not an odd prime")
    ok = True
    for check in ALL_CHECKS:
        result = check(p_list=tuple(p_list), n_max=n_max, seed=seed)
        ok = ok and result.passed
        print(result.line(), flush=True)  # each criterion's line as it ends
    return ok
