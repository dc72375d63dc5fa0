"""The benchmark's three workloads: seeded inputs, operations and checks.

A workload is built once per interpreter by ``build(name, seed)``.  It is a
flat list of operations, each a call into iwagrowth's public API made
through the module attribute (so that traced mode can wrap it there), and a
list of checks that compare the outputs against ``checks.py``.  The seed
changes the inputs, never the amount of work: every count, level and size
below is fixed, so that a run's time does not depend on its seed.
Operations never print; the CLI's streams are captured in memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checks

# (p, a_v, top level).  Each top is one level past the level where the
# oracle valuation table first takes longer than the tower's frontier budget.
TOWER_SERIES = ((3, 0, 7), (3, 3, 6), (3, -3, 6), (5, 0, 5), (7, 0, 4))
# p -> (top level, (mu, lambda, depth) of each structured f), where depth is
# the valuation of the distinguished factor's constant term.  One coprime f
# with seeded coefficients rides along at every prime.  p = 5 stops at n = 3
# because one elementary-divisor oracle call at n = 4 takes about 14 s.  The
# depth-12 f at p = 3 has an elementary divisor p^(12+n), which sends the
# SNF oracle from precision 16 to 32 at n = 4 and 5.
RANK_SERIES = {3: (5, ((0, 1, 1), (0, 3, 1), (1, 2, 1), (0, 1, 12))),
               5: (3, ((0, 2, 1), (1, 1, 1))),
               7: (3, ((0, 1, 1), (1, 0, 1)))}
# Degree of the unit factor of a structured f, and of a coprime f.
RANK_UNIT_DEGREE = 1
RANK_COPRIME_DEGREE = 3
# The resultant route is also checked with sympy at levels with p^n at most
# this, on the first round only.
SYMPY_MAX_DEGREE = 27
# (p, a_v, top level) of the small valuation tables the CLI stream revisits.
CLI_VALMAT_SERIES = ((3, 0, 4), (3, 3, 4), (3, -3, 4), (5, 0, 3), (7, 0, 2))

# A level counts towards the frontier while its time stays within the
# workload's budget (seconds).  README.md says why each sits where it does.
FRONTIER_BUDGET_S = {"tower": 0.5, "ranks": 0.25, "cli-mix": 0.1}

# The README's worked scenario: delta(3) must be 15.
WORKED_SCENARIO = {
    "p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "sigma": None, "tau": None,
    "mu_sigma": 0, "lambda_sigma": 5, "mu_tau": 0, "lambda_tau": 5,
    "r_inf": 2, "base": {"n0": 0, "e0": 0},
}


@dataclass
class Op:
    key: str
    fn: Callable[[], Any]
    # (series, level, sample): the op's time counts towards that level of
    # the frontier; the level's time is the median over samples of the
    # per-sample sums.
    level: tuple | None = None


@dataclass
class Check:
    keys: tuple[str, ...]
    fn: Callable[..., list[str]]
    # A known fault of the program: a mismatch counts as a failed
    # operation instead of a wrong result.
    known_fault: bool = False
    # Checked once, on the first round's outputs, after the last round.
    first_round_only: bool = False


@dataclass
class Plan:
    ops: list[Op] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    cleanup: list[Callable[[], None]] = field(default_factory=list)


# -- tower ---------------------------------------------------------------------

def _coeff_lists(mat):
    return [[list(mat[i, j].coeffs) for j in range(2)] for i in range(2)]


def build_tower(seed: int) -> Plan:
    from iwagrowth import lattice, logmat, padic

    rng = random.Random(seed)
    plan = Plan()
    h_at: dict[str, Any] = {}  # det_structure_check reuses the level's H
    for p, a_v, top in TOWER_SERIES:
        data = logmat.LocalCurveData(p, a_v)
        u_int = rng.randrange(1, p**48)
        while u_int % p == 0:
            u_int = rng.randrange(1, p**48)
        units = (1, -1, padic.unit_from_int(u_int, p, 48))
        series = f"p={p},a_v={a_v}"
        for n in range(1, top + 1):
            tag = f"{series},n={n}"
            def h_op(data=data, n=n, tag=tag):
                h_at[tag] = h = logmat.h_matrix(data, n)
                return h

            plan.ops.append(Op(f"h_matrix {tag}", h_op, (series, n, 0)))
            plan.ops.append(Op(f"valuation_matrix {tag}",
                               lambda data=data, n=n: logmat.valuation_matrix(data, n),
                               (series, n, 0)))
            plan.ops.append(Op(f"det_structure_check {tag}",
                               lambda data=data, n=n, tag=tag:
                               logmat.det_structure_check(data, n, h_at.pop(tag))))
            plan.ops.append(Op(f"cross_identity_check {tag}",
                               lambda data=data, n=n: lattice.cross_identity_check(data, n)))
            for k, u in enumerate(units):
                def w_op(data=data, n=n, u=u):
                    w = lattice.witness(data, n, u)
                    return w, lattice.h_u_map(w, data, n, u)

                plan.ops.append(Op(f"witness u{k} {tag}", w_op))
                plan.checks.append(Check(
                    (f"witness u{k} {tag}",),
                    lambda r, p=p, a_v=a_v, n=n: checks.check_witness(
                        p, a_v, n, r[0].g1.coeffs, r[0].g2.coeffs, r[1].coeffs,
                        r[1].mod_prec)))
            plan.checks.append(Check(
                (f"valuation_matrix {tag}",),
                lambda vm, p=p, a_v=a_v, n=n: checks.check_valuation_rows(
                    p, a_v, n, vm.entries)))
            plan.checks.append(Check(
                (f"h_matrix {tag}", f"det_structure_check {tag}",
                 f"cross_identity_check {tag}"),
                lambda h, det, cross, p=p, n=n, s=rng.randrange(1 << 30):
                    checks.check_det(p, n, _coeff_lists(h), s)
                    + ([] if det.passed else [f"det_structure_check p={p} n={n}: {det.failures}"])
                    + ([] if cross.passed else [f"cross_identity_check p={p} n={n}"])))
        if p == 3:
            # Gaps after the climb, so that they reuse the cached levels.
            keys = []
            for n in range(1, top):
                keys.append(f"m_convergence_gap {series},n={n}")
                plan.ops.append(Op(keys[-1], lambda data=data, n=n:
                                   logmat.m_convergence_gap(data, n, 10)))
            plan.checks.append(Check(
                tuple(keys), lambda *g, p=p, a_v=a_v: checks.check_gaps(
                    p, a_v, [str(x) for x in g])))
    return plan


# -- ranks ---------------------------------------------------------------------

def _nonzero(rng, lo, hi, unit_mod=None):
    while True:
        c = rng.randint(lo, hi)
        if c and (unit_mod is None or c % unit_mod):
            return c


def _structured_f(rng, p, top, mu, lam, depth):
    """p^mu * D * U with D distinguished of degree lambda, D(0) of valuation
    at least depth, and U a unit of fixed degree; coprime to omega_top."""
    while True:
        d = [p * _nonzero(rng, -9, 9, p) for _ in range(lam)] + [1]
        d[0] = p**depth * _nonzero(rng, -9, 9, p)
        u = [_nonzero(rng, -9, 9, p) for _ in range(RANK_UNIT_DEGREE + 1)]
        f = [p**mu * c for c in checks.poly_mul(d, u)]
        if checks.coprime_to_omega(f, p, top):
            return f


def _coprime_f(rng, p, top, degree):
    while True:
        f = [_nonzero(rng, -p**3, p**3, p) for _ in range(degree + 1)]
        if checks.coprime_to_omega(f, p, top):
            return f


def build_ranks(seed: int) -> Plan:
    from iwagrowth import iwapoly, kobayashi

    rng = random.Random(seed)
    plan = Plan()
    routes = ("nabla_closed_form", "nabla_resultant_oracle", "nabla_snf_oracle")
    for p, (top, shapes) in RANK_SERIES.items():
        fs = [_structured_f(rng, p, top, *shape) for shape in shapes]
        fs.append(_coprime_f(rng, p, top, RANK_COPRIME_DEGREE))
        for i, f in enumerate(fs):
            mu, lam = checks.weierstrass(f, p)
            tower = kobayashi.TowerOfQuotients(iwapoly.IwaPoly(p, tuple(f)))
            for n in range(1, top + 1):
                keys = tuple(f"{r} p={p} f{i} n={n}" for r in routes)
                for key, r in zip(keys, routes):
                    plan.ops.append(Op(
                        key, lambda r=r, tower=tower, n=n: getattr(kobayashi, r)(tower, n).value,
                        (f"p={p}", n, i)))
                plan.checks.append(Check(keys, lambda *v, p=p, n=n, mu=mu, lam=lam:
                                         checks.check_ranks(p, n, list(v), mu, lam)))
                if p**n <= SYMPY_MAX_DEGREE:
                    plan.checks.append(Check(
                        keys[1:2], lambda v, f=f, p=p, n=n:
                            [] if v == checks.sympy_rank(f, p, n)
                            else [f"resultant route p={p} n={n} f={f}: {v} != sympy"],
                        first_round_only=True))
    return plan


# -- cli-mix -------------------------------------------------------------------

# Known faults of the program, kept in the stream as failed operations
# (expected: exit code 2 and no traceback).  Their inputs do not depend on
# the seed, so every round fails the same number of operations.
KNOWN_FAULT_SCENARIOS = {
    "float_p": {"p": 3.0, "ss_primes": [{"degree": 2, "a_v": 0}]},
    "float_degree": {"p": 3, "ss_primes": [{"degree": 2.5, "a_v": 0}]},
    "string_a_v": {"p": 3, "ss_primes": [{"degree": 2, "a_v": "0"}]},
    "top_level_list": [],
    "bool_r_inf": {"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "r_inf": True},
}
KNOWN_FAULT_ARGV = {
    "kobrank_prec_0": ["kobrank", "--p", "3", "--f", "3", "--n", "2",
                       "--methods", "snf_oracle", "--prec", "0"],
}

_BASE = {"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}]}
# Malformed scenarios the CLI refuses correctly today, with their exit code.
REFUSED_SCENARIOS = (
    ({"p": 3}, 2),
    ({**_BASE, "sigma": ["flat", "flat"]}, 2),
    ({**_BASE, "sigma": ["bogus"]}, 2),
    ({**_BASE, "mu_sigma": -1}, 2),
    ({"p": 3, "ss_primes": []}, 2),
    ({"p": 4, "ss_primes": [{"degree": 1, "a_v": 0}]}, 2),
    ({"p": 3, "ss_primes": [{"degree": 1, "a_v": 1}]}, 2),
    ({"p": 3, "ss_primes": [{"degree": 0, "a_v": 0}]}, 2),
    ("{not json", 2),
)
# n_max 2 below the scenario's anchor n0 = 3.
BELOW_ANCHOR_SCENARIO = {**_BASE, "base": {"n0": 3, "e0": 0}}
# Malformed argv the CLI refuses correctly today, with their exit code.
REFUSED_ARGV = (
    (["valmat", "--p", "4", "--av", "0", "--n", "2"], 2),
    (["valmat", "--p", "9", "--av", "0", "--n", "2"], 2),
    (["valmat", "--p", "3", "--av", "1", "--n", "2"], 2),
    (["valmat", "--p", "5", "--av", "5", "--n", "2"], 2),
    (["valmat", "--p", "3", "--av", "0", "--n", "0"], 2),
    (["valmat", "--p", "3", "--av", "0"], 2),
    (["valmat", "--p", "3", "--av", "0", "--n", "two"], 2),
    (["logmat", "--p", "3", "--av", "0", "--n", "-1"], 2),
    (["logmat", "--p", "3", "--av", "0", "--n", "0", "--which", "m"], 2),
    (["kobrank", "--p", "3", "--f", "1,x", "--n", "2"], 2),
    (["kobrank", "--p", "3", "--f", "1,1", "--n", "2", "--methods", "bogus"], 2),
    (["kobrank", "--p", "3", "--f", "1,1", "--n", "0"], 2),
    (["kobrank", "--p", "4", "--f", "1,1", "--n", "1"], 2),
    (["kobrank", "--p", "3", "--f", "0", "--n", "2"], 2),
    (["kobrank", "--p", "3", "--f", "0,1", "--n", "2"], 4),
    (["growth", "--scenario", "scenarios/missing.json", "--n-max", "4"], 2),
)

# Request counts of one round.  Growth requests walk the scenario pool and
# the n_max cycle in step; the other kinds cycle through fixed level lists.
CLI_SCENARIOS = 24
CLI_GROWTH = 120
CLI_N_MAX = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
CLI_INFINITE = 4
CLI_VALMAT_REPEATS = 3
CLI_KOBRANK_LEVELS = ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2))
CLI_KOBRANK_REPEATS = 7
CLI_LOGMAT = tuple((p, a_v, n, which) for p, a_v, top in CLI_VALMAT_SERIES
                   for n in range(1, top + 1) for which in ("h", "m"))


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str


def call_cli(cli, argv) -> CliResult:
    """cli.main(argv) with both streams captured in memory; an exception that
    escapes main is recorded as a traceback and exit code 1, as a process
    running the command would end."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the known faults end here
            err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _scenario(rng, k: int) -> dict:
    """Pool scenario k: its prime, place count, explicit or default signs and
    anchor follow from k; the seed picks degrees, traces and invariants."""
    p = (3, 3, 5, 7)[k % 4]
    places = []
    for _ in range(1 + k % 3):
        a_v = rng.choice((0, p, -p)) if p == 3 else 0
        places.append({"degree": rng.randint(1, 6), "a_v": a_v})

    def vec(odd):
        if k % 2 == 0:
            return None
        # a_v = 0 has infinite r_v, which only the flat entry (odd) or the
        # sharp entry (even) avoids
        return [(checks.FLAT if odd else checks.SHARP) if w["a_v"] == 0
                else rng.choice((checks.SHARP, checks.FLAT)) for w in places]

    sc = {"p": p, "ss_primes": places, "sigma": vec(True), "tau": vec(False),
          "mu_sigma": rng.randint(0, 2), "lambda_sigma": rng.randint(0, 9),
          "mu_tau": rng.randint(0, 2), "lambda_tau": rng.randint(0, 9),
          "r_inf": rng.randint(0, 6)}
    if k % 3 == 0:
        sc["base"] = {"n0": rng.randint(0, 3), "e0": rng.randint(0, 40)}
    return sc


def build_cli_mix(seed: int) -> Plan:
    from iwagrowth import cli

    rng = random.Random(seed)
    plan = Plan()
    texts: dict[str, str] = {}

    def scenario_path(obj) -> str:
        path = f"scenarios/s{len(texts):03d}.json"
        texts[path] = obj if isinstance(obj, str) else json.dumps(obj)
        return path

    # (key, argv, check, known fault, frontier level)
    requests: list[tuple[str, list[str], Callable[[CliResult], list[str]], bool, tuple | None]] = []

    pool = [_scenario(rng, k) for k in range(CLI_SCENARIOS)]
    paths = [scenario_path(sc) for sc in pool]
    for i in range(CLI_GROWTH):
        k = i % CLI_SCENARIOS
        sc = pool[k]
        n_max = sc.get("base", {"n0": 0})["n0"] + CLI_N_MAX[i % len(CLI_N_MAX)]
        fmt = ("json", "csv")[i % 2]
        pretty = i % 4 == 0
        argv = ["growth", "--scenario", paths[k], "--n-max", str(n_max), "--format", fmt]
        if pretty:
            argv.append("--pretty")
        requests.append((f"growth {i}", argv,
                         lambda r, sc=sc, n_max=n_max, fmt=fmt, pretty=pretty:
                             checks.check_growth(sc, n_max, fmt, pretty, r.code, r.stdout),
                         False, None))

    def worked_check(r):
        bad = checks.check_growth(WORKED_SCENARIO, 5, "json", False, r.code, r.stdout)
        if not bad and json.loads(r.stdout.splitlines()[2])["delta"] != 15:
            bad = ["worked scenario delta(3) != 15"]
        return bad

    requests.append(("growth worked", ["growth", "--scenario", scenario_path(WORKED_SCENARIO),
                                       "--n-max", "5"], worked_check, False, None))

    for i in range(CLI_INFINITE):
        sc = {**_scenario(rng, 0), "ss_primes": [{"degree": rng.randint(1, 6), "a_v": 0}],
              "sigma": [checks.SHARP], "tau": None}
        sc.pop("base", None)
        requests.append((f"growth infinite {i}",
                         ["growth", "--scenario", scenario_path(sc), "--n-max", "4"],
                         lambda r: checks.check_refusal(r.code, r.stderr, 5), False, None))

    valmat = [(p, a_v, n) for p, a_v, top in CLI_VALMAT_SERIES for n in range(1, top + 1)]
    for i, (p, a_v, n) in enumerate(valmat * CLI_VALMAT_REPEATS):
        requests.append((f"valmat {i}", ["valmat", "--p", str(p), "--av", str(a_v), "--n", str(n)],
                         lambda r, p=p, a_v=a_v, n=n:
                             checks.check_valmat_output(p, a_v, n, r.code, r.stdout),
                         False, (f"p={p},a_v={a_v}", n, i)))

    for i, (p, n) in enumerate(CLI_KOBRANK_LEVELS * CLI_KOBRANK_REPEATS):
        f = _coprime_f(rng, p, n, 2)
        requests.append((f"kobrank {i}", ["kobrank", "--p", str(p), "--f=" +
                                          ",".join(map(str, f)), "--n", str(n)],
                         lambda r: checks.check_kobrank_output(r.code, r.stdout), False, None))

    for i, (p, a_v, n, which) in enumerate(CLI_LOGMAT):
        requests.append((f"logmat {i}", ["logmat", "--p", str(p), "--av", str(a_v),
                                         "--n", str(n), "--which", which],
                         lambda r, p=p, n=n, which=which, s=rng.randrange(1 << 30):
                             checks.check_logmat_output(p, n, which, r.code, r.stdout, s),
                         False, None))

    refused = [(["growth", "--scenario", scenario_path(sc), "--n-max", "4"], code)
               for sc, code in REFUSED_SCENARIOS]
    refused.append((["growth", "--scenario", scenario_path(BELOW_ANCHOR_SCENARIO),
                     "--n-max", "2"], 2))
    for i, (argv, code) in enumerate(refused + list(REFUSED_ARGV)):
        requests.append((f"refused {i}", argv,
                         lambda r, code=code: checks.check_refusal(r.code, r.stderr, code),
                         False, None))

    faults = [(name, ["growth", "--scenario", scenario_path(obj), "--n-max", "4"])
              for name, obj in KNOWN_FAULT_SCENARIOS.items()]
    faults += list(KNOWN_FAULT_ARGV.items())
    for name, argv in faults:
        requests.append((f"known fault {name}", argv,
                         lambda r: checks.check_refusal(r.code, r.stderr, 2), True, None))

    rng.shuffle(requests)
    for key, argv, check, known, level in requests:
        plan.ops.append(Op(key, lambda argv=argv: call_cli(cli, argv), level))
        plan.checks.append(Check((key,), check, known))

    # The CLI opens scenario files by the name ``open``; serve the generated
    # ones from memory so the timed region does no disk I/O.
    def mem_open(path, *args, **kwargs):
        text = texts.get(str(path))
        if text is None:
            raise FileNotFoundError(2, "No such file or directory", str(path))
        return io.StringIO(text)

    cli.open = mem_open
    plan.cleanup.append(lambda: delattr(cli, "open"))
    return plan


PLANS = {"tower": build_tower, "ranks": build_ranks, "cli-mix": build_cli_mix}


def build(name: str, seed: int) -> Plan:
    return PLANS[name](seed)
