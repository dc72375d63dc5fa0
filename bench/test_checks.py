"""Each output checker accepts the program's output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py
"""

import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from iwagrowth import cli, iwapoly, kobayashi, lattice, logmat, padic  # noqa: E402


def _bump(lists):
    """Copy of nested coefficient lists with the first nonzero entry changed."""
    out = copy.deepcopy(lists)
    for row in out:
        for e in row:
            if e:
                e[0] += 1
                return out
    raise AssertionError("nothing to corrupt")


@pytest.mark.parametrize("p,a_v,n", [(3, 0, 3), (3, 3, 4), (3, -3, 5), (5, 0, 2)])
def test_valuation_rows(p, a_v, n):
    entries = logmat.valuation_matrix(logmat.LocalCurveData(p, a_v), n).entries
    assert checks.check_valuation_rows(p, a_v, n, entries) == []
    rows = [[str(x) for x in row] for row in entries]
    rows[0][0] = "7/3"
    assert checks.check_valuation_rows(p, a_v, n, rows)
    rows = [[str(x) for x in row] for row in entries]
    rows[1][1] = "0"
    assert checks.check_valuation_rows(p, a_v, n, rows)


def test_det():
    h = logmat.h_matrix(logmat.LocalCurveData(3, 3), 3)
    lists = workloads._coeff_lists(h)
    assert checks.check_det(3, 3, lists, 1) == []
    assert checks.check_det(3, 3, _bump(lists), 1)


@pytest.mark.parametrize("u", [1, -1, padic.unit_from_int(5, 3, 48)])
def test_witness(u):
    data = logmat.LocalCurveData(3, -3)
    w = lattice.witness(data, 3, u)
    image = lattice.h_u_map(w, data, 3, u)
    args = (3, -3, 3, w.g1.coeffs, w.g2.coeffs)
    assert checks.check_witness(*args, image.coeffs, image.mod_prec) == []
    bad_image = (image.coeffs[0] + 1,) + image.coeffs[1:]
    assert checks.check_witness(*args, bad_image, image.mod_prec)
    g2 = (w.g2.coeffs[0] + 1,) if w.g2.coeffs else (1,)
    assert checks.check_witness(3, -3, 3, w.g1.coeffs, g2, image.coeffs, image.mod_prec)


def test_gaps():
    data = logmat.LocalCurveData(3, 3)
    gaps = [str(logmat.m_convergence_gap(data, n, 10)) for n in range(1, 5)]
    assert checks.check_gaps(3, 3, gaps) == []
    assert len(set(gaps)) > 1
    assert checks.check_gaps(3, 3, gaps[::-1])


def test_ranks():
    f = [3 * c for c in checks.poly_mul([3, 6, 1], [2, 1])]  # mu = 1, lambda = 2
    tower = kobayashi.TowerOfQuotients(iwapoly.IwaPoly(3, tuple(f)))
    mu, lam = checks.weierstrass(f, 3)
    assert (mu, lam) == (1, 2)
    for n in (1, 2, 3):
        values = [kobayashi.nabla_closed_form(tower, n).value,
                  kobayashi.nabla_resultant_oracle(tower, n).value,
                  kobayashi.nabla_snf_oracle(tower, n).value]
        assert checks.check_ranks(3, n, values, mu, lam) == []
        assert checks.check_ranks(3, n, [values[0], values[1] + 1, values[2]], mu, lam)
        if lam < checks.totient(3, n):
            assert checks.check_ranks(3, n, [v + 1 for v in values], mu, lam)
        assert checks.sympy_rank(f, 3, n) == values[1]


def _cli(argv, scenario=None):
    saved = getattr(cli, "open", None)
    if scenario is not None:
        cli.open = lambda *a, **k: io.StringIO(json.dumps(scenario))
    try:
        return workloads.call_cli(cli, argv)
    finally:
        if scenario is not None:
            del cli.open
        assert getattr(cli, "open", None) is saved


@pytest.mark.parametrize("fmt,pretty", [("json", False), ("json", True), ("csv", False)])
def test_growth(fmt, pretty):
    sc = {"p": 5, "ss_primes": [{"degree": 2, "a_v": 0}, {"degree": 3, "a_v": 0}],
          "mu_sigma": 1, "lambda_sigma": 2, "r_inf": 1, "base": {"n0": 1, "e0": 4}}
    argv = ["growth", "--scenario", "s.json", "--n-max", "6", "--format", fmt]
    r = _cli(argv + (["--pretty"] if pretty else []), sc)
    assert checks.check_growth(sc, 6, fmt, pretty, r.code, r.stdout) == []
    for old, new in (("15", "16"), (",4,", ",5,"), (" 4 ", " 5 ")):
        if old in r.stdout:
            assert checks.check_growth(sc, 6, fmt, pretty, r.code, r.stdout.replace(old, new, 1))
    lines = r.stdout.splitlines()
    assert checks.check_growth(sc, 6, fmt, pretty, r.code, "\n".join(lines[:-1]))
    assert checks.check_growth(sc, 6, fmt, pretty, 2, r.stdout)


def test_growth_rows_corrupted_one_field_at_a_time():
    sc = workloads.WORKED_SCENARIO
    r = _cli(["growth", "--scenario", "s.json", "--n-max", "5"], sc)
    assert checks.check_growth(sc, 5, "json", False, r.code, r.stdout) == []
    assert json.loads(r.stdout.splitlines()[2])["delta"] == 15
    rows = [json.loads(line) for line in r.stdout.splitlines()]
    for field in ("delta", "cumulative", "S_or_T", "n"):
        bad = copy.deepcopy(rows)
        bad[2][field] += 1
        text = "\n".join(json.dumps(x) for x in bad)
        assert checks.check_growth(sc, 5, "json", False, 0, text), field


def test_refusal():
    r = _cli(["valmat", "--p", "4", "--av", "0", "--n", "2"])
    assert checks.check_refusal(r.code, r.stderr, 2) == []
    assert checks.check_refusal(r.code, r.stderr, 4)
    assert checks.check_refusal(2, "Traceback (most recent call last):\n", 2)


def test_valmat_output():
    r = _cli(["valmat", "--p", "3", "--av", "3", "--n", "3"])
    assert checks.check_valmat_output(3, 3, 3, r.code, r.stdout) == []
    d = json.loads(r.stdout)
    d["agree"] = False
    assert checks.check_valmat_output(3, 3, 3, 0, json.dumps(d))
    d = json.loads(r.stdout)
    d["computed"]["entries"][0][1] = "5"
    assert checks.check_valmat_output(3, 3, 3, 0, json.dumps(d))


def test_kobrank_output():
    r = _cli(["kobrank", "--p", "3", "--f=-2,5,1", "--n", "2"])
    assert checks.check_kobrank_output(r.code, r.stdout) == []
    d = json.loads(r.stdout)
    d["all_agree"] = False
    assert checks.check_kobrank_output(0, json.dumps(d))
    assert checks.check_kobrank_output(3, r.stdout)


def test_logmat_output():
    r = _cli(["logmat", "--p", "3", "--av", "0", "--n", "3"])
    assert checks.check_logmat_output(3, 3, "h", r.code, r.stdout, 7) == []
    d = json.loads(r.stdout)
    d["entries"][0][1]["coeffs"][0] = str(int(d["entries"][0][1]["coeffs"][0]) + 1)
    assert checks.check_logmat_output(3, 3, "h", 0, json.dumps(d), 7)
    r = _cli(["logmat", "--p", "3", "--av", "0", "--n", "3", "--which", "m"])
    assert checks.check_logmat_output(3, 3, "m", r.code, r.stdout, 7) == []
    d = json.loads(r.stdout)
    d["denom_exp"] += 1
    assert checks.check_logmat_output(3, 3, "m", 0, json.dumps(d), 7)


@pytest.mark.parametrize("name", ["tower", "ranks", "cli-mix"])
def test_work_does_not_depend_on_the_seed(name):
    """Two seeds give the same operations at the same levels."""
    plans = []
    for seed in (1, 2):
        plan = workloads.build(name, seed)
        plans.append(sorted((op.key, op.level) for op in plan.ops))
        for fn in plan.cleanup:
            fn()
    assert plans[0] == plans[1]
    assert len(plans[0]) >= 100


def test_frontier():
    levels = [{("a", 1): 0.1, ("a", 2): 0.2, ("a", 3): 0.9, ("b", 1): 0.6, ("b", 2): 0.1}]
    assert worker.frontier(levels, 0.5) == 2
    assert worker.frontier(levels * 2 + [{("a", 3): 0.1}], 0.5) == 2


def test_metric_names_match_benchmark_json():
    import run
    import spans

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
