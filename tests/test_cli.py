import csv
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from iwagrowth import cli, growth, iwapoly, kobayashi
from iwagrowth.cli import main
from iwagrowth.errors import PhiDividesF, ValidationError
from iwagrowth.logmat import LocalCurveData, exceeds_digits, h_matrix, m_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLogmat:
    def test_h_first_row(self, capsys):
        code, out, _ = run(capsys, "logmat", "--p", "3", "--av", "0", "--n", "1")
        assert code == 0
        d = json.loads(out)
        assert d["entries"][0][0]["coeffs"] == []  # zero
        assert d["entries"][0][1]["coeffs"] == ["1"]

    def test_h_0_is_the_identity(self, capsys):
        code, out, _ = run(capsys, "logmat", "--p", "3", "--av", "3", "--n", "0")
        assert code == 0
        assert out == (
            '{"denom_exp": 0, "entries": '
            '[[{"p": 3, "coeffs": ["1"], "mod_prec": null}, {"p": 3, "coeffs": [], "mod_prec": null}], '
            '[{"p": 3, "coeffs": [], "mod_prec": null}, {"p": 3, "coeffs": ["1"], "mod_prec": null}]]}\n')

    def test_m_denominator(self, capsys):
        code, out, _ = run(capsys, "logmat", "--p", "3", "--av", "0",
                           "--n", "2", "--which", "m")
        assert code == 0
        assert json.loads(out)["denom_exp"] == 3

    def test_bad_trace_exits_2(self, capsys):
        code, _, err = run(capsys, "logmat", "--p", "3", "--av", "1", "--n", "1")
        assert code == 2 and "divisible" in err


class TestValmat:
    def test_agreement_and_signature(self, capsys):
        code, out, _ = run(capsys, "valmat", "--p", "3", "--av", "0", "--n", "3")
        assert code == 0
        d = json.loads(out)
        assert d["agree"] is True and d["signature"] == "flat"

    def test_sharp_case(self, capsys):
        _, out, _ = run(capsys, "valmat", "--p", "3", "--av", "3", "--n", "2")
        assert json.loads(out)["signature"] == "sharp"

    def test_even_entry(self, capsys):
        _, out, _ = run(capsys, "valmat", "--p", "5", "--av", "0", "--n", "2")
        assert json.loads(out)["computed"]["entries"][0][0] == "1/5"

    def test_level_7_finishes(self):
        # Phi_7 has degree 1458 at p = 3: the valuations must not go through
        # a norm resultant against it.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "iwagrowth.cli", "valmat",
             "--p", "3", "--av", "3", "--n", "7"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["agree"] is True

    @pytest.mark.parametrize("av", ["0", "3"])
    def test_level_9_finishes(self, av):
        # H's first row at level 9 has up to 3^8 coefficients.  Built in
        # T = 1 + X and read into X by binomial rows, with no Phi_8 product,
        # it takes about a second.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "iwagrowth.cli", "valmat", "--p", "3", "--av", av, "--n", "9"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["agree"] is True

    def test_large_prime_finishes(self):
        # p = 2^61 - 1 is a prime far past what trial division can reach.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "iwagrowth.cli", "valmat",
             "--p", str(2**61 - 1), "--av", "0", "--n", "1"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["agree"] is True


class TestKobrank:
    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "kobrank", "--p", "3", "--f", "0,1",
                           "--n", "1", "--methods", "closed_form")
        assert code == 0
        d = json.loads(out)
        assert d["results"][0]["value"] == 1 and "all_agree" not in d

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "kobrank", "--p", "3", "--f", "3", "--n", "2")
        assert code == 0
        d = json.loads(out)
        assert [r["value"] for r in d["results"]] == [6, 6, 6]
        assert d["all_agree"] is True

    def test_phi_divides_exits_4(self, capsys):
        code, _, err = run(capsys, "kobrank", "--p", "3", "--f", "3,3,1", "--n", "1")
        assert code == 4

    def test_bad_method_exits_2(self, capsys):
        code, _, _ = run(capsys, "kobrank", "--p", "3", "--f", "3", "--n", "1",
                         "--methods", "magic")
        assert code == 2

    def test_bad_coeffs_exit_2(self, capsys):
        code, _, _ = run(capsys, "kobrank", "--p", "3", "--f", "1,zzz", "--n", "1")
        assert code == 2


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "p": 3,
        "ss_primes": [{"degree": 2, "a_v": 0}],
        "sigma": None,
        "tau": None,
        "mu_sigma": 0,
        "lambda_sigma": 5,
        "mu_tau": 0,
        "lambda_tau": 5,
        "r_inf": 2,
        "base": {"n0": 0, "e0": 0},
    }))
    return str(path)


class TestGrowth:
    def test_worked_scenario_row(self, capsys, scenario_file):
        code, out, _ = run(capsys, "growth", "--scenario", scenario_file,
                           "--n-max", "3")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1]["n"] == 3 and rows[-1]["delta"] == 15
        cum = 0
        for r in rows:
            cum += r["delta"]
            assert r["cumulative"] == cum

    def test_csv_format(self, capsys, scenario_file):
        code, out, _ = run(capsys, "growth", "--scenario", scenario_file,
                           "--n-max", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,parity,S_or_T,phi_mu,lambda,r_inf,delta,cumulative"
        assert len(lines) == 3

    def test_infinite_term_exits_5(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "p": 3, "ss_primes": [{"degree": 1, "a_v": 0}],
            "tau": ["flat"], "base": {"n0": 0, "e0": 0},
        }))
        code, _, err = run(capsys, "growth", "--scenario", str(path), "--n-max", "2")
        assert code == 5

    def test_n_max_below_anchor_exits_2(self, capsys, scenario_file):
        code, _, _ = run(capsys, "growth", "--scenario", scenario_file,
                         "--n-max", "-1")
        assert code == 2

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"hello\": 1}")
        code, _, _ = run(capsys, "growth", "--scenario", str(path), "--n-max", "2")
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "growth", "--scenario", "/no/such/file",
                         "--n-max", "2")
        assert code == 2

    def test_warning_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "p": 3, "ss_primes": [{"degree": 1, "a_v": 0}],
            "r_inf": 5, "base": {"n0": 0, "e0": 0},
        }))
        code, out, err = run(capsys, "growth", "--scenario", str(path), "--n-max", "1")
        assert code == 0 and "negative" in err


def _growth_scenarios(count, seed):
    """A scenario whose first row's cumulative is negative, then count seeded
    ones whose signs never pick an infinite entry: a place with a_v = 0 is
    flat at odd levels and sharp at even ones."""
    rng = random.Random(seed)
    scenarios = [{"p": 3, "ss_primes": [{"degree": 1, "a_v": 0}], "r_inf": 5}]
    for _ in range(count):
        p = rng.choice((3, 5, 7, 11))
        places = [{"degree": rng.randint(1, 6), "a_v": rng.choice((0, p, -p)) if p == 3 else 0}
                  for _ in range(rng.randint(1, 4))]

        def vec(odd):
            return None if rng.random() < 0.4 else [
                ("flat" if odd else "sharp") if w["a_v"] == 0 else rng.choice(("sharp", "flat"))
                for w in places]

        scenarios.append({"p": p, "ss_primes": places, "sigma": vec(True), "tau": vec(False),
                          "lambda_sigma": rng.randint(0, 9), "lambda_tau": rng.randint(0, 9),
                          "mu_sigma": rng.randint(0, 2), "mu_tau": rng.randint(0, 2),
                          "r_inf": rng.randint(0, 12),
                          "base": {"n0": rng.randint(0, 3), "e0": rng.randint(0, 4)}})
    return scenarios


def test_growth_formats_carry_the_rows_of_the_table(capsys, tmp_path):
    # JSON lines, CSV (with or without --pretty) and the --pretty table of one
    # scenario hold the same rows as sha_table's to_json, and the warnings of
    # negative cumulatives go to stderr alike in every format.
    path = tmp_path / "scenario.json"
    warned = 0
    for obj in _growth_scenarios(24, 47):
        path.write_text(json.dumps(obj))
        sc = growth.GrowthScenario.from_json(obj)
        n_max = str(sc.base_n0 + 9)
        expected = [r.to_json() for r in growth.sha_table(sc, int(n_max))]
        cells = [[str(r[h]) for h in growth.TABLE_FIELDS] for r in expected]
        warnings = [f"warning: n={r['n']}: {r['warning']}" for r in expected if "warning" in r]
        warned += bool(warnings)
        argv = ("growth", "--scenario", str(path), "--n-max", n_max)

        code, out, err = run(capsys, *argv)
        assert code == 0 and err.splitlines() == warnings
        assert [json.loads(line) for line in out.splitlines()] == expected

        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0 and err.splitlines() == warnings
        assert list(csv.reader(io.StringIO(out))) == [list(growth.TABLE_FIELDS), *cells]
        assert run(capsys, *argv, "--format", "csv", "--pretty") == (code, out, err)

        code, out, err = run(capsys, *argv, "--pretty")
        assert code == 0 and err.splitlines() == warnings
        assert [line.split() for line in out.splitlines()] == [list(growth.TABLE_FIELDS), *cells]
    assert warned


def test_growth_json_lines_are_json_dumps_of_each_row(capsys, tmp_path):
    # Each line the one JSON-line format writes is json.dumps(row.to_json()):
    # seeded scenarios (negative deltas and cumulatives, with their warning
    # members) and tables long enough for integers of hundreds of digits.
    path = tmp_path / "scenario.json"
    rng = random.Random(48)
    scenarios = _growth_scenarios(30, 48)
    scenarios += [{"p": 3, "ss_primes": [{"degree": 1, "a_v": 0}], "r_inf": 40,
                   "base": {"n0": 0, "e0": 3}},
                  {**GROWTH_P3, "mu_sigma": 2, "r_inf": 9}]
    checked = warned = 0
    for i, obj in enumerate(scenarios):
        path.write_text(json.dumps(obj))
        sc = growth.GrowthScenario.from_json(obj)
        n_max = sc.base_n0 + (rng.randint(1, 12) if i < 30 else 600)
        rows = growth.sha_table(sc, n_max)
        code, out, _ = run(capsys, "growth", "--scenario", str(path), "--n-max", str(n_max))
        assert code == 0
        assert out.splitlines(keepends=True) == [json.dumps(r.to_json()) + "\n" for r in rows]
        checked += len(rows)
        warned += sum(r.warning is not None for r in rows)
    assert warned and checked > 1000


@pytest.mark.parametrize("warning", [None, "", "plain", 'quote " and \\ back', "é\n\t\x01"])
def test_json_row_format_escapes_a_warning_as_json_dumps_does(warning):
    row = growth.TableRow(7, "odd", 3**400, -5, 0, 12, -(10**300), -1, warning)
    assert (cli._JSON_ROW % (*row.cells(), cli._warning_member(row.warning))
            == json.dumps(row.to_json()) + "\n")


def test_table_row_is_a_tuple_of_its_values():
    row = growth.TableRow(2, "even", 1, 2, 3, 4, 5, 6)
    assert row == (2, "even", 1, 2, 3, 4, 5, 6, None) and row.cells() == row[:8]
    assert row._replace(warning="w").to_json()["warning"] == "w"


# Argument lists for both parse routes: help, unknown commands and options,
# bad values, abbreviations, "--", repeats and leftovers, at every command.
PARSE_GRID = [
    [], ["-h"], ["--help"], ["--he", "growth"], ["bogus"], ["bogus", "--p", "3"],
    ["valmat", "-h"], ["valmat", "--p", "3", "--av", "0", "--n", "2", "-h"],
    ["growth"], ["growth", "--scenario"],
    ["growth", "--scenario", "s.json", "--n-max", "3", "extra"],
    ["growth", "--scenario", "s.json", "--n-max", "3", "extra", "--more"],
    ["valmat", "--p", "3", "--av", "0", "--n", "two"],
    ["valmat", "--p", "3", "--av", "0"],
    ["growth", "--scenario", "s.json", "--n-max", "3", "--format", "xml"],
    ["growth", "--scen", "s.json", "--n-m", "3"],
    ["growth", "--scenario", "s.json", "--n-max", "3", "--n-max", "4"],
    ["growth", "--scenario", "s.json", "--n-max", "-1", "--pretty", "--format", "csv"],
    ["growth", "--", "x"],
    ["valmat", "--p", "3", "--av", "0", "--n", "2", "--", "x"],
    ["kobrank", "--p", "3", "--f=-1,2", "--n", "2"],
    ["kobrank", "--p", "3", "--f", "-1,2", "--n", "2"],
    ["kobrank", "--p", "3", "--f", "3", "--n", "2", "--methods", "snf_oracle", "--prec", "0"],
    ["logmat", "--p=3", "--av=-3", "--n=2", "--which", "m", "--pretty"],
    ["logmat", "--p", "3", "--av", "0", "--n", "1", "--which", "x"],
    ["selfcheck"], ["selfcheck", "--p", "3", "--n-max", "2", "--seed", "1"],
    ["selfcheck", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSE_GRID, ids=" ".join)
def test_one_pass_parse_matches_parse_args(capsys, argv):
    def outcome(parse):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    assert outcome(cli._parse) == outcome(cli._PARSER.parse_args)


def test_main_parses_a_known_command_with_its_own_parser_only(capsys, monkeypatch):
    def top_level(*_):
        raise AssertionError("top-level parse")

    monkeypatch.setattr(cli._PARSER, "parse_args", top_level)
    monkeypatch.setattr(cli._PARSER, "parse_known_args", top_level)
    code, out, _ = run(capsys, "valmat", "--p", "3", "--av", "0", "--n", "2")
    assert code == 0 and json.loads(out)["agree"] is True


@pytest.mark.parametrize("scenario, named", [
    ({"p": 3.0, "ss_primes": [{"degree": 2, "a_v": 0}]}, "p must be an integer"),
    ({"p": 3, "ss_primes": [{"degree": 2.5, "a_v": 0}]}, "degree must be an integer"),
    ({"p": 3, "ss_primes": [{"degree": 2, "a_v": "0"}]}, "a_v must be an integer"),
    ([], "scenario must be a JSON object"),
    ({"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "r_inf": True},
     "r_inf must be an integer"),
    ({"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "sigma": "flat"},
     "sigma must be a JSON array, got str"),
    ({"p": 3, "ss_primes": {"degree": 1}}, "ss_primes must be a JSON array, got dict"),
    ({"p": 3, "ss_primes": 5}, "ss_primes must be a JSON array, got int"),
    ({"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "base": []},
     "base must be a JSON object, got list"),
], ids=["float_p", "float_degree", "string_a_v", "top_level_list", "bool_r_inf",
        "string_sigma", "object_ss_primes", "int_ss_primes", "list_base"])
def test_wrongly_typed_input_exits_2(capsys, tmp_path, scenario, named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run(capsys, "growth", "--scenario", str(path), "--n-max", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("scenario, n_max, message", [
    ({"p": 4, "ss_primes": [{"degree": 1, "a_v": 1}]}, 0, "4 is not an odd prime"),
    ({"p": 3, "ss_primes": []}, 0, "scenario needs at least one supersingular place"),
    ({"p": 3, "ss_primes": [{"degree": 1, "a_v": 1}], "base": {"n0": 2, "e0": 0}}, 2,
     "supersingular trace must be divisible by p: a_v=1, p=3"),
], ids=["p4", "no_places", "a_v1_at_anchor"])
def test_invalid_places_are_refused_with_an_empty_table(capsys, tmp_path, scenario, n_max,
                                                         message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run(capsys, "growth", "--scenario", str(path), "--n-max", str(n_max))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("prec", ["0", "100000000000"])
def test_kobrank_prec_is_refused_at_once(prec):
    # kobrank takes no working precision: argparse refuses one, however
    # large, before any work starts.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "iwagrowth.cli", "kobrank", "--p", "3", "--f", "3,1",
         "--n", "2", "--methods", "snf_oracle", "--prec", prec],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--prec" in proc.stderr and "Traceback" not in proc.stderr


def test_kobrank_refuses_omega_at_a_large_prime(capsys):
    # p = 2^61 - 1: built without the size bound, omega_1 fails at once
    code, out, err = run(capsys, "kobrank", "--p", str(2**61 - 1), "--f", "1,1", "--n", "1")
    assert code == 2 and out == "" and "above 32768" in err


@pytest.mark.parametrize("argv", [
    ("kobrank", "--p", "3", "--f", "1,1", "--n", "20"),
    ("valmat", "--p", "1000003", "--av", "0", "--n", "2"),
    ("valmat", "--p", "3", "--av", "0", "--n", "2000"),
    ("valmat", "--p", "5", "--av", "0", "--n", "8"),
    ("logmat", "--p", "5", "--av", "0", "--n", "7"),
    ("valmat", "--p", "3", "--av", "3", "--n", "11"),
    ("valmat", "--p", "3", "--av", "0", "--n", "30000000"),
    ("logmat", "--p", "3", "--av", "0", "--n", "30000000", "--which", "m"),
], ids=["kobrank_n20", "valmat_p1000003", "valmat_n2000", "valmat_p5_n8", "logmat_p5_n7",
        "valmat_p3_av3_n11", "valmat_n30000000", "logmat_m_n30000000"])
def test_oversized_exact_omega_is_refused_before_it_is_built(argv):
    # Run under a 1.5 GiB address-space limit and a timeout, so that a build
    # of omega_n or Phi_n at this p^n fails the test instead of the machine.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    limited = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)); "
               "from iwagrowth.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", limited, *argv],
                          capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "above 32768" in proc.stderr and "Traceback" not in proc.stderr


BIG_P = str(2**61 - 1)


@pytest.mark.parametrize("argv", [
    ("kobrank", "--p", BIG_P, "--f", BIG_P, "--n", "300", "--methods", "closed_form"),
    ("kobrank", "--p", "3", "--f", "3", "--n", "10000", "--methods", "closed_form"),
    ("growth", "--n-max", "300"),
    ("growth", "--n-max", "300", "--format", "csv"),
    ("growth", "--n-max", "300", "--pretty"),
], ids=["kobrank_big_p", "kobrank_p3_n10000", "growth_json", "growth_csv", "growth_pretty"])
def test_result_too_long_to_print_is_refused(capsys, tmp_path, argv):
    # phi(p^n) has more digits than str() converts; nothing is printed, not
    # even the rows of a growth table below the first long one.
    if argv[0] == "growth":
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"p": int(BIG_P), "ss_primes": [{"degree": 1, "a_v": 0}]}))
        argv += ("--scenario", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: result has an integer over the {sys.get_int_max_str_digits()}"
                   "-digit limit for printing\n")


def test_unprintable_snf_oracle_rank_is_refused_before_it_is_built(capsys, monkeypatch):
    # The oracle's value is the closed form's, at least phi(3^100000): it is
    # refused before any level is presented.
    def refuse(f, m, prec):
        raise AssertionError(f"level {m} presented")

    monkeypatch.setattr(kobayashi, "_omega_columns", refuse)
    code, out, err = run(capsys, "kobrank", "--p", "3", "--f", "3,3", "--n", "100000",
                         "--methods", "snf_oracle")
    assert code == 2 and out == ""
    assert err == (f"error: result has an integer over the {sys.get_int_max_str_digits()}"
                   "-digit limit for printing\n")


def test_infinite_tower_past_the_print_limit_stays_not_finite(capsys):
    # X divides omega_n: the oracle prints nothing, so its NotFinite stands
    code, out, err = run(capsys, "kobrank", "--p", "3", "--f", "0,3", "--n", "100000",
                         "--methods", "snf_oracle")
    assert code == 4 and out == "" and "omega_n" in err


GROWTH_P3 = {"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}]}


@pytest.mark.parametrize("n_max", ["16000", "40000", "1000000000"])
def test_unprintable_growth_table_is_refused_before_it_is_built(tmp_path, n_max):
    # Building the rows to n_max = 16000 takes seconds and to 10^9 forever;
    # the last row's S_or_T has more digits than str() converts, so the
    # table is refused before its first row.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GROWTH_P3))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "iwagrowth.cli", "growth",
                           "--scenario", str(path), "--n-max", n_max],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: result has an integer over the "
                           f"{sys.get_int_max_str_digits()}-digit limit for printing\n")


def test_inconsistent_sign_is_refused_before_the_print_limit(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(GROWTH_P3, sigma=["sharp"])))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "iwagrowth.cli", "growth",
                           "--scenario", str(path), "--n-max", "40000"],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 5 and proc.stdout == ""
    assert proc.stderr == "error: signature sharp needs finite ord_p(a_v) but a_v = 0\n"


def test_growth_refusal_follows_the_live_print_limit(capsys, tmp_path, monkeypatch):
    # At a 640-digit limit the first unprintable table is n_max = 1342 (its
    # cumulative); the bound on the last S_or_T refuses from 1345 on without
    # building a row, and _printable refuses the levels between.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GROWTH_P3))
    argv = ("growth", "--scenario", str(path), "--n-max")
    refused = "error: result has an integer over the 640-digit limit for printing\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv, "1341")
        assert code == 0 and err == "" and len(out.splitlines()) == 1341
        for n_max in ("1342", "1344"):
            assert run(capsys, *argv, n_max) == (2, "", refused)

        def built(*_):
            raise AssertionError("rows built")

        monkeypatch.setattr(cli, "sha_table", built)
        for n_max in ("1345", "1000000000"):
            assert run(capsys, *argv, n_max) == (2, "", refused)
    finally:
        sys.set_int_max_str_digits(limit)


def test_unprintable_growth_table_is_refused_after_rendering_its_last_row(
        capsys, tmp_path, monkeypatch):
    # At n_max = 9013 the bound on the last S_or_T (4,300 digits) does not
    # fire, but that row's cumulative has 4,301: the last row is rendered
    # first, so the table is refused before any other row is rendered.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GROWTH_P3))
    rendered = []
    cells = growth.TableRow.cells
    monkeypatch.setattr(growth.TableRow, "cells", lambda row: rendered.append(row.n) or cells(row))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, "growth", "--scenario", str(path), "--n-max", "9013") == (
            2, "", "error: result has an integer over the 4300-digit limit for printing\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert rendered == [9013]


@pytest.mark.parametrize("argv", [
    ("--p", "7", "--av", "0", "--n", "5"),
    ("--p", "7", "--av", "0", "--n", "5", "--which", "m"),
    ("--p", "3", "--av", "3", "--n", "9"),
    ("--p", "3", "--av", "0", "--n", "9"),
], ids=["p7_n5", "p7_n5_m", "p3_av3_n9", "p3_av0_n9"])
def test_unprintable_logmat_is_refused_before_it_is_built(argv):
    # Building these H took 29 s to over 100 s, only to be refused by the
    # print limit; their entries at X = 1 prove a coefficient too long.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "iwagrowth.cli", "logmat", *argv],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: result has an integer over the "
                           f"{sys.get_int_max_str_digits()}-digit limit for printing\n")


def test_logmat_refusal_follows_the_live_print_limit(capsys, monkeypatch):
    argv = ("logmat", "--p", "5", "--av", "0", "--n", "5")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and json.loads(out)["denom_exp"] == 0
        sys.set_int_max_str_digits(640)

        def built(*_):
            raise AssertionError("H built")

        monkeypatch.setattr(cli, "h_matrix", built)
        monkeypatch.setattr(cli, "m_matrix", built)
        refused = "error: result has an integer over the 640-digit limit for printing\n"
        for which in ("h", "m"):
            assert run(capsys, *argv, "--which", which) == (2, "", refused)
    finally:
        sys.set_int_max_str_digits(limit)


def _logmat_grid():
    """Every (p, a_v, n) with p^n <= 3^6, and (5, 0, 5), which is refused at
    the smallest print limit."""
    primes = [p for p in range(3, 3**6 + 1, 2) if all(p % q for q in range(3, p, 2))]
    for p in primes:
        for a_v in ((0, 3, -3) if p == 3 else (0,)):
            n = 1
            while p**n <= 3**6:
                yield p, a_v, n
                n += 1
    yield 5, 0, 5


def test_logmat_print_bound_refuses_only_what_cannot_print(capsys):
    limit = sys.get_int_max_str_digits()
    refused = []
    try:
        for p, a_v, n in _logmat_grid():
            data = LocalCurveData(p, a_v)
            for which, build in (("h", h_matrix), ("m", m_matrix)):
                mat = build(data, n)
                for digits in (640, 1000, 4300):
                    sys.set_int_max_str_digits(digits)
                    if exceeds_digits(data, n, digits, m=which == "m"):
                        refused.append((p, a_v, n, which, digits))
                        with pytest.raises(ValidationError, match="limit for printing"):
                            cli._emit(mat, False)
                    capsys.readouterr()
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused == [(5, 0, 5, "h", 640), (5, 0, 5, "m", 640)]


@pytest.mark.parametrize("n", ["3000000", "30000000"])
def test_unprintable_closed_form_is_refused_before_p_n_is_formed(n):
    # Forming 3^n took 1.5 s at n = 3*10^6 and about 54 s at 3*10^7, only
    # for the print limit to refuse phi(3^n) = 2*3^(n-1).
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "iwagrowth.cli", "kobrank", "--p", "3",
                           "--f", "3", "--n", n, "--methods", "closed_form"],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: result has an integer over the "
                           f"{sys.get_int_max_str_digits()}-digit limit for printing\n")


def test_kobrank_refusal_follows_the_live_print_limit(capsys, monkeypatch):
    # f = 3 has the value 2*3^(n-1): at a 640-digit limit n = 1341 is the
    # last that prints; the bound refuses from 1344 on without forming 3^n,
    # and _printable refuses the levels between.
    argv = ("kobrank", "--p", "3", "--f", "3", "--methods", "closed_form", "--n")
    refused = "error: result has an integer over the 640-digit limit for printing\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv, "1341")
        assert code == 0 and err == ""
        assert json.loads(out)["results"][0]["value"] == 2 * 3**1340
        for n in ("1342", "1343"):
            assert run(capsys, *argv, n) == (2, "", refused)

        def formed(*_):
            raise AssertionError("phi(p^n) formed")

        monkeypatch.setattr(kobayashi, "totient", formed)
        monkeypatch.setattr(iwapoly, "totient", formed)
        for n in ("1344", "1000000000"):
            assert run(capsys, *argv, n) == (2, "", refused)
    finally:
        sys.set_int_max_str_digits(limit)


def test_closed_form_print_bound_refuses_only_what_cannot_print():
    # The bound refuses nothing that prints, and refuses within three levels
    # of the first value with more digits than the limit.  Both sides grow
    # with n, so the scan starts ten levels below where p^n has digits digits.
    cases = [(3, (3,)), (3, (9, 18, 27)), (5, (5, 10)), (7, (49,)), (32749, (32749, 2 * 32749))]
    for p, f in cases:
        t = kobayashi.TowerOfQuotients(iwapoly.IwaPoly(p, f))
        for digits in (640, 1000, 4300):
            first_long = None
            start = max(1, int(digits / math.log10(p)) - 10)
            assert not kobayashi.exceeds_digits(t, start, digits)
            for n in itertools.count(start):
                too_long = kobayashi.nabla_closed_form(t, n).value >= 10**digits
                assert n > start or not too_long
                refused = kobayashi.exceeds_digits(t, n, digits)
                assert too_long or not refused, (p, f, n, digits)
                if too_long and first_long is None:
                    first_long = n
                if refused:
                    assert n - first_long <= 3, (p, f, n, digits)
                    break
    # An f whose content is a unit has the value i0 < deg f at every level.
    for f in ((1, 1), (5, 3), (15, 30, 5)):
        t = kobayashi.TowerOfQuotients(iwapoly.IwaPoly(3, f))
        assert not any(kobayashi.exceeds_digits(t, n, 640) for n in (1, 2, 10**6, 10**9))
    # At deg f >= phi(p^n), Phi_n may divide f: 3^200 Phi_1 has no value at n = 1.
    t = kobayashi.TowerOfQuotients(iwapoly.IwaPoly(3, (3**201, 3**201, 3**200)))
    assert not kobayashi.exceeds_digits(t, 1, 1)
    with pytest.raises(PhiDividesF):
        kobayashi.nabla_closed_form(t, 1)


def test_kobrank_at_the_largest_exact_level_finishes():
    # p^n = 3^9 is the largest level the size bound admits: the resultant
    # route reduces omega_9 mod f as 1 + X raised nine times to the cube mod
    # f, about 2 * 9 products below deg f, without forming the degree-19,683
    # omega_9.  For 1 + 3X + 9X^2 + 27X^3, whose leading coefficient is 3^3,
    # dividing omega_9 itself took about 12 s.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for f in ("1,1", "1,3,9,27"):
        proc = subprocess.run(
            [sys.executable, "-m", "iwagrowth.cli", "kobrank", "--p", "3", "--f", f, "--n", "9"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["all_agree"] is True


@pytest.mark.parametrize("argv, code", [
    (("valmat", "--p", "32749", "--av", "0", "--n", "2"), 0),
    (("logmat", "--p", "32749", "--av", "0", "--n", "1"), 2),
], ids=["valmat_p32749_n2", "logmat_p32749_n1"])
def test_phi_1_at_the_largest_admitted_prime_finishes(argv, code):
    # 32749 is the largest prime the size bound admits at n = 1.  Phi_1 is
    # one binomial row, not a sum of p rows; logmat's H holds -Phi_1, whose
    # coefficients are too long to print.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "iwagrowth.cli", *argv],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout)["agree"] is True
    else:
        assert proc.stdout == "" and "-digit limit for printing" in proc.stderr


@pytest.mark.parametrize("p, n, value", [("3", "12", 1), (str(2**61 - 1), "1", 0)],
                         ids=["p3_n12", "p2^61-1_n1"])
def test_kobrank_snf_oracle_needs_no_exact_omega_for_a_unit_lead(capsys, p, n, value):
    # With a unit leading coefficient the elementary-divisor route reduces
    # omega_n mod (f, p^N) by p-th powers, so it answers past the size bound
    # that the resultant route (in the default --methods all) still meets.
    code, out, _ = run(capsys, "kobrank", "--p", p, "--f", "3,1", "--n", n,
                       "--methods", "snf_oracle")
    assert code == 0
    assert json.loads(out)["results"] == [{"n": int(n), "value": value, "method": "snf_oracle"}]
    code, out, err = run(capsys, "kobrank", "--p", p, "--f", "3,1", "--n", n)
    assert code == 2 and out == "" and "above 32768" in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{\"p\": 3}",
    ('{"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "mu_sigma": -%s}'
     % ("9" * 5000)).encode(),
], ids=["not_utf8", "long_negative_literal"])
def test_unreadable_scenario_exits_2(capsys, tmp_path, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "growth", "--scenario", str(path), "--n-max", "2")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "internal error" not in err and "Traceback" not in err


def test_scenario_is_decoded_as_utf8_under_the_c_locale(tmp_path):
    # With locale coercion and UTF-8 mode off, the C locale's default
    # encoding is ASCII; the scenario file is UTF-8 whatever the locale.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}],
                                "note": "caf\u00e9"}, ensure_ascii=False),
                    encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"p": 3, "note": "caf\xe9"}')
    runs = {}
    for path in (good, bad):
        runs[path] = subprocess.run(
            [sys.executable, "-m", "iwagrowth.cli", "growth", "--scenario", str(path),
             "--n-max", "2"],
            capture_output=True, text=True, timeout=20, env=env,
        )
    assert runs[good].returncode == 0 and runs[good].stderr == ""
    assert len(runs[good].stdout.splitlines()) == 2
    assert runs[bad].returncode == 2 and runs[bad].stdout == ""
    assert runs[bad].stderr.startswith("error: bad scenario file")
    assert "Traceback" not in runs[bad].stderr


def test_internal_error_exits_70_without_traceback(capsys, monkeypatch):
    from iwagrowth import cli

    def boom(data, n):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "h_matrix", boom)
    code, out, err = run(capsys, "logmat", "--p", "3", "--av", "0", "--n", "2")
    assert code == cli.EXIT_INTERNAL == 70 and out == ""
    assert err == "error: internal error: RuntimeError('boom')\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("n0, n_max", [(-1, 2), (-3, -3)])
def test_negative_anchor_level_exits_2(capsys, tmp_path, n0, n_max):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"p": 3, "ss_primes": [{"degree": 1, "a_v": 0}],
                                "base": {"n0": n0, "e0": 0}}))
    code, out, err = run(capsys, "growth", "--scenario", str(path), "--n-max", str(n_max))
    assert code == 2 and out == ""
    assert err == "error: base_n0 must be nonnegative\n"


def _case_counts(out):
    return [int(c) for c in re.findall(r"\] (\d+) cases", out)]


class TestSelfcheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--p", "3", "--n-max", "2",
                           "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all("PASS" in line for line in lines)

    def test_seed_does_not_change_outcome(self, capsys):
        for seed in ("0", "99"):
            code, _, _ = run(capsys, "selfcheck", "--p", "3", "--n-max", "2",
                             "--seed", seed)
            assert code == 0

    def test_n_max_zero_exits_2(self, capsys):
        code, _, _ = run(capsys, "selfcheck", "--n-max", "0")
        assert code == 2

    def test_n_max_one_exits_2_before_any_criterion(self, capsys):
        # at n_max = 1 criterion 8 has no pair of gaps to compare
        code, out, err = run(capsys, "selfcheck", "--n-max", "1")
        assert code == 2 and out == ""
        assert err == "error: n_max must be >= 2\n"

    @pytest.mark.parametrize("primes", ["3,4", "4"])
    def test_non_prime_exits_2_before_any_criterion(self, capsys, primes):
        code, out, err = run(capsys, "selfcheck", "--p", primes, "--n-max", "2")
        assert code == 2 and out == ""
        assert err == "error: 4 is not an odd prime\n"

    def test_no_cases_is_not_a_pass(self, capsys):
        # 347 > 7^3: the exact-route criteria (1-4 and 8) have no level at
        # p = 347, and the closed-form ones (5-7) still run
        code, out, _ = run(capsys, "selfcheck", "--p", "347", "--n-max", "3")
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 8
        empty = [line for line in lines if "] 0 cases" in line]
        assert [line.split()[1] for line in empty] == ["1", "2", "3", "4", "8"]
        assert all("FAIL" in line for line in empty)
        assert all("PASS" in line for line in lines[4:7])

    @pytest.mark.parametrize("p", ["11", "13", "17"])
    def test_primes_past_7_run_every_criterion(self, capsys, p):
        code, out, _ = run(capsys, "selfcheck", "--p", p, "--n-max", "9")
        assert code == 0
        counts = _case_counts(out)
        assert len(counts) == 8 and all(c > 0 for c in counts)

    def test_default_grid_case_counts(self, capsys):
        from iwagrowth.selfcheck import check_asymptotic_law

        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert _case_counts(out) == [26, 26, 78, 616, 288, 135, 19, 16]
        assert check_asymptotic_law(p_list=(3,)).detail == "89 cases"

    def test_a_repeated_prime_runs_once(self, capsys):
        code, once, _ = run(capsys, "selfcheck", "--p", "3", "--n-max", "4")
        assert code == 0
        code, twice, _ = run(capsys, "selfcheck", "--p", "3,3", "--n-max", "4")
        assert code == 0
        assert _case_counts(twice) == _case_counts(once)

    def test_closed_stdout_exits_141_in_silence(self):
        # As `selfcheck ... | head -1` does: the reader takes one line and
        # closes the pipe while later criteria are still running.  Without
        # PYTHONUNBUFFERED, so that each criterion's line must be flushed.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "iwagrowth.cli", "selfcheck", "--p", "3,5,7", "--n-max", "9"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().startswith(b"criterion 1 ")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 141
        assert err == b""


def test_round_trip_payloads(capsys):
    from iwagrowth.logmat import LocalCurveData, m_matrix

    code, out, _ = run(capsys, "logmat", "--p", "3", "--av", "3", "--n", "2",
                       "--which", "m")
    assert code == 0
    assert json.loads(out) == m_matrix(LocalCurveData(3, 3), 2).to_json()
