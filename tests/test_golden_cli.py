"""Replay of the CLI's golden outputs.

Every case runs ``cli.main`` in-process and must reproduce the recorded
stdout, stderr and exit code byte for byte.  Growth cases write their
scenario text to ``scenario.json`` in a scratch working directory, so the
file name in error messages is the same on every machine.  Argument-parser
errors are left out: their wording belongs to argparse and changes between
Python versions.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from iwagrowth.cli import main

FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")
SCENARIO_FILE = "scenario.json"


def _growth(scenario, n_max, *extra):
    text = scenario if isinstance(scenario, str) else json.dumps(scenario)
    return ["growth", "--scenario", SCENARIO_FILE, "--n-max", str(n_max), *extra], text


def _cases():
    """(argv, scenario text or None) for every recorded call."""
    cases = []
    for p, av, top in ((3, 0, 3), (3, 3, 3), (3, -3, 2), (5, 0, 2), (7, 0, 2)):
        for n in range(1, top + 1):
            for which in ("h", "m"):
                cases.append(["logmat", "--p", str(p), "--av", str(av), "--n", str(n),
                              "--which", which])
    cases.append(["logmat", "--p", "3", "--av", "3", "--n", "2", "--pretty"])
    for p, av, n in ((3, 1, 1), (3, 0, -1), (4, 0, 1), (9, 0, 1), (5, 5, 1)):
        cases.append(["logmat", "--p", str(p), "--av", str(av), "--n", str(n)])
    cases.append(["logmat", "--p", "3", "--av", "0", "--n", "0", "--which", "m"])

    for p, av, top in ((3, 0, 5), (3, 3, 4), (3, -3, 3), (5, 0, 3), (7, 0, 2)):
        for n in range(1, top + 1):
            cases.append(["valmat", "--p", str(p), "--av", str(av), "--n", str(n)])
    cases.append(["valmat", "--p", "5", "--av", "0", "--n", "2", "--pretty"])
    for p, av, n in ((4, 0, 2), (9, 0, 2), (3, 1, 2), (5, 5, 2), (3, 0, 0)):
        cases.append(["valmat", "--p", str(p), "--av", str(av), "--n", str(n)])

    kob = {3: ("3", "0,1", "3,1", "9,3,1", "1,1", "2,5,7", "27,0,1", "3,3,1"),
           5: ("5", "10,7,1", "25,0,0,1"),
           7: ("7,1", "14,7,1")}
    for p, fs in kob.items():
        for f in fs:
            for n in range(1, (3 if p == 3 else 2) + 1):
                for methods in ("all", "closed_form", "resultant_oracle", "snf_oracle"):
                    cases.append(["kobrank", "--p", str(p), "--f", f, "--n", str(n),
                                  "--methods", methods])
    cases.append(["kobrank", "--p", "3", "--f", "9,3,1", "--n", "2", "--pretty"])
    cases.append(["kobrank", "--p", "3", "--f", "3", "--n", "2",
                  "--methods", "closed_form,snf_oracle"])
    # a finite tower whose level-1 elementary divisors reach past p^128
    cases.append(["kobrank", "--p", "3", "--f", f"{3**130},1", "--n", "1"])
    for p, f, n, methods in ((3, "1,zzz", 1, "all"), (3, "1,x", 2, "all"),
                             (3, "3", 1, "magic"), (3, "1,1", 2, "bogus"),
                             (3, "1,1", 0, "all"), (4, "1,1", 1, "all"),
                             (3, "0", 2, "all")):
        cases.append(["kobrank", "--p", str(p), "--f", f, "--n", str(n),
                      "--methods", methods])
    cases = [(argv, None) for argv in cases]

    worked = {"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}], "sigma": None,
              "tau": None, "mu_sigma": 0, "lambda_sigma": 5, "mu_tau": 0,
              "lambda_tau": 5, "r_inf": 2, "base": {"n0": 0, "e0": 0}}
    mixed = {"p": 3, "ss_primes": [{"degree": 1, "a_v": 3}, {"degree": 2, "a_v": -3},
                                   {"degree": 1, "a_v": 0}],
             "mu_sigma": 1, "lambda_sigma": 2, "mu_tau": 0, "lambda_tau": 3,
             "r_inf": 1}
    explicit = {"p": 3, "ss_primes": [{"degree": 3, "a_v": 0}, {"degree": 1, "a_v": 3}],
                "sigma": ["flat", "sharp"], "tau": ["sharp", "flat"], "mu_tau": 2}
    five = {"p": 5, "ss_primes": [{"degree": 3, "a_v": 0}], "mu_sigma": 1, "r_inf": 4}
    seven = {"p": 7, "ss_primes": [{"degree": 1, "a_v": 0}, {"degree": 4, "a_v": 0}],
             "lambda_sigma": 1, "base": {"n0": 2, "e0": 10}}
    negative = {"p": 3, "ss_primes": [{"degree": 1, "a_v": 0}], "r_inf": 5,
                "base": {"n0": 0, "e0": 0}}
    for scenario, n_max in ((worked, 1), (worked, 3), (worked, 6), (mixed, 5),
                            (explicit, 4), (five, 4), (seven, 5), (negative, 3)):
        cases.append(_growth(scenario, n_max))
        cases.append(_growth(scenario, n_max, "--format", "csv"))
        cases.append(_growth(scenario, n_max, "--pretty"))
    base = {"p": 3, "ss_primes": [{"degree": 2, "a_v": 0}]}
    for scenario, n_max in (
        ({"p": 3, "ss_primes": [{"degree": 1, "a_v": 0}], "tau": ["flat"],
          "base": {"n0": 0, "e0": 0}}, 2),
        ({"p": 3, "ss_primes": [{"degree": 1, "a_v": 0}], "sigma": ["sharp"]}, 3),
        (worked, -1),
        ({**base, "base": {"n0": 3, "e0": 0}}, 2),
        ({"hello": 1}, 2),
        ({"p": 3}, 2),
        ({**base, "sigma": ["flat", "flat"]}, 2),
        ({**base, "sigma": ["bogus"]}, 2),
        ({**base, "mu_sigma": -1}, 2),
        ({"p": 3, "ss_primes": []}, 2),
        ({"p": 4, "ss_primes": [{"degree": 1, "a_v": 0}]}, 2),
        ({"p": 3, "ss_primes": [{"degree": 1, "a_v": 1}]}, 2),
        ({"p": 3, "ss_primes": [{"degree": 0, "a_v": 0}]}, 2),
        ({"p": 3, "ss_primes": [{"a_v": 0}]}, 2),
        ("{not json", 2),
    ):
        cases.append(_growth(scenario, n_max))
    cases.append((["growth", "--scenario", "missing.json", "--n-max", "2"], None))
    return cases


def _run(argv, scenario):
    if scenario is not None:
        pathlib.Path(SCENARIO_FILE).write_text(scenario)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "scenario": scenario, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_the_grid(golden):
    assert [(r["argv"], r["scenario"]) for r in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[" ".join(argv) for argv, _ in CASES])
def test_replay(index, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(*CASES[index]) == golden[index]


def test_parser_refusal_leaves_no_state(golden, tmp_path, monkeypatch):
    """The parser is built once per process; a refused argv must not change
    what the next call prints."""
    monkeypatch.chdir(tmp_path)
    for index in (CASES.index((["valmat", "--p", "3", "--av", "0", "--n", "3"], None)),
                  next(i for i, (argv, _) in enumerate(CASES) if argv[0] == "growth")):
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(["valmat", "--p", "3", "--av", "0"])
        assert exc.value.code == 2
        assert _run(*CASES[index]) == golden[index]


if __name__ == "__main__":
    import tempfile

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            records = [_run(argv, scenario) for argv, scenario in CASES]
        finally:
            os.chdir(cwd)
    with open(FIXTURE, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {FIXTURE}")
