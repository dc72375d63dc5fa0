"""Command-line frontend.

Subcommands: logmat, valmat, kobrank, growth, selfcheck.  Output is JSON by
default (--pretty for indented or tabular form).  kobrank takes no working
precision: its elementary-divisor oracle doubles its modulus until the
finite level-n module is eliminated.  Exit codes: 0 success, 1 selfcheck
found a failing criterion, 2 validation failure, 3 precision exhausted (a
library PrecisionExhausted), 4 precondition failure, 5 infinite term, 70
internal error (an exception that is not an IwagrowthError, reported on one
stderr line with no traceback), 141 stdout closed by its reader (as a shell
reports a death by SIGPIPE; nothing is printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import (
    InfiniteTerm,
    IwagrowthError,
    NotFinite,
    PhiDividesF,
    PrecisionExhausted,
    ValidationError,
)
from .growth import TABLE_FIELDS, GrowthScenario, exceeds_digits, sha_table
from .kobayashi import (
    CLOSED_FORM,
    RESULTANT_ORACLE,
    SNF_ORACLE,
    TowerOfQuotients,
    exceeds_digits as closed_form_exceeds_digits,
    nabla_closed_form,
    nabla_resultant_oracle,
    nabla_snf_oracle,
)
from .iwapoly import IwaPoly, coprime_to_omega
from .logmat import (
    LocalCurveData,
    exceeds_digits as matrix_exceeds_digits,
    h_matrix,
    m_matrix,
    signature,
    valuation_matrix,
    valuation_matrix_closed_form,
)
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION = 3
EXIT_PRECONDITION = 4
EXIT_INFINITE = 5
EXIT_INTERNAL = 70  # sysexits.h EX_SOFTWARE
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports that death


def _too_long() -> ValidationError:
    """The refusal of a result with an integer too long for str()."""
    return ValidationError(
        f"result has an integer over the {sys.get_int_max_str_digits()}-digit "
        "limit for printing"
    )


def _printable(render) -> str:
    """render(), refused with ValidationError when an integer in it is too
    long for str() (sys.get_int_max_str_digits()), so nothing is printed."""
    try:
        return render()
    except ValueError as exc:  # the only ValueError that rendering the results raises
        raise _too_long() from exc


def _emit(payload, pretty: bool):
    """Print payload as JSON, each object in it by its to_json(); the whole
    text is rendered before any of it is printed."""
    print(_printable(lambda: json.dumps(payload, indent=2 if pretty else None,
                                        default=lambda obj: obj.to_json())))


def _parse_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(c.strip()) for c in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {label} list {text!r}: {exc}")


def cmd_logmat(args) -> int:
    data = LocalCurveData(args.p, args.av)
    if matrix_exceeds_digits(data, args.n, sys.get_int_max_str_digits(), m=args.which == "m"):
        raise _too_long()  # before H is built; _printable stays the final check
    mat = h_matrix(data, args.n) if args.which == "h" else m_matrix(data, args.n)
    _emit(mat, args.pretty)
    return EXIT_OK


def cmd_valmat(args) -> int:
    data = LocalCurveData(args.p, args.av)
    computed = valuation_matrix(data, args.n)
    closed = valuation_matrix_closed_form(data, args.n)
    payload = {
        "computed": computed,
        "closed_form": closed,
        "agree": computed.entries == closed.entries,
        "signature": signature(data, args.n),
    }
    _emit(payload, args.pretty)
    return EXIT_OK


_METHOD_MAP = {
    CLOSED_FORM: nabla_closed_form,
    RESULTANT_ORACLE: nabla_resultant_oracle,
    SNF_ORACLE: nabla_snf_oracle,
}


def cmd_kobrank(args) -> int:
    f = IwaPoly(args.p, _parse_ints(args.f, "coefficient"))
    tower = TowerOfQuotients(f)
    if args.methods == "all":
        methods = list(_METHOD_MAP)
    else:
        methods = [m.strip() for m in args.methods.split(",")]
        unknown = [m for m in methods if m not in _METHOD_MAP]
        if unknown:
            raise ValidationError(f"unknown methods {unknown}; choose from {list(_METHOD_MAP)}")
    # snf_oracle's value is the closed form's on a finite tower; on an
    # infinite one it raises NotFinite and prints nothing
    if closed_form_exceeds_digits(tower, args.n, sys.get_int_max_str_digits()) and (
            CLOSED_FORM in methods or SNF_ORACLE in methods and coprime_to_omega(f, args.n)):
        raise _too_long()  # before p^n is formed; _printable stays the final check
    results = [_METHOD_MAP[m](tower, args.n) for m in methods]
    payload = {"results": results}
    if len(results) > 1:
        payload["all_agree"] = len({r.value for r in results}) == 1
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_growth(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            raw = json.load(fh)
        sc = GrowthScenario.from_json(raw)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"bad scenario file {args.scenario}: {exc!r}")
    if exceeds_digits(sc, args.n_max, sys.get_int_max_str_digits()):
        raise _too_long()  # before the rows are built; _printable stays the final check
    rows = sha_table(sc, args.n_max)

    def render(rows) -> str:
        out = io.StringIO()
        if args.format == "csv":
            writer = csv.DictWriter(out, fieldnames=TABLE_FIELDS, extrasaction="ignore")
            writer.writeheader()
            for r in rows:
                writer.writerow(r.to_json())
        elif args.pretty:
            print("  ".join(f"{h:>10}" for h in TABLE_FIELDS), file=out)
            for r in rows:
                d = r.to_json()
                print("  ".join(f"{str(d[h]):>10}" for h in TABLE_FIELDS), file=out)
        else:
            for r in rows:
                print(json.dumps(r.to_json()), file=out)
        return out.getvalue()

    _printable(lambda: render(rows[-1:]))  # the longest integers, before the other rows
    text = _printable(lambda: render(rows))
    for r in rows:
        if r.warning:
            print(f"warning: n={r.n}: {r.warning}", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    ok = run_selfcheck(p_list=_parse_ints(args.p, "prime"), n_max=args.n_max, seed=args.seed)
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwagrowth",
        description="Exact local Iwasawa-theoretic computations: logarithmic "
                    "matrices, Coleman image lattices, Kobayashi ranks, and "
                    "Sha-growth tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lm = sub.add_parser("logmat", help="emit H or M matrices as JSON")
    lm.add_argument("--p", type=int, required=True)
    lm.add_argument("--av", type=int, required=True)
    lm.add_argument("--n", type=int, required=True)
    lm.add_argument("--which", choices=("h", "m"), default="h")
    lm.add_argument("--pretty", action="store_true")
    lm.set_defaults(func=cmd_logmat)

    vm = sub.add_parser("valmat", help="valuation matrix vs closed form")
    vm.add_argument("--p", type=int, required=True)
    vm.add_argument("--av", type=int, required=True)
    vm.add_argument("--n", type=int, required=True)
    vm.add_argument("--pretty", action="store_true")
    vm.set_defaults(func=cmd_valmat)

    kb = sub.add_parser("kobrank", help="Kobayashi rank of Lambda/(f, omega_n)")
    kb.add_argument("--p", type=int, required=True)
    kb.add_argument("--f", required=True,
                    help="comma-separated coefficients, constant term first")
    kb.add_argument("--n", type=int, required=True)
    kb.add_argument("--methods", default="all",
                    help="comma list of closed_form,resultant_oracle,snf_oracle")
    kb.add_argument("--pretty", action="store_true")
    kb.set_defaults(func=cmd_kobrank)

    gr = sub.add_parser("growth", help="Sha-growth table from a scenario file")
    gr.add_argument("--scenario", required=True)
    gr.add_argument("--n-max", type=int, required=True)
    gr.add_argument("--format", choices=("json", "csv"), default="json")
    gr.add_argument("--pretty", action="store_true")
    gr.set_defaults(func=cmd_growth)

    sc = sub.add_parser("selfcheck", help="run the full identity/oracle suites")
    sc.add_argument("--p", default="3,5,7", help="comma-separated primes")
    sc.add_argument("--n-max", type=int, default=9)
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(func=cmd_selfcheck)

    return parser


# Built once per process: parse_args keeps no state between calls.
_PARSER = build_parser()

# Exit code of each error class; any other IwagrowthError exits EXIT_VALIDATION,
# and any exception that is not an IwagrowthError exits EXIT_INTERNAL.
_EXIT_CODES = (
    (PrecisionExhausted, EXIT_PRECISION),
    (NotFinite, EXIT_PRECONDITION),
    (PhiDividesF, EXIT_PRECONDITION),
    (InfiniteTerm, EXIT_INFINITE),
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the
        # interpreter's final flush of what is still buffered cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except IwagrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)),
                    EXIT_VALIDATION)
    except Exception as exc:  # a defect, not a refusal: one line, no traceback
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
