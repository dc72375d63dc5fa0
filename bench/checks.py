"""Independent references for the benchmark's output checks.

Nothing here calls iwagrowth: every reference is computed from the
definitions with the standard library (and sympy for resultants), so a
fault in the program cannot hide by agreeing with itself.  Each ``check_*``
function takes one operation's inputs and output and returns a list of
mismatch messages, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from math import comb

SHARP = "sharp"
FLAT = "flat"

# A Mersenne prime for Schwartz-Zippel identity checks by evaluation.
EVAL_PRIME = (1 << 61) - 1


# -- polynomials as coefficient lists, constant term first ---------------------

def omega_coeffs(p: int, n: int) -> list[int]:
    """(1+X)^(p^n) - 1 from binomial coefficients."""
    q = p**n
    return [0] + [comb(q, k) for k in range(1, q + 1)]


def phi_coeffs(p: int, m: int) -> list[int]:
    """Phi_m = sum_{i<p} (1+X)^(i p^(m-1)), monic of degree phi(p^m)."""
    step = p ** (m - 1)
    deg = (p - 1) * step
    return [sum(comb(i * step, k) for i in range(p)) for k in range(deg + 1)]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_rem_monic(a: list[int], b: list[int]) -> list[int]:
    """a mod b over Z for a monic b."""
    r = list(a)
    db = len(b) - 1
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if c:
            for i, y in enumerate(b):
                r[k - db + i] -= c * y
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r


def coprime_to_omega(f: list[int], p: int, n: int) -> bool:
    """f shares no factor X, Phi_1..Phi_n with omega_n."""
    if f[0] == 0:
        return False
    return all(poly_rem_monic(f, phi_coeffs(p, m)) for m in range(1, n + 1))


def poly_eval_mod(coeffs, x: int, q: int = EVAL_PRIME) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def totient(p: int, n: int) -> int:
    return p**n - p ** (n - 1)


def ord_p(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def as_fraction(text: str) -> Fraction | None:
    """The program's ord_p strings: a rational, or "inf" (returned as None)."""
    return None if text == "inf" else Fraction(text)


# -- valuation tables -----------------------------------------------------------

def valuation_formula(p: int, a_v: int, n: int) -> tuple[Fraction | None, Fraction | None]:
    """The parity-split first row (sharp, flat) of ord_p H_(v,n)(eps_n).

    r_v = ord_p(a_v) is 1 for a_v = +-p and infinite (None) for a_v = 0.
    Odd n = 2m+1: sharp = r_v + sum_{i<=m} p^(-2i), flat = sum_{i<=m} p^(1-2i).
    Even n = 2m:  sharp = sum_{i<=m} p^(1-2i), flat = r_v + sum_{i<m} p^(-2i).
    """
    r_v = None if a_v == 0 else Fraction(1)

    def even(m):
        return sum((Fraction(1, p ** (2 * i)) for i in range(1, m + 1)), Fraction(0))

    def odd(m):
        return sum((Fraction(1, p ** (2 * i - 1)) for i in range(1, m + 1)), Fraction(0))

    def plus_rv(x):
        return None if r_v is None else r_v + x

    if n % 2 == 1:
        m = (n - 1) // 2
        return plus_rv(even(m)), odd(m)
    m = n // 2
    return odd(m), plus_rv(even(m - 1))


def check_valuation_rows(p: int, a_v: int, n: int, rows) -> list[str]:
    """rows: 2x2 ord_p strings; first row per the formula, second row infinite
    (it is -Phi_n times a polynomial, and Phi_n(eps_n) = 0)."""
    sharp, flat = valuation_formula(p, a_v, n)
    want = [[sharp, flat], [None, None]]
    got = [[as_fraction(str(x)) for x in row] for row in rows]
    if got != want:
        return [f"valuations p={p} a_v={a_v} n={n}: {got} != {want}"]
    return []


# -- H structure, witness and gaps ----------------------------------------------

def check_det(p: int, n: int, entries, seed: int) -> list[str]:
    """det H_(v,n) = omega_n / X, whose coefficient of X^k is C(p^n, k+1).

    entries: 2x2 coefficient lists.  Checked at three random points mod a
    61-bit prime, which a wrong determinant survives with probability below
    3 * deg / 2^61.
    """
    q = p**n
    rng = random.Random(seed)
    for _ in range(3):
        x = rng.randrange(2, EVAL_PRIME)
        e = [[poly_eval_mod(c, x) for c in row] for row in entries]
        det = (e[0][0] * e[1][1] - e[0][1] * e[1][0]) % EVAL_PRIME
        want = sum(comb(q, k + 1) % EVAL_PRIME * pow(x, k, EVAL_PRIME)
                   for k in range(q)) % EVAL_PRIME
        if det != want:
            return [f"det H p={p} n={n} != omega_n/X at X={x}"]
    return []


def check_witness(p: int, a_v: int, n: int, g1, g2, image, image_mod_prec) -> list[str]:
    """The witness lies in the image lattice and maps onto omega_(n-1)."""
    out = []
    c1 = g1[0] if g1 else 0
    c2 = g2[0] if g2 else 0
    if (p - 1) * c1 != (2 - a_v) * c2:
        out.append(f"witness p={p} a_v={a_v} n={n} outside the image lattice")
    want = omega_coeffs(p, n - 1)
    if image_mod_prec is not None:
        pk = p**image_mod_prec
        want = [c % pk for c in want]
    while want and want[-1] == 0:
        want.pop()
    if list(image) != want:
        out.append(f"witness image p={p} a_v={a_v} n={n} != omega_{n - 1}"
                   f" (mod p^{image_mod_prec})")
    return out


def check_gaps(p: int, a_v: int, gaps: list[str]) -> list[str]:
    """Convergence gaps of consecutive finite stages are nondecreasing in n."""
    vals = [as_fraction(g) for g in gaps]
    for a, b in zip(vals, vals[1:]):
        if a is None or (b is not None and b < a):
            return [f"gaps p={p} a_v={a_v} not nondecreasing: {gaps}"]
    return []


# -- Kobayashi ranks ------------------------------------------------------------

def weierstrass(f: list[int], p: int) -> tuple[int, int]:
    """(mu, lambda) of a polynomial: the least coefficient valuation and the
    least index attaining it."""
    vals = [(ord_p(c, p), i) for i, c in enumerate(f) if c]
    return min(vals)


def check_ranks(p: int, n: int, values: list[int], mu: int, lam: int) -> list[str]:
    """The three routes agree, and equal phi(p^n) mu + lambda when
    lambda < phi(p^n), for f = p^mu (distinguished of degree lambda) (unit)."""
    out = []
    if len(set(values)) != 1:
        out.append(f"ranks p={p} n={n}: routes disagree {values}")
    if lam < totient(p, n):
        want = totient(p, n) * mu + lam
        if values[0] != want:
            out.append(f"ranks p={p} n={n}: {values[0]} != phi*mu+lambda = {want}")
    return out


def sympy_rank(f: list[int], p: int, n: int) -> int:
    """ord_p Res(f, omega_n) - ord_p Res(f, omega_(n-1)) by sympy."""
    import sympy

    x = sympy.Symbol("x")

    def poly(c):
        return sympy.Poly(list(reversed(c)), x)

    fp = poly(f)
    hi = sympy.resultant(fp, poly(omega_coeffs(p, n)))
    lo = sympy.resultant(fp, poly(omega_coeffs(p, n - 1)))
    return ord_p(int(hi), p) - ord_p(int(lo), p)


# -- growth tables --------------------------------------------------------------

def growth_reference(sc: dict, n_max: int):
    """Rows (n, delta, cumulative) of a well-formed scenario, or the exit code
    the CLI must give (2: n_max below the anchor, 5: infinite term).

    delta(n) = phi(p^n) * (sum over places of degree * first-row entry chosen
    by the sign) + phi(p^n) mu + lambda - r_inf, with sigma at odd and tau at
    even levels; a null vector picks the entry of smaller ord_p.
    """
    p = sc["p"]
    base = sc.get("base", {"n0": 0, "e0": 0})
    n0, cum = base["n0"], base["e0"]
    if n_max < n0:
        return 2
    rows = []
    for n in range(n0 + 1, n_max + 1):
        odd = n % 2 == 1
        vec = sc.get("sigma") if odd else sc.get("tau")
        total = Fraction(0)
        for i, place in enumerate(sc["ss_primes"]):
            sharp, flat = valuation_formula(p, place["a_v"], n)
            if vec is None:
                entry = flat if sharp is None or (flat is not None and flat < sharp) else sharp
            else:
                entry = sharp if vec[i] == SHARP else flat
            if entry is None:
                return 5
            total += place["degree"] * entry
        term = totient(p, n) * total
        assert term.denominator == 1
        mu = sc.get("mu_sigma" if odd else "mu_tau", 0)
        lam = sc.get("lambda_sigma" if odd else "lambda_tau", 0)
        delta = int(term) + totient(p, n) * mu + lam - sc.get("r_inf", 0)
        cum += delta
        rows.append((n, delta, cum, int(term)))
    return rows


def av_zero_closed_form(p: int, n: int, degree_sum: int) -> int:
    """All a_v = 0: sum d_w (p^(n-1) - p^(n-2) + ... ending at -p or -1)."""
    low = 1 if n % 2 == 1 else 0
    return degree_sum * sum((-1) ** (n - 1 - j) * p**j for j in range(low, n))


def parse_growth_output(stdout: str, fmt: str, pretty: bool) -> list[dict]:
    if fmt == "csv":
        return [{k: v for k, v in r.items()} for r in csv.DictReader(io.StringIO(stdout))]
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if pretty:
        head = lines[0].split()
        return [dict(zip(head, ln.split())) for ln in lines[1:]]
    return [json.loads(ln) for ln in lines]


def check_growth(sc: dict, n_max: int, fmt: str, pretty: bool, code: int,
                 stdout: str) -> list[str]:
    want = growth_reference(sc, n_max)
    if isinstance(want, int):
        return [] if code == want else [f"growth exit {code} != {want}"]
    if code != 0:
        return [f"growth exit {code} != 0"]
    try:
        got = parse_growth_output(stdout, fmt, pretty)
    except (ValueError, IndexError) as exc:
        return [f"growth output unparsable: {exc!r}"]
    if len(got) != len(want):
        return [f"growth rows {len(got)} != {len(want)}"]
    out = []
    cum = sc.get("base", {"n0": 0, "e0": 0})["e0"]
    all_zero = all(w["a_v"] == 0 for w in sc["ss_primes"])
    dsum = sum(w["degree"] for w in sc["ss_primes"])
    for row, (n, delta, cum_want, term) in zip(got, want):
        try:
            rn, rd, rc, rt = (int(row[k]) for k in ("n", "delta", "cumulative", "S_or_T"))
        except (KeyError, ValueError) as exc:
            return [f"growth row malformed: {exc!r}"]
        cum += rd
        if (rn, rd, rt) != (n, delta, term):
            out.append(f"growth n={n}: (n, delta, S_or_T) = {(rn, rd, rt)} != {(n, delta, term)}")
        if rc != cum or rc != cum_want:
            out.append(f"growth n={n}: cumulative {rc} is not the prefix sum {cum_want}")
        if all_zero and rt != av_zero_closed_form(sc["p"], n, dsum):
            out.append(f"growth n={n}: S_or_T {rt} != alternating closed form")
    return out


# -- CLI refusals -------------------------------------------------------------------

def check_refusal(code: int, stderr: str, want_code: int = 2) -> list[str]:
    """A malformed request ends with its documented code and no traceback."""
    if code != want_code or "Traceback" in stderr:
        return [f"refusal exit {code} != {want_code}"]
    return []


# -- single CLI queries -------------------------------------------------------------

def check_valmat_output(p: int, a_v: int, n: int, code: int, stdout: str) -> list[str]:
    """valmat: exit 0, "agree" is true and the computed entries match the formula."""
    if code != 0:
        return [f"valmat p={p} a_v={a_v} n={n}: exit {code}"]
    d = json.loads(stdout)
    bad = check_valuation_rows(p, a_v, n, d["computed"]["entries"])
    return bad if d["agree"] is True else bad + [f"valmat p={p} a_v={a_v} n={n}: agree is not true"]


def check_kobrank_output(code: int, stdout: str) -> list[str]:
    """kobrank --methods all: exit 0, three results and "all_agree" true."""
    if code != 0:
        return [f"kobrank exit {code}"]
    d = json.loads(stdout)
    if d.get("all_agree") is not True or len(d["results"]) != 3:
        return ["kobrank routes do not all agree"]
    return []


def check_logmat_output(p: int, n: int, which: str, code: int, stdout: str,
                        seed: int) -> list[str]:
    """logmat: H has det omega_n / X; M carries the denominator p^(n+1)."""
    if code != 0:
        return [f"logmat p={p} n={n} {which}: exit {code}"]
    d = json.loads(stdout)
    if which == "m":
        return [] if d["denom_exp"] == n + 1 else [f"logmat M p={p} n={n}: denom_exp != n+1"]
    entries = [[[int(c) for c in e["coeffs"]] for e in row] for row in d["entries"]]
    return check_det(p, n, entries, seed)
