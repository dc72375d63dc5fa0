"""Sha-growth predictions along the cyclotomic tower.

The level-n delta is S (odd n) or T (even n) plus phi(p^n)*mu + lambda minus
r_inf, where S and T are degree-weighted valuation sums over the supersingular
places and mu, lambda, r_inf are user-supplied global invariants.  S and T are
summed in integers from logmat.parity_tails: a place whose sign is the
carrier adds degree * (phi(p^n)*r_v + even), any other place degree * odd.
Cumulative tables prefix-sum the deltas from a base anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InfiniteTerm, NotAvZero, ValidationError, require_int, require_level
from .iwapoly import totient
from .logmat import FLAT, SHARP, LocalCurveData, parity_tails, signature


def _require_json(value, kind: type, name: str):
    """value when it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        label = "object" if kind is dict else "array"
        raise ValidationError(f"{name} must be a JSON {label}, got {type(value).__name__}")
    return value


def _optional_array(d: dict, name: str) -> tuple | None:
    """d[name] as a tuple when it is a JSON array; None when absent or null."""
    value = d.get(name)
    return None if value is None else tuple(_require_json(value, list, name))


# The global invariants of a scenario, in the order of its JSON form.
_INVARIANTS = ("mu_sigma", "lambda_sigma", "mu_tau", "lambda_tau", "r_inf")


@dataclass(frozen=True)
class SsPrime:
    """One supersingular place: residue degree and trace of Frobenius."""

    degree: int
    a_v: int

    def __post_init__(self):
        if require_int(self.degree, "degree") < 1:
            raise ValidationError("degree must be >= 1")
        require_int(self.a_v, "a_v")

    def to_json(self) -> dict:
        return {"degree": self.degree, "a_v": self.a_v}

    @classmethod
    def from_json(cls, d: dict) -> "SsPrime":
        _require_json(d, dict, "ss_primes entry")
        return cls(d["degree"], d["a_v"])


@dataclass(frozen=True)
class GrowthScenario:
    """Inputs of a growth prediction.

    sigma is used at odd levels, tau at even levels; None means the defaults
    chosen by logmat.signature (flat at odd levels, sharp at even ones).
    Construction checks shapes and that the invariants and the anchor
    (base_n0, base_e0) are nonnegative.  The places (p and the traces) are
    validated once per scenario, when places is first read; sha_table reads
    it before its first row, so an invalid scenario is refused even when the
    table is empty.  An inconsistent signature is raised only at a level
    whose term is computed.  validate_scenario reports every problem at once.
    """

    prime: int
    ss_primes: tuple[SsPrime, ...]
    sigma: tuple[str, ...] | None = None
    tau: tuple[str, ...] | None = None
    mu_sigma: int = 0
    lambda_sigma: int = 0
    mu_tau: int = 0
    lambda_tau: int = 0
    r_inf: int = 0
    base_n0: int = 0
    base_e0: int = 0

    def __post_init__(self):
        require_int(self.prime, "prime")
        object.__setattr__(self, "ss_primes", tuple(self.ss_primes))
        for name in ("sigma", "tau"):
            vec = getattr(self, name)
            if vec is None:
                continue
            vec = tuple(vec)
            if len(vec) != len(self.ss_primes):
                raise ValidationError(f"{name} length does not match ss_primes")
            if any(s not in (SHARP, FLAT) for s in vec):
                raise ValidationError(f"{name} entries must be 'sharp' or 'flat'")
            object.__setattr__(self, name, vec)
        for name in (*_INVARIANTS, "base_n0", "base_e0"):
            if require_int(getattr(self, name), name) < 0:
                raise ValidationError(f"{name} must be nonnegative")

    @cached_property
    def places(self) -> tuple[LocalCurveData, ...]:
        """One LocalCurveData per supersingular place, built and validated on
        first use and then kept: ValidationError when there is no place, p is
        not an odd prime, or a trace is not divisible by p or breaks the Weil
        bound."""
        if not self.ss_primes:
            raise ValidationError("scenario needs at least one supersingular place")
        return tuple(LocalCurveData(self.prime, w.a_v) for w in self.ss_primes)

    def signs(self, parity_n: int) -> tuple[str, ...]:
        """The signature vector at levels of parity_n's parity: sigma (odd) or
        tau (even) when given, else logmat.signature of each place, which
        depends only on the parity and so is read at level 1 or 2."""
        explicit = self.sigma if parity_n % 2 == 1 else self.tau
        if explicit is not None:
            return explicit
        return tuple(signature(d, 2 - parity_n % 2) for d in self.places)

    def to_json(self) -> dict:
        return {
            "p": self.prime,
            "ss_primes": [w.to_json() for w in self.ss_primes],
            "sigma": list(self.sigma) if self.sigma is not None else None,
            "tau": list(self.tau) if self.tau is not None else None,
            **{name: getattr(self, name) for name in _INVARIANTS},
            "base": {"n0": self.base_n0, "e0": self.base_e0},
        }

    @classmethod
    def from_json(cls, d: dict) -> "GrowthScenario":
        _require_json(d, dict, "scenario")
        base = d.get("base", {"n0": 0, "e0": 0})
        return cls(
            prime=require_int(d["p"], "p"),
            ss_primes=tuple(SsPrime.from_json(w)
                            for w in _require_json(d["ss_primes"], list, "ss_primes")),
            sigma=_optional_array(d, "sigma"),
            tau=_optional_array(d, "tau"),
            **{name: require_int(d.get(name, 0), name) for name in _INVARIANTS},
            base_n0=require_int(_require_json(base, dict, "base")["n0"], "base.n0"),
            base_e0=require_int(base["e0"], "base.e0"),
        )


def _level(sc: GrowthScenario, n: int) -> tuple[int, int, int, int]:
    """(S or T, phi(p^n)*mu, lambda, delta) at level n >= 1, with the
    invariants of n's parity.  S or T is phi(p^n) times the degree-weighted
    valuation sum: each place contributes its first-row closed-form entry
    (logmat.parity_tails) in the column of its sign."""
    carrier, even, odd = parity_tails(sc.prime, n)
    phi_deg = totient(sc.prime, n)
    term = 0
    for w, data, s in zip(sc.ss_primes, sc.places, sc.signs(n)):
        if s != carrier:
            term += w.degree * odd
        elif data.r_v.is_infinite:
            raise InfiniteTerm(f"signature {s} needs finite ord_p(a_v) but a_v = {w.a_v}")
        else:
            term += w.degree * (phi_deg * int(data.r_v.value) + even)
    mu, lam = (sc.mu_sigma, sc.lambda_sigma) if n % 2 == 1 else (sc.mu_tau, sc.lambda_tau)
    phi_mu = phi_deg * mu
    return term, phi_mu, lam, term + phi_mu + lam - sc.r_inf


def s_term(sc: GrowthScenario, n: int) -> int:
    """The odd-level term S(sigma, n)."""
    if n < 1 or n % 2 == 0:
        raise ValidationError("n must be odd and >= 1")
    return _level(sc, n)[0]


def t_term(sc: GrowthScenario, n: int) -> int:
    """The even-level term T(tau, n)."""
    if n < 2 or n % 2 == 1:
        raise ValidationError("n must be even and >= 2")
    return _level(sc, n)[0]


def av_zero_closed_form(sc: GrowthScenario, n: int) -> int:
    """Sum of d_w times the alternating tail p^(n-1) - p^(n-2) + ... ending at
    -p (odd n) or -1 (even n); only valid when every a_v = 0."""
    require_level(n)
    if any(w.a_v != 0 for w in sc.ss_primes):
        raise NotAvZero("closed form requires every a_v = 0")
    sc.places  # refuses an empty or invalid place list
    p = sc.prime
    low = 1 if n % 2 == 1 else 0
    tail = sum((-1) ** (n - 1 - j) * p**j for j in range(low, n))
    return sum(w.degree for w in sc.ss_primes) * tail


def sha_delta(sc: GrowthScenario, n: int) -> int:
    """Predicted e(Sha at level n) - e(Sha at level n-1); asymptotic in n."""
    require_level(n)
    return _level(sc, n)[3]


# A table row's columns, in order: its JSON keys and the CSV/pretty header.
TABLE_FIELDS = ("n", "parity", "S_or_T", "phi_mu", "lambda", "r_inf", "delta", "cumulative")


@dataclass(frozen=True)
class TableRow:
    n: int
    parity: str
    s_or_t: int
    phi_mu: int
    lam: int
    r_inf: int
    delta: int
    cumulative: int
    warning: str | None = None

    def to_json(self) -> dict:
        d = dict(zip(TABLE_FIELDS, (self.n, self.parity, self.s_or_t, self.phi_mu,
                                    self.lam, self.r_inf, self.delta, self.cumulative)))
        if self.warning:
            d["warning"] = self.warning
        return d


def _require_anchor(sc: GrowthScenario, n_max: int) -> None:
    """Refuse an n_max below the anchor, then an invalid scenario, even when
    the table would be empty."""
    if require_int(n_max, "n_max") < sc.base_n0:
        raise ValidationError(f"n_max {n_max} is below the anchor n0 {sc.base_n0}")
    sc.places


def sha_table(sc: GrowthScenario, n_max: int) -> list[TableRow]:
    """Rows for base_n0 < n <= n_max, cumulative anchored at (n0, e0)."""
    _require_anchor(sc, n_max)
    rows = []
    cum = sc.base_e0
    for n in range(sc.base_n0 + 1, n_max + 1):
        term, phi_mu, lam, delta = _level(sc, n)
        cum += delta
        warning = None
        if cum < 0:
            warning = f"cumulative exponent {cum} is negative: inconsistent inputs"
        rows.append(TableRow(n, "odd" if n % 2 == 1 else "even", term, phi_mu, lam,
                             sc.r_inf, delta, cum, warning))
    return rows


def exceeds_digits(sc: GrowthScenario, n_max: int, digits: int) -> bool:
    """Whether sha_table(sc, n_max) provably holds an integer of more than
    digits decimal digits (0: no limit), decided without forming p^n_max.

    First refuses what sha_table refuses before any row: an n_max below the
    anchor and an invalid scenario.  With D the sum of the degrees, the last
    row's S_or_T is at least D * O(n_max), O the odd tail of
    logmat.parity_tails: a carrier place adds
    d_w (phi(p^n) r_v + even) >= d_w phi(p^n) > d_w O(n).  And
    O(n) >= (p-1) p^(n-2) for n >= 2.  The logarithms are compared with a
    margin of 1e-9 digits, far above their float rounding, so the bound fires
    at most one level after D * O(n) first has more than digits digits.  Before
    it answers True it raises the InfiniteTerm that sha_table's first rows
    would: that depends only on the parity, so it is read at level 1 or 2.
    """
    _require_anchor(sc, n_max)
    if not digits or n_max <= max(sc.base_n0, 1):
        return False
    weight = sum(w.degree for w in sc.ss_primes) * (sc.prime - 1)
    if n_max - 2 < (digits + 1e-9 - math.log10(weight)) / math.log10(sc.prime):
        return False
    for n in range(sc.base_n0 + 1, min(n_max, sc.base_n0 + 2) + 1):
        _level(sc, 2 - n % 2)
    return True


@dataclass
class ScenarioReport:
    """Outcome of scenario validation with the defaulted signature vectors."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    default_sigma: tuple[str, ...] | None = None
    default_tau: tuple[str, ...] | None = None


def validate_scenario(sc: GrowthScenario) -> ScenarioReport:
    """Every problem of sc at once: each invalid place or, when the places
    are valid, each sign that picks an infinite entry."""
    try:
        places = sc.places
    except ValidationError:
        violations = [] if sc.ss_primes else ["no supersingular places"]
        for i, w in enumerate(sc.ss_primes):
            try:
                LocalCurveData(sc.prime, w.a_v)
            except ValidationError as exc:
                violations.append(f"place {i}: {exc}")
        return ScenarioReport(False, violations)
    violations = []
    for parity, which in (1, "sigma"), (2, "tau"):
        carrier = parity_tails(sc.prime, parity)[0]
        for i, (d, s) in enumerate(zip(places, sc.signs(parity))):
            if s == carrier and d.r_v.is_infinite:
                violations.append(f"{which}[{i}] = {s} needs finite ord_p(a_v) but a_v = {d.a_v}")
    return ScenarioReport(not violations, violations,
                          tuple(signature(d, 1) for d in places),
                          tuple(signature(d, 2) for d in places))
