import hashlib
import random
from fractions import Fraction

import pytest

from iwagrowth import logmat
from iwagrowth.errors import ValidationError
from iwagrowth.iwapoly import IwaPoly, _phi_t, omega, ord_eps, phi_poly, totient
from iwagrowth.logmat import (
    FLAT,
    SHARP,
    LocalCurveData,
    LogMatrix2,
    StructureReport,
    c_matrix,
    det_structure_check,
    exceeds_digits,
    h_entries,
    h_matrix,
    m_convergence_gap,
    m_matrix,
    parity_tails,
    signature,
    valuation_matrix,
    valuation_matrix_closed_form,
)
from iwagrowth.padic import INF, ExtendedRational, int_valuation


class TestLocalCurveData:
    def test_valid(self):
        d = LocalCurveData(3, 3)
        assert d.r_v == ExtendedRational(1)
        assert LocalCurveData(3, 0).r_v.is_infinite

    def test_trace_must_be_divisible(self):
        with pytest.raises(ValidationError):
            LocalCurveData(3, 1)

    def test_weil_bound(self):
        with pytest.raises(ValidationError):
            LocalCurveData(5, 5)
        with pytest.raises(ValidationError):
            LocalCurveData(3, 6)

    def test_prime_check(self):
        with pytest.raises(ValidationError):
            LocalCurveData(9, 0)


def test_c_matrix_shape():
    c = c_matrix(LocalCurveData(3, 3), 1)
    assert c[0, 0] == IwaPoly.const(3, 3)
    assert c[0, 1] == IwaPoly.const(3, 1)
    assert c[1, 0] == -phi_poly(3, 1)
    assert c[1, 1].is_zero


def test_h_small_cases():
    d0 = LocalCurveData(3, 0)
    assert h_entries(d0, 0) == (IwaPoly.const(3, 1), IwaPoly.const(3, 0))
    assert h_entries(d0, 1) == (IwaPoly.const(3, 0), IwaPoly.const(3, 1))
    # a_v = 0 alternation: H_2 first row (-Phi_1, 0), H_3 first row (0, -Phi_2)
    assert h_entries(d0, 2) == (-phi_poly(3, 1), IwaPoly(3, ()))
    assert h_entries(d0, 3) == (IwaPoly(3, ()), -phi_poly(3, 2))


# Every valid (p, a_v) for p <= 7 (p | a_v and a_v^2 <= 4p leave a_v = 0
# for p = 5 and 7), up to p^n = 3^6, 5^4 and 7^3.
TOWER_TOPS = ((3, 0, 6), (3, 3, 6), (3, -3, 6), (5, 0, 4), (7, 0, 3))


def test_h_matrix_equals_explicit_product():
    for p, av, top in TOWER_TOPS:
        d = LocalCurveData(p, av)
        prod = c_matrix(d, 1)
        for n in range(1, top + 1):
            if n > 1:
                prod = c_matrix(d, n) * prod
            assert h_matrix(d, n).entries == prod.entries, (p, av, n)


def _clear_h_caches():
    from iwagrowth import logmat

    for cached in (logmat._second_row, logmat._first_row, logmat._first_row_times):
        cached.cache_clear()


@pytest.mark.parametrize("p, av, top", TOWER_TOPS)
def test_h_caches_do_not_depend_on_build_order(p, av, top):
    # Each level's first row reads the cached X rows of the level below and
    # never writes them, and each second row is read from T rows built
    # afresh, so a top-down or shuffled build, which forms every lower level
    # before reading it, gives the ascending build.
    d = LocalCurveData(p, av)
    levels = list(range(top + 1))
    _clear_h_caches()
    ascending = [h_matrix(d, n) for n in levels]
    shuffled = levels[:]
    random.Random(0).shuffle(shuffled)
    for order in (levels[::-1], shuffled):
        _clear_h_caches()
        built = {n: h_matrix(d, n) for n in order}
        assert [built[n] for n in levels] == ascending, order


@pytest.mark.parametrize("n", range(8))
def test_h_of_minus_a_v_is_h_of_a_v_conjugated_by_diag_1_minus_1(n):
    # C_(-a_v,m) = -D C_(a_v,m) D with D = diag(1, -1) and D^2 = I, so
    # H_(-a_v,n) = (-1)^n D H_(a_v,n) D: entry (i, j) changes by the sign
    # (-1)^(n+i+j).  This ties the series (3, 3) and (3, -3) together.
    plus, minus = (h_matrix(LocalCurveData(3, av), n) for av in (3, -3))
    for i in range(2):
        for j in range(2):
            assert minus[i, j] == plus[i, j].scale((-1) ** (n + i + j)), (i, j)


def test_scribbled_t_rows_do_not_reach_h():
    # The T rows a caller gets are its own: writing on them changes no
    # later H level and no later print-limit answer.
    d = LocalCurveData(3, 3)
    asks = [(n, digits, m) for n in range(1, 5) for digits in (1, 2, 3, 40) for m in (False, True)]
    earlier = [exceeds_digits(d, *ask) for ask in asks]
    _clear_h_caches()
    (sharp, _), (_, flat) = logmat._t_rows(3, 3, 4)
    sharp[1] = 10**60
    flat.clear()
    prod = c_matrix(d, 1)
    for n in range(1, 5):
        if n > 1:
            prod = c_matrix(d, n) * prod
        assert h_matrix(d, n).entries == prod.entries, n
    assert [exceeds_digits(d, *ask) for ask in asks] == earlier


@pytest.mark.parametrize("p, av, top", [(3, 0, 9), (3, 3, 9), (3, -3, 9), (5, 0, 6), (7, 0, 5)])
def test_t_rows_write_every_endpoint_once(p, av, top):
    # -Phi_m K_(m-1) is formed term by term from Phi_m's p lone terms, so no
    # two products may meet at one key: each second-row entry of K_m holds
    # exactly as many terms as Phi_m times the matching first-row entry of
    # K_(m-1).
    for m in range(2, top + 1):
        (low, _), (_, second) = logmat._t_rows(p, av, m - 1), logmat._t_rows(p, av, m)
        for j in range(2):
            assert len(second[j]) == len(_phi_t(p, m)) * len(low[j]), (m, j)


def test_t_rows_keep_phi_1_as_one_run(monkeypatch):
    # At p = 32749, Phi_1 has 32,749 terms in T.  K_1 is the identity, and
    # the second row of H_1 = K_1 C_(v,1) folds -Phi_1 into T as
    # (1 - T^p)/(T - 1): K_10, which is empty, is read first, then the two
    # terms of the fold by one Taylor shift of their own, and one division
    # by X.
    assert [len(e) for row in logmat._t_rows(32749, 0, 1) for e in row] == [1, 0, 0, 1]
    read = []
    monkeypatch.setattr(logmat, "_from_t", lambda terms: read.append(terms) or [])
    logmat._second_row.__wrapped__(32749, 0, 1)
    assert read == [{}, {0: 1, 32749: -1}]


# The benchmark's tower series: (p, a_v, top level).
TOWER_SERIES = ((3, 0, 7), (3, 3, 6), (3, -3, 6), (5, 0, 5), (7, 0, 4))


@pytest.mark.parametrize("p, av, top", TOWER_SERIES + ((3, 3, 9), (3, -3, 9)))
def test_k_11_is_a_polynomial_in_t_to_the_p_squared(p, av, top):
    # K_11 = (C_(v,n)...C_(v,3))_10 has no Phi_2 factor, so every exponent
    # is a multiple of p^2; _second_row's fold adds the shifts e + p, which
    # are p mod p^2 and so never meet one of them.
    for n in range(top + 1):
        k11 = logmat._t_rows(p, av, n)[1][1]
        assert all(e % (p * p) == 0 for e in k11), n


def test_phi_1_fold_stores_one_integer_per_mirrored_pair():
    # H_1's second row at p = 32749 is the one stream of (1 - T^p) into a
    # fresh list, divided by X: -Phi_1, whose coefficients C(p, j + 1) and
    # C(p, p - 1 - j) are one integer, not two equal copies.
    p = 32749
    row = logmat._second_row.__wrapped__(p, 0, 1)[0].coeffs
    assert len(row) == p
    assert all(row[j] is row[p - 2 - j] for j in range((p - 1) // 2))


@pytest.mark.parametrize("p, av, top", TOWER_SERIES)
def test_both_sides_of_the_phi_1_crossover_give_the_same_rows(p, av, top, monkeypatch):
    # _second_row applies Phi_1 in X past the crossover and folds it into T
    # below it; forced to either side at every level, both read the same
    # second rows.
    rows = {}
    for ratio in (0, 10**9):  # always the X pass; always the fold
        monkeypatch.setattr(logmat, "_FOLD_MAX_RATIO", ratio)
        logmat._second_row.cache_clear()
        rows[ratio] = [logmat._second_row(p, av, n) for n in range(top + 1)]
    logmat._second_row.cache_clear()
    assert rows[0] == rows[10**9]


# SHA-256 of the second row of H_(v,n), each entry's coefficients in hex,
# comma-separated and closed by ";", recorded from a build that kept the T
# rows term by term, and at (3, 0, 9) and (7, 0, 5) from one that read every
# entry of H from its T endpoints (no Phi_1 pass in X), and at (3, +-3, 8)
# from one that streamed each exponent shared by K_10 and K_11 once into
# both entries' lists.  No exact oracle
# reaches these levels in the tests; hex, because a coefficient at
# (7, 0, 5) is past str()'s digit limit.
SECOND_ROW_DIGESTS = {
    (3, 0, 9): "31db9bc8f58e8c723cb44f13d115ebb96d507068b82083d9a98006b8b28991bf",
    (7, 0, 5): "2e99d70cd3408144f0e9ce92e31ee4d1ed34d8624dcc83aef4a64693328e69b7",
    (3, 3, 7): "f6a77194ace2c1f878a276952d81fb9613580fc7be1e247a6488ccfd53fa5090",
    (3, -3, 7): "2b27f8ff337dd2e5d422afba09d65a64a91c0b9ce8ba7fecbd515c83d8098d1d",
    (3, 0, 8): "3e205bcb2bc9338302354edf49ed20ef25e0a2d3323b0e590fa506398115a827",
    (3, 3, 8): "625dead69ee062bc9171732e201b58787e894d177f32dfd16efeb57202e00ff2",
    (3, -3, 8): "4f00d5443cefcc5db618f376b97adb08bb03c6093cc22557536a3faf4d2585e9",
    (5, 0, 5): "35f511b9775263057a31c861c82b0292cf679298a627fee00bac6b3290bfe4e8",
    (7, 0, 4): "a97ccc0ef696d508364a2152396b2a490342b59cd0b2c047bfa8411077ff78f9",
}


@pytest.mark.parametrize("p, av, n", sorted(SECOND_ROW_DIGESTS))
def test_second_row_matches_its_pinned_digest(p, av, n):
    digest = hashlib.sha256()
    for entry in logmat._second_row(p, av, n):
        digest.update(",".join(format(c, "x") for c in entry.coeffs).encode() + b";")
    assert digest.hexdigest() == SECOND_ROW_DIGESTS[p, av, n]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_h_0_is_the_identity(p):
    one, zero = IwaPoly.const(p, 1), IwaPoly.const(p, 0)
    for av in range(-p, p + 1, p):
        if av * av <= 4 * p:
            assert h_matrix(LocalCurveData(p, av), 0) == LogMatrix2(((one, zero), (zero, one)))


@pytest.mark.parametrize("m", [False, True])
def test_exceeds_digits_is_exact_at_the_built_matrices(m):
    # The bound claims digits exactly when some entry's value at X = 1 (the
    # sum of its coefficients) is at least p^n 10^digits.  Pinned at the
    # largest such digits D and at D + 1 for every level with D >= 1, so a
    # bound read off the wrong level or row fails here.
    pinned = 0
    for p, av, top in TOWER_TOPS:
        d = LocalCurveData(p, av)
        for n in range(1, top + 1):
            mat = (m_matrix if m else h_matrix)(d, n)
            largest = max(abs(sum(e.coeffs)) for row in mat.entries for e in row)
            digits = 0
            while p**n * 10 ** (digits + 1) <= largest:
                digits += 1
            if digits:
                pinned += 1
                assert exceeds_digits(d, n, digits, m=m), (p, av, n)
                assert not exceeds_digits(d, n, digits + 1, m=m), (p, av, n)
    assert pinned >= 20


# The second row of H_(v,n) is read off the recursion in T = 1 + X; the product
# -Phi_n * (first row of H_(v,n-1)) it stands for is the oracle here.
SECOND_ROW_GRID = [(3, av, n) for av in (0, 3, -3) for n in range(1, 7)] \
    + [(5, 0, n) for n in range(1, 5)] + [(7, 0, n) for n in range(1, 4)]


@pytest.mark.parametrize("p, av, n", SECOND_ROW_GRID)
def test_h_second_row_equals_the_phi_product(p, av, n):
    d = LocalCurveData(p, av)
    h = h_matrix(d, n)
    ps, pf = h_entries(d, n - 1)
    phi = phi_poly(p, n)
    assert h.entries[1] == (-(phi * ps), -(phi * pf))
    if av == 0:
        # the cached level-(n+1) first row itself, not a copy of it
        assert h.entries[1] is h_entries(d, n + 1)


def test_det_and_block_structure():
    for p, av, nmax in ((3, 0, 4), (3, 3, 4), (5, 0, 2)):
        d = LocalCurveData(p, av)
        for n in range(1, nmax + 1):
            rep = det_structure_check(d, n)
            assert rep.passed, rep.failures


def test_det_structure_negative_control():
    d = LocalCurveData(3, 0)
    good = h_matrix(d, 2)
    bumped = LogMatrix2(
        (
            (good[0, 0] + IwaPoly.const(3, 1), good[0, 1]),
            (good[1, 0], good[1, 1]),
        )
    )
    rep = det_structure_check(d, 2, h=bumped)
    assert not rep.passed and rep.failures


def _full_det_report(d, n, h):
    """The determinant rule with no cancellation: det H against omega_n / X,
    then the two second-row entries against -Phi_n times row 1 of H_(n-1)."""
    p = d.prime
    failures = []
    if h.det() != omega(p, n) // omega(p, 0):
        failures.append("det != omega_n/X")
    ps, pf = h_entries(d, n - 1)
    phi = phi_poly(p, n)
    if h[1, 0] != -(phi * ps):
        failures.append("entry (1,0) != -Phi_n * H_sharp(n-1)")
    if h[1, 1] != -(phi * pf):
        failures.append("entry (1,1) != -Phi_n * H_flat(n-1)")
    return StructureReport(not failures, failures)


def test_det_structure_matches_full_determinant_rule():
    # H itself, H with its rows swapped, and H with one entry bumped by 1
    for p, av, n in ((3, 0, 1), (3, 0, 4), (3, 3, 1), (3, 3, 3), (3, -3, 4), (5, 0, 2),
                     (7, 0, 2)):
        d = LocalCurveData(p, av)
        h = h_matrix(d, n)
        one = IwaPoly.const(p, 1)
        variants = [h, LogMatrix2((h.entries[1], h.entries[0]))]
        for i in range(2):
            for j in range(2):
                rows = [list(row) for row in h.entries]
                rows[i][j] = rows[i][j] + one
                variants.append(LogMatrix2(tuple(tuple(r) for r in rows)))
        for v in variants:
            assert det_structure_check(d, n, h=v) == _full_det_report(d, n, v)
        assert det_structure_check(d, n, h=h).passed
        # bumped (1,0) and (1,1): variants 4 and 5
        assert "entry (1,0) != -Phi_n * H_sharp(n-1)" in \
            det_structure_check(d, n, h=variants[4]).failures
        assert "entry (1,1) != -Phi_n * H_flat(n-1)" in \
            det_structure_check(d, n, h=variants[5]).failures


def test_det_structure_forms_no_determinant_for_the_librarys_own_h(monkeypatch):
    # the library's H has the block shape by construction, so its determinant
    # identity is the cross identity on its first row: det is never formed
    def no_det(self):
        raise AssertionError("det formed")

    monkeypatch.setattr(LogMatrix2, "det", no_det)
    for p, av, top in ((3, 0, 5), (3, 3, 5), (3, -3, 5), (5, 0, 3), (7, 0, 2)):
        d = LocalCurveData(p, av)
        for n in range(1, top + 1):
            assert det_structure_check(d, n).passed
            assert det_structure_check(d, n, h_matrix(d, n)).passed


def test_m_matrix_example():
    # p=3, a_v=0, n=1: M = 3^-2 * [[0, -3], [3*Phi_1, 0]]
    m = m_matrix(LocalCurveData(3, 0), 1)
    assert m.denom_exp == 2
    assert m[0, 0].is_zero
    assert m[0, 1] == IwaPoly.const(3, -3)
    assert m[1, 0] == phi_poly(3, 1).scale(3)
    assert m[1, 1].is_zero


def test_m_matrix_determinant():
    # det M = omega_n / (p^(n+1) X): integer-part det = p^(n+1) * omega_n/X
    d = LocalCurveData(3, 3)
    for n in (1, 2, 3):
        m = m_matrix(d, n)
        assert m.denom_exp == n + 1
        expected = (omega(3, n) // omega(3, 0)).scale(3 ** (n + 1))
        assert m.det() == expected


def test_valuation_matrix_spec_values():
    # p=3, a_v=3, n=2: first row (1/3, 1), second row infinite
    vm = valuation_matrix(LocalCurveData(3, 3), 2)
    assert vm[0, 0] == ExtendedRational(Fraction(1, 3))
    assert vm[0, 1] == ExtendedRational(1)
    assert vm[1, 0].is_infinite and vm[1, 1].is_infinite
    # p=5, a_v=0, n=2: sharp entry 1/5
    vm5 = valuation_matrix(LocalCurveData(5, 0), 2)
    assert vm5[0, 0] == ExtendedRational(Fraction(1, 5))
    assert vm5[0, 1].is_infinite


def test_closed_form_matches_computed():
    for p, av, nmax in ((3, 0, 4), (3, -3, 4), (5, 0, 2), (7, 0, 2)):
        d = LocalCurveData(p, av)
        for n in range(1, nmax + 1):
            assert valuation_matrix(d, n).entries == \
                valuation_matrix_closed_form(d, n).entries


def test_valuation_matrix_matches_every_entry_of_h():
    # valuation_matrix values the first row only; reducing all four entries
    # of H mod Phi_n must give the same table.
    for p, av, nmax in ((3, 0, 5), (3, 3, 4), (5, 0, 3), (7, 0, 2)):
        d = LocalCurveData(p, av)
        for n in range(1, nmax + 1):
            h = h_matrix(d, n)
            e = totient(p, n)
            full = tuple(
                tuple(INF if (o := ord_eps(h[i, j], n)).is_infinite
                      else ExtendedRational(Fraction(o.value, e)) for j in range(2))
                for i in range(2))
            assert valuation_matrix(d, n).entries == full


def test_valuation_matrix_builds_no_phi_at_its_level(monkeypatch):
    # H_(v,n)'s first row has degree < phi(p^n), so valuing it needs no
    # reduction mod Phi_n, and the recursion runs in T = 1 + X, where each
    # Phi_m is p shifted copies: no Phi is built at any level.
    from iwagrowth import iwapoly, logmat

    real = iwapoly.phi_poly
    levels = []

    def recording(p, n):
        levels.append(n)
        return real(p, n)

    for module in (iwapoly, logmat):
        monkeypatch.setattr(module, "phi_poly", recording)
    real.cache_clear()
    iwapoly.omega.cache_clear()
    _clear_h_caches()
    valuation_matrix(LocalCurveData(5, 0), 4)
    assert levels == []


def test_signature():
    d0 = LocalCurveData(3, 0)
    assert signature(d0, 1) == FLAT and signature(d0, 3) == FLAT
    assert signature(d0, 2) == SHARP and signature(d0, 4) == SHARP
    d3 = LocalCurveData(3, 3)
    assert signature(d3, 3) == FLAT
    assert signature(d3, 2) == SHARP


def test_signature_reads_only_the_parity(monkeypatch):
    # no power of p is formed: parity_tails, which forms p^n, is not called
    def no_tails(p, n):
        raise AssertionError("parity_tails called")

    monkeypatch.setattr(logmat, "parity_tails", no_tails)
    d = LocalCurveData(3, 0)
    assert signature(d, 10**7) == SHARP and signature(d, 10**7 + 1) == FLAT
    with pytest.raises(ValidationError, match="n must be >= 1"):
        signature(d, 0)


PRIMES = (3, 5, 7, 11, 13)


@pytest.mark.parametrize("p", PRIMES)
def test_parity_tails_match_the_fraction_sums(p):
    for n in range(1, 41):
        even_tail = sum((Fraction(1, p ** (2 * i)) for i in range(1, (n - 1) // 2 + 1)),
                        Fraction(0))
        odd_tail = sum((Fraction(1, p ** (2 * i - 1)) for i in range(1, n // 2 + 1)),
                       Fraction(0))
        carrier, even, odd = parity_tails(p, n)
        assert type(even) is int and type(odd) is int
        assert carrier == (SHARP if n % 2 == 1 else FLAT)
        assert (even, odd) == (totient(p, n) * even_tail, totient(p, n) * odd_tail)


def test_parity_tails_need_a_positive_level():
    with pytest.raises(ValidationError, match="n must be >= 1"):
        parity_tails(3, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_signature_is_the_strictly_smaller_closed_form_entry(p):
    for av in (a for a in range(-2 * p, 2 * p + 1) if a % p == 0 and a * a <= 4 * p):
        d = LocalCurveData(p, av)
        for n in range(1, 41):
            sharp, flat = valuation_matrix_closed_form(d, n).entries[0]
            assert sharp < flat or flat < sharp
            assert signature(d, n) == (SHARP if sharp < flat else FLAT)


def test_convergence_gap_monotone():
    for p, av, top in ((3, 0, 4), (3, 3, 4), (5, 0, 3), (7, 0, 3)):
        d = LocalCurveData(p, av)
        gaps = [m_convergence_gap(d, n, 10) for n in range(1, top + 1)]
        assert all(a <= b for a, b in zip(gaps, gaps[1:])), (p, av, [str(g) for g in gaps])


def test_convergence_gap_validation():
    with pytest.raises(ValidationError):
        m_convergence_gap(LocalCurveData(3, 0), 0, 5)


def _gap_from_m(data, n, deg_cap):
    """The gap as defined: M_(v,n+1) - M_(v,n) = p^-(n+2) (E_(n+1) - p E_n),
    E the integer parts of the two M matrices, over the first deg_cap + 1
    coefficients of each entry."""
    if n < 1 or deg_cap < 0:
        raise ValidationError("need n >= 1 and deg_cap >= 0")
    p = data.prime
    m_next, m_cur = m_matrix(data, n + 1), m_matrix(data, n)
    vals = [int_valuation(c, p) for i in range(2) for j in range(2)
            for c in (m_next[i, j] - m_cur[i, j].scale(p)).coeffs[:deg_cap + 1] if c]
    return ExtendedRational(min(vals) - (n + 2)) if vals else INF


def _gap_outcome(gap, p, av, n, deg_cap):
    try:
        return str(gap(LocalCurveData(p, av), n, deg_cap))
    except ValidationError as e:
        return f"ValidationError: {e}"


GAP_GRID = [(3, av, n) for av in (0, 3, -3) for n in range(1, 8)] \
    + [(5, 0, n) for n in range(1, 6)] + [(7, 0, n) for n in range(1, 5)]


@pytest.mark.parametrize("p, av, n", GAP_GRID)
def test_convergence_gap_matches_the_m_difference(p, av, n):
    # m_convergence_gap reads one row of H by the identity in its docstring;
    # the two M matrices it stands for are the oracle here.
    for deg_cap in (0, 1, 10, 40):
        assert _gap_outcome(m_convergence_gap, p, av, n, deg_cap) == \
            _gap_outcome(_gap_from_m, p, av, n, deg_cap), deg_cap


@pytest.mark.parametrize("p, av, n, deg_cap", [
    (3, 0, 0, 10), (3, 3, 1, -1),
    # level n+1 is past the size bound
    (3, 0, 9, 10), (181, 0, 2, 10), (2**61 - 1, 0, 1, 10),
])
def test_convergence_gap_refusals_match_the_m_difference(p, av, n, deg_cap):
    new = _gap_outcome(m_convergence_gap, p, av, n, deg_cap)
    assert new.startswith("ValidationError: ")
    assert new == _gap_outcome(_gap_from_m, p, av, n, deg_cap)


def test_selfcheck_compares_h_with_the_c_product(monkeypatch):
    from iwagrowth import selfcheck

    real = selfcheck.h_matrix

    def off_by_one(data, n):
        h = real(data, n)
        if n < 3:
            return h
        bumped = h[0, 0] + IwaPoly.const(data.prime, 1)
        return LogMatrix2(((bumped, h[0, 1]), h.entries[1]))

    monkeypatch.setattr(selfcheck, "h_matrix", off_by_one)
    result = selfcheck.check_matrix_structure(p_list=(3,), n_max=3)
    assert not result.passed
    assert "3 of 9 cases failed" in result.detail and "C product" in result.detail


def test_selfcheck_reports_a_falling_convergence_gap(monkeypatch):
    from iwagrowth import selfcheck

    assert selfcheck.check_convergence_gaps().detail == "16 cases"
    assert selfcheck.check_convergence_gaps(p_list=(3,), n_max=2).detail == "3 cases"
    monkeypatch.setattr(selfcheck, "m_convergence_gap",
                        lambda data, n, deg_cap: ExtendedRational(-n))
    result = selfcheck.check_convergence_gaps(p_list=(3,), n_max=9)
    assert not result.passed and "FAIL" in result.line()
    assert "3 of 3 cases failed" in result.detail and "not monotone" in result.detail


def test_selfcheck_counts_each_failed_mu_lambda_read_off(monkeypatch):
    from iwagrowth import selfcheck
    from iwagrowth.iwapoly import WeierstrassData

    monkeypatch.setattr(selfcheck, "mu_lambda", lambda f: WeierstrassData(-1, -1))
    result = selfcheck.check_asymptotic_law(p_list=(3,), n_max=9)
    assert not result.passed
    assert "20 of 20 cases failed" in result.detail and "read-off" in result.detail


def test_selfcheck_counts_every_growth_composition_comparison(monkeypatch):
    import dataclasses

    from iwagrowth import selfcheck

    real = selfcheck.sha_table

    def bumped(sc, n_max):
        rows = real(sc, n_max)
        rows[2] = dataclasses.replace(rows[2], cumulative=rows[2].cumulative + 1)
        return rows

    assert selfcheck.check_growth_composition(p_list=(3,), n_max=9).detail == "7 cases"
    monkeypatch.setattr(selfcheck, "sha_table", bumped)
    result = selfcheck.check_growth_composition(p_list=(3,), n_max=9)
    assert not result.passed
    assert "2 of 7 cases failed" in result.detail and "row n=3" in result.detail
