import random

import pytest

from hypothesis import example, given, settings, strategies as st

from iwagrowth import iwapoly, logmat
from iwagrowth.errors import NonUnit, ValidationError
from iwagrowth.iwapoly import IwaPoly, omega
from iwagrowth.lattice import (
    LatticePair,
    cross_identity_check,
    h_u_map,
    in_image,
    witness,
)
from iwagrowth.logmat import LocalCurveData, h_entries, h_matrix, m_matrix
from iwagrowth.padic import PadicUnit, unit_from_int


def const_pair(p, a, b):
    return LatticePair(IwaPoly.const(p, a), IwaPoly.const(p, b))


def pair_sum(a, b):
    return LatticePair(a.g1 + b.g1, a.g2 + b.g2)


class TestLatticePair:
    def test_mixed_primes_rejected(self):
        with pytest.raises(ValidationError):
            LatticePair(IwaPoly.const(3, 1), IwaPoly.const(5, 1))


class TestInImage:
    def test_membership(self):
        d = LocalCurveData(3, 0)
        assert in_image(const_pair(3, 2, 2), d)  # 2*2 = 2*2
        assert not in_image(const_pair(3, 1, 2), d)  # 2 != 4
        # constant term 0 on both sides always qualifies
        assert in_image(LatticePair(IwaPoly(3, (0, 1)), IwaPoly(3, (0, 1))), d)

    def test_trace_enters_the_condition(self):
        d = LocalCurveData(3, 3)  # (p-1) G1(0) = -G2(0)
        assert in_image(const_pair(3, 1, -2), d)
        assert not in_image(const_pair(3, 1, 2), d)

    def test_modular_membership(self):
        d = LocalCurveData(3, 0)
        pair = const_pair(3, 1, 1 + 2 * 27)  # 2 vs 2 + 4*27
        assert not in_image(pair, d)
        assert in_image(LatticePair(pair.g1.with_modulus(3), pair.g2.with_modulus(3)), d)
        assert in_image(LatticePair(pair.g1, pair.g2.with_modulus(3)), d)
        assert not in_image(LatticePair(pair.g1.with_modulus(4), pair.g2.with_modulus(4)), d)
        # a modular coordinate sets the modulus: 2*(-2) = 2*241 mod 3^5
        one = LatticePair(IwaPoly.const(3, 1), IwaPoly.const(3, 1, 5))
        minus_two = LatticePair(IwaPoly.const(3, -2), IwaPoly.const(3, -2, 5))
        assert in_image(one, d)
        assert in_image(minus_two, d)
        assert in_image(pair_sum(one, minus_two), d)
        assert not in_image(LatticePair(IwaPoly.const(3, 1), IwaPoly.const(3, 2, 5)), d)
        # 2*(-2 mod 3^6) - 2*241 = 4*3^5: the least modulus, p^5, wins
        assert in_image(LatticePair(minus_two.g1.with_modulus(6), minus_two.g2), d)

    def test_pair_at_another_prime_is_refused(self):
        # p = 5 from the pair and a_v = 3 from the curve would read True
        pair = LatticePair(IwaPoly.const(5, 1), IwaPoly.const(5, -4))
        d = LocalCurveData(3, 3)
        with pytest.raises(ValidationError, match="mixed primes"):
            in_image(pair, d)
        with pytest.raises(ValidationError, match="mixed primes"):
            h_u_map(pair, d, 1, 1)

    def test_lattice_closed_under_module_operations(self):
        d = LocalCurveData(3, 0)
        a = const_pair(3, 2, 2)
        b = LatticePair(IwaPoly(3, (1, 7)), IwaPoly(3, (1, -4)))
        assert in_image(a, d) and in_image(b, d)
        assert in_image(pair_sum(a, b), d)
        f = IwaPoly(3, (5, 1))
        assert in_image(LatticePair(f * a.g1, f * a.g2), d)


class TestFiniteLevelMap:
    def test_reduces_mod_omega(self):
        d = LocalCurveData(3, 0)
        pair = LatticePair(IwaPoly.const(3, 5), IwaPoly(3, (1, 2, 3, 4)))
        # H_1 = (0, 1): the map is G2 mod omega_1
        assert h_u_map(pair, d, 1, 1) == IwaPoly(3, (1, 2, 3, 4)) % omega(3, 1)

    def test_unit_must_be_unit(self):
        d = LocalCurveData(3, 0)
        pair = const_pair(3, 1, 1)
        with pytest.raises(NonUnit):
            h_u_map(pair, d, 1, 3)

    def test_unit_must_match_the_curve_prime(self):
        d = LocalCurveData(3, 0)
        pair = const_pair(3, 1, 1)
        with pytest.raises(ValidationError, match="unit prime does not match curve data"):
            h_u_map(pair, d, 1, unit_from_int(2, 5, 8))
        with pytest.raises(ValidationError, match="unit prime does not match curve data"):
            witness(d, 1, PadicUnit(5, 2, 8))

    @pytest.mark.parametrize("u", [1.0, None])
    def test_unit_must_be_int_or_padic_unit(self, u):
        d = LocalCurveData(3, 0)
        with pytest.raises(ValidationError, match="unit must be int or PadicUnit"):
            h_u_map(const_pair(3, 1, 1), d, 1, u)
        with pytest.raises(ValidationError, match="unit must be int or PadicUnit"):
            witness(d, 1, u)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_minus_one_is_the_exact_map_mod_p_prec(self, p, n):
        prec = 8
        d = LocalCurveData(p, 0)
        u = unit_from_int(-1, p, prec)
        w, exact_w = witness(d, n, u), witness(d, n, -1)
        assert w.g1 == exact_w.g1
        assert w.g2 == exact_w.g2.with_modulus(prec) and w.g2.mod_prec == prec
        # degree above p^n, so the map reduces mod omega_n
        pair = LatticePair(IwaPoly(p, (2, 1) + (0,) * p**n + (1,)), IwaPoly(p, (1, -1, 3)))
        for g in (w, pair):
            img = h_u_map(g, d, n, u)
            assert img == h_u_map(g, d, n, -1).with_modulus(prec)
            assert img.mod_prec == prec

    def test_witness_hits_omega(self):
        # From (3, a_v, 5) and (5, 0, 4) on, the shorter factor of each of the
        # image's products has 20 or more coefficients, so _mul packs them:
        # exactly for u = +-1, mod p^32 for the third unit.
        for p, av, nmax in ((3, 0, 6), (3, 3, 6), (3, -3, 6), (5, 0, 4), (7, 0, 3)):
            d = LocalCurveData(p, av)
            for n in range(1, nmax + 1):
                for u in (1, -1, unit_from_int(1 + p, p, 32)):
                    w = witness(d, n, u)
                    assert in_image(w, d)
                    img = h_u_map(w, d, n, u)
                    target = omega(p, n - 1)
                    if img.mod_prec is not None:
                        target = target.with_modulus(img.mod_prec)
                    assert img == target

    @pytest.mark.parametrize("p, av, n", [(3, 3, 2), (3, 0, 3), (3, -3, 1), (5, 0, 2)])
    def test_reduction_at_the_omega_degree(self, p, av, n):
        # totals of degree p^n - 1 (no reduction is needed) and p^n (one is)
        d = LocalCurveData(p, av)
        sharp, flat = h_entries(d, n)
        for top in (p**n - 1, p**n):
            col = sharp if not sharp.is_zero else flat
            lead = IwaPoly(p, (0,) * (top - col.degree) + (1,))
            pair = LatticePair(lead, IwaPoly(p, (2, 1))) if col is sharp \
                else LatticePair(IwaPoly(p, (2, 1)), lead)
            for u in (1, -1, unit_from_int(1 + p, p, 32)):
                if isinstance(u, int):
                    total = sharp * pair.g1 + (flat * pair.g2).scale(u)
                else:
                    total = (sharp * pair.g1 + (flat * pair.g2).scale(u.residue)) \
                        .with_modulus(u.precision)
                assert total.degree == top
                img = h_u_map(pair, d, n, u)
                assert img == total % omega(p, n)
                assert img.mod_prec == (None if isinstance(u, int) else 32)

    def test_pair_modulus_below_the_unit_precision_wins(self):
        # the unit is known mod 3^32 and G_1 mod 3^5: the image is known mod 3^5
        d = LocalCurveData(3, 3)
        pair = LatticePair(IwaPoly(3, (1, 1), mod_prec=5), IwaPoly(3, (2,)))
        assert h_u_map(pair, d, 2, 1) == IwaPoly(3, (12, 3, 239, 242), mod_prec=5)
        assert h_u_map(pair, d, 2, unit_from_int(4, 3, 32)) == \
            IwaPoly(3, (30, 3, 239, 242), mod_prec=5)

    def test_linearity(self):
        d = LocalCurveData(3, 3)
        a = LatticePair(IwaPoly(3, (2, 1)), IwaPoly(3, (0, 3)))
        b = LatticePair(IwaPoly(3, (1,)), IwaPoly(3, (4, 4)))
        assert h_u_map(pair_sum(a, b), d, 2, 1) == \
            (h_u_map(a, d, 2, 1) + h_u_map(b, d, 2, 1)) % omega(3, 2)


@st.composite
def _level_map_case(draw):
    """(p, a_v, n, G_1, G_2, u): each G with no modulus or one of 1..6 and a
    degree reaching past p^n, u as +-1 or a PadicUnit of precision 1..8."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 3))
    a_v = draw(st.sampled_from([0, 3, -3] if p == 3 else [0]))  # |a_v| <= 2 sqrt(p)
    gs = []
    for _ in range(2):
        coeffs = draw(st.lists(st.integers(-p**8, p**8), max_size=p**n + 3))
        gs.append(IwaPoly(p, tuple(coeffs), draw(st.none() | st.integers(1, 6))))
    u = draw(st.sampled_from([1, -1])
             | st.builds(PadicUnit, st.just(p),
                         st.integers(1, p**8).filter(lambda r: r % p), st.integers(1, 8)))
    return p, a_v, n, gs[0], gs[1], u


@settings(max_examples=80, deadline=None)
@given(_level_map_case())
@example((3, 3, 2, IwaPoly(3, (1, 1), mod_prec=5), IwaPoly(3, (2,)), unit_from_int(4, 3, 32)))
def test_level_map_is_known_mod_the_least_modulus(case):
    p, a_v, n, g1, g2, u = case
    d = LocalCurveData(p, a_v)
    pair = LatticePair(g1, g2)
    unit_prec = None if isinstance(u, int) else u.precision
    least = min((e for e in (g1.mod_prec, g2.mod_prec, unit_prec) if e is not None), default=None)
    sharp, flat = h_entries(d, n)
    residue = u if isinstance(u, int) else u.residue
    lift1, lift2 = IwaPoly(p, g1.coeffs), IwaPoly(p, g2.coeffs)
    exact = (sharp * lift1 + (flat * lift2).scale(residue)) % omega(p, n)
    img = h_u_map(pair, d, n, u)
    assert img.mod_prec == least
    assert img.coeffs == IwaPoly(p, exact.coeffs, least).coeffs
    # membership is decided mod the least modulus of the pair alone
    pair_prec = min((e for e in (g1.mod_prec, g2.mod_prec) if e is not None), default=None)
    diff = (p - 1) * g1.coeff(0) - (2 - a_v) * g2.coeff(0)
    expect = diff == 0 if pair_prec is None else diff % p**pair_prec == 0
    assert in_image(pair, d) == expect


class TestCrossIdentity:
    def test_holds_on_grid(self):
        # up to the tops of the benchmark's tower series; from (3, a_v, 5),
        # (5, 0, 4) and (7, 0, 4) on, the identity's products are packed
        for p, av, nmax in ((3, 0, 7), (3, 3, 6), (5, 0, 5), (7, 0, 4)):
            d = LocalCurveData(p, av)
            for n in range(1, nmax + 1):
                assert cross_identity_check(d, n).passed

    def test_negative_control(self, monkeypatch):
        # the check reads its rows from h_entries: a level-2 row bumped by 1
        # breaks the identity
        d = LocalCurveData(3, 0)
        own = logmat.h_entries

        def bumped(data, n):
            sharp, flat = own(data, n)
            return (sharp + IwaPoly.const(3, 1), flat) if n == 2 else (sharp, flat)

        # the passing check comes first, so the memo holds level 2's rows:
        # it is keyed by the rows, not by the level, and the bumped row misses
        assert cross_identity_check(d, 2).passed
        monkeypatch.setattr(logmat, "h_entries", bumped)
        rep = cross_identity_check(d, 2)
        assert not rep.passed
        # -(H_sharp(2) + 1) H_flat(1) + H_flat(2) H_sharp(1) is off by -H_flat(1) = -1
        assert rep.failures == ["cross identity off by (-1,)"]


def test_selfcheck_fails_a_witness_outside_the_lattice(monkeypatch):
    # A witness refused by in_image is its case's one outcome: the image
    # comparison it guards is not made.
    from iwagrowth import selfcheck

    monkeypatch.setattr(selfcheck, "in_image", lambda pair, data: False)
    monkeypatch.setattr(selfcheck, "h_u_map", None)  # never reached
    result = selfcheck.check_witness_mapping(p_list=(3,), n_max=2)
    assert not result.passed and "FAIL" in result.line()
    assert result.detail == ("18 of 18 cases failed; "
                             "first: p=3 av=0 n=1: witness outside lattice")


@pytest.mark.parametrize("p, av, n", [(3, 0, 3), (3, 3, 4), (3, -3, 2), (5, 0, 2)])
def test_m_matrix_and_witness_form_no_products_but_the_unit(monkeypatch, p, av, n):
    # M applies the integer matrix p^(n+1) A_v^(n+1) to H's rows by scaling,
    # and the witness multiplies by X as a shift: once H's cache is warm,
    # the witness's product by the unit is the only polynomial product.
    d = LocalCurveData(p, av)
    h_matrix(d, n)
    product, calls = IwaPoly.__mul__, []

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(IwaPoly, "__mul__", counted)
    m_matrix(d, n)
    assert calls == []
    witness(d, n, unit_from_int(2, p, 8))
    assert len(calls) == 1


def _counted_mul(monkeypatch, keep):
    """Wrap iwapoly._mul, through which every polynomial product goes, and
    record the operand pairs that keep accepts."""
    product, calls = iwapoly._mul, []

    def counted(a, b):
        if keep(a, b):
            calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(iwapoly, "_mul", counted)
    return calls


@pytest.mark.parametrize("p, av, n, products", [(3, 0, 5, 1), (5, 0, 3, 1), (3, 3, 4, 2),
                                                (3, -3, 4, 2)])
def test_each_level_forms_its_map_products_once(monkeypatch, p, av, n, products):
    # The cross identity is the witness map at u = 1, and u is folded into
    # G_2 before the products, so the determinant check and the cross
    # identity form one pair of products, and the witness map at every unit
    # reads that exact total: at u = +-1 as it is, and at p-adic units
    # reduced mod p^48.  At a_v = 0 one entry of H's first row is 0, so the
    # pair holds one product of two lists.
    d = LocalCurveData(p, av)
    units = (1, -1, unit_from_int(2, p, 48), unit_from_int(p + 1, p, 48))

    def level():
        logmat.det_structure_check(d, n)
        cross_identity_check(d, n)
        for u in units:
            h_u_map(witness(d, n, u), d, n, u)

    level()  # H, omega and the witnesses' inputs warm
    logmat._first_row_times.cache_clear()
    calls = _counted_mul(monkeypatch, lambda a, b: len(a) >= 2 and len(b) >= 2)
    level()
    assert len(calls) == products
    logmat._first_row_times.cache_clear()
    calls.clear()
    cross_identity_check(d, n)
    assert len(calls) == products


@pytest.mark.parametrize("p, av, n, k", [(3, 3, 4, 2), (3, -3, 3, 1), (5, 0, 4, 3)])
def test_modular_operands_are_reduced_before_the_products(monkeypatch, p, av, n, k):
    # Under a unit known mod p^k, H's row and both coordinates are reduced
    # mod p^k before any product, G_1 too, though the witness's is exact.
    d = LocalCurveData(p, av)
    u = unit_from_int(2, p, k)
    pair = witness(d, n, u)
    assert any(not 0 <= c < p**k for c in pair.g1.coeffs)
    logmat._first_row_times.cache_clear()
    calls = _counted_mul(monkeypatch, lambda a, b: True)
    image = h_u_map(pair, d, n, u)
    assert calls and all(0 <= c < p**k for a, b in calls for c in (*a, *b))
    assert image == omega(p, n - 1).with_modulus(k)


# The benchmark's tower series: (p, a_v, top level).
TOWER_SERIES = ((3, 0, 7), (3, 3, 6), (3, -3, 6), (5, 0, 5), (7, 0, 4))


@pytest.mark.parametrize("p, av, n, k", [(3, 0, 3, 5), (3, 3, 3, 2), (5, 0, 3, 8)])
def test_a_query_off_the_exact_entry_forms_its_own_products(monkeypatch, p, av, n, k):
    # G_2 one off the exact entry's in one coefficient is not congruent to
    # it mod p^k: the exact total is not read, and the query's own products
    # give what they give on a cleared memo.
    d = LocalCurveData(p, av)
    g1, g2 = logmat._witness_rows(d, n)
    bumped = list(g2.coeffs)
    bumped[1] += 1
    off = LatticePair(g1, IwaPoly(p, tuple(bumped), k))
    assert cross_identity_check(d, n).passed
    calls = _counted_mul(monkeypatch, lambda a, b: len(a) >= 2 and len(b) >= 2)
    image = h_u_map(off, d, n, 1)
    assert calls and image != omega(p, n - 1).with_modulus(k)
    calls.clear()
    assert h_u_map(off, d, n, 1) == image and calls == []  # a repeat forms none
    logmat._first_row_times.cache_clear()
    assert h_u_map(off, d, n, 1) == image and calls


def test_a_cleared_memo_forms_the_modular_products_again(monkeypatch):
    d = LocalCurveData(3, 3)
    u = unit_from_int(2, 3, 48)
    pair = witness(d, 4, u)
    assert cross_identity_check(d, 4).passed
    calls = _counted_mul(monkeypatch, lambda a, b: len(a) >= 2 and len(b) >= 2)
    image = h_u_map(pair, d, 4, u)
    assert calls == []  # read off the exact total
    logmat._first_row_times.cache_clear()
    assert h_u_map(pair, d, 4, u) == image and len(calls) == 2
    assert h_u_map(pair, d, 4, u) == image and len(calls) == 2


@pytest.mark.parametrize("p, av, top", TOWER_SERIES)
def test_every_tower_level_reads_the_exact_total_as_a_cleared_memo_computes(
        monkeypatch, p, av, top):
    # At every precision p^1 to p^64, the witness map at a seeded unit
    # after the cross identity reads the exact total, forming no product,
    # and equals, coefficients and modulus, the map on a cleared memo.
    rng = random.Random(p * 100 + av)
    d = LocalCurveData(p, av)
    for n in range(1, top + 1):
        units = []
        for k in range(1, 65):
            r = rng.randrange(1, p**k)
            units.append(unit_from_int(r if r % p else r + 1, p, k))
        cases = [(witness(d, n, u), u) for u in units]
        assert cross_identity_check(d, n).passed
        calls = _counted_mul(monkeypatch, lambda a, b: len(a) >= 2 and len(b) >= 2)
        read = [h_u_map(pair, d, n, u) for pair, u in cases]
        assert calls == []
        monkeypatch.undo()
        for (pair, u), image in zip(cases, read):
            logmat._first_row_times.cache_clear()
            cleared = h_u_map(pair, d, n, u)
            assert (image.coeffs, image.mod_prec) == (cleared.coeffs, cleared.mod_prec)
