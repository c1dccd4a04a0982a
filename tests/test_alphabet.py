"""Count-forwarding trees: alphabet sizing, rate gains, message cost."""

import math

import pytest

from relaytree.alphabet import (
    TreeSpec,
    alphabet_schedule,
    avg_bits,
    bits_bounds,
    equivalent_tree,
    k0_of,
    rates,
    rates_from_k0,
)
from relaytree.bounds import RateKind, exponent
from relaytree.kernel import AlternatingMajority, MajorityEven, MajorityOdd, Summation


class TestK0:
    def test_known_values(self):
        assert k0_of(2, 2) == 1
        assert k0_of(2, 3) == 2
        assert k0_of(2, 5) == 3  # counts 0..4 fit two summed levels
        assert k0_of(3, 10) == 3
        assert k0_of(10, 2) == 1
        assert k0_of(10, 11) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            k0_of(1, 4)
        with pytest.raises(ValueError):
            k0_of(3, 1)

    def test_window(self):
        for m in range(2, 13):
            for d in range(2, 201):
                k0 = k0_of(m, d)
                assert m ** (k0 - 1) + 1 <= d <= m**k0, (m, d, k0)


class TestTreeSpec:
    def test_fields(self):
        spec = TreeSpec(3, 4, 10)
        assert spec.k0 == 3
        assert spec.n_leaves == 81
        assert TreeSpec(2, 5).d == 2
        assert TreeSpec(2, 5).k0 == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeSpec(1, 4)
        with pytest.raises(ValueError):
            TreeSpec(3, 0)


class TestEquivalentTree:
    def test_collapse(self):
        got = equivalent_tree(TreeSpec(3, 6, 10))
        assert (got.m, got.height, got.d) == (27, 2, 2)
        # leaf count is preserved by the collapse
        for m, d, h in ((3, 10, 6), (2, 5, 6), (3, 4, 8), (5, 25, 4), (4, 17, 6)):
            spec = TreeSpec(m, h, d)
            assert equivalent_tree(spec).n_leaves == spec.n_leaves, (m, d, h)

    def test_identity_when_binary(self):
        got = equivalent_tree(TreeSpec(4, 3, 2))
        assert (got.m, got.height, got.d) == (4, 3, 2)

    def test_rejects_partial_block(self):
        with pytest.raises(ValueError, match="remainder 1"):
            equivalent_tree(TreeSpec(3, 7, 10))


class TestRates:
    def test_d2_collapses_to_binary_exponents(self):
        for m in range(2, 21):
            r = rates(m, 2)
            assert r.rho == pytest.approx(
                exponent(m, RateKind.UPPER_BOUND), rel=1e-12, abs=0
            )
            if m % 2 == 0:
                assert r.varrho == pytest.approx(
                    exponent(m, RateKind.MAJORITY_RANDOM), rel=1e-12, abs=0
                )
                assert r.sigma == pytest.approx(
                    exponent(m, RateKind.ALTERNATING), rel=1e-12, abs=0
                )
            else:
                assert r.varrho == r.rho
                assert r.sigma is None

    def test_bigger_alphabet_helps(self):
        # counting two levels beats deciding at every level
        small = rates_from_k0(2, 1)
        big = rates_from_k0(2, 3)
        assert big.varrho > small.varrho
        assert big.rho > small.rho
        assert big.rho < 1.0

    def test_ordering(self):
        for m in (2, 4, 6):
            for k0 in (1, 2, 3):
                r = rates_from_k0(m, k0)
                assert r.varrho <= r.sigma <= r.rho + 1e-12
        for m in range(2, 21):
            for d in (2, 3, 7, 50):
                r = rates(m, d)
                if m % 2 == 0:
                    assert r.varrho <= r.sigma <= r.rho + 1e-12, (m, d)
                else:
                    assert r.varrho == r.rho and r.sigma is None, (m, d)

    def test_closed_form(self):
        r = rates_from_k0(2, 3)
        log_m_eff = math.log(8)
        log2_term = math.log(2) / log_m_eff
        assert r.rho == pytest.approx(math.log(9) / log_m_eff - log2_term, rel=1e-14, abs=0)
        assert r.varrho == pytest.approx(1 - log2_term, rel=1e-14, abs=0)
        assert r.sigma == pytest.approx(
            0.5 * (1 + math.log(10) / log_m_eff) - log2_term, rel=1e-14, abs=0
        )
        # through k0_of: (3, 4) and (10, 11) count two levels, (4, 2) one
        r = rates(3, 4)
        want = math.log(10) / math.log(9) - math.log(2) / (2 * math.log(3))
        assert r.rho == pytest.approx(want, rel=1e-12, abs=0)
        assert r.varrho == r.rho and r.sigma is None
        want = 1.0 - math.log(2) / (2 * math.log(10))
        assert rates(10, 11).varrho == pytest.approx(want, rel=1e-12, abs=0)
        want = 0.5 * (1 + math.log(6) / math.log(4)) - 0.5
        assert rates(4, 2).sigma == pytest.approx(want, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            rates_from_k0(1, 2)
        with pytest.raises(ValueError):
            rates_from_k0(3, 0)


class TestAvgBits:
    def test_single_level_is_one_bit(self):
        assert avg_bits(7, 1) == 1.0
        assert avg_bits(10, 1) == 1.0

    def test_m10_k3_exact(self):
        want = (1000 + 100 * math.log2(11) + 10 * math.log2(101)) / 1110
        assert avg_bits(10, 3) == pytest.approx(want, rel=1e-14, abs=0)

    def test_m2_band(self):
        lo, hi = bits_bounds(2)
        assert (lo, hi) == (1.5, 2.0)
        assert avg_bits(2, 10) == pytest.approx(1.6916709959845238, rel=0, abs=1e-9)

    def test_band_holds_for_deep_counting(self):
        for m in range(2, 21):
            lo, hi = bits_bounds(m)
            for k0 in range(8, 15):
                got = avg_bits(m, k0)
                assert lo <= got <= hi, (m, k0, got)

    def test_shallow_counting_may_sit_below_band(self):
        # the band is an asymptotic statement; k0 = 1 costs exactly
        # one bit, under the band floor for every m
        lo, _ = bits_bounds(10)
        assert avg_bits(10, 1) < lo

    def test_past_double_range_names_m_and_k0(self):
        avg_bits(2, 1022)  # the block's 2^1023 - 2 nodes still fit a double
        with pytest.raises(ValueError, match="m=2, k0=1023"):
            avg_bits(2, 1023)
        with pytest.raises(ValueError, match="m=1000, k0=103"):
            avg_bits(1000, 103)


class TestAlphabetSchedule:
    def test_structure(self):
        spec = TreeSpec(2, 6, 3)  # k0 = 2
        rules = [MajorityEven(4), MajorityEven(4), AlternatingMajority(4)]
        sched = alphabet_schedule(spec, rules)
        assert len(sched) == 6
        assert sched[0] == Summation(2)
        assert sched[1] == MajorityEven(4)
        assert sched[4] == Summation(2)
        assert sched[5] == AlternatingMajority(4)

    def test_rejects_wrong_rule_count(self):
        spec = TreeSpec(2, 6, 3)
        with pytest.raises(ValueError, match="3 boundary rules"):
            alphabet_schedule(spec, [MajorityEven(4)])

    def test_rejects_wrong_fanin(self):
        spec = TreeSpec(2, 2, 3)
        with pytest.raises(ValueError, match="fan-in"):
            alphabet_schedule(spec, [MajorityEven(2)])

    def test_rejects_summation_at_boundary(self):
        spec = TreeSpec(2, 2, 3)
        with pytest.raises(ValueError):
            alphabet_schedule(spec, [Summation(4)])

    def test_rejects_partial_block(self):
        spec = TreeSpec(2, 3, 3)
        with pytest.raises(ValueError, match="remainder"):
            alphabet_schedule(spec, [MajorityEven(4)])

    def test_binary_tree_needs_no_summation(self):
        spec = TreeSpec(3, 2, 2)
        sched = alphabet_schedule(spec, [MajorityOdd(3), MajorityOdd(3)])
        assert sched == [MajorityOdd(3), MajorityOdd(3)]
