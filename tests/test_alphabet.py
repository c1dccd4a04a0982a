"""Count-forwarding trees: alphabet sizing, rate gains, message cost."""

import math
import time

import pytest

from relaytree.alphabet import (
    TreeSpec,
    avg_bits,
    bits_bounds,
    equivalent_tree,
    k0_of,
    rates_from_k0,
)
from relaytree.bounds import RateKind, exponent
from relaytree.kernel import ErrorPair, MajorityEven, MajorityOdd
from relaytree.simulate import Hypothesis, SimConfig


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
            r = rates_from_k0(m, k0_of(m, 2))
            assert r.upper_bound == pytest.approx(
                exponent(m, RateKind.UPPER_BOUND), rel=1e-12, abs=0
            )
            if m % 2 == 0:
                assert r.majority_random == pytest.approx(
                    exponent(m, RateKind.MAJORITY_RANDOM), rel=1e-12, abs=0
                )
                assert r.alternating == pytest.approx(
                    exponent(m, RateKind.ALTERNATING), rel=1e-12, abs=0
                )
            else:
                assert r.majority_random == r.upper_bound
                assert r.alternating is None

    def test_bigger_alphabet_helps(self):
        # counting two levels beats deciding at every level
        small = rates_from_k0(2, 1)
        big = rates_from_k0(2, 3)
        assert big.majority_random > small.majority_random
        assert big.upper_bound > small.upper_bound
        assert big.upper_bound < 1.0

    def test_ordering(self):
        for m in (2, 4, 6):
            for k0 in (1, 2, 3):
                r = rates_from_k0(m, k0)
                assert r.majority_random <= r.alternating <= r.upper_bound + 1e-12
        for m in range(2, 21):
            for d in (2, 3, 7, 50):
                r = rates_from_k0(m, k0_of(m, d))
                if m % 2 == 0:
                    assert r.majority_random <= r.alternating <= r.upper_bound + 1e-12, (m, d)
                else:
                    assert r.majority_random == r.upper_bound and r.alternating is None, (m, d)

    def test_closed_form(self):
        r = rates_from_k0(2, 3)
        log_m_eff = math.log(8)
        log2_term = math.log(2) / log_m_eff
        assert r.upper_bound == pytest.approx(
            math.log(9) / log_m_eff - log2_term, rel=1e-14, abs=0
        )
        assert r.majority_random == pytest.approx(1 - log2_term, rel=1e-14, abs=0)
        assert r.alternating == pytest.approx(
            0.5 * (1 + math.log(10) / log_m_eff) - log2_term, rel=1e-14, abs=0
        )
        # through k0_of: (3, 4) and (10, 11) count two levels, (4, 2) one
        r = rates_from_k0(3, k0_of(3, 4))
        want = math.log(10) / math.log(9) - math.log(2) / (2 * math.log(3))
        assert r.upper_bound == pytest.approx(want, rel=1e-12, abs=0)
        assert r.majority_random == r.upper_bound and r.alternating is None
        want = 1.0 - math.log(2) / (2 * math.log(10))
        r = rates_from_k0(10, k0_of(10, 11))
        assert r.majority_random == pytest.approx(want, rel=1e-12, abs=0)
        want = 0.5 * (1 + math.log(6) / math.log(4)) - 0.5
        r = rates_from_k0(4, k0_of(4, 2))
        assert r.alternating == pytest.approx(want, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            rates_from_k0(1, 2)
        with pytest.raises(ValueError):
            rates_from_k0(3, 0)


def closed_form_rates(m, k0):
    """(rho, varrho, sigma) of an (m, d) tree from their closed forms in
    m and k0, the reference for rates_from_k0's route through exponent."""
    m_eff = m**k0
    log_m_eff = math.log(m_eff)
    log2_term = math.log(2.0) / (math.log(m) * k0)
    rho = math.log(m_eff + 1) / log_m_eff - log2_term
    if m % 2 == 1:
        return rho, rho, None
    varrho = 1.0 - log2_term
    sigma = 0.5 * (1.0 + math.log(m_eff + 2) / log_m_eff) - log2_term
    return rho, varrho, sigma


class TestRatesAtTheRefusalEdges:
    # the last rows that `alphabet` admits, m^k0 = 2^1022, 3^645 and
    # 1000^102, and two past double range, where 1000^103 + 1 and 2^1024
    # leave it: the rates are still the closed forms there
    @pytest.mark.parametrize("m, k0", [(2, 1022), (3, 645), (1000, 102), (1000, 103), (2, 1024)])
    def test_closed_forms(self, m, k0):
        r = rates_from_k0(m, k0)
        for got, want in zip((r.upper_bound, r.majority_random, r.alternating),
                             closed_form_rates(m, k0)):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-15, abs=0), (m, k0)


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

    def test_band_past_double_range_names_m(self):
        bits_bounds(2**1023)
        with pytest.raises(ValueError, match=f"m={2**1024}: m exceeds double range"):
            bits_bounds(2**1024)

    @pytest.mark.parametrize("m", [3, 10, 1000, 2**53 + 1, 10**59],
                             ids=["3", "10", "1000", "2^53+1", "10^59"])
    def test_refuses_every_depth_from_its_first_refusal_on(self, m):
        # what lets `alphabet` bisect for a sweep's refusal: the first
        # refused depth comes by ceil(1024 / log2 m) + 1, where m^k0 has
        # passed 2^1024, and every depth past it is refused too
        edge = math.ceil(1024 / math.log2(m)) + 1
        refused = []
        for k0 in range(1, edge + 3):
            try:
                avg_bits(m, k0)
            except ValueError:
                refused.append(k0)
        assert refused and refused == list(range(refused[0], edge + 3))

    def test_past_double_range_names_m_and_k0(self):
        avg_bits(2, 1022)  # the block's 2^1023 - 2 nodes still fit a double
        with pytest.raises(ValueError, match="m=2, k0=1023"):
            avg_bits(2, 1023)
        with pytest.raises(ValueError, match="m=1000, k0=103"):
            avg_bits(1000, 103)

    def test_refuses_a_deep_depth_without_building_m_to_the_k0(self):
        # the exact int 2^(10^9) alone takes seconds and hundreds of MB
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"m=2, k0=1000000000: m\^k0 exceeds double range"):
            avg_bits(2, 10**9)
        assert time.perf_counter() - start < 0.1


def sim_config(spec, rules):
    """A SimConfig of the deciding rules, one per k0-th level."""
    return SimConfig(spec, rules,
                     ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0)


class TestAlphabetSchedule:
    def test_rejects_wrong_rule_count(self):
        spec = TreeSpec(2, 6, 3)
        with pytest.raises(ValueError, match="schedule has 1 rules for height 6; k0=2 needs 3"):
            sim_config(spec, [MajorityEven(4)])

    def test_rejects_wrong_fanin(self):
        spec = TreeSpec(2, 2, 3)
        with pytest.raises(ValueError, match="fan-in"):
            sim_config(spec, [MajorityEven(2)])

    def test_rejects_partial_block(self):
        spec = TreeSpec(2, 3, 3)
        with pytest.raises(ValueError, match="remainder"):
            sim_config(spec, [MajorityEven(4)])

    def test_binary_tree_needs_no_summation(self):
        spec = TreeSpec(3, 2, 2)
        sched = sim_config(spec, [MajorityOdd(3), MajorityOdd(3)]).schedule
        assert sched == (MajorityOdd(3), MajorityOdd(3))
