"""Closed-form error-decay bounds, exponents, and sample sizes."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaytree.bounds import (
    BoundInapplicableError,
    BoundSandwich,
    RateKind,
    bound_cells,
    exponent,
    exponent_table,
    level_bounds,
    lrt_lower_bound,
    per_level_exponent,
    ratio_poly,
    sample_size,
    total_bounds,
)
from relaytree.kernel import (
    AlternatingMajority,
    ErrorPair,
    MajorityOdd,
    Priors,
    Schedule,
    alternating_phases,
    propagate,
    total_error,
)


class TestPerLevelExponent:
    def test_values(self):
        assert per_level_exponent(2) == 1
        assert per_level_exponent(3) == 2
        assert per_level_exponent(4) == 2
        assert per_level_exponent(9) == 5
        assert per_level_exponent(10) == 5

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            per_level_exponent(1)


class TestRatioPoly:
    def test_matches_direct_sum(self):
        for m, k, x in [(3, 1, 0.3), (5, 2, 0.07), (10, 9, 0.5)]:
            want = sum(
                math.comb(m, j) * x ** (k - j) * (1 - x) ** j for j in range(k + 1)
            )
            assert ratio_poly(m, k, x) == pytest.approx(want, rel=1e-14, abs=0)

    def test_endpoint_limits(self):
        # C(m, k) at x -> 0 and 1 at x -> 1
        assert ratio_poly(6, 2, 1e-12) == pytest.approx(math.comb(6, 2), rel=1e-9, abs=0)
        assert ratio_poly(6, 2, 1.0 - 1e-12) == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_domain(self):
        for bad in [(3, 0, 0.5), (3, 3, 0.5), (2, 2, 0.5)]:
            with pytest.raises(ValueError):
                ratio_poly(*bad)
        with pytest.raises(ValueError):
            ratio_poly(3, 1, 0.0)
        with pytest.raises(ValueError):
            ratio_poly(3, 1, 1.0)

    @given(
        st.integers(min_value=3, max_value=10),
        st.data(),
        st.floats(min_value=0.001, max_value=0.998),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    @settings(max_examples=200)
    def test_strictly_decreasing(self, m, data, x, dx):
        k = data.draw(st.integers(min_value=1, max_value=m - 1))
        x2 = min(x + dx, 0.999)
        assert ratio_poly(m, k, x2) < ratio_poly(m, k, x)


class TestBoundSandwich:
    def test_rejects_crossed(self):
        with pytest.raises(ValueError):
            BoundSandwich(2.0, 1.0)

    def test_contains(self):
        s = BoundSandwich(1.0, 2.0)
        assert s.contains(1.5)
        assert s.contains(1.0)
        assert s.contains(2.0 + 1e-10)
        assert not s.contains(2.1)
        assert not s.contains(0.9)


class TestLevelBounds:
    def test_majority_m3(self):
        bits0 = math.log2(10)
        c = math.log2(3)  # C(3, 2)
        for k in (0, 2, 4):
            b = level_bounds(0.1, 3, k, RateKind.MAJORITY_RANDOM)
            assert b.lower == pytest.approx(2**k * (bits0 - c), rel=1e-14, abs=0)
            assert b.upper == pytest.approx(2**k * bits0, rel=1e-14, abs=0)
        # at k = 0 the upper bound is the leaf's own bits at any fan-in
        b0 = level_bounds(0.1, 5, 0, RateKind.MAJORITY_RANDOM)
        assert b0.upper == pytest.approx(bits0, rel=1e-14, abs=0)

    def test_alternating_m4(self):
        bits0 = math.log2(10)
        # m=4: two tie-one levels contribute 2 each, two tie-zero levels 3,
        # against C(4, 2) = 6; m=2: one level each of 1 and 2, against C(2, 1)
        for m, k, factor, c in ((4, 4, 36, math.log2(6)), (2, 2, 2, 1.0)):
            b = level_bounds(0.1, m, k, RateKind.ALTERNATING)
            assert b.lower == pytest.approx(factor * (bits0 - c), rel=1e-14, abs=0)
            assert b.upper == pytest.approx(factor * bits0, rel=1e-14, abs=0)

    def test_alternating_rejects_odd_height(self):
        for m in (4, 2):
            with pytest.raises(ValueError):
                level_bounds(0.1, m, 3, RateKind.ALTERNATING)

    def test_alternating_rejects_odd_m(self):
        with pytest.raises(ValueError):
            level_bounds(0.1, 5, 2, RateKind.ALTERNATING)

    def test_rejects_boundary_alpha(self):
        with pytest.raises(ValueError):
            level_bounds(0.0, 3, 1, RateKind.MAJORITY_RANDOM)
        with pytest.raises(ValueError):
            level_bounds(1.0, 3, 1, RateKind.MAJORITY_RANDOM)
        with pytest.raises(ValueError):
            level_bounds(0.1, 3, -1, RateKind.MAJORITY_RANDOM)


class TestTotalBounds:
    def test_m3_height4(self):
        b = total_bounds(0.1, 0.1, Priors.equal(), 3, 4)
        assert b.lower == pytest.approx(16 * (math.log2(10) - math.log2(3)), rel=1e-14, abs=0)
        assert b.upper == pytest.approx(16 * math.log2(10), rel=1e-14, abs=0)

    def test_asymmetric_pair_uses_worse_side(self):
        b = total_bounds(0.2, 0.05, Priors(0.3, 0.7), 3, 2)
        worse = math.log2(5)  # bits of max(alpha0, beta0) = 0.2
        mix = 0.3 * math.log2(5) + 0.7 * math.log2(20)
        assert b.lower == pytest.approx(4 * (worse - math.log2(3)), rel=1e-14, abs=0)
        assert b.upper == pytest.approx(4 * mix, rel=1e-14, abs=0)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            total_bounds(0.1, 0.1, Priors.equal(), 3, -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            lrt_lower_bound(0.1, Priors.equal(), 3, -1)

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=200),
        st.sampled_from([RateKind.MAJORITY_RANDOM, RateKind.ALTERNATING]),
    )
    @settings(max_examples=300)
    def test_lower_is_the_level_bound_of_the_worse_leaf(self, a, b, pi0, m, k, strategy):
        if strategy is RateKind.ALTERNATING:
            m, k = max(4, m + m % 2), k + k % 2  # even m >= 4, even height
        got = total_bounds(a, b, Priors(pi0, 1.0 - pi0), m, k, strategy)
        assert got.lower == level_bounds(max(a, b), m, k, strategy).lower

    def test_vacuous_lower_is_allowed(self):
        # weak leaves push the lower bound negative; still a valid sandwich
        b = total_bounds(0.45, 0.45, Priors.equal(), 3, 1)
        assert b.lower < 0.0
        assert b.upper > 0.0

    def test_alternating_m2_is_refused(self):
        # the sandwich would claim 4 * (log2(10) - 1) = 9.288 bits at
        # level 4; the ties-to-one-first trace has only 8.425 there
        trace = propagate(
            ErrorPair.from_linear(0.1, 0.1),
            [AlternatingMajority(2, ph) for ph in alternating_phases(4)],
            Priors.equal(),
        )
        assert trace.totals[4].log2_inverse < 4 * (math.log2(10) - 1)
        for k in (4, 3):  # refused before the height is checked
            with pytest.raises(BoundInapplicableError, match="m=2"):
                total_bounds(0.1, 0.1, Priors.equal(), 2, k, RateKind.ALTERNATING)


class TestBoundCells:
    """bound_cells picks each family's theorem: the cells of level k are
    what total_bounds or lrt_lower_bound gives at k, or () where none does."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("pi0", [0.3, 0.5])
    def test_majority_is_total_bounds_at_random_ties(self, m, pi0):
        priors = Priors(pi0, 1.0 - pi0)
        for pb in (None, 0.5) if m % 2 == 0 else (None,):
            cells = bound_cells(Schedule(m, 20, pb=pb, priors=priors), 0.1, 0.2)
            for k, got in enumerate(itertools.islice(cells, 21)):
                sw = total_bounds(0.1, 0.2, priors, m, k)
                assert got == (sw.lower, sw.upper)

    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("phase", ["one", "zero"])
    def test_alternating_is_total_bounds_at_even_levels(self, m, phase):
        priors = Priors(0.3, 0.7)
        cells = bound_cells(Schedule(m, 20, "alternating", phase=phase, priors=priors), 0.1, 0.2)
        for k, got in enumerate(itertools.islice(cells, 21)):
            if k % 2:
                assert got == ()
            else:
                sw = total_bounds(0.1, 0.2, priors, m, k, RateKind.ALTERNATING)
                assert got == (sw.lower, sw.upper)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("pi0", [0.3, 0.5])
    def test_lrt_is_its_lower_bound(self, m, pi0):
        priors = Priors(pi0, 1.0 - pi0)
        total0 = total_error(ErrorPair.from_linear(0.1, 0.2), priors).linear
        cells = bound_cells(Schedule(m, 20, "lrt", priors=priors), 0.1, 0.2)
        for k, got in enumerate(itertools.islice(cells, 21)):
            assert got == (lrt_lower_bound(total0, priors, m, k),)

    @pytest.mark.parametrize("schedule", [
        Schedule(2, 20, pb=0.3),
        Schedule(6, 20, pb=0.9, priors=Priors(0.7, 0.3)),
        Schedule(2, 20, "alternating"),
        Schedule(2, 20, "alternating", phase="zero"),
    ], ids=["coin-m2", "coin-m6", "alternating-m2-one", "alternating-m2-zero"])
    def test_no_theorem_yields_empty_cells(self, schedule):
        assert list(itertools.islice(bound_cells(schedule, 0.1, 0.2), 21)) == [()] * 21


class TestDoubleRange:
    """Bound factors past the largest double are refused with the level or
    fan-in named, never an OverflowError."""

    def test_majority_factor_names_the_level(self):
        level_bounds(0.3, 3, 1023, RateKind.MAJORITY_RANDOM)  # 2^1023 * 1.74 bits still fits
        with pytest.raises(ValueError, match="level 1024"):
            level_bounds(0.1, 3, 1024, RateKind.MAJORITY_RANDOM)
        with pytest.raises(ValueError, match="level 147"):
            total_bounds(0.1, 0.1, Priors.equal(), 255, 147)
        with pytest.raises(ValueError, match="level 1024"):
            lrt_lower_bound(0.1, Priors.equal(), 3, 1024)

    def test_factor_times_bits_past_double_range_names_the_level(self):
        # 2^1023 fits a double, but 2^1023 * log2(10) does not: the bound is
        # refused rather than printed as inf
        with pytest.raises(ValueError, match="level 1023: bound factor for m=3"):
            level_bounds(0.1, 3, 1023, RateKind.MAJORITY_RANDOM)
        with pytest.raises(ValueError, match="level 1023: bound factor for m=3"):
            total_bounds(0.1, 0.1, Priors.equal(), 3, 1023)
        # (2 * 3)^396 = 2^1023.6 fits; times log2(10) it does not
        with pytest.raises(ValueError, match="level 792: bound factor for m=4"):
            total_bounds(0.1, 0.1, Priors.equal(), 4, 792, RateKind.ALTERNATING)
        # a vacuous lower bound far below -1.8e308: leaves past 1/penalty
        with pytest.raises(ValueError, match="level 1023: bound factor for m=3"):
            lrt_lower_bound(0.45, Priors.equal(), 3, 1023)
        # one row earlier every product still fits
        assert math.isfinite(total_bounds(0.1, 0.1, Priors.equal(), 3, 1022).upper)
        assert math.isfinite(
            total_bounds(0.1, 0.1, Priors.equal(), 4, 790, RateKind.ALTERNATING).upper
        )
        assert math.isfinite(lrt_lower_bound(0.45, Priors.equal(), 3, 1022))

    def test_alternating_factor_is_not_an_inapplicable_bound(self):
        with pytest.raises(ValueError, match="level 794") as err:
            total_bounds(0.1, 0.1, Priors.equal(), 4, 794, RateKind.ALTERNATING)
        assert err.type is ValueError  # callers that skip inapplicable bounds see it

    def test_huge_height_is_refused_before_the_power_is_built(self):
        # 3^(10^7) takes seconds to build and 3^(10^12) more memory than a
        # machine has; a factor that cannot fit is refused from its log
        calls = [
            lambda k: level_bounds(0.1, 3, k, RateKind.MAJORITY_RANDOM),
            lambda k: total_bounds(0.1, 0.1, Priors.equal(), 4, k, RateKind.ALTERNATING),
            lambda k: lrt_lower_bound(0.1, Priors.equal(), 3, k),
        ]
        for call in calls:
            for k in (10**7, 10**12):  # the one that is only slow to build first
                start = time.perf_counter()
                with pytest.raises(ValueError, match=f"level {k}:"):
                    call(k)
                assert time.perf_counter() - start < 0.5

    def test_lrt_penalty_names_the_fan_in(self):
        with pytest.raises(ValueError, match="m=1100"):
            lrt_lower_bound(0.1, Priors.equal(), 1100, 0)  # 2 C(1100, 550) overflows
        with pytest.raises(ValueError, match="m=301"):
            lrt_lower_bound(0.1, Priors(0.001, 0.999), 301, 0)  # 0.001^151 underflows

    def test_lrt_penalty_quotient_overflow_names_the_fan_in(self):
        # 2 C(687, 344) * 0.5 fits, but dividing by 0.5^344 gives inf
        # without an OverflowError; one fan-in lower the penalty fits
        with pytest.raises(ValueError, match="penalty for m=687"):
            lrt_lower_bound(0.1, Priors.equal(), 687, 0)
        assert math.isfinite(lrt_lower_bound(0.1, Priors.equal(), 686, 0))


class TestLRTLowerBound:
    def test_frozen_m3_equal_priors(self):
        # penalty = 2 * C(3,2) * max(pi) / min(pi)^2 = 12
        got = lrt_lower_bound(0.05, Priors.equal(), 3, 1)
        assert got == pytest.approx(2 * (math.log2(20) - math.log2(12)), rel=1e-14, abs=0)

    def test_vanishes_at_penalty_inverse(self):
        got = lrt_lower_bound(1 / 12, Priors.equal(), 3, 1)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_vacuous_is_returned_not_raised(self):
        assert lrt_lower_bound(0.2, Priors.equal(), 3, 1) < 0.0

    def test_rejects_degenerate_priors(self):
        with pytest.raises(ValueError):
            lrt_lower_bound(0.05, Priors(1.0, 0.0), 3, 1)


class TestExponents:
    def test_m4_closed_forms(self):
        assert exponent(4, RateKind.MAJORITY_RANDOM) == pytest.approx(0.5, abs=1e-15)
        want_alt = math.log(math.sqrt(4 * 6) / 2) / math.log(4)
        assert exponent(4, RateKind.ALTERNATING) == pytest.approx(want_alt, rel=1e-13, abs=0)
        assert exponent(4, RateKind.UPPER_BOUND) == pytest.approx(
            math.log(2.5) / math.log(4), rel=1e-14, abs=0
        )

    def test_small_m_closed_forms(self):
        for m, kind, want in (
            (3, RateKind.MAJORITY_RANDOM, math.log(2) / math.log(3)),
            (5, RateKind.MAJORITY_RANDOM, math.log(3) / math.log(5)),
            (2, RateKind.MAJORITY_RANDOM, 0.0),
            (2, RateKind.ALTERNATING, 0.5),
        ):
            assert exponent(m, kind) == pytest.approx(want, rel=0, abs=1e-12), (m, kind)

    def test_m5_majority_hits_upper(self):
        # floor((5+1)/2) = 3 = (5+1)/2, so the two logs coincide exactly
        assert exponent(5, RateKind.MAJORITY_RANDOM) == exponent(
            5, RateKind.UPPER_BOUND
        )

    def test_alternating_rejects_odd(self):
        with pytest.raises(ValueError):
            exponent(5, RateKind.ALTERNATING)

    def test_table(self):
        rows = exponent_table(range(2, 65))
        assert [r.m for r in rows] == list(range(2, 65))
        for r in rows:
            if r.m % 2 == 0:
                assert r.majority_random <= r.alternating <= r.upper_bound
            else:
                assert r.alternating is None
                assert r.majority_random == r.upper_bound

    def test_table_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exponent_table([65])
        with pytest.raises(ValueError):
            exponent_table([1])


class TestSampleSize:
    def test_frozen_m3(self):
        got = sample_size(3, 0.1, 0.1, 1e-6)
        headroom = math.log2(10) - math.log2(3)
        want = (math.log2(1e6) / headroom) ** (math.log(3) / math.log(2))
        assert got.n_real == pytest.approx(want, rel=1e-14, abs=0)
        assert got.k == 4
        assert got.n_tree == 81
        # the recursion certifies the height: level 4 reaches the target, level 3 not
        trace = propagate(ErrorPair.from_linear(0.1, 0.1), [MajorityOdd(3)] * 4, Priors.equal())
        assert trace.pairs[4].alpha_linear <= 1e-6 < trace.pairs[3].alpha_linear

    def test_tree_brackets_n_real(self):
        # m=5 needs leaf errors below 1/C(5,3) = 0.1 for any headroom
        got = sample_size(5, 0.05, 0.03, 1e-9)
        assert got.n_tree >= got.n_real
        assert got.n_tree // 5 < got.n_real
        assert got.n_tree == 5**got.k

    def test_leaves_already_good_enough(self):
        for args in ((0.001, 0.002, 0.01), (0.1, 0.1, 0.1)):  # the target may equal the leaf
            got = sample_size(3, *args)
            assert got == type(got)(n_real=1.0, k=0, n_tree=1)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("epsilon", [0.5, 1e-6], ids=["met", "unmet"])
    def test_fan_in_below_two_is_refused(self, m, epsilon):
        # before the leaves are checked against the target, met or not
        with pytest.raises(ValueError, match=f"^fusion needs m >= 2, got {m}$"):
            sample_size(m, 0.1, 0.1, epsilon)

    def test_inapplicable_weak_leaves(self):
        # log2(1/0.4) < log2 C(3,2): the bound certifies nothing
        with pytest.raises(BoundInapplicableError, match="bound inapplicable"):
            sample_size(3, 0.4, 0.4, 1e-6)

    def test_inapplicable_m2(self):
        with pytest.raises(BoundInapplicableError, match="m=2"):
            sample_size(2, 0.1, 0.1, 1e-6)

    def test_huge_m_is_refused_without_building_the_coefficient(self, monkeypatch):
        # m - log2(m + 1) <= log2 C(m, lam) already exceeds the leaf bits
        def no_comb(*args):
            raise AssertionError("C(m, lam) was built")

        monkeypatch.setattr(math, "comb", no_comb)
        with pytest.raises(BoundInapplicableError, match="m=1000000000"):
            sample_size(10**9, 0.1, 0.1, 1e-6)

    def test_subnormal_epsilon_is_refused(self):
        # 1/epsilon overflows to inf, and no tree size would reach it
        with pytest.raises(ValueError, match="epsilon"):
            sample_size(3, 0.1, 0.1, 1e-310)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            sample_size(3, 0.1, 0.1, 0.0)
        with pytest.raises(ValueError):
            sample_size(3, 0.1, 0.1, 1.0)

    def test_inapplicable_is_a_value_error(self):
        # callers that only catch ValueError still see the refusal
        assert issubclass(BoundInapplicableError, ValueError)
