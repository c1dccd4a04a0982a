"""Closed-form error-decay bounds, exponents, and sample sizes."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaytree.bounds import (
    BoundInapplicableError,
    RateKind,
    bound_cells,
    exponent,
    exponent_table,
    level_bounds,
    per_level_exponent,
    ratio_poly,
    sample_size,
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


def at(cells, k: int):
    """Level k's cells of a bound walk."""
    return next(itertools.islice(cells, k, None))


def walk_to_refusal(cells):
    """The cells a bound walk yields before its first refusal, and the
    pytest.ExceptionInfo of that refusal."""
    got = []
    with pytest.raises(ValueError) as err:
        for c in cells:
            got.append(c)
    return got, err


class TestLevelBounds:
    def test_majority_m3(self):
        bits0 = math.log2(10)
        c = math.log2(3)  # C(3, 2)
        for k in (0, 2, 4):
            lower, upper = at(level_bounds(0.1, 3, RateKind.MAJORITY_RANDOM), k)
            assert lower == pytest.approx(2**k * (bits0 - c), rel=1e-14, abs=0)
            assert upper == pytest.approx(2**k * bits0, rel=1e-14, abs=0)
        # at k = 0 the upper bound is the leaf's own bits at any fan-in
        _, upper0 = at(level_bounds(0.1, 5, RateKind.MAJORITY_RANDOM), 0)
        assert upper0 == pytest.approx(bits0, rel=1e-14, abs=0)

    def test_alternating_m4(self):
        bits0 = math.log2(10)
        # m=4: two tie-one levels contribute 2 each, two tie-zero levels 3,
        # against C(4, 2) = 6; m=2: one level each of 1 and 2, against C(2, 1)
        for m, k, factor, c in ((4, 4, 36, math.log2(6)), (2, 2, 2, 1.0)):
            lower, upper = at(level_bounds(0.1, m, RateKind.ALTERNATING), k)
            assert lower == pytest.approx(factor * (bits0 - c), rel=1e-14, abs=0)
            assert upper == pytest.approx(factor * bits0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("strategy", [RateKind.MAJORITY_RANDOM, RateKind.ALTERNATING])
    def test_walk_is_the_closed_form(self, strategy):
        # factor x (bits0 - log2 C(m, lambda)) and factor x bits0, with the
        # exact factor lambda^k, or (lambda (lambda + 1))^(k/2) at even k
        bits0 = -math.log2(0.1)
        for m in range(2, 9) if strategy is RateKind.MAJORITY_RANDOM else (2, 4, 6, 8):
            lam = per_level_exponent(m)
            lower0 = bits0 - math.log2(math.comb(m, lam))
            walk = itertools.islice(level_bounds(0.1, m, strategy), 41)
            for k, got in enumerate(walk):
                if strategy is RateKind.MAJORITY_RANDOM:
                    factor = lam**k
                elif k % 2:
                    assert got == ()
                    continue
                else:
                    factor = (lam * (lam + 1)) ** (k // 2)
                assert got == (factor * lower0, factor * bits0), (m, k)

    def test_alternating_rejects_odd_height(self):
        # the walk gives a bound at even levels only
        for m in (4, 2):
            cells = list(itertools.islice(level_bounds(0.1, m, RateKind.ALTERNATING), 13))
            assert cells[1::2] == [()] * 6
            assert all(len(c) == 2 for c in cells[::2])

    def test_alternating_rejects_odd_m(self):
        with pytest.raises(ValueError, match="alternating strategy needs even m, got 5"):
            next(level_bounds(0.1, 5, RateKind.ALTERNATING))

    def test_rejects_boundary_alpha(self):
        with pytest.raises(ValueError):
            level_bounds(0.0, 3, RateKind.MAJORITY_RANDOM)
        with pytest.raises(ValueError):
            level_bounds(1.0, 3, RateKind.MAJORITY_RANDOM)

    def test_alternating_m2_holds_only_when_ties_go_to_zero_first(self):
        walk = level_bounds(0.1, 2, RateKind.ALTERNATING)
        cells = list(itertools.islice(walk, 13))
        one, zero = (propagate(ErrorPair.from_linear(0.1, 0.1),
                               Schedule(2, 12, "alternating", phase=first), Priors.equal())
                     for first in ("one", "zero"))
        # ties to one first: 7.636 bits at level 4, below the 9.288-bit lower bound
        assert one.pairs[4].alpha.log2_inverse == pytest.approx(7.636, abs=5e-4)
        assert cells[4][0] == pytest.approx(4 * (math.log2(10) - 1), rel=1e-14, abs=0)
        assert one.pairs[4].alpha.log2_inverse < cells[4][0]
        # ties to zero first: inside the bounds at every even level through 12
        for k in range(0, 13, 2):
            lower, upper = cells[k]
            assert lower - 1e-6 <= zero.pairs[k].alpha.log2_inverse <= upper + 1e-6, k


class TestTotalBounds:
    def test_m3_height4(self):
        lower, upper = at(bound_cells(Schedule(3, 4), 0.1, 0.1), 4)
        assert lower == pytest.approx(16 * (math.log2(10) - math.log2(3)), rel=1e-14, abs=0)
        assert upper == pytest.approx(16 * math.log2(10), rel=1e-14, abs=0)

    def test_asymmetric_pair_uses_worse_side(self):
        lower, upper = at(bound_cells(Schedule(3, 2, priors=Priors(0.3, 0.7)), 0.2, 0.05), 2)
        worse = math.log2(5)  # bits of max(alpha0, beta0) = 0.2
        mix = 0.3 * math.log2(5) + 0.7 * math.log2(20)
        assert lower == pytest.approx(4 * (worse - math.log2(3)), rel=1e-14, abs=0)
        assert upper == pytest.approx(4 * mix, rel=1e-14, abs=0)

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
        rule = "majority"
        if strategy is RateKind.ALTERNATING:
            m, k, rule = max(4, m + m % 2), k + k % 2, "alternating"  # even m >= 4, even height
        schedule = Schedule(m, k, rule, priors=Priors(pi0, 1.0 - pi0))
        walks = zip(bound_cells(schedule, a, b), level_bounds(max(a, b), m, strategy))
        for got, want in itertools.islice(walks, k + 1):
            assert got[:1] == want[:1]

    def test_vacuous_lower_is_allowed(self):
        # weak leaves push the lower bound negative; still a valid sandwich
        lower, upper = at(bound_cells(Schedule(3, 1), 0.45, 0.45), 1)
        assert lower < 0.0
        assert upper > 0.0

    def test_alternating_m2_is_refused(self):
        # the sandwich would claim 4 * (log2(10) - 1) = 9.288 bits at
        # level 4; the ties-to-one-first trace has only 8.425 there
        trace = propagate(
            ErrorPair.from_linear(0.1, 0.1),
            [AlternatingMajority(2, ph) for ph in alternating_phases(4)],
            Priors.equal(),
        )
        assert trace.totals[4].log2_inverse < 4 * (math.log2(10) - 1)
        for first in ("one", "zero"):
            assert at(bound_cells(Schedule(2, 4, "alternating", phase=first), 0.1, 0.1), 4) == ()


class TestBoundCells:
    """bound_cells picks each family's theorem: the cells of level k are
    the closed forms below, scaled by the exact factor, or () where no
    theorem applies."""

    @staticmethod
    def total_terms(a0, b0, priors, m):
        lam = per_level_exponent(m)
        worse = min(-math.log2(a0), -math.log2(b0))
        mix = priors.pi0 * -math.log2(a0) + priors.pi1 * -math.log2(b0)
        return worse - math.log2(math.comb(m, lam)), mix

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("pi0", [0.3, 0.5])
    def test_majority_is_total_bounds_at_random_ties(self, m, pi0):
        # lambda^k x (worse bits - log2 C(m, lambda)), lambda^k x (pi0 bits_a + pi1 bits_b)
        priors = Priors(pi0, 1.0 - pi0)
        lam = per_level_exponent(m)
        lower, upper = self.total_terms(0.1, 0.2, priors, m)
        for pb in (None, 0.5) if m % 2 == 0 else (None,):
            cells = bound_cells(Schedule(m, 20, pb=pb, priors=priors), 0.1, 0.2)
            for k, got in enumerate(itertools.islice(cells, 21)):
                assert got == (lam**k * lower, lam**k * upper)

    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("phase", ["one", "zero"])
    def test_alternating_is_total_bounds_at_even_levels(self, m, phase):
        # the same terms times (lambda (lambda + 1))^(k/2) at even k
        priors = Priors(0.3, 0.7)
        lam = per_level_exponent(m)
        lower, upper = self.total_terms(0.1, 0.2, priors, m)
        cells = bound_cells(Schedule(m, 20, "alternating", phase=phase, priors=priors), 0.1, 0.2)
        for k, got in enumerate(itertools.islice(cells, 21)):
            if k % 2:
                assert got == ()
            else:
                factor = (lam * (lam + 1)) ** (k // 2)
                assert got == (factor * lower, factor * upper)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("pi0", [0.3, 0.5])
    def test_lrt_is_its_lower_bound(self, m, pi0):
        # lambda^k x (log2(1/L0) - log2(2 C(m, lambda) max(pi) / min(pi)^lambda))
        priors = Priors(pi0, 1.0 - pi0)
        lam = per_level_exponent(m)
        total0 = total_error(ErrorPair.from_linear(0.1, 0.2), priors).linear
        lo, hi = sorted((priors.pi0, priors.pi1))
        term = -math.log2(total0) - math.log2(2.0 * math.comb(m, lam) * hi / lo**lam)
        cells = bound_cells(Schedule(m, 20, "lrt", priors=priors), 0.1, 0.2)
        for k, got in enumerate(itertools.islice(cells, 21)):
            assert got == (lam**k * term,)

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
    fan-in named, never an OverflowError; a walk names its first refused
    level."""

    def test_majority_factor_names_the_level(self):
        # 2^1023 * 1.74 bits still fits; the factor 2^1024 does not
        got, err = walk_to_refusal(level_bounds(0.3, 3, RateKind.MAJORITY_RANDOM))
        assert len(got) == 1024
        err.match("level 1024")
        # 128^146 = 2^1022, times log2(10) bits, leaves double range
        got, err = walk_to_refusal(bound_cells(Schedule(255, 200), 0.1, 0.1))
        assert len(got) == 146
        err.match("level 146")
        got, err = walk_to_refusal(bound_cells(Schedule(3, 2000, "lrt"), 0.1, 0.1))
        assert len(got) == 1024
        err.match("level 1024")

    def test_factor_times_bits_past_double_range_names_the_level(self):
        # 2^1023 fits a double, but 2^1023 * log2(10) does not: the bound is
        # refused rather than printed as inf
        walks = [
            (level_bounds(0.1, 3, RateKind.MAJORITY_RANDOM), 1023, "m=3"),
            (bound_cells(Schedule(3, 2000), 0.1, 0.1), 1023, "m=3"),
            # (2 * 3)^396 = 2^1023.6 fits; times log2(10) it does not
            (bound_cells(Schedule(4, 2000, "alternating"), 0.1, 0.1), 792, "m=4"),
            # a vacuous lower bound far below -1.8e308: leaves past 1/penalty
            (bound_cells(Schedule(3, 2000, "lrt"), 0.45, 0.45), 1023, "m=3"),
        ]
        for walk, k, m in walks:
            got, err = walk_to_refusal(walk)
            err.match(f"level {k}: bound factor for {m}")
            # one row earlier every product still fits
            assert len(got) == k
            assert all(math.isfinite(bits) for bits in got[-1] + got[-2])

    def test_alternating_factor_is_not_an_inapplicable_bound(self):
        _, err = walk_to_refusal(bound_cells(Schedule(4, 2000, "alternating"), 0.1, 0.1))
        err.match("level 792")
        assert err.type is ValueError  # callers that skip inapplicable bounds see it

    def test_lrt_penalty_names_the_fan_in(self):
        with pytest.raises(ValueError, match="m=1100"):
            bound_cells(Schedule(1100, 0, "lrt"), 0.1, 0.1)  # 2 C(1100, 550) overflows
        with pytest.raises(ValueError, match="m=301"):  # 0.001^151 underflows
            bound_cells(Schedule(301, 0, "lrt", priors=Priors(0.001, 0.999)), 0.1, 0.1)

    def test_lrt_penalty_quotient_overflow_names_the_fan_in(self):
        # 2 C(687, 344) * 0.5 fits, but dividing by 0.5^344 gives inf
        # without an OverflowError; one fan-in lower the penalty fits
        with pytest.raises(ValueError, match="penalty for m=687"):
            bound_cells(Schedule(687, 0, "lrt"), 0.1, 0.1)
        (lower,) = next(bound_cells(Schedule(686, 0, "lrt"), 0.1, 0.1))
        assert math.isfinite(lower)


class TestLRTLowerBound:
    """The likelihood-ratio guarantee, the lower cell of an lrt walk from a
    leaf pair whose total error is L0."""

    def test_frozen_m3_equal_priors(self):
        # penalty = 2 * C(3,2) * max(pi) / min(pi)^2 = 12
        (got,) = at(bound_cells(Schedule(3, 1, "lrt"), 0.05, 0.05), 1)
        assert got == pytest.approx(2 * (math.log2(20) - math.log2(12)), rel=1e-14, abs=0)

    def test_vanishes_at_penalty_inverse(self):
        (got,) = at(bound_cells(Schedule(3, 1, "lrt"), 1 / 12, 1 / 12), 1)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_vacuous_is_returned_not_raised(self):
        assert at(bound_cells(Schedule(3, 1, "lrt"), 0.2, 0.2), 1)[0] < 0.0

    def test_rejects_degenerate_priors(self):
        with pytest.raises(ValueError, match="lrt needs 0 < --pi0 < 1"):
            bound_cells(Schedule(3, 1, "lrt", priors=Priors(1.0, 0.0)), 0.05, 0.05)


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

    @pytest.mark.parametrize("m", [2**1024 + 2, 2**1024 + 1], ids=["even", "odd"])
    def test_every_kind_is_finite_past_double_range(self, m):
        # (m + 1) / 2.0 overflows a double there; each exponent is
        # log_m of about m / 2, 1 - 1/1024 within an ulp
        kinds = [RateKind.MAJORITY_RANDOM, RateKind.UPPER_BOUND]
        if m % 2 == 0:
            kinds.append(RateKind.ALTERNATING)
        for kind in kinds:
            assert exponent(m, kind) == pytest.approx(1023 / 1024, rel=1e-15, abs=0), kind

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
        assert trace.pairs[4].alpha.linear <= 1e-6 < trace.pairs[3].alpha.linear

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
        # at 2^1024, m - log2(m + 1) leaves double range: past any leaf bits
        for m in (10**9, 2**1024):
            with pytest.raises(BoundInapplicableError, match=f"<= log2\\(c\\) for m={m}$"):
                sample_size(m, 0.1, 0.1, 1e-6)

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
