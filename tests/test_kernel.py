"""Single fusion steps and level-by-level propagation."""

import functools
import itertools
import math
import re
import time
from fractions import Fraction
from unittest import mock

import propagate_corpus
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from relaytree import kernel
from relaytree.kernel import (
    AlternatingMajority,
    BayesianLRT,
    ErrorPair,
    MajorityEven,
    MajorityOdd,
    Priors,
    Schedule,
    TiePhase,
    alternating_phases,
    apply_rule,
    binom_tail,
    iter_levels,
    majority_rule,
    propagate,
    total_error,
)
from relaytree.logdomain import LOG_ZERO, LogProb, log1mexp, log_sum_exp
from relaytree.oracle import h0_likelihoods, h1_likelihoods, map_step

error_probs = st.floats(min_value=1e-6, max_value=0.499)


def pair(a, b):
    return ErrorPair.from_linear(a, b)


@functools.lru_cache(maxsize=None)
def log_comb(m):
    """log C(m, s) for s = 0..m, each from math.comb."""
    return tuple(math.log(math.comb(m, s)) for s in range(m + 1))


def tail_by_fsum(m, s_lo, s_hi, log_p):
    """log P(s_lo <= Binom(m, p) <= s_hi) over every term of the window and
    without log_sum_exp: log C(m, s) from math.comb, then expm1 differences
    from the maximum summed by one math.fsum (test_logdomain's
    log_sum_exp_by_fsum).  Products with s = 0 or s = m are left out, so a
    point mass (log p or log q = -inf) needs no case of its own."""
    log_q = log1mexp(log_p)
    row = log_comb(m)
    terms = [
        row[s]
        + (s * log_p if s > 0 else 0.0)
        + ((m - s) * log_q if s < m else 0.0)
        for s in range(s_lo, s_hi + 1)
    ]
    top = max(terms)
    if top == LOG_ZERO:
        return LOG_ZERO
    rest = math.fsum([math.expm1(t - top) for t in terms])
    return LogProb(top + math.log1p(rest + (len(terms) - 1))).value


# log p as deep traces produce it: down to the overflow edge, just below
# exp's underflow and the two doubles at its edge (the first with
# exp(log p) == 0.0, the last with exp(log p) > 0), and a few ulps below 0
# (p a hair under 1)
DEEP_LOGS = [-1.7e308, -1e307, -1e290, -1e100, -745.2, -745.1332191019412,
             -745.1332191019411, -40.0, -37.43, -2.3, -1e-17, -1e-300, -5e-324]
deep_logs = st.one_of(
    st.sampled_from(DEEP_LOGS),
    st.floats(min_value=-1.7e308, max_value=-5e-324),
    st.floats(min_value=-60.0, max_value=-1e-6),
    st.floats(min_value=-1e-6, max_value=-5e-324),
)


@st.composite
def tail_cases(draw):
    """(m, s_lo, s_hi, log p): any window, windows wholly below or above the
    mode, and windows whose first step down straddles expm1's -37.43
    threshold or the 40-nat cut, falling to the right or (mirrored) left."""
    m = draw(st.one_of(st.integers(min_value=2, max_value=12),
                       st.integers(min_value=2, max_value=1001)))
    kind = draw(st.sampled_from(["any", "below", "above", "straddle"]))
    if kind == "straddle":
        s_lo = draw(st.integers(min_value=0, max_value=m - 1))
        s_hi = draw(st.integers(min_value=s_lo + 1, max_value=m))
        gap = draw(st.one_of(st.floats(min_value=37.0, max_value=38.0),
                             st.floats(min_value=39.5, max_value=40.5)))
        # t(s_lo + 1) - t(s_lo) = log((m - s_lo) / (s_lo + 1)) + log p - log q
        log_p = -gap - math.log((m - s_lo) / (s_lo + 1))
        assume(log_p < 0.0)
        if draw(st.booleans()):
            log_p = log1mexp(log_p)
            s_lo, s_hi = m - s_hi, m - s_lo
        assume(-math.inf < log_p < 0.0)
        return m, s_lo, s_hi, log_p
    log_p = draw(deep_logs)
    mode = min(int((m + 1) * math.exp(log_p)), m)
    if kind == "below":
        s_hi = draw(st.integers(min_value=0, max_value=mode))
        s_lo = draw(st.integers(min_value=0, max_value=s_hi))
    elif kind == "above":
        s_lo = draw(st.integers(min_value=mode, max_value=m))
        s_hi = draw(st.integers(min_value=s_lo, max_value=m))
    else:
        s_lo = draw(st.integers(min_value=0, max_value=m))
        s_hi = draw(st.integers(min_value=s_lo, max_value=m))
    return m, s_lo, s_hi, log_p


class TestBinomTail:
    def test_exact_small(self):
        # tail s >= 2 of Binom(3, 0.1): 3 * 0.01 * 0.9 + 0.001
        got = binom_tail(3, 2, 3, LogProb.from_linear(0.1))
        assert got.linear == pytest.approx(0.028, rel=1e-14, abs=0)

    def test_full_range_is_one(self):
        for m, p in ((7, 0.37), (4, 0.1)):
            got = binom_tail(m, 0, m, LogProb.from_linear(p))
            assert got.linear == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_degenerate_p(self):
        assert binom_tail(5, 3, 5, LogProb.from_linear(0.0)).linear == 0.0
        assert binom_tail(5, 3, 5, LogProb.from_linear(1.0)).linear == 1.0
        assert binom_tail(5, 0, 5, LogProb.from_linear(0.0)).linear == 1.0

    def test_point_mass_matches_the_term_sum(self):
        # Binom(m, 0) sits at s = 0 and Binom(m, 1) at s = m; bit for bit
        # what summing the terms, without their 0 * -inf products, gives
        for p in (0.0, 1.0):
            lp = LogProb.from_linear(p)
            log_q = log1mexp(lp.value)
            for m in range(1, 12):
                for s_lo in range(m + 1):
                    for s_hi in range(s_lo, m + 1):
                        terms = [
                            math.log(math.comb(m, s))
                            + (s * lp.value if s > 0 else 0.0)
                            + ((m - s) * log_q if s < m else 0.0)
                            for s in range(s_lo, s_hi + 1)
                        ]
                        want = LogProb(log_sum_exp(terms)).value
                        got = binom_tail(m, s_lo, s_hi, lp).value
                        assert math.copysign(1, got) == math.copysign(1, want)
                        assert got == want

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            binom_tail(3, 3, 2, LogProb.from_linear(0.1))
        with pytest.raises(ValueError):
            binom_tail(3, -1, 2, LogProb.from_linear(0.1))
        with pytest.raises(ValueError):
            binom_tail(3, 0, 4, LogProb.from_linear(0.1))

    @given(st.integers(min_value=1, max_value=30), error_probs, st.data())
    @settings(max_examples=200)
    def test_matches_scipy_logsf(self, m, p, data):
        s_lo = data.draw(st.integers(min_value=1, max_value=m))
        got = binom_tail(m, s_lo, m, LogProb.from_linear(p))
        want = stats.binom.logsf(s_lo - 1, m, p)
        assert got.value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_deep_tail_stays_meaningful(self):
        # scipy's logsf underflows to -inf here; exact rationals do not.
        # The exact tail is a ratio of huge integers, so take its log via
        # bit lengths plus 53-bit float remainders.
        got = binom_tail(601, 500, 601, LogProb.from_linear(0.01))
        p = Fraction(1, 100)
        want = sum(
            math.comb(601, s) * p**s * (1 - p) ** (601 - s) for s in range(500, 602)
        )
        num, den = want.numerator, want.denominator
        shift_n = max(num.bit_length() - 53, 0)
        shift_d = max(den.bit_length() - 53, 0)
        want_log = (
            math.log(num >> shift_n)
            + shift_n * math.log(2)
            - math.log(den >> shift_d)
            - shift_d * math.log(2)
        )
        assert got.value == pytest.approx(want_log, rel=1e-9, abs=0)
        assert got.value < -700.0

    @given(
        st.integers(min_value=2, max_value=1001),
        st.one_of(
            st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_per_term_binomials(self, m, p, data):
        s_lo = data.draw(st.integers(min_value=0, max_value=m))
        s_hi = data.draw(st.integers(min_value=s_lo, max_value=m))
        lp = LogProb.from_linear(p)
        # the sum as it was written before log C(m, s) was cached per fan-in
        log_q = log1mexp(lp.value)
        terms = []
        for s in range(s_lo, s_hi + 1):
            t = math.log(math.comb(m, s)) if 0 < s < m else 0.0
            if s > 0:
                t += s * lp.value
            if s < m:
                t += (m - s) * log_q
            terms.append(t)
        want = LogProb(log_sum_exp(terms)).value
        assert binom_tail(m, s_lo, s_hi, lp).value == want

    @pytest.mark.parametrize("log_p", DEEP_LOGS)
    def test_cut_keeps_the_bits_at_deep_trace_values(self, log_p):
        lp = LogProb(log_p)
        for m in (2, 3, 4, 64, 255, 1001):
            half = m // 2
            for s_lo, s_hi in ((0, m), (0, half), (half, m), (m - half, m), (1, m - 1), (m, m)):
                want = tail_by_fsum(m, s_lo, s_hi, log_p)
                assert binom_tail(m, s_lo, s_hi, lp).value.hex() == want.hex(), (m, s_lo, s_hi)

    @given(tail_cases())
    @settings(max_examples=200, deadline=None)
    def test_cut_keeps_the_bits_property(self, case):
        m, s_lo, s_hi, log_p = case
        want = tail_by_fsum(m, s_lo, s_hi, log_p)
        assert binom_tail(m, s_lo, s_hi, LogProb(log_p)).value.hex() == want.hex()


    # (m, s_lo, s_hi, log p) whose walk keeps one term: windows of width 1
    # (no far terms, one of them the term -inf of an overflowed product),
    # the term +0.0 at s = 0 for p a hair above 0, deep tails above the mode
    # and (p near 1) below it, and both point masses
    @pytest.mark.parametrize("m, s_lo, s_hi, log_p", [
        (3, 2, 2, math.log(0.1)),
        (255, 128, 128, -2.3),
        (2, 2, 2, -1.7e308),
        (3, 0, 3, -1.7e308),
        (64, 0, 64, -1e100),
        (4, 3, 4, -745.2),
        (255, 128, 255, -1e4),
        (1001, 500, 1001, -45.0),
        (255, 0, 1, -1e-300),
        (5, 0, 3, LOG_ZERO),
        (5, 5, 5, LOG_ZERO),
        (5, 2, 5, 0.0),
    ])
    def test_one_term_is_what_log_sum_exp_returns(self, m, s_lo, s_hi, log_p):
        log_q = log1mexp(log_p)
        # the kernel's term, without the 0 * -inf products of a point mass
        terms = [
            log_comb(m)[s]
            + (s * log_p if s > 0 else 0.0)
            + ((m - s) * log_q if s < m else 0.0)
            for s in range(s_lo, s_hi + 1)
        ]
        top = max(terms)
        assert sum(t >= top - 40.0 for t in terms) == 1
        want = LogProb(log_sum_exp([top], far=len(terms) - 1)).value
        got = binom_tail(m, s_lo, s_hi, LogProb(log_p)).value
        assert got.hex() == want.hex()


def step_by_runs(pair, table):
    """(log alpha', log beta') of one count-rule level by the general run
    loop: a run [lo, hi] of equal entries p adds p times P(lo <= Binom(m,
    alpha) <= hi) to alpha' and 1 - p times P(m - hi <= Binom(m, beta) <=
    m - lo) to beta'; a side made of one tail of weight 1 is that tail."""
    m = len(table) - 1
    alpha, beta = [], []
    lo = 0
    for hi in range(m + 1):
        if hi < m and table[hi + 1] == table[lo]:
            continue
        p = table[lo]
        if p > 0.0:
            alpha.append((p, binom_tail(m, lo, hi, pair.alpha).value))
        if p < 1.0:
            beta.append((1.0 - p, binom_tail(m, m - hi, m - lo, pair.beta).value))
        lo = hi + 1

    def weighted(tails):
        if len(tails) == 1 and tails[0][0] == 1.0:
            return tails[0][1]
        return LogProb(log_sum_exp([math.log(w) + v for w, v in tails])).value

    return weighted(alpha), weighted(beta)


def is_deep(la, lb):
    """The walk's deep test: both logs finite, exp of the larger 0.0."""
    return min(la, lb) > LOG_ZERO and math.exp(max(la, lb)) == 0.0


class TestThresholdStep:
    """A table that decides 1 from k ones on takes one tail per side; its
    pair is bit for bit the run loop's, and at a deep pair so is the deep
    step's, which the walk takes there instead."""

    LOGS = [*DEEP_LOGS, math.log(0.3)]

    @pytest.mark.parametrize("m", [3, 4, 63, 255])
    def test_threshold_tables_match_the_run_loop(self, m):
        if m % 2:
            rules = [MajorityOdd(m)]
        else:
            rules = [AlternatingMajority(m, phase) for phase in TiePhase]
        rules += [BayesianLRT(m, Priors.equal()), BayesianLRT(m, Priors(0.3, 0.7))]
        thresholds = 0
        for la in self.LOGS:
            for lb in self.LOGS:
                p = ErrorPair(LogProb(la), LogProb(lb))
                for rule in rules:
                    try:
                        table = rule.table(p)
                    except ValueError:
                        continue  # an LRT count with both sides past double range
                    thresholds += 0.0 < sum(table) < m + 1 and table == tuple(sorted(table))
                    got = apply_rule(p, rule)
                    want_a, want_b = step_by_runs(p, table)
                    case = (rule, la, lb)
                    assert got.alpha.value.hex() == want_a.hex(), case
                    assert got.beta.value.hex() == want_b.hex(), case
                    if is_deep(la, lb):
                        deep_a, deep_b = kernel._deep_step(la, lb, table)
                        assert (deep_a.hex(), deep_b.hex()) == (want_a.hex(), want_b.hex()), case
        # every majority table is a threshold table, and over half the LRT ones
        assert thresholds > len(self.LOGS) ** 2 * (len(rules) - 1)


class TestTieStep:
    """A tie-coin table sums two windows a side, which share that side's
    log q and row but each walk from its own cut: its pair is bit for bit
    a tail per run weighted through log_sum_exp, at every log p of the
    tail corpus and of DEEP_LOGS, point masses included, and so is the
    deep step's at a deep pair.  At pb = 5e-324 a pair past exp's
    underflow has its two alpha windows within 37 nats (2 nats at m = 4
    and log alpha = -745.2), so their sum is not their larger term."""

    @pytest.mark.parametrize("pb", [0.3, 0.5, 5e-324])
    @pytest.mark.parametrize("m", [2, 4, 10, 64, 1000])
    def test_tie_tables_match_a_tail_per_run(self, m, pb):
        table = MajorityEven(m, pb).table(None)
        logs = [*propagate_corpus.LOG_PS, *DEEP_LOGS]
        # each log alpha against a log beta from elsewhere in the list, so a
        # side that read the other side's log q would show
        for shift in (0, 1, len(logs) // 2):
            for la, lb in zip(logs, logs[shift:] + logs[:shift]):
                p = ErrorPair(LogProb(la), LogProb(lb))
                got = kernel._table_step(p, table)
                if table == (0.0, 0.5, 1.0):  # fair m = 2 is its own fixed point
                    want_a, want_b = la, lb
                else:
                    want_a, want_b = step_by_runs(p, table)
                assert (got.alpha.value.hex(), got.beta.value.hex()) == (
                    want_a.hex(), want_b.hex()), (la, lb)
                if is_deep(la, lb) and table != (0.0, 0.5, 1.0):
                    deep_a, deep_b = kernel._deep_step(la, lb, table)
                    assert (deep_a.hex(), deep_b.hex()) == (want_a.hex(), want_b.hex()), (la, lb)


class TestErrorPairAndPriors:
    def test_pair_accessors(self):
        p = pair(0.1, 0.2)
        assert p.alpha.linear == pytest.approx(0.1, rel=1e-15, abs=0)
        assert p.beta.linear == pytest.approx(0.2, rel=1e-15, abs=0)

    def test_pair_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ErrorPair.from_linear(-0.1, 0.2)
        with pytest.raises(ValueError):
            ErrorPair.from_linear(0.1, 1.2)

    def test_priors_validation(self):
        Priors(0.5, 0.5)
        Priors(1.0, 0.0)  # degenerate mass is allowed
        with pytest.raises(ValueError):
            Priors(0.6, 0.6)
        with pytest.raises(ValueError):
            Priors(-0.1, 1.1)
        with pytest.raises(ValueError):
            Priors(1.0, 0.0).require_positive()
        Priors(0.2, 0.8).require_positive()

    def test_equal(self):
        pr = Priors.equal()
        assert pr.pi0 == pr.pi1 == 0.5

    def test_total_error(self):
        t = total_error(pair(0.1, 0.3), Priors(0.25, 0.75))
        assert t.linear == pytest.approx(0.25 * 0.1 + 0.75 * 0.3, rel=1e-14, abs=0)


class TestMajoritySteps:
    def test_odd_m3(self):
        out = apply_rule(pair(0.1, 0.2), MajorityOdd(3))
        assert out.alpha.linear == pytest.approx(3 * 0.01 * 0.9 + 0.001, rel=1e-14, abs=0)
        assert out.beta.linear == pytest.approx(3 * 0.04 * 0.8 + 0.008, rel=1e-14, abs=0)

    def test_odd_rejects_even_m(self):
        with pytest.raises(ValueError):
            apply_rule(pair(0.1, 0.1), MajorityOdd(4))

    def test_even_m2_fair_coin_is_identity(self):
        p = pair(0.1, 0.2)
        out = apply_rule(p, MajorityEven(2, 0.5))
        assert out.alpha.value == p.alpha.value
        assert out.beta.value == p.beta.value

    def test_even_m2_by_hand(self):
        # alpha' = a^2 + 2 b_tie a (1 - a) with tie weight b_tie
        a, b, w = 0.1, 0.2, 0.25
        out = apply_rule(pair(a, b), MajorityEven(2, w))
        assert out.alpha.linear == pytest.approx(a * a + 2 * w * a * (1 - a), rel=1e-14, abs=0)
        assert out.beta.linear == pytest.approx(
            b * b + 2 * (1 - w) * b * (1 - b), rel=1e-14, abs=0
        )

    def test_alternating_m2_by_hand(self):
        # ties to one: decide 1 iff any child fired, so alpha grows
        # and beta shrinks; ties to zero mirrors
        a, b = 0.1, 0.2
        one = apply_rule(pair(a, b), AlternatingMajority(2, TiePhase.TIES_TO_ONE))
        assert one.alpha.linear == pytest.approx(a * (2 - a), rel=1e-13, abs=0)
        assert one.beta.linear == pytest.approx(b * b, rel=1e-14, abs=0)
        zero = apply_rule(pair(a, b), AlternatingMajority(2, TiePhase.TIES_TO_ZERO))
        assert zero.alpha.linear == pytest.approx(a * a, rel=1e-14, abs=0)
        assert zero.beta.linear == pytest.approx(b * (2 - b), rel=1e-13, abs=0)

    @given(error_probs, error_probs, st.sampled_from([3, 5, 7, 9]))
    @settings(max_examples=200)
    def test_odd_matches_rational_arithmetic(self, a, b, m):
        half = (m + 1) // 2
        fa = Fraction(a)
        want = sum(
            math.comb(m, s) * fa**s * (1 - fa) ** (m - s) for s in range(half, m + 1)
        )
        got = apply_rule(pair(a, b), MajorityOdd(m))
        assert got.alpha.linear == pytest.approx(float(want), rel=1e-12, abs=0)


class TestRuleTypes:
    def test_parity_validation(self):
        with pytest.raises(ValueError):
            MajorityOdd(4)
        with pytest.raises(ValueError):
            MajorityEven(3)
        with pytest.raises(ValueError):
            AlternatingMajority(5)
        with pytest.raises(ValueError):
            MajorityEven(4, tie_prob=0.0)  # type keeps the open interval
        with pytest.raises(ValueError):
            BayesianLRT(3, Priors(1.0, 0.0))

    def test_majority_rule_dispatch(self):
        assert majority_rule(5) == MajorityOdd(5)
        assert majority_rule(4) == MajorityEven(4, 0.5)
        assert majority_rule(4, tie_prob=0.3) == MajorityEven(4, 0.3)
        # tie_prob is irrelevant for odd fan-in and silently dropped
        assert majority_rule(5, tie_prob=0.3) == MajorityOdd(5)

    def test_alternating_phases(self):
        assert alternating_phases(4) == [
            TiePhase.TIES_TO_ONE,
            TiePhase.TIES_TO_ZERO,
            TiePhase.TIES_TO_ONE,
            TiePhase.TIES_TO_ZERO,
        ]
        assert alternating_phases(2, first=TiePhase.TIES_TO_ZERO) == [
            TiePhase.TIES_TO_ZERO,
            TiePhase.TIES_TO_ONE,
        ]
        assert Schedule(2, 2, "alternating")[1].phase is TiePhase.TIES_TO_ZERO

    def test_apply_rule_rejects_a_non_rule(self):
        rule = object()
        with pytest.raises(TypeError, match=re.escape(repr(rule))):
            apply_rule(pair(0.1, 0.1), rule)


def rules_by_hand(m, levels, rule, pb, phase, pi0):
    """The rules of levels 1..levels, written out per family, or None
    where the flags conflict."""
    if rule == "majority" and phase is None and (pb is None or m % 2 == 0):
        return [MajorityOdd(m) if m % 2 else MajorityEven(m, 0.5 if pb is None else pb)] * levels
    if rule == "alternating" and pb is None and m % 2 == 0:
        first, second = TiePhase.TIES_TO_ONE, TiePhase.TIES_TO_ZERO
        if phase == "zero":
            first, second = second, first
        return [AlternatingMajority(m, second if k % 2 else first) for k in range(levels)]
    if rule == "lrt" and pb is None and phase is None:
        return [BayesianLRT(m, Priors(pi0, 1.0 - pi0))] * levels
    return None


class TestSchedule:
    def test_every_combination_is_its_rules_written_out(self):
        accepted = 0
        for rule in ("majority", "alternating", "lrt"):
            for m in range(2, 7):
                for levels in range(7):
                    for pb in (None, 0.3, 0.5, 0.9):
                        for phase in (None, "one", "zero"):
                            for pi0 in (0.3, 0.5):
                                want = rules_by_hand(m, levels, rule, pb, phase, pi0)
                                priors = Priors(pi0, 1.0 - pi0)
                                if want is None:
                                    with pytest.raises(ValueError):
                                        Schedule(m, levels, rule, pb, phase, priors)
                                    continue
                                got = Schedule(m, levels, rule, pb, phase, priors)
                                accepted += 1
                                assert len(got) == levels
                                assert list(got) == want
                                assert [got[k] for k in range(-levels, levels)] == want * 2
        # majority: 2 odd fan-ins x 2 priors + 3 even x 4 coins x 2 priors;
        # alternating: 3 even x 3 phases x 2 priors; lrt: 5 x 2 priors
        assert accepted == 7 * (2 * 2 + 3 * 4 * 2 + 3 * 3 * 2 + 5 * 2)

    def test_a_billion_levels_answer_at_once(self):
        start = time.perf_counter()
        schedule = Schedule(2, 10**9)
        assert len(schedule) == 10**9
        assert schedule[0] == schedule[-1] == schedule[10**9 - 1] == MajorityEven(2, 0.5)
        alternating = Schedule(2, 10**9, "alternating")
        last = AlternatingMajority(2, TiePhase.TIES_TO_ZERO)
        assert alternating[10**9 - 1] == alternating[-1] == last
        assert alternating[-10**9] == AlternatingMajority(2, TiePhase.TIES_TO_ONE)
        for k in (10**9, -10**9 - 1):
            with pytest.raises(IndexError):
                schedule[k]
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("args, kwargs, text", [
        ((4, 1), {"phase": "one"},
         "--phase conflicts with --rule majority; it selects the alternating tie direction"),
        ((3, 1), {"pb": 0.3},
         "--pb conflicts with odd deciding fan-in 3; ties need an even fan-in"),
        ((4, 1), {"pb": 1.0},
         "--pb must be inside (0, 1), got 1.0; for deterministic ties use --rule alternating"),
        ((4, 1, "alternating"), {"pb": 0.3},
         "--pb conflicts with --rule alternating; its tie direction is deterministic"),
        ((3, 1, "alternating"), {}, "--rule alternating conflicts with odd deciding fan-in 3"),
        ((4, 1, "lrt"), {"pb": 0.3}, "--pb conflicts with --rule lrt; the test has no ties"),
        ((4, 1, "lrt"), {"phase": "one"}, "--phase conflicts with --rule lrt"),
        ((3, 1, "lrt"), {"priors": Priors(1.0, 0.0)}, "--rule lrt needs 0 < --pi0 < 1, got 1.0"),
        ((3, -1), {}, "a schedule needs levels >= 0, got -1"),
        ((3, 1, "median"), {}, "rule must be majority, alternating or lrt, got 'median'"),
    ])
    def test_refusals_keep_the_cli_texts(self, args, kwargs, text):
        with pytest.raises(ValueError) as err:
            Schedule(*args, **kwargs)
        assert str(err.value) == text

    def test_propagate_takes_it_as_its_list(self):
        for schedule in (Schedule(4, 5, "alternating", phase="zero"), Schedule(3, 4, "lrt")):
            assert propagate(pair(0.1, 0.2), schedule, Priors.equal()) == propagate(
                pair(0.1, 0.2), list(schedule), Priors.equal())


def lrt_table_per_count(pair, priors, m):
    """The likelihood-ratio table by one slack comparison per count
    s = 0..m: the reference for the windowed table.  A side past double
    range reads -inf and loses to a finite one; two such sides raise."""
    la, lb = pair.alpha.value, pair.beta.value
    l1a = log1mexp(pair.alpha.value)
    l1b = log1mexp(pair.beta.value)
    lp0, lp1 = math.log(priors.pi0), math.log(priors.pi1)
    table = []
    for s in range(m + 1):
        h1_side = s * l1b + (m - s) * lb + lp1
        h0_side = s * la + (m - s) * l1a + lp0
        if h1_side == -math.inf or h0_side == -math.inf:
            if h1_side == h0_side:
                raise ValueError(f"both sides of count {s} leave double range")
            table.append(h1_side > h0_side)
        else:
            slack = 1e-9 * max(1.0, abs(h1_side), abs(h0_side))
            table.append(h1_side >= h0_side - slack)
    return tuple(table)


def lrt_table_exact(pair, priors, m):
    """The likelihood-ratio table from the sign of the linear form
    h1_side - h0_side in exact rational arithmetic on the same logs, so
    that no side can overflow; ties go to one."""
    la, lb = Fraction(pair.alpha.value), Fraction(pair.beta.value)
    l1a, l1b = Fraction(log1mexp(pair.alpha.value)), Fraction(log1mexp(pair.beta.value))
    lp0, lp1 = Fraction(math.log(priors.pi0)), Fraction(math.log(priors.pi1))
    return tuple(s * l1b + (m - s) * lb + lp1 >= s * la + (m - s) * l1a + lp0
                 for s in range(m + 1))


def table_or_error(rule, *args):
    try:
        return rule(*args)
    except ValueError:
        return ValueError


# log error probabilities strictly inside (-inf, 0) whose complements are too:
# moderate ones, alpha near 1, and logs down to -1e307
lrt_logs = st.one_of(
    st.floats(min_value=math.log(1e-6), max_value=math.log(1 - 1e-6)),
    st.floats(min_value=-1e-6, max_value=-1e-300),
    st.floats(min_value=-1e307, max_value=-1.0),
    st.sampled_from([math.log(p) for p in (0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9)]),
)


@st.composite
def lrt_cases(draw):
    """(log alpha, log beta, pi0, m) with exact ties, alpha + beta = 1 (a zero
    slope) and pairs a hair off it, anti-informative pairs and overflow."""
    la = draw(lrt_logs)
    kind = draw(st.sampled_from(["free", "tie", "sum_one", "near_sum_one"]))
    pi0 = draw(st.one_of(st.sampled_from([0.5, 0.3, 0.7, 0.01, 0.999]),
                         st.floats(min_value=1e-3, max_value=1 - 1e-3)))
    if kind == "free":
        lb = draw(lrt_logs)
    elif kind == "tie":
        lb, pi0 = la, 0.5
    else:
        lb = log1mexp(la)
        if kind == "near_sum_one":
            # a slope small enough that the slack decides a run of counts
            exp10 = draw(st.floats(min_value=-13.0, max_value=-4.0))
            lb *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0**exp10
    assume(-math.inf < lb < 0.0 and log1mexp(lb) > -math.inf)
    m = draw(st.one_of(st.integers(min_value=2, max_value=300),
                       st.integers(min_value=2, max_value=10_000)))
    return la, lb, pi0, m


class TestLRT:
    def test_tie_goes_to_one(self):
        # symmetric pair, equal priors: s = m/2 is an exact tie
        table = BayesianLRT(4, Priors.equal()).table(pair(0.2, 0.2))
        assert table == (False, False, True, True, True)

    def test_threshold_is_monotone(self):
        table = BayesianLRT(7, Priors(0.7, 0.3)).table(pair(0.1, 0.3))
        assert list(table) == sorted(table)

    def test_rejects_boundary_pairs(self):
        # ratio is 0 or infinite once a probability hits 0 or 1
        with pytest.raises(ValueError):
            apply_rule(pair(0.0, 0.2), BayesianLRT(3, Priors.equal()))
        with pytest.raises(ValueError):
            apply_rule(pair(0.1, 1.0), BayesianLRT(3, Priors.equal()))

    def test_frozen_m3_step(self):
        # one fired child already decides 1: alpha' = 1 - 0.99^3, beta' = 0.3^3
        p = pair(0.01, 0.3)
        lrt = BayesianLRT(3, Priors.equal())
        assert lrt.table(p) == (0.0, 1.0, 1.0, 1.0)
        out = apply_rule(p, lrt)
        assert out.alpha.linear == pytest.approx(0.029701, rel=1e-12, abs=0)
        assert out.beta.linear == pytest.approx(0.027, rel=1e-12, abs=0)

    def test_uninformative_pair_follows_a_skewed_prior(self):
        out = apply_rule(pair(0.5, 0.5), BayesianLRT(2, Priors(0.9, 0.1)))
        assert out.alpha.value == LOG_ZERO  # decides H0 at every count
        assert out.beta.value == 0.0

    def test_uninformative_pair_decides_one_everywhere(self):
        # alpha = beta = 1/2 makes every count an exact tie
        out = apply_rule(pair(0.5, 0.5), BayesianLRT(3, Priors.equal()))
        assert out.alpha.linear == pytest.approx(1.0, rel=1e-15, abs=0)
        assert out.beta.linear == 0.0

    def test_requires_positive_priors(self):
        with pytest.raises(ValueError):
            apply_rule(pair(0.1, 0.2), BayesianLRT(3, Priors(0.0, 1.0)))

    @given(lrt_cases())
    @example((math.log(0.2), math.log(0.2), 0.5, 4))  # exact tie at s = 2
    @example((math.log(0.3), math.log(0.7), 0.3, 9))  # alpha + beta = 1
    @example((math.log(0.9), math.log(0.6), 0.7, 33))  # anti-informative
    # alpha + beta = 1 + 5e-10: the slack, not the sign, decides thousands of counts
    @example((-1.6094379124341003, -0.2231435507283747, 0.5, 10_000))
    @example((-1e307, math.log(0.2), 0.5, 10_000))  # s * log(alpha) overflows
    @example((-1e308, -1e308, 0.5, 3))  # c0, c1 and M overflow
    @settings(max_examples=400, deadline=None)
    def test_table_equals_the_per_count_comparison(self, case):
        la, lb, pi0, m = case
        p, priors = ErrorPair(LogProb(la), LogProb(lb)), Priors(pi0, 1.0 - pi0)
        assert (table_or_error(BayesianLRT(m, priors).table, p)
                == table_or_error(lrt_table_per_count, p, priors, m))

    @pytest.mark.parametrize("la, lb, m, want", [
        # the level-791 pair of `recurse --m 4 --rule lrt --alpha0 0.1 --beta0 0.2`
        (float.fromhex("-0x1.11c23ea83d10fp+1022"), float.fromhex("-0x1.2f13a9e08fe4ap+1022"),
         4, (0, 0, 0, 1, 1)),
        (-1e307, math.log(0.2), 10_000, (0,) + (1,) * 10_000),
        (-1e308, -1e308, 3, (0, 0, 1, 1)),  # the majority table
    ], ids=["level-791-pair", "s-log-alpha-overflows", "c0-c1-M-overflow"])
    def test_overflowing_side_loses(self, la, lb, m, want):
        args = ErrorPair(LogProb(la), LogProb(lb)), Priors.equal(), m
        want = tuple(map(bool, want))
        assert lrt_table_exact(*args) == want
        assert BayesianLRT(m, Priors.equal()).table(args[0]) == want
        assert lrt_table_per_count(*args) == want

    def test_refuses_a_count_with_both_sides_past_double_range(self):
        # count 2: 2 log(alpha) and 2 log(beta) both overflow
        with pytest.raises(ValueError, match="m=4: both sides of count 2 leave double range"):
            BayesianLRT(4, Priors.equal()).table(ErrorPair(LogProb(-1e308), LogProb(-1e308)))

    def test_equals_majority_when_symmetric(self):
        got = apply_rule(pair(0.2, 0.2), BayesianLRT(5, Priors.equal()))
        want = apply_rule(pair(0.2, 0.2), MajorityOdd(5))
        assert got.alpha.value == want.alpha.value
        assert got.beta.value == want.beta.value


def lrt_table_afresh(m, lo, decided):
    """A likelihood-ratio table built as every level once built it: the
    decided window's entries, filled out to 0..m from its two ends, and
    the runs of those entries."""
    hi = lo + len(decided) - 1
    entries = (decided[0],) * lo + tuple(decided) + (decided[-1],) * (m - hi)
    return entries, runs_of(entries)


class TestLRTMemo:
    """The likelihood-ratio test keeps one table per decided window, which
    no entry and no run can tell from a table built afresh."""

    @given(st.integers(min_value=2, max_value=300),
           st.floats(min_value=1e-3, max_value=1 - 1e-3),
           st.one_of(st.just(0.0), st.floats(min_value=-1e-6, max_value=1e-6),
                     st.floats(min_value=-0.5, max_value=0.5)),
           st.floats(min_value=1e-6, max_value=1 - 1e-6),
           st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_a_shared_table_is_the_table_built_afresh(self, m, pi0, step, a, b):
        pi0s = (pi0, min(max(pi0 + step, 1e-3), 1 - 1e-3))
        p = pair(a, b)
        windows, real = [], kernel._lrt_table

        def spy(m, lo, decided):
            windows.append((lo, decided))
            return real(m, lo, decided)

        with mock.patch.object(kernel, "_lrt_table", spy):
            tables = [BayesianLRT(m, Priors(x, 1.0 - x)).table(p) for x in pi0s]
        for table, (lo, decided), x in zip(tables, windows, pi0s):
            entries, runs = lrt_table_afresh(m, lo, decided)
            assert tuple(table) == entries
            assert table.runs == runs == runs_of(table)
            assert table == lrt_table_per_count(p, Priors(x, 1.0 - x), m)
        # two priors that decide the same window share one table object
        assert (tables[0] is tables[1]) == (windows[0] == windows[1])

    def test_priors_a_hair_apart_share_a_table(self):
        p = pair(0.1, 0.2)
        first = BayesianLRT(5, Priors(0.5, 0.5)).table(p)
        assert BayesianLRT(5, Priors(0.5 + 1e-9, 0.5 - 1e-9)).table(p) is first
        assert BayesianLRT(5, Priors(0.999, 0.001)).table(p) != first


def runs_of(table):
    """The maximal runs (lo, hi, p) of equal entries, from the entries."""
    runs, lo = [], 0
    for p, group in itertools.groupby(table):
        hi = lo + len(list(group)) - 1
        runs.append((lo, hi, p))
        lo = hi + 1
    return tuple(runs)


class TestCountTable:
    """A rule's table carries the runs of its entries, and equals and
    hashes as the tuple of its entries."""

    def check(self, table, m):
        assert len(table) == m + 1
        assert table.runs == runs_of(table)
        assert table == tuple(table)
        assert hash(table) == hash(tuple(table))

    @given(lrt_cases())
    @example((math.log(0.2), math.log(0.2), 0.5, 4))  # exact tie at s = 2
    @example((math.log(0.9), math.log(0.6), 0.7, 33))  # anti-informative
    @example((-1.6094379124341003, -0.2231435507283747, 0.5, 300))  # the slack decides
    @example((-1e307, math.log(0.2), 0.5, 300))  # s * log(alpha) overflows
    @example((float.fromhex("-0x1.11c23ea83d10fp+1022"),  # the level-791 pair
              float.fromhex("-0x1.2f13a9e08fe4ap+1022"), 0.5, 4))
    @settings(max_examples=300, deadline=None)
    def test_lrt_table_carries_its_runs(self, case):
        la, lb, pi0, m = case
        rule = BayesianLRT(m, Priors(pi0, 1.0 - pi0))
        try:
            table = rule.table(ErrorPair(LogProb(la), LogProb(lb)))
        except ValueError:  # a count with both sides past double range
            return
        self.check(table, m)

    @pytest.mark.parametrize("m", [*range(2, 10), 63, 64, 255])
    def test_majority_tables_carry_their_runs(self, m):
        p = pair(0.1, 0.2)
        rules = [majority_rule(m), majority_rule(m, 0.3)]
        if m % 2 == 0:
            rules += [AlternatingMajority(m, phase) for phase in TiePhase]
        for rule in rules:
            self.check(rule.table(p), m)

    def test_bare_entries_get_their_runs(self):
        for entries in [(0.0, 0.5, 0.5, 1.0), (1.0,) * 4, (0.3, 0.0, 0.3, 0.3, 1.0)]:
            self.check(kernel._CountTable(entries), len(entries) - 1)


@st.composite
def anti_informative_pairs(draw):
    """Leaf pairs with alpha + beta >= 1: each message is no better than a
    coin, so each tail's mode sits at the top of its majority window and
    the pair runs toward (1, 1) with height."""
    a = draw(st.floats(min_value=0.0, max_value=1.0))
    b = draw(st.one_of(st.just(1.0 - a), st.floats(min_value=1.0 - a, max_value=1.0)))
    assume(a + b >= 1.0)
    return ErrorPair.from_linear(a, b)


# log-probabilities whose probability lies a few ulps from 0 or from 1
ulps = st.integers(min_value=1, max_value=8)
boundary_logs = st.one_of(
    ulps.map(lambda k: math.log(k * 5e-324)),
    ulps.map(lambda k: math.log(k * 2.2250738585072014e-308)),
    ulps.map(lambda k: math.log1p(-k * 2.0**-53)),
    ulps.map(lambda k: -k * 5e-324),
)


@st.composite
def boundary_pairs(draw):
    return ErrorPair(LogProb(draw(boundary_logs)), LogProb(draw(boundary_logs)))


@st.composite
def majority_schedules(draw):
    """Odd majority or alternating even majority for 1-6 levels: every
    level is one tail of weight 1 on each side."""
    height = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.sampled_from([2, 3, 4, 5, 9, 10, 63, 64, 255]))
    if m % 2:
        return [MajorityOdd(m)] * height
    first = draw(st.sampled_from(list(TiePhase)))
    return [AlternatingMajority(m, ph) for ph in alternating_phases(height, first)]


class TestPropagate:
    def test_trace_shape(self):
        sched = [MajorityOdd(3)] * 4
        trace = propagate(pair(0.1, 0.1), sched, Priors.equal())
        assert len(trace.pairs) == 5
        assert len(trace.totals) == 5
        assert trace.pairs[0].alpha.linear == pytest.approx(0.1, rel=1e-15, abs=0)

    def test_m3_symmetric_two_levels(self):
        sched = [MajorityOdd(3)] * 2
        trace = propagate(pair(0.1, 0.1), sched, Priors.equal())
        a1 = 3 * 0.01 * 0.9 + 0.001
        a2 = 3 * a1**2 * (1 - a1) + a1**3
        assert trace.pairs[1].alpha.linear == pytest.approx(a1, rel=1e-14, abs=0)
        assert trace.pairs[-1].alpha.linear == pytest.approx(a2, rel=1e-13, abs=0)
        assert trace.totals[2].linear == pytest.approx(a2, rel=1e-13, abs=0)

    def test_m2_fair_coin_fixed_point(self):
        sched = [MajorityEven(2, 0.5)] * 20
        for a, b in [(0.1, 0.1), (0.37, 0.02), (0.005, 0.49)]:
            trace = propagate(pair(a, b), sched, Priors.equal())
            for level_pair in trace.pairs:
                assert level_pair.alpha.value == trace.pairs[0].alpha.value
                assert level_pair.beta.value == trace.pairs[0].beta.value

    @pytest.mark.parametrize("schedule, x, want", [
        ([MajorityOdd(5)], 0.1, (0.00856, 0.00856)),
        ([MajorityOdd(3)], 0.05, (0.00725, 0.00725)),
        ([MajorityEven(4, 0.5)], 0.1, (0.028, 0.028)),
        ([AlternatingMajority(2, TiePhase.TIES_TO_ZERO)], 0.1, (0.01, 0.19)),
        ([AlternatingMajority(4, TiePhase.TIES_TO_ONE)], 0.1, (0.0523, 0.0037)),
        ([AlternatingMajority(2, ph) for ph in alternating_phases(2)], 0.1, (0.0361, 0.0199)),
    ])
    def test_hand_computed_roots(self, schedule, x, want):
        root = propagate(pair(x, x), schedule, Priors.equal()).pairs[-1]
        assert (root.alpha.linear, root.beta.linear) == pytest.approx(want, rel=1e-12, abs=0)

    def test_totals_mix_each_level(self):
        priors = Priors(0.25, 0.75)
        trace = propagate(pair(0.2, 0.05), [MajorityOdd(3)] * 5, priors)
        for p, total in zip(trace.pairs, trace.totals, strict=True):
            want = 0.25 * p.alpha.linear + 0.75 * p.beta.linear
            assert total.linear == pytest.approx(want, rel=1e-12, abs=0)

    def test_boundary_pair_is_a_fixed_point(self):
        for rule in (MajorityOdd(3), MajorityEven(4, 0.3), AlternatingMajority(2)):
            root = propagate(pair(0.0, 1.0), [rule] * 3, Priors.equal()).pairs[-1]
            assert root.alpha.value == LOG_ZERO, rule
            assert root.beta.value == 0.0, rule

    def test_error_names_the_level(self):
        # alpha = 0 survives the majority level, then the ratio rule
        # rejects it one level up
        sched = [MajorityOdd(3), BayesianLRT(3, Priors(0.4, 0.6))]
        with pytest.raises(ValueError, match="level 2"):
            propagate(pair(0.0, 0.2), sched, Priors(0.4, 0.6))

    @given(st.one_of(anti_informative_pairs(), boundary_pairs()), majority_schedules())
    @settings(max_examples=150, deadline=None)
    def test_majority_levels_match_the_full_sum(self, pair0, schedule):
        trace = propagate(pair0, schedule, Priors.equal())
        la, lb = pair0.alpha.value, pair0.beta.value
        for rule, got in zip(schedule, trace.pairs[1:], strict=True):
            m = rule.m
            if isinstance(rule, MajorityOdd):
                lo_a = lo_b = (m + 1) // 2
            elif rule.phase is TiePhase.TIES_TO_ONE:
                lo_a, lo_b = m // 2, m // 2 + 1
            else:
                lo_a, lo_b = m // 2 + 1, m // 2
            # a false alarm needs lo_a ones; a miss needs lo_b zeros
            la, lb = tail_by_fsum(m, lo_a, m, la), tail_by_fsum(m, lo_b, m, lb)
            assert got.alpha.value.hex() == la.hex()
            assert got.beta.value.hex() == lb.hex()

    def test_reaches_the_steps_the_benchmark_pins(self, monkeypatch):
        # bench/test_bench.py traces propagate through majority_step_odd to
        # binom_tail and log_sum_exp, and the benchmark reports
        # kernel.lrt_step.self_s; delete this test with the two wrappers once
        # the benchmark names neither
        calls, inside, tails = [], [], []
        for name in ("majority_step_odd", "lrt_step"):
            real = getattr(kernel, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                inside.append(_name)
                try:
                    return _real(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(kernel, name, counted)
        real_tail = kernel.binom_tail

        def tail(m, s_lo, s_hi, p):
            tails.append((s_lo, s_hi, tuple(inside)))
            return real_tail(m, s_lo, s_hi, p)

        monkeypatch.setattr(kernel, "binom_tail", tail)
        # the benchmark's traced case: two levels x two sides, each the
        # window [3, 5], each inside its level's majority_step_odd
        propagate(pair(0.1, 0.1), [MajorityOdd(5)] * 2, Priors.equal())
        assert tails == [(3, 5, ("majority_step_odd",))] * 4
        calls.clear()
        propagate(pair(0.1, 0.2), [MajorityOdd(3)] * 4, Priors.equal())
        assert calls == ["majority_step_odd"] * 4
        calls.clear()
        propagate(pair(0.1, 0.2), [BayesianLRT(5, Priors.equal())] * 3, Priors.equal())
        assert calls == ["lrt_step"] * 3

    def test_deep_levels_walk_no_tail(self, monkeypatch):
        # a level whose incoming pair has both sides past exp's underflow
        # steps by each window's lowest term; every other level walks.  The
        # walk steps a level by apply_rule or, on a deep pair, _deep_step
        real_step, real_deep, real_tail = kernel.apply_rule, kernel._deep_step, kernel._tail
        levels = []

        def step(incoming, rule):
            levels.append([(incoming.alpha.value, incoming.beta.value), 0, "apply_rule"])
            return real_step(incoming, rule)

        def deep(la, lb, table):
            levels.append([(la, lb), 0, "_deep_step"])
            return real_deep(la, lb, table)

        def tail(*args):
            levels[-1][1] += 1
            return real_tail(*args)

        monkeypatch.setattr(kernel, "apply_rule", step)
        monkeypatch.setattr(kernel, "_deep_step", deep)
        monkeypatch.setattr(kernel, "_tail", tail)
        for schedule in (Schedule(3, 400), Schedule(4, 300, "lrt", priors=Priors(0.3, 0.7))):
            levels.clear()
            propagate(pair(0.1, 0.2), schedule, Priors.equal())
            assert len(levels) == len(schedule)
            deep = [math.exp(max(logs)) == 0.0 for logs, _, _ in levels]
            assert [walks == 0 for _, walks, _ in levels] == deep
            assert [by == "_deep_step" for _, _, by in levels] == deep
            # from about level 10 on, every level is deep
            first = deep.index(True)
            assert 0 < first < 20 and all(deep[first:])

    def test_summation_in_schedule_names_the_level(self):
        # a level that cannot step its pair is named: here beta = 0 survives
        # the majority level, and the ratio rule refuses it one level up
        sched = [MajorityOdd(3), BayesianLRT(3, Priors.equal())]
        with pytest.raises(ValueError, match="level 2"):
            propagate(pair(0.2, 0.0), sched, Priors.equal())


class TestIterLevels:
    def test_a_level_steps_only_when_taken(self, monkeypatch):
        real, rules = kernel.apply_rule, []

        def spy(pair0, rule):
            rules.append(rule)
            return real(pair0, rule)

        monkeypatch.setattr(kernel, "apply_rule", spy)
        start = time.perf_counter()
        walk = iter_levels(pair(0.1, 0.2), Schedule(2, 10**9), Priors.equal())
        assert rules == []
        taken = list(itertools.islice(walk, 3))
        assert time.perf_counter() - start < 1.0
        assert len(taken) == 3
        assert rules == [MajorityEven(2, 0.5)] * 2

    def test_an_empty_schedule_yields_the_leaf_level_only(self):
        leaf = pair(0.1, 0.2)
        assert list(iter_levels(leaf, Schedule(3, 0), Priors(0.3, 0.7))) == [
            (leaf, total_error(leaf, Priors(0.3, 0.7)))]

    def test_a_refused_step_ends_the_walk_after_the_levels_below(self):
        sched = [MajorityOdd(3), BayesianLRT(3, Priors.equal())]
        walk = iter_levels(pair(0.2, 0.0), sched, Priors.equal())
        assert len([next(walk), next(walk)]) == 2
        with pytest.raises(ValueError, match="^level 2: likelihood-ratio rule undefined"):
            next(walk)


def total_by_log_sum_exp(la, lb, priors):
    """log(pi0 alpha + pi1 beta) as one log_sum_exp over the sides of
    nonzero prior, read as LogProb reads it."""
    terms = [math.log(pi) + log for pi, log in zip((priors.pi0, priors.pi1), (la, lb)) if pi > 0.0]
    return LogProb(log_sum_exp(terms)).value


def near(x, ulps):
    """The doubles from `ulps` steps below x to `ulps` steps above it."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestLogTotal:
    """The total skips log_sum_exp when its two prior-weighted logs lie
    more than 40 nats apart; it keeps every bit of log_sum_exp."""

    @staticmethod
    def check(la, lb, priors):
        got = kernel._log_total(la, lb, *kernel._log_priors(priors))
        assert got.hex() == total_by_log_sum_exp(la, lb, priors).hex()

    @staticmethod
    def gaps_near(la, gap, ulps):
        """Check the lower side a few ulps around `gap` nats down, either
        way round; return the gaps met."""
        priors = Priors(0.3, 0.7)
        lp0, lp1 = kernel._log_priors(priors)
        gaps = set()
        for lb in near(lp0 + la - gap - lp1, ulps):
            TestLogTotal.check(la, lb, priors)
            TestLogTotal.check(lb, la, Priors(0.7, 0.3))
            gaps.add((lp0 + la) - (lp1 + lb))
        return gaps

    @pytest.mark.parametrize("gap", [37.43, 40.0])
    @pytest.mark.parametrize("la", [-1e-300, -0.5, -2.0])
    def test_gaps_one_ulp_around_the_cut(self, gap, la):
        gaps = self.gaps_near(la, gap, 4)
        assert {math.nextafter(gap, 0.0), gap, math.nextafter(gap, math.inf)} <= gaps

    @pytest.mark.parametrize("gap", [30.5, 36.0, 37.43, 40.0, 45.0])
    @pytest.mark.parametrize("la", [-1e-300, -2.0, -700.0, -1e5])
    def test_gaps_inside_and_past_the_cut(self, gap, la):
        # below 37.43 nats expm1 of the gap is not -1.0: a cut there fails
        self.gaps_near(la, gap, 2)

    @pytest.mark.parametrize("la, lb", [
        (-math.inf, -1.0), (-1.0, -math.inf), (-math.inf, -1e300), (-math.inf, -math.inf),
        (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (0.0, -50.0), (-0.0, -math.inf),
        (-1e-300, -1e-300), (-1e308, -1.0), (-1e308, -1e308),
    ])
    @pytest.mark.parametrize("priors", [Priors.equal(), Priors(0.3, 0.7), Priors(1.0, 0.0),
                                        Priors(0.0, 1.0), Priors(1 - 2**-53, 2**-53)])
    def test_edges(self, la, lb, priors):
        self.check(la, lb, priors)

    @given(st.floats(min_value=-1e308, max_value=0.0) | st.just(-math.inf),
           st.floats(min_value=-1e308, max_value=0.0) | st.just(-math.inf),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_any_logs(self, la, lb, pi0):
        self.check(la, lb, Priors(pi0, 1.0 - pi0))

    @given(st.floats(min_value=-800.0, max_value=0.0), st.floats(min_value=0.0, max_value=80.0),
           st.booleans(), st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_any_gap(self, la, gap, swap, pi0):
        lb = la - gap
        self.check(*((lb, la) if swap else (la, lb)), Priors(pi0, 1.0 - pi0))


class TestLogAdd:
    """A sum of two logs, as a total's two sides or a deep tie-coin side's
    two windows are, skips log_sum_exp when they lie more than 40 nats
    apart; it keeps every bit of log_sum_exp, either way round."""

    @staticmethod
    def check(a, b):
        assert kernel._log_add(a, b).hex() == log_sum_exp([a, b]).hex(), (a, b)
        assert kernel._log_add(b, a).hex() == log_sum_exp([b, a]).hex(), (b, a)

    @pytest.mark.parametrize("gap", [37.43, 40.0])
    @pytest.mark.parametrize("a", [-1e-300, -0.5, -2.0])
    def test_gaps_one_ulp_around_the_cut(self, gap, a):
        gaps = set()
        for b in near(a - gap, 4):
            self.check(a, b)
            gaps.add(a - b)
        assert {math.nextafter(gap, 0.0), gap, math.nextafter(gap, math.inf)} <= gaps

    @pytest.mark.parametrize("gap", [30.5, 36.0, 37.43, 40.0, 45.0])
    @pytest.mark.parametrize("a", [-1e-300, -2.0, -745.2, -1e5, -1e300])
    def test_gaps_inside_and_past_the_cut(self, gap, a):
        # below 37.43 nats expm1 of the gap is not -1.0: a cut there fails
        for b in near(a - gap, 2):
            self.check(a, b)

    @pytest.mark.parametrize("a", [-math.inf, -1e308, -745.2, -1.0, -0.0, 0.0])
    def test_minus_infinity(self, a):
        self.check(a, -math.inf)


# the deep pairs of DEEP_LOGS, both logs past exp's underflow
DEEP_PAIRS = [(la, lb) for la in DEEP_LOGS for lb in DEEP_LOGS if is_deep(la, lb)]


class TestDeepLevels:
    """A deep likelihood-ratio level decides its table at log(1 - p) =
    -0.0 a side, log1mexp's value there, with no call; and no deep level
    of a trace calls log_sum_exp or log1mexp."""

    def test_log1mexp_is_minus_zero_past_underflow(self):
        assert len(DEEP_PAIRS) >= 36
        for la, lb in DEEP_PAIRS:
            assert (log1mexp(la).hex(), log1mexp(lb).hex()) == ((-0.0).hex(), (-0.0).hex())

    @pytest.mark.parametrize("priors", [Priors.equal(), Priors(0.3, 0.7)])
    @pytest.mark.parametrize("m", [3, 4, 64, 255])
    def test_decide_at_minus_zero_is_the_table(self, m, priors):
        rule, decided = BayesianLRT(m, priors), 0
        for la, lb in DEEP_PAIRS:
            want = table_or_error(rule.table, ErrorPair(LogProb(la), LogProb(lb)))
            assert table_or_error(rule._decide, la, lb, -0.0, -0.0) == want, (la, lb)
            decided += want is not ValueError
        assert decided >= len(DEEP_PAIRS) // 2

    def test_deep_levels_call_neither(self, monkeypatch):
        calls = []
        for name in ("log_sum_exp", "log1mexp"):
            real = getattr(kernel, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(kernel, name, counted)
        for schedule in (Schedule(3, 400), Schedule(4, 300, pb=0.3),
                         Schedule(4, 300, "lrt", priors=Priors(0.3, 0.7))):
            deep, shallow_calls = 0, 0
            for k, (p, _) in enumerate(iter_levels(pair(0.1, 0.2), schedule, schedule.priors)):
                # the calls since level k - 1 came are level k's step and total
                if k and is_deep(la, lb):
                    assert calls == [], (schedule, k)
                    deep += 1
                shallow_calls += len(calls)
                calls.clear()
                la, lb = p.alpha.value, p.beta.value
            # the spies see the shallow levels' calls, and most levels are deep
            assert shallow_calls > 0 and deep > len(schedule) - 20, schedule


def levels_by_apply_rule(pair0, schedule, priors):
    """(log alpha, log beta, log total) of each level of a trace, stepped
    one level at a time by apply_rule, each total one log_sum_exp; and the
    refusal's text, None if no level was refused."""
    p, rows = pair0, []
    for k in range(len(schedule) + 1):
        if k:
            try:
                p = apply_rule(p, schedule[k - 1])
            except ValueError as err:
                return rows, f"level {k}: {err}"
        rows.append((p.alpha.value, p.beta.value,
                     total_by_log_sum_exp(p.alpha.value, p.beta.value, priors)))
    return rows, None


def levels_by_walk(pair0, schedule, priors):
    """levels_by_apply_rule's rows and refusal, from iter_levels."""
    rows = []
    try:
        for p, total in iter_levels(pair0, schedule, priors):
            rows.append((p.alpha.value, p.beta.value, total.value))
    except ValueError as err:
        return rows, str(err)
    return rows, None


def hexes(rows):
    return [tuple(x.hex() for x in row) for row in rows]


@st.composite
def walk_schedules(draw):
    """A Schedule of any family at fan-ins 2 to 1000, deep enough to pass
    the deep edge from most leaves, with its priors."""
    m = draw(st.sampled_from([2, 3, 4, 5, 10, 64, 255, 1000]))
    levels = draw(st.integers(min_value=0, max_value=min(1200, kernel.WORK_LIMIT // (m + 1) - 1)))
    family = draw(st.sampled_from(["majority", "tie", "alternating", "lrt"] if m % 2 == 0
                                  else ["majority", "lrt"]))
    pi0 = draw(st.sampled_from([0.1, 0.5, 0.7] if family == "lrt" else [0.0, 0.3, 0.5, 1.0]))
    priors = Priors(pi0, 1.0 - pi0)
    if family == "tie":
        return Schedule(m, levels, pb=draw(st.sampled_from([5e-324, 0.25, 0.5, 0.9])), priors=priors)
    if family == "alternating":
        return Schedule(m, levels, "alternating", phase=draw(st.sampled_from(["one", "zero"])),
                        priors=priors)
    return Schedule(m, levels, family, priors=priors)


WALK_LEAVES = [5e-324, 1e-300, 0.3, 0.45, 1 - 2**-53]


class TestWalk:
    """iter_levels steps deep levels on floats and hands shallow ones their
    pair; level for level it is apply_rule and a log_sum_exp total.  A deep
    level's apply_rule walks its tails, so this holds the deep step against
    the tail walk."""

    def test_apply_rule_takes_no_deep_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernel, "_deep_step", lambda *args: calls.append(args))
        rules = [MajorityOdd(3), MajorityEven(4, 5e-324), AlternatingMajority(2),
                 BayesianLRT(5, Priors(0.3, 0.7)), MajorityEven(1000, 0.3)]
        for la, lb in itertools.product([-1e307, -745.2, -1e100], repeat=2):
            assert is_deep(la, lb)
            for rule in rules:
                apply_rule(ErrorPair(LogProb(la), LogProb(lb)), rule)
        assert calls == []

    @given(walk_schedules(), st.sampled_from(WALK_LEAVES), st.sampled_from(WALK_LEAVES))
    @example(Schedule(4, 800, "lrt"), 0.1, 0.2)  # refused at level 793
    @example(Schedule(1000, 298), 5e-324, 1 - 2**-53)
    @example(Schedule(4, 1200, pb=0.25), 0.1, 0.2)
    @example(Schedule(255, 60, "lrt", priors=Priors(0.1, 0.9)), 1e-300, 0.3)
    @settings(max_examples=120, deadline=None)
    def test_every_level_is_apply_rules(self, schedule, a0, b0):
        leaf = pair(a0, b0)
        want, refusal = levels_by_apply_rule(leaf, schedule, schedule.priors)
        got, got_refusal = levels_by_walk(leaf, schedule, schedule.priors)
        assert hexes(got) == hexes(want)
        assert got_refusal == refusal

    @given(st.floats(min_value=-748.0, max_value=-742.0),
           st.floats(min_value=-748.0, max_value=-742.0),
           st.lists(st.sampled_from([MajorityOdd(3), MajorityEven(2), MajorityEven(2, 0.1),
                                     MajorityEven(2, 0.9), AlternatingMajority(4),
                                     BayesianLRT(3, Priors(0.2, 0.8))]), max_size=30))
    @example(-746.0, -746.0, [MajorityEven(2, 0.9)] * 6)
    @settings(max_examples=200, deadline=None)
    def test_pairs_that_cross_the_deep_edge(self, la, lb, schedule):
        # a tie coin of 0.9 at m = 2 lifts alpha by 0.59 nats a level, so
        # a pair steps past exp's underflow and back; each shallow level
        # after a deep one steps the pair the deep levels left
        leaf = ErrorPair(LogProb(la), LogProb(lb))
        want, refusal = levels_by_apply_rule(leaf, schedule, Priors(0.4, 0.6))
        got, got_refusal = levels_by_walk(leaf, schedule, Priors(0.4, 0.6))
        assert hexes(got) == hexes(want)
        assert got_refusal == refusal

    def test_the_crossing_example_crosses(self):
        rows, _ = levels_by_walk(ErrorPair(LogProb(-746.0), LogProb(-746.0)),
                                 [MajorityEven(2, 0.9)] * 6, Priors.equal())
        deep = [math.exp(max(la, lb)) == 0.0 for la, lb, _ in rows]
        assert deep[:2] == [True, True] and not any(deep[2:])


@st.composite
def relabelled_schedules(draw):
    """A schedule and its relabelling, the same trees with H0 and H1
    swapped: a tie coin pb becomes 1 - pb, the alternating phase flips,
    and the priors swap.  Tie weights have exact complements.  The
    likelihood ratio runs at unequal priors only, yet a count can still be
    a tie, which both labellings send to H1 (first_lrt_tie)."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8, 10, 63, 64, 255, 1000]))
    levels = draw(st.integers(min_value=0, max_value=min(400, kernel.WORK_LIMIT // (m + 1) - 1)))
    family = draw(st.sampled_from(["majority", "tie", "alternating", "lrt"] if m % 2 == 0
                                  else ["majority", "lrt"]))
    pi0 = draw(st.sampled_from([0.25, 0.75] if family == "lrt" else [0.25, 0.5, 0.75]))
    flags, swapped = {}, {}
    if family == "tie":
        pb = draw(st.sampled_from([0.25, 0.75]))
        flags, swapped = {"pb": pb}, {"pb": 1.0 - pb}
    elif family == "alternating":
        phase = draw(st.sampled_from(["one", "zero"]))
        flags, swapped = {"phase": phase}, {"phase": {"one": "zero", "zero": "one"}[phase]}
    rule = "majority" if family == "tie" else family
    return (Schedule(m, levels, rule, priors=Priors(pi0, 1.0 - pi0), **flags),
            Schedule(m, levels, rule, priors=Priors(1.0 - pi0, pi0), **swapped))


def logs_and_refusal(pair0, schedule):
    """(log alpha, log beta, log total) of each level of a trace, and the
    level whose step was refused, None if none was."""
    rows = []
    try:
        for p, total in iter_levels(pair0, schedule, schedule.priors):
            rows.append((p.alpha.value, p.beta.value, total.value))
    except ValueError:
        return rows, len(rows)
    return rows, None


def first_lrt_tie(rows, schedule):
    """The first level k whose likelihood-ratio step, at its incoming logs
    rows[k - 1], has a count inside BayesianLRT's tie slack, None if no
    level of rows has one.  Both labellings compute the same two sides of
    such a count and send it to H1, where relabelling predicts H1 in one
    and H0 in the other, so a relabelled trace agrees only below level k."""
    for k, (la, lb, _) in enumerate(rows[:len(schedule)], start=1):
        rule = schedule[k - 1]
        if not isinstance(rule, BayesianLRT) or la in (LOG_ZERO, 0.0) or lb in (LOG_ZERO, 0.0):
            continue  # a majority level, or one the step refuses
        m, l1a, l1b = rule.m, log1mexp(la), log1mexp(lb)
        lp0, lp1 = math.log(rule.priors.pi0), math.log(rule.priors.pi1)
        for s in range(m + 1):
            h1_side = s * l1b + (m - s) * lb + lp1
            h0_side = s * la + (m - s) * l1a + lp0
            slack = 1e-9 * max(1.0, abs(h1_side), abs(h0_side))
            if slack < math.inf and h1_side >= h0_side - slack and h0_side >= h1_side - slack:
                return k
    return None


TIED_SCHEDULES = (Schedule(3, 1, "lrt", priors=Priors(0.25, 0.75)),
                  Schedule(3, 1, "lrt", priors=Priors(0.75, 0.25)))


class TestRelabelling:
    @given(relabelled_schedules(),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example((Schedule(1000, 298), Schedule(1000, 298)), 5e-324, 1 - 2**-53)
    @example((Schedule(255, 60, "lrt", priors=Priors(0.25, 0.75)),
              Schedule(255, 60, "lrt", priors=Priors(0.75, 0.25))), 1e-300, 0.3)
    @example(TIED_SCHEDULES, 0.25, 0.25)
    @settings(max_examples=150, deadline=None)
    def test_swapping_the_hypotheses_swaps_alpha_and_beta_bit_for_bit(self, schedules, a0, b0):
        rows, refused = logs_and_refusal(pair(a0, b0), schedules[0])
        swapped_rows, swapped_refused = logs_and_refusal(pair(b0, a0), schedules[1])
        tie = first_lrt_tie(rows, schedules[0])
        if tie is not None:  # the levels below the tie's step still agree
            rows, refused, swapped_rows, swapped_refused = rows[:tie], None, swapped_rows[:tie], None
        assert [(lb, la, lt) for la, lb, lt in swapped_rows] == rows
        assert swapped_refused == refused

    def test_a_likelihood_ratio_tie_goes_to_h1_in_both_labellings(self):
        # m = 3 at leaves (0.25, 0.25): the prior ratio 3 is the likelihood
        # ratio at count 1.  Relabelling predicts the swapped table
        # 1 - T(3 - s) = (0, 0, 0, 1), but the swapped test sends its own
        # tie, count 2, to H1 as well, as the per-vector MAP rule does
        leaf = pair(0.25, 0.25)
        rule, swapped_rule = (schedule[0] for schedule in TIED_SCHEDULES)
        assert rule.table(leaf) == (0.0, 1.0, 1.0, 1.0)
        assert swapped_rule.table(leaf) == (0.0, 0.0, 1.0, 1.0)
        rows, _ = logs_and_refusal(leaf, TIED_SCHEDULES[0])
        swapped_rows, _ = logs_and_refusal(leaf, TIED_SCHEDULES[1])
        assert first_lrt_tie(rows, TIED_SCHEDULES[0]) == 1
        assert first_lrt_tie(swapped_rows, TIED_SCHEDULES[1]) == 1
        for schedule, (la, lb, _), want in zip(TIED_SCHEDULES, (rows[1], swapped_rows[1]),
                                                ((0.578125, 0.015625), (0.15625, 0.15625))):
            best = map_step(h0_likelihoods(0.25, 3), h1_likelihoods(0.25, 3), schedule.priors)
            assert (math.exp(la), math.exp(lb)) == pytest.approx(want, rel=1e-14)
            assert (best.alpha.linear, best.beta.linear) == pytest.approx(want, rel=1e-14)


@st.composite
def fixed_table_schedules(draw):
    """A schedule whose tables do not depend on the pair they step:
    majority, a tie coin of 0.25, 0.5 or 0.75, or alternating ties."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8, 10, 63, 64, 255, 1000]))
    levels = draw(st.integers(min_value=0, max_value=min(400, kernel.WORK_LIMIT // (m + 1) - 1)))
    family = draw(st.sampled_from(["majority", "tie", "alternating"] if m % 2 == 0
                                  else ["majority"]))
    if family == "tie":
        return Schedule(m, levels, pb=draw(st.sampled_from([0.25, 0.5, 0.75])))
    if family == "alternating":
        return Schedule(m, levels, "alternating", phase=draw(st.sampled_from(["one", "zero"])))
    return Schedule(m, levels)


class TestMonotonicity:
    """A fixed nondecreasing table is a stochastic order: more false alarms
    at the leaves give no fewer at any level, and the miss side, which
    never reads alpha, keeps its bits.  Where alpha has run up to 1, its
    log is a sum of up to m + 1 terms near 1 and may drop by their
    rounding, at most (m + 1) 2^-52: majority from a leaf alpha past 1/2
    goes there (log alpha 0.0 against -4.3e-14 at m = 1000)."""

    @given(fixed_table_schedules(),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(Schedule(1000, 298), 5e-324, 1 - 2**-53)
    @example(Schedule(1000, 298), 1 - 2**-53, 5e-324)
    @example(Schedule(254, 60, pb=0.25), 1e-300, 0.3)
    @example(Schedule(64, 400, "alternating", phase="zero"), 1e-16, 0.7)
    @settings(max_examples=150, deadline=None)
    def test_raising_alpha0_lowers_no_alpha_and_keeps_beta(self, schedule, a0, b0):
        rows, _ = logs_and_refusal(pair(a0, b0), schedule)
        raised, _ = logs_and_refusal(pair(min(a0 * 1.01, 1.0), b0), schedule)
        reached = min(len(rows), len(raised))
        slack = (schedule.m + 1) * 2**-52
        assert [k for k, (row, up) in enumerate(zip(rows, raised)) if up[0] < row[0] - slack] == []
        assert [lb for _, lb, _ in raised[:reached]] == [lb for _, lb, _ in rows[:reached]]
