"""Log-domain probability primitives."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaytree.logdomain import (
    LOG_ZERO,
    LogProb,
    log1mexp,
    log_sum_exp,
)

probs = st.floats(min_value=1e-300, max_value=1.0)
ZERO, ONE = LogProb(LOG_ZERO), LogProb(0.0)


def test_constants():
    assert ZERO.value == LOG_ZERO
    assert ZERO.linear == 0.0
    assert ONE.value == 0.0
    assert ONE.linear == 1.0
    assert math.isinf(ZERO.log2_inverse)
    assert ONE.log2_inverse == 0.0


def test_log2_inverse_of_one_is_positive_zero():
    # -0.0 / ln 2 is -0.0, which the CLI's "%.12g" prints as "-0"
    for p in (ONE, LogProb(-0.0), LogProb(1e-12), LogProb.from_linear(1.0)):
        assert math.copysign(1.0, p.log2_inverse) == 1.0


def test_from_linear_roundtrip():
    # log p is rounded to within |ln p| eps / 2, which exp turns into a
    # relative error of that size, plus exp's own rounding
    eps = sys.float_info.epsilon
    for p in (1e-300, 1e-12, 0.004, 0.5, 0.999, 1.0):
        rel = (abs(math.log(p)) + 2.0) * eps
        assert LogProb.from_linear(p).linear == pytest.approx(p, rel=rel, abs=0)
    assert LogProb.from_linear(0.0) is not None
    assert LogProb.from_linear(0.0).value == LOG_ZERO


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        LogProb.from_linear(-1e-12)
    with pytest.raises(ValueError):
        LogProb.from_linear(1.001)
    with pytest.raises(ValueError):
        LogProb(0.5)
    with pytest.raises(ValueError):
        LogProb(float("nan"))


def test_clamps_positive_rounding_noise():
    # complements computed in floats can land a hair above log 1
    assert LogProb(1e-12).value == 0.0
    with pytest.raises(ValueError):
        LogProb(1e-6)


def complement(p: LogProb) -> LogProb:
    """LogProb of 1 - p."""
    return LogProb(log1mexp(p.value))


def test_complement():
    p = LogProb.from_linear(0.1)
    assert complement(p).linear == pytest.approx(0.9, rel=1e-15, abs=0)
    assert complement(ZERO).value == 0.0
    assert complement(ONE).value == LOG_ZERO


@given(probs)
@settings(max_examples=300)
def test_complement_involution(p):
    lp = LogProb.from_linear(p)
    assert complement(complement(lp)).linear == pytest.approx(p, rel=1e-12, abs=0)


def test_log1mexp_branches():
    # both branches: x near 0 and x deeply negative
    assert log1mexp(-1e-18) == math.log(-math.expm1(-1e-18))
    assert log1mexp(-50.0) == math.log1p(-math.exp(-50.0))
    assert log1mexp(0.0) == LOG_ZERO
    small = log1mexp(-1e-300)
    assert small < -600.0  # 1 - exp(x) ~ -x underflows in linear space


@given(st.floats(min_value=-700.0, max_value=-1e-15))
@settings(max_examples=300)
def test_log1mexp_matches_linear(x):
    # -expm1(x), not 1 - exp(x), which cancels as x nears 0
    expected = -math.expm1(x)
    assert math.exp(log1mexp(x)) == pytest.approx(expected, rel=1e-12, abs=0)


def test_log_sum_exp():
    assert log_sum_exp([]) == LOG_ZERO
    assert log_sum_exp([math.log(0.3)]) == math.log(0.3)
    assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    terms = [math.log(p) for p in (0.1, 0.2, 0.3, 0.15)]
    assert math.exp(log_sum_exp(terms)) == pytest.approx(0.75, rel=1e-14, abs=0)


def test_log_sum_exp_deep_tail():
    # sum of terms each below double underflow
    terms = [-800.0, -801.0, -802.0]
    got = log_sum_exp(terms)
    expected = -800.0 + math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
    assert got == pytest.approx(expected, rel=1e-14, abs=0)


@given(st.lists(st.floats(min_value=-50.0, max_value=-0.1), min_size=1, max_size=8))
@settings(max_examples=300)
def test_log_sum_exp_matches_fsum(terms):
    linear = math.fsum(math.exp(t) for t in terms)
    assert math.exp(log_sum_exp(terms)) == pytest.approx(linear, rel=1e-12, abs=0)


def log_sum_exp_by_fsum(terms):
    """log_sum_exp as written for any number of terms: expm1 differences
    from the maximum, summed by math.fsum."""
    m = max(terms)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log1p(math.fsum(math.expm1(t - m) for t in terms) + (len(terms) - 1))


log_values = st.one_of(
    st.sampled_from([LOG_ZERO, 0.0, -0.0, -5e-324, -745.2, -1e308]),
    st.floats(max_value=0.0),
)


@st.composite
def two_terms(draw):
    """Two log terms, often equal or apart by more than 745, in either order."""
    a = draw(log_values)
    b = draw(st.one_of(
        log_values,
        st.just(a),
        st.floats(min_value=-2000.0, max_value=0.0).map(lambda d: a + d),
    ))
    return draw(st.permutations([a, b]))


@pytest.mark.parametrize("terms", [
    [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [LOG_ZERO, LOG_ZERO], [LOG_ZERO, -0.0],
    [-3.5, -3.5], [0.0, -746.0], [-1.0, -801.0], [-1e308, -1e308], [-5e-324, 0.0],
])
def test_two_term_sum_is_the_fsum_bit_for_bit(terms):
    assert log_sum_exp(terms).hex() == log_sum_exp_by_fsum(terms).hex()


@given(two_terms())
@settings(max_examples=300)
def test_two_term_sum_matches_fsum_property(terms):
    assert log_sum_exp(terms).hex() == log_sum_exp_by_fsum(terms).hex()


# moderate logs, so that max - 40.0 lies 40 below the max and not within its ulp
near_logs = st.one_of(
    st.sampled_from([LOG_ZERO, 0.0, -0.0, -5e-324, -37.43, -745.2]),
    st.floats(min_value=-1e12, max_value=0.0),
)


@given(st.lists(near_logs, min_size=1, max_size=6), st.integers(min_value=0, max_value=300))
@example([-3.0], 1)  # one term and k = 1: the listed sum takes the two-term branch
@example([-0.0], 1)
@example([-1e12], 1)
@example([-3.0], 7)
@example([-1.0, -2.0], 1)
@example([-0.5, -0.5, -60.0], 5)
@example([LOG_ZERO], 1)
@example([LOG_ZERO, LOG_ZERO], 3)
@example([-2.0, -2.5], 0)
@settings(max_examples=200)
def test_far_count_equals_listing_the_far_terms(terms, far):
    listed = terms + [max(terms) - 40.0] * far
    assert log_sum_exp(terms, far=far).hex() == log_sum_exp(listed).hex()
