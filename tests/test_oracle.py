"""Brute-force enumeration oracles vs. the closed-form kernel.

The oracle enumerates all 2^m message vectors in linear arithmetic; the
kernel sums binomial tails in log arithmetic.  The two routes share no
code, so agreement is evidence either is right.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaytree.kernel import (
    AlternatingMajority,
    BayesianLRT,
    ErrorPair,
    MajorityEven,
    MajorityOdd,
    Priors,
    TiePhase,
    _table_step,
    apply_rule,
    lrt_step,
    majority_step_even,
    majority_step_odd,
)
from relaytree.oracle import (
    VectorRule,
    count_vector_rule,
    enumerate_step,
    majority_vector_rule,
    optimal_step,
)
from relaytree.verify import check_lrt_matches_optimal, check_permutation_invariance

error_probs = st.floats(min_value=0.01, max_value=0.49)


def pair(a, b):
    return ErrorPair.from_linear(a, b)


def test_enumerate_matches_hand_m2():
    # ties to one at m=2: alpha' = a^2 + 2a(1-a), beta' = b^2
    out = enumerate_step(pair(0.1, 0.2), 2, majority_vector_rule(2, 1.0))
    assert out.alpha_linear == pytest.approx(0.01 + 2 * 0.1 * 0.9, rel=1e-14)
    assert out.beta_linear == pytest.approx(0.04, rel=1e-14)


def test_enumerate_matches_kernel_odd():
    for m in (3, 5, 7):
        got = enumerate_step(pair(0.13, 0.31), m, majority_vector_rule(m))
        want = majority_step_odd(pair(0.13, 0.31), m)
        assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-12)
        assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-12)


@given(error_probs, error_probs, st.sampled_from([2, 4, 6]),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150)
def test_enumerate_matches_kernel_even(a, b, m, w):
    got = enumerate_step(pair(a, b), m, majority_vector_rule(m, w))
    want = majority_step_even(pair(a, b), m, w)
    assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-11)
    assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-11)


def rule_family(m):
    """Every deciding rule family at fan-in m, LRT with asymmetric priors too."""
    if m % 2:
        yield MajorityOdd(m)
    else:
        yield MajorityEven(m)
        yield MajorityEven(m, 0.3)
        yield AlternatingMajority(m, TiePhase.TIES_TO_ONE)
        yield AlternatingMajority(m, TiePhase.TIES_TO_ZERO)
    yield BayesianLRT(m, Priors.equal())
    yield BayesianLRT(m, Priors(0.8, 0.2))


@pytest.mark.parametrize("m", range(2, 11))
def test_rule_tables_match_kernel_steps(m):
    # the simulator decides by these tables; the oracle scores each
    # table independently of the kernel's closed-form step
    for a, b in [(0.1, 0.2), (0.3, 0.05), (0.45, 0.4)]:
        for rule in rule_family(m):
            got = enumerate_step(pair(a, b), m, count_vector_rule(m, rule.table(pair(a, b))))
            want = apply_rule(pair(a, b), rule)
            assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-12), rule
            assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-12), rule


@st.composite
def count_tables(draw):
    """Tables P(1 | s ones) over a few values: 0, 1 and two fractions,
    so runs of equal fractions and non-monotone rules (k-out-of-m,
    parity-like patterns) both occur."""
    m = draw(st.integers(min_value=2, max_value=10))
    fraction = st.floats(min_value=1e-3, max_value=1 - 1e-3)
    values = [0.0, 1.0, draw(fraction), draw(fraction)]
    return tuple(draw(st.lists(st.sampled_from(values), min_size=m + 1, max_size=m + 1)))


@given(count_tables(), st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=300, deadline=None)
def test_table_step_matches_enumeration(table, a, b):
    # a + b >= 1 (anti-informative messages) is in range on purpose
    m = len(table) - 1
    got = _table_step(pair(a, b), table)
    want = enumerate_step(pair(a, b), m, count_vector_rule(m, table))
    assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-12)
    assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-12)


def test_fanin_caps():
    with pytest.raises(ValueError):
        enumerate_step(pair(0.1, 0.1), 1, majority_vector_rule(3))
    with pytest.raises(ValueError):
        enumerate_step(pair(0.1, 0.1), 21, majority_vector_rule(3))
    with pytest.raises(ValueError):
        enumerate_step(pair(0.1, 0.1), 3, majority_vector_rule(5))


def test_count_vector_rule_validation():
    with pytest.raises(ValueError):
        count_vector_rule(3, [0.0, 1.0])  # needs m + 1 entries
    rule = count_vector_rule(2, [0.0, 0.25, 1.0])
    assert rule.decide((0, 0)) == 0.0
    assert rule.decide((1, 0)) == 0.25
    assert rule.decide((1, 1)) == 1.0


def test_decide_range_checked():
    bad = VectorRule(2, lambda v: 1.5)
    with pytest.raises(ValueError):
        enumerate_step(pair(0.1, 0.1), 2, bad)


def test_permutation_invariance():
    assert check_permutation_invariance() == []


def test_optimal_never_loses_to_majority():
    priors = Priors.equal()
    for a, b in [(0.05, 0.4), (0.3, 0.3), (0.45, 0.1)]:
        for m in (2, 3, 4, 5):
            best = optimal_step(pair(a, b), priors, m)
            maj = enumerate_step(pair(a, b), m, majority_vector_rule(m))
            best_total = priors.pi0 * best.alpha_linear + priors.pi1 * best.beta_linear
            maj_total = priors.pi0 * maj.alpha_linear + priors.pi1 * maj.beta_linear
            assert best_total <= maj_total * (1 + 1e-12)


@given(error_probs, error_probs, st.sampled_from([2, 3, 4, 5]),
       st.sampled_from([(0.5, 0.5), (0.9, 0.1), (0.3, 0.7)]))
@settings(max_examples=150)
def test_lrt_equals_optimal(a, b, m, prior_pair):
    priors = Priors(*prior_pair)
    got = lrt_step(pair(a, b), priors, m)
    want = optimal_step(pair(a, b), priors, m)
    # log values compared with a 1e-12 absolute floor: near log 0 the
    # two routes represent probability-one sums as 0.0 vs -1e-16
    assert got.alpha.value == pytest.approx(want.alpha.value, rel=1e-12, abs=1e-12)
    assert got.beta.value == pytest.approx(want.beta.value, rel=1e-12, abs=1e-12)


def test_lrt_equals_optimal_on_tie_families():
    # exact posterior ties that log and linear arithmetic round apart
    # without a shared indifference band
    cases = [
        (0.2, 0.2, Priors.equal(), 2),  # diagonal, s = m/2
        (0.2, 0.4, Priors(0.9, 0.1), 2),  # 0.6^2 * 0.1 == 0.2^2 * 0.9
        (0.01, 0.19, Priors.equal(), 2),
    ]
    for a, b, priors, m in cases:
        got = lrt_step(pair(a, b), priors, m)
        want = optimal_step(pair(a, b), priors, m)
        assert got.alpha.value == pytest.approx(want.alpha.value, rel=1e-12, abs=1e-12)
        assert got.beta.value == pytest.approx(want.beta.value, rel=1e-12, abs=1e-12)


def test_lrt_matches_optimal_suite_sample():
    # the acceptance suite runs the full grid; keep a small smoke here
    assert check_lrt_matches_optimal(fanins=(2, 3), grid=[i / 10 for i in range(1, 5)]) == []
