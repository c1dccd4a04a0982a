"""Brute-force enumeration oracles vs. the closed-form kernel.

The oracle enumerates all 2^m message vectors in linear arithmetic; the
kernel sums binomial tails in log arithmetic.  The two routes share no
code, so agreement is evidence either is right.
"""

import dataclasses
import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaytree import oracle, verify
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
    majority_rule,
    majority_step_odd,
)
from relaytree.oracle import (
    VectorRule,
    count_vector_rule,
    enumerate_step,
    h0_likelihoods,
    h1_likelihoods,
    majority_vector_rule,
    map_step,
)
from relaytree.verify import check_lrt_matches_optimal, check_permutation_invariance

error_probs = st.floats(min_value=0.01, max_value=0.49)


def pair(a, b):
    return ErrorPair.from_linear(a, b)


def map_optimum(p, priors, m):
    """The exact one-level optimum: map_step on the likelihood vectors of p."""
    return map_step(h0_likelihoods(p.alpha.linear, m), h1_likelihoods(p.beta.linear, m), priors)


def test_enumerate_matches_hand_m2():
    # ties to one at m=2: alpha' = a^2 + 2a(1-a), beta' = b^2
    out = enumerate_step(pair(0.1, 0.2), 2, majority_vector_rule(2, 1.0))
    assert out.alpha_linear == pytest.approx(0.01 + 2 * 0.1 * 0.9, rel=1e-14, abs=0)
    assert out.beta_linear == pytest.approx(0.04, rel=1e-14, abs=0)


def test_enumerate_matches_kernel_odd():
    for m in (3, 5, 7):
        got = enumerate_step(pair(0.13, 0.31), m, majority_vector_rule(m))
        want = majority_step_odd(pair(0.13, 0.31), m)
        assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-12, abs=0)
        assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-12, abs=0)


def even_majority(m, w):
    """The kernel's even-m majority with tie weight w: a fixed tie
    direction at w = 0 or 1, a tie coin between."""
    if w in (0.0, 1.0):
        return AlternatingMajority(m, TiePhase.TIES_TO_ONE if w else TiePhase.TIES_TO_ZERO)
    return MajorityEven(m, w)


@given(error_probs, error_probs, st.sampled_from([2, 4, 6]),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150)
def test_enumerate_matches_kernel_even(a, b, m, w):
    got = enumerate_step(pair(a, b), m, majority_vector_rule(m, w))
    want = apply_rule(pair(a, b), even_majority(m, w))
    assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-11, abs=0)
    assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-11, abs=0)


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
            assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-12, abs=0), rule
            assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-12, abs=0), rule


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
    assert got.alpha_linear == pytest.approx(want.alpha_linear, rel=1e-12, abs=0)
    assert got.beta_linear == pytest.approx(want.beta_linear, rel=1e-12, abs=0)


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


def test_error_names_first_bad_vector():
    # vectors run lowest bit first: (0, 0), (1, 0), (0, 1), (1, 1)
    bad = VectorRule(2, lambda v: -1.0 if v[1] else (2.0 if v[0] else 0.0))
    with pytest.raises(ValueError, match=r"decide\(\(1, 0\)\) = 2.0 outside"):
        enumerate_step(pair(0.1, 0.1), 2, bad)


def test_nan_decision_rejected():
    # NaN fails both d > 0 and d < 1, so unchecked it would score as a
    # perfect rule with alpha' = beta' = 0
    rule = VectorRule(3, lambda v: float("nan"))
    with pytest.raises(ValueError, match="outside"):
        enumerate_step(pair(0.1, 0.2), 3, rule)


@pytest.mark.parametrize("table", [
    [0.0, math.nan, 1.0, 1.0],
    [0.0, -0.1, 1.0, 1.0],
    [0.0, 0.5, 1.5, 1.0],
])
def test_count_vector_rule_rejects_entries_outside_unit_interval(table):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        count_vector_rule(3, table)


def test_decide_called_once_per_vector():
    m = 5
    calls = []

    def decide(vec):
        calls.append(vec)
        return 1.0 if sum(vec) > 2 else 0.0

    rule = VectorRule(m, decide)
    for a, b in [(0.1, 0.2), (0.3, 0.05), (0.45, 0.4)]:
        enumerate_step(pair(a, b), m, rule)
    assert len(calls) == 1 << m


# ---- the per-vector loop the array code replaced, kept as the reference

def _loop_pow_tables(p, m):
    direct, inverse = [1.0], [1.0]
    for _ in range(m):
        direct.append(direct[-1] * p)
        inverse.append(inverse[-1] * (1.0 - p))
    return direct, inverse


def _loop_vectors(m):
    for code in range(1 << m):
        vec = tuple((code >> t) & 1 for t in range(m))
        yield vec, sum(vec)


def loop_enumerate_step(p, m, decide):
    a_pow, a_comp = _loop_pow_tables(p.alpha.linear, m)
    b_pow, b_comp = _loop_pow_tables(p.beta.linear, m)
    alpha_terms, beta_terms = [], []
    for vec, ones in _loop_vectors(m):
        d = decide(vec)
        if d > 0.0:
            alpha_terms.append(d * a_pow[ones] * a_comp[m - ones])
        if d < 1.0:
            beta_terms.append((1.0 - d) * b_comp[ones] * b_pow[m - ones])
    return ErrorPair.from_linear(
        min(math.fsum(alpha_terms), 1.0), min(math.fsum(beta_terms), 1.0)
    )


def loop_optimal_step(p, priors, m):
    a_pow, a_comp = _loop_pow_tables(p.alpha.linear, m)
    b_pow, b_comp = _loop_pow_tables(p.beta.linear, m)
    alpha_terms, beta_terms = [], []
    for _, ones in _loop_vectors(m):
        p0 = a_pow[ones] * a_comp[m - ones]
        p1 = b_comp[ones] * b_pow[m - ones]
        mass0 = priors.pi0 * p0
        mass1 = priors.pi1 * p1
        if mass1 >= mass0 - 1e-9 * max(mass0, mass1):
            alpha_terms.append(p0)
        else:
            beta_terms.append(p1)
    return ErrorPair.from_linear(
        min(math.fsum(alpha_terms), 1.0), min(math.fsum(beta_terms), 1.0)
    )


# 0, 1, the smallest subnormal, values near both ends, and the open interval
edge_probs = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1e-17, 0.5, 1 - 1e-16]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def edge_pairs(draw):
    a = draw(edge_probs)
    b = a if draw(st.booleans()) else draw(edge_probs)  # a = b: exact ties
    return pair(a, b)


@st.composite
def fanin_tables(draw):
    """A fan-in 2..12 and a table over 0, 1 and two fractions."""
    m = draw(st.integers(min_value=2, max_value=12))
    fraction = st.floats(min_value=0.0, max_value=1.0)
    values = [0.0, 1.0, draw(fraction), draw(fraction)]
    return m, draw(st.lists(st.sampled_from(values), min_size=m + 1, max_size=m + 1))


@given(edge_pairs(), fanin_tables())
@settings(max_examples=200, deadline=None)
def test_enumerate_equals_per_vector_loop(p, fanin_table):
    m, table = fanin_table
    # table[0] doubles as a tie weight for the majority rule
    for rule in (count_vector_rule(m, table), majority_vector_rule(m, table[0])):
        got = enumerate_step(p, m, rule)
        want = loop_enumerate_step(p, m, rule.decide)
        assert got.alpha.value == want.alpha.value
        assert got.beta.value == want.beta.value


@given(fanin_tables())
@settings(max_examples=200, deadline=None)
def test_count_twin_gathers_its_table_without_deciding(fanin_table):
    m, table = fanin_table
    twin = count_vector_rule(m, table)
    per_vector = [twin.decide(vec) for vec, _ in _loop_vectors(m)]
    calls = []

    def counting(vec):
        calls.append(vec)
        return twin.decide(vec)

    counted = dataclasses.replace(twin, decide=counting)
    assert counted.decisions.tolist() == per_vector
    assert calls == []


@given(edge_pairs(), st.integers(min_value=2, max_value=12),
       st.sampled_from([(0.5, 0.5), (0.9, 0.1), (0.3, 0.7)]))
@settings(max_examples=200, deadline=None)
def test_optimal_equals_per_vector_loop(p, m, prior_pair):
    priors = Priors(*prior_pair)
    got = map_optimum(p, priors, m)
    want = loop_optimal_step(p, priors, m)
    assert got.alpha.value == want.alpha.value
    assert got.beta.value == want.beta.value


def test_permutation_invariance():
    assert check_permutation_invariance() == []


def test_optimal_never_loses_to_majority():
    priors = Priors.equal()
    for a, b in [(0.05, 0.4), (0.3, 0.3), (0.45, 0.1)]:
        for m in (2, 3, 4, 5):
            best = map_optimum(pair(a, b), priors, m)
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
    want = map_optimum(pair(a, b), priors, m)
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
        want = map_optimum(pair(a, b), priors, m)
        assert got.alpha.value == pytest.approx(want.alpha.value, rel=1e-12, abs=1e-12)
        assert got.beta.value == pytest.approx(want.beta.value, rel=1e-12, abs=1e-12)


def test_lrt_matches_optimal_suite_sample():
    # the acceptance suite runs the full grid; keep a small smoke here
    assert check_lrt_matches_optimal(fanins=(2, 3), grid=[i / 10 for i in range(1, 5)]) == []


def test_enumeration_keeps_no_vectors():
    # only the ones/zeros counts outlive a call: 1 MB at m = 16, where
    # the 2^16 vector tuples take 12 MB
    gc.collect()
    oracle._counts.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rule = majority_vector_rule(16)
        enumerate_step(pair(0.1, 0.2), 16, rule)
        del rule
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 << 20


# ---- the cross-check in verify, which names each rule as a kernel rule object

def test_cross_check_enumerates_each_majority_twin_once(monkeypatch):
    calls = []
    real = oracle.majority_vector_rule

    def counting(m, tie_weight=0.5):
        rule = real(m, tie_weight)

        def decide(vec):
            calls.append(vec)
            return rule.decide(vec)

        return VectorRule(m, decide)

    monkeypatch.setattr(oracle, "majority_vector_rule", counting)
    verify._rules_for.cache_clear()
    try:
        for _ in range(2):
            fails = verify.check_kernel_matches_enumeration(fanins=(6,), grid=[0.1, 0.3])
            assert fails == []
            assert len(calls) == 4 << 6  # two majority and two alternating twins
    finally:
        verify._rules_for.cache_clear()  # drop the counting twins


def test_cross_check_scores_kernel_rules_through_apply_rule(monkeypatch):
    # a wrong alternating step must show, so the kernel side is the step
    # that propagate applies, not a private copy of it
    real = AlternatingMajority.table

    def ties_swapped(rule, p):
        return real(AlternatingMajority(rule.m, rule.phase.flipped()), p)

    monkeypatch.setattr(AlternatingMajority, "table", ties_swapped)
    fails = verify.check_kernel_matches_enumeration(fanins=(4,), grid=[0.1, 0.3])
    assert fails
    assert all(msg.startswith("AlternatingMajority(m=4") for msg in fails)


def beta_leaks_into_alpha(real):
    """A kernel step whose alpha' moves with beta: scaled by 1 + 1e-6 beta."""
    def leaky(p, rule):
        got = real(p, rule)
        return ErrorPair.from_linear(got.alpha_linear * (1 + 1e-6 * p.beta_linear), got.beta_linear)

    return leaky


def test_cross_check_sees_beta_leak_into_alpha(monkeypatch):
    # the oracle's alpha' is shared by pairs with the same alpha, so the
    # kernel must still be stepped and compared per pair for this to show
    monkeypatch.setattr(verify, "apply_rule", beta_leaks_into_alpha(apply_rule))
    fails = verify.check_kernel_matches_enumeration(fanins=(3, 4), grid=[0.1, 0.2])
    assert fails
    assert all(": alpha " in msg for msg in fails)


def test_lrt_check_sees_beta_leak_into_alpha(monkeypatch):
    monkeypatch.setattr(verify, "apply_rule", beta_leaks_into_alpha(apply_rule))
    fails = verify.check_lrt_matches_optimal(fanins=(3,), grid=[0.1, 0.2])
    assert len(fails) == 3 * 4  # every (priors, pair) cell


def test_lrt_beats_every_count_rule():
    assert verify.check_lrt_beats_count_rules() == []


@pytest.mark.parametrize("wrong", [
    lambda real, rule, p: real(rule, p)[1:] + (1.0,),  # decides 1 one count early
    lambda real, rule, p: majority_rule(rule.m).table(p),
], ids=["one-count-early", "fair-majority"])
def test_count_rule_check_sees_a_wrong_lrt_table(monkeypatch, wrong):
    real = BayesianLRT.table
    monkeypatch.setattr(BayesianLRT, "table", lambda rule, p: wrong(real, rule, p))
    fails = verify.check_lrt_beats_count_rules()
    assert fails
    assert all(" > best rule " in msg for msg in fails)


def counting(monkeypatch, names):
    """Wrap oracle functions so that each call appends (name, args)."""
    calls = []
    for name in names:
        real = getattr(oracle, name)

        def counted(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(oracle, name, counted)
    return calls


def test_cross_check_sums_each_side_once_per_twin_and_value(monkeypatch):
    calls = counting(monkeypatch, ("enumerate_alpha", "enumerate_beta"))
    twins = [id(twin) for _, twin in verify._rules_for(4)]
    for _ in range(2):  # a second call costs as much: nothing carries over
        calls.clear()
        assert verify.check_kernel_matches_enumeration(fanins=(4,), grid=[0.1, 0.3]) == []
        majority = [args for _, args in calls if id(args[0]) in twins]
        assert len(majority) == 4 * 2 * 2  # 4 twins x 2 values x 2 sides, each once
        # no sum is repeated, likelihood-ratio twins included
        assert len({(name, id(args[0]), args[1]) for name, args in calls}) == len(calls)


def test_lrt_check_builds_each_likelihood_vector_once_per_value(monkeypatch):
    calls = counting(monkeypatch, ("h0_likelihoods", "h1_likelihoods", "map_step"))
    for _ in range(2):  # a second call costs as much: nothing carries over
        calls.clear()
        assert verify.check_lrt_matches_optimal(fanins=(4,), grid=[0.1, 0.3]) == []
        names = [name for name, _ in calls]
        # 2 values x 2 hypotheses, but a MAP pair per (priors, pair) cell
        assert names.count("h0_likelihoods") == names.count("h1_likelihoods") == 2
        assert names.count("map_step") == 3 * 4


def test_sandwich_checks_step_kernel_rules_through_apply_rule(monkeypatch):
    # a wrong even-majority step must show in the sandwich check too
    def ties_to_one(rule, p):
        return AlternatingMajority(rule.m, TiePhase.TIES_TO_ONE).table(p)

    monkeypatch.setattr(MajorityEven, "table", ties_to_one)
    fails = verify.check_even_majority_sandwich()
    assert fails
    assert all(msg.startswith("MajorityEven(m=") for msg in fails)


def test_tie_weight_check_sees_a_step_that_ignores_the_coin(monkeypatch):
    # a fair coin for every tie weight stays inside [log pb, m log 2], so
    # only the mixture identity against the two tie directions shows it
    real = MajorityEven.table

    def fair_coin(rule, p):
        return real(MajorityEven(rule.m, 0.5), p)

    monkeypatch.setattr(MajorityEven, "table", fair_coin)
    fails = verify.check_tie_weight_sandwich()
    assert len(fails) == len(verify.EVEN_FANINS) * 4 * len(verify.GRID)
    assert all(msg.endswith("not the tie-weight mixture") for msg in fails)
