"""Acceptance gate: ten checks that must all hold for a release.

Each test is one criterion; `pytest -v tests/test_acceptance.py` prints
one pass/fail line per criterion.  Expected values come from routes
independent of the code under test: exact rational arithmetic, the
brute-force vector-enumeration oracle, and closed forms evaluated
inline.  Tolerances are pinned where each assertion documents them.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from relaytree import cli
from relaytree.alphabet import TreeSpec, alphabet_schedule
from relaytree.bounds import RateKind, exponent_table, sample_size, total_bounds
from relaytree.kernel import (
    AlternatingMajority,
    ErrorPair,
    MajorityEven,
    MajorityOdd,
    Priors,
    TiePhase,
    binom_tail,
    propagate,
)
from relaytree.logdomain import LogProb
from relaytree.simulate import Hypothesis, SimConfig, compare_to_analytic
from relaytree.verify import (
    SUITES,
    check_alternating_sandwich,
    check_even_majority_sandwich,
    check_kernel_matches_enumeration,
    check_lrt_beats_majority,
    check_lrt_matches_optimal,
    check_odd_majority_sandwich,
    check_ratio_poly,
    check_tie_weight_sandwich,
    exact_majority_trace,
)


def test_c01_kernel_matches_enumeration_oracle():
    # fan-ins 2..10, every rule family, the full 48 x 48 error grid,
    # 1e-12 relative agreement of log-domain values
    assert check_kernel_matches_enumeration() == []


def test_c02_m2_fair_coin_is_exact_fixed_point():
    # twenty levels of fan-in-2 majority with a fair tie coin must
    # reproduce the leaf pair bit for bit
    sched = [MajorityEven(2, 0.5)] * 20
    for a, b in [(0.1, 0.1), (0.37, 0.02), (0.005, 0.49)]:
        trace = propagate(ErrorPair.from_linear(a, b), sched, Priors.equal())
        leaf = trace.pairs[0]
        for k, pair in enumerate(trace.pairs):
            assert pair.alpha.value == leaf.alpha.value, f"alpha drifted at {k}"
            assert pair.beta.value == leaf.beta.value, f"beta drifted at {k}"


def test_c03_deep_trace_value_and_total_bound():
    # four levels of fan-in-3 majority from alpha0 = 0.1, checked
    # against exact rational arithmetic at 1e-13 relative, and the
    # root total against its sandwich
    exact = exact_majority_trace(Fraction(1, 10), 3, 4)
    trace = propagate(
        ErrorPair.from_linear(0.1, 0.1), [MajorityOdd(3)] * 4, Priors.equal()
    )
    alpha4 = trace.pairs[-1].alpha_linear
    assert alpha4 == pytest.approx(float(exact[4]), rel=1e-13)
    assert float(exact[4]) == pytest.approx(7.639009737159088e-10, rel=1e-12)

    bits = trace.totals[4].log2_inverse
    sandwich = total_bounds(0.1, 0.1, Priors.equal(), 3, 4)
    assert sandwich.contains(bits, tol=1e-9)
    assert 27.79 < bits < 53.15
    assert bits == pytest.approx(30.29, abs=0.005)


def test_c04_sandwiches_hold_and_violations_fail_verify(capsys, monkeypatch):
    # the proved two-sided bounds hold at every grid point ...
    assert check_odd_majority_sandwich() == []
    assert check_even_majority_sandwich() == []
    assert check_tie_weight_sandwich() == []
    assert check_alternating_sandwich() == []
    assert cli.run(["verify", "--suite", "kernel"]) == 0
    capsys.readouterr()
    # ... and a violation anywhere must fail the verify command
    monkeypatch.setitem(SUITES, "kernel", [
        ("forced_violation", lambda: ["sandwich broken at (0.1, 0.2)"]),
    ])
    assert cli.run(["verify", "--suite", "kernel"]) == 1
    out = capsys.readouterr().out
    assert "FAIL kernel.forced_violation" in out


def test_c05_lrt_is_optimal_and_beats_majority():
    # ratio fusion equals the brute-force optimum on the full grid for
    # fan-ins up to 6, and its per-level total never exceeds majority's
    assert check_lrt_matches_optimal() == []
    assert check_lrt_beats_majority() == []


def test_c06_exponent_table_values_and_ordering():
    rows = {r.m: r for r in exponent_table(range(2, 65))}
    assert rows[4].majority_random == pytest.approx(0.5, abs=1e-5)
    # closed form log_4(sqrt(24)/2) = 0.6462406...; pinned to 1e-12
    # against the formula and to 1e-5 against its rounded value
    want_alt = math.log(math.sqrt(24) / 2) / math.log(4)
    assert rows[4].alternating == pytest.approx(want_alt, rel=1e-12)
    assert rows[4].alternating == pytest.approx(0.64624, abs=1e-5)
    assert rows[4].upper_bound == pytest.approx(0.66096, abs=1e-5)
    assert rows[5].majority_random == pytest.approx(0.68261, abs=1e-5)
    assert rows[5].majority_random == rows[5].upper_bound
    for m, r in rows.items():
        if m % 2 == 0:
            assert r.majority_random <= r.alternating <= r.upper_bound, m


def test_c07_alphabet_rates_collapse_and_message_cost():
    from relaytree.alphabet import avg_bits, bits_bounds, rates
    from relaytree.bounds import exponent

    # d = 2 reduces every rate to its binary exponent
    for m in range(2, 21):
        r = rates(m, 2)
        assert r.rho == pytest.approx(exponent(m, RateKind.UPPER_BOUND), rel=1e-12)
        if m % 2 == 0:
            assert r.varrho == pytest.approx(
                exponent(m, RateKind.MAJORITY_RANDOM), rel=1e-12
            )
            assert r.sigma == pytest.approx(
                exponent(m, RateKind.ALTERNATING), rel=1e-12
            )
        else:
            assert r.varrho == r.rho
    # the mean message length sits in its asymptotic band once the
    # counting depth is 8 or more
    for m in range(2, 21):
        lo, hi = bits_bounds(m)
        for k0 in range(8, 15):
            assert lo <= avg_bits(m, k0) <= hi, (m, k0)
    assert avg_bits(10, 3) == pytest.approx(1.27255, abs=1e-5)


def test_c08_simulations_match_closed_forms_quickly():
    started = time.monotonic()

    # binary tree: fan-in 3, two levels, a million trials
    config = SimConfig(
        spec=TreeSpec(3, 2, 2),
        schedule=[MajorityOdd(3)] * 2,
        leaf_pair=ErrorPair.from_linear(0.1, 0.1),
        trials=10**6,
        seed=20260817,
        hypothesis=Hypothesis.H0,
    )
    report = compare_to_analytic(config)
    assert report.analytic == pytest.approx(2.3081e-3, rel=1e-4)
    assert abs(report.z_score) <= 4.0, report

    # count-forwarding tree: fan-in 2, alphabet 5, height 3 collapses
    # to one fan-in-8 decision with ties to one
    spec = TreeSpec(2, 3, 5)
    assert spec.k0 == 3
    wide = SimConfig(
        spec=spec,
        schedule=alphabet_schedule(
            spec, [AlternatingMajority(8, TiePhase.TIES_TO_ONE)]
        ),
        leaf_pair=ErrorPair.from_linear(0.1, 0.1),
        trials=10**6,
        seed=4242,
        hypothesis=Hypothesis.H0,
    )
    want = binom_tail(8, 4, 8, LogProb.from_linear(0.1)).linear
    assert want == pytest.approx(0.00502435, rel=1e-9)
    wide_report = compare_to_analytic(wide)
    assert wide_report.analytic == pytest.approx(want, rel=1e-12)
    sigma = math.sqrt(want * (1.0 - want) / 10**6)
    assert abs(wide_report.result.estimate - want) <= 3 * sigma

    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"simulations took {elapsed:.1f}s"


def test_c09_sample_size_planner_is_certified_by_recursion(capsys):
    res = sample_size(3, 0.1, 0.1, 1e-6)
    assert res.n_real == pytest.approx(47.8, abs=0.05)
    assert (res.k, res.n_tree) == (4, 81)
    # the planned tree reaches the target and the next smaller one does not
    exact = exact_majority_trace(Fraction(1, 10), 3, 4)
    assert float(exact[4]) <= 1e-6 < float(exact[3])
    # the command-line planner reports the same numbers
    assert cli.run([
        "samplesize", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1",
        "--epsilon", "1e-6",
    ]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"n_real": res.n_real, "k": 4, "n_tree": 81}


def test_c10_sandwich_ratio_polynomial_strictly_decreases():
    # closed forms at the endpoints plus strict decrease on a
    # 1000-point grid for every 0 < k < m <= 10
    assert check_ratio_poly() == []
