"""Monte Carlo cross-checks of the closed-form recursion.

Runs here are deliberately small; the statistically heavy agreement
matrix lives in the verify suite and the acceptance tests.
"""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from relaytree import kernel
from relaytree import simulate as simulate_module
from relaytree.alphabet import TreeSpec, alphabet_schedule
from relaytree.kernel import (
    AlternatingMajority,
    BayesianLRT,
    ErrorPair,
    MajorityEven,
    MajorityOdd,
    Priors,
    Summation,
    alternating_phases,
    apply_rule,
)
from relaytree.simulate import (
    DEFAULT_BUDGET,
    Hypothesis,
    SimConfig,
    compare_to_analytic,
)


def binary_config(m, height, rule, a=0.1, b=0.1, trials=20000, seed=7,
                  hyp=Hypothesis.H0):
    return SimConfig(
        spec=TreeSpec(m, height, 2),
        schedule=[rule] * height,
        leaf_pair=ErrorPair.from_linear(a, b),
        trials=trials,
        seed=seed,
        hypothesis=hyp,
    )


class TestSimConfig:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            binary_config(3, 2, MajorityOdd(3), trials=0)
        with pytest.raises(ValueError):
            binary_config(3, 2, MajorityOdd(3), seed=-1)
        with pytest.raises(ValueError):
            binary_config(3, 2, MajorityOdd(3), seed=2**64)

    def test_rejects_wrong_schedule_length(self):
        with pytest.raises(ValueError, match="schedule has 1"):
            SimConfig(
                spec=TreeSpec(3, 2, 2),
                schedule=[MajorityOdd(3)],
                leaf_pair=ErrorPair.from_linear(0.1, 0.1),
                trials=10,
                seed=1,
                hypothesis=Hypothesis.H0,
            )

    def test_alphabet_structure_enforced(self):
        spec = TreeSpec(2, 2, 3)  # k0 = 2: level 1 sums, level 2 decides
        good = [Summation(2), MajorityEven(4)]
        SimConfig(spec, good, ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0)
        with pytest.raises(ValueError, match="must decide"):
            SimConfig(
                spec,
                [Summation(2), Summation(4)],
                ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0,
            )
        with pytest.raises(ValueError, match="must be a Summation"):
            SimConfig(
                spec,
                [MajorityEven(2), MajorityEven(4)],
                ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0,
            )
        with pytest.raises(ValueError, match="fan-in"):
            SimConfig(
                spec,
                [Summation(2), MajorityEven(2)],
                ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0,
            )
        with pytest.raises(ValueError, match="level 1 must be a Summation of fan-in 2"):
            SimConfig(
                spec,
                [Summation(5), MajorityEven(4)],
                ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0,
            )
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(
                TreeSpec(2, 3, 3),
                [Summation(2), MajorityEven(4), Summation(2)],
                ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0,
            )

    def test_boundary_rules(self):
        spec = TreeSpec(2, 4, 3)
        rules = [MajorityEven(4), AlternatingMajority(4)]
        config = SimConfig(
            spec,
            alphabet_schedule(spec, rules),
            ErrorPair.from_linear(0.1, 0.1), 10, 1, Hypothesis.H0,
        )
        assert config.boundary_rules == tuple(rules)


def pinned_config(spec, schedule, a, b, trials, seed, hyp):
    return SimConfig(
        spec, tuple(schedule), ErrorPair.from_linear(a, b), trials, seed, hyp
    )


H0, H1 = Hypothesis.H0, Hypothesis.H1
COUNT_SPEC = TreeSpec(2, 4, 3)  # k0 = 2: fan-in 4 decides every 2nd level
WIDE_COUNT_SPEC = TreeSpec(2, 8, 129)  # k0 = 8: one decision over 256 leaves

# (config, exact error count): one config per rule family, recorded from
# the per-node Philox streams; any change to the streams moves these
PINNED = {
    "odd_majority": (
        pinned_config(TreeSpec(3, 2), [MajorityOdd(3)] * 2, 0.2, 0.2, 10_001, 7, H0),
        281,
    ),
    "even_majority_fair_coin": (
        pinned_config(TreeSpec(4, 2), [MajorityEven(4)] * 2, 0.2, 0.2, 10_001, 7, H0),
        289,
    ),
    "biased_tie": (
        pinned_config(
            TreeSpec(4, 2), [MajorityEven(4, 0.3)] * 2, 0.2, 0.25, 10_001, 9, H1
        ),
        1293,
    ),
    "alternating": (
        pinned_config(
            TreeSpec(2, 3),
            [AlternatingMajority(2, p) for p in alternating_phases(3)],
            0.15, 0.15, 10_001, 11, H0,
        ),
        1466,
    ),
    "lrt": (
        pinned_config(
            TreeSpec(3, 2), [BayesianLRT(3, Priors(0.3, 0.7))] * 2,
            0.1, 0.3, 10_001, 13, H0,
        ),
        1830,
    ),
    "odd_majority_h1": (
        pinned_config(TreeSpec(5, 2), [MajorityOdd(5)] * 2, 0.3, 0.3, 10_001, 17, H1),
        355,
    ),
    "count_forwarding_d3": (
        pinned_config(
            COUNT_SPEC, alphabet_schedule(COUNT_SPEC, [MajorityEven(4)] * 2),
            0.25, 0.25, 10_001, 19, H0,
        ),
        633,
    ),
    "wide_even_with_tie_coins": (
        pinned_config(TreeSpec(2, 10), [MajorityEven(2)] * 10, 0.3, 0.3, 301, 23, H0),
        95,
    ),
}

# deciding fan-in of at least 256: counts no longer fit in a byte.  The
# saturated cases send 1 from nearly every leaf under H1, so counts of
# 256 and 257 are common there and a wrapped count would read as a miss.
WIDE_FAN_IN = {
    "count_forwarding_256": (
        pinned_config(
            WIDE_COUNT_SPEC, alphabet_schedule(WIDE_COUNT_SPEC, [MajorityEven(256)]),
            0.47, 0.47, 2_001, 29, H0,
        ),
        329,
    ),
    "count_forwarding_256_saturated": (
        pinned_config(
            WIDE_COUNT_SPEC, alphabet_schedule(WIDE_COUNT_SPEC, [MajorityEven(256)]),
            0.47, 0.01, 2_001, 37, H1,
        ),
        0,
    ),
    "binary_257": (
        pinned_config(TreeSpec(257, 1), [MajorityOdd(257)], 0.45, 0.45, 2_001, 31, H0),
        103,
    ),
    "binary_257_saturated": (
        pinned_config(TreeSpec(257, 1), [MajorityOdd(257)], 0.45, 0.01, 2_001, 41, H1),
        0,
    ),
}


@pytest.fixture
def sim(monkeypatch):
    """compare_to_analytic(config).result with all of a run's buffers,
    serial or sharded, holding `chunk` trials, or the default sizes for
    None: both sizes are set through their constants."""
    defaults = {name: getattr(simulate_module, name)
                for name in ("_CHUNK_SAMPLES", "_SHARD_SAMPLES")}

    def run(config, chunk=None):
        for name, default in defaults.items():
            monkeypatch.setattr(simulate_module, name,
                                default if chunk is None else chunk * config.spec.n_leaves)
        return compare_to_analytic(config).result

    return run


class TestPinnedCounts:
    @pytest.mark.parametrize("chunk", [None, 52])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_exact_count(self, sim, name, chunk):
        config, want = PINNED[name]
        assert sim(config, chunk).error_count == want

    @pytest.mark.parametrize("name", sorted(WIDE_FAN_IN))
    def test_wide_fan_in_counts(self, name):
        config, want = WIDE_FAN_IN[name]
        report = compare_to_analytic(config)
        assert abs(report.z_score) <= 4.0
        assert report.result.error_count == want

    def test_philox_subclass_is_tolerated(self, sim, monkeypatch):
        # the stream is re-keyed through the instance's own state, whose
        # bit_generator name is that of the instance's class
        class SubPhilox(np.random.Philox):
            pass

        config, want = PINNED["even_majority_fair_coin"]
        monkeypatch.setattr(np.random, "Philox", SubPhilox)
        assert sim(config, 52).error_count == want


class TestDeterminism:
    def test_same_seed_same_count(self):
        c = binary_config(3, 2, MajorityOdd(3))
        assert compare_to_analytic(c) == compare_to_analytic(c)

    def test_chunking_is_invisible(self, sim, monkeypatch):
        c = binary_config(3, 2, MajorityOdd(3))
        want = sim(c).error_count
        # serial, so that 7 rounds up to 8 internally, 19996 leaves a last
        # chunk of 4 trials, and 39996 is cut to the 20000-trial run
        monkeypatch.setattr(simulate_module, "_cores", lambda: 1)
        for chunk in (4, 52, 1000, 7, 19996, 39996):
            assert sim(c, chunk).error_count == want

    def test_chunking_is_invisible_with_tie_draws(self, sim):
        c = binary_config(4, 2, MajorityEven(4))
        want = sim(c).error_count
        for chunk in (52, 1000):
            assert sim(c, chunk).error_count == want

    def test_different_seed_differs(self):
        base = binary_config(3, 2, MajorityOdd(3))
        other = binary_config(3, 2, MajorityOdd(3), seed=8)
        assert (compare_to_analytic(base).result.error_count
                != compare_to_analytic(other).result.error_count)


@pytest.fixture
def sharded(monkeypatch):
    """Shard any run of 4 trials per core or more; returns a setter for
    the core count.  Only small counts: each core is one thread."""
    monkeypatch.setattr(simulate_module, "_MIN_FILL", 4)
    return lambda cpus: monkeypatch.setattr(simulate_module, "_cores", lambda: cpus)


class TestShards:
    # chunk 52 gives every shard several chunks; chunk 4, which re-keys
    # every node's Philox once per 4 trials and costs seconds here, is
    # covered on short runs below
    @pytest.mark.parametrize("chunk", [None, 52])
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("name", sorted(PINNED) + sorted(WIDE_FAN_IN))
    def test_pinned_counts(self, sim, sharded, name, cpus, chunk):
        config, want = {**PINNED, **WIDE_FAN_IN}[name]
        sharded(cpus)
        # frequent thread switches: a shard reading another's buffer or
        # stream would show as a moved count
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert sim(config, chunk).error_count == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_short_and_ragged_runs_match_serial(self, sim, sharded, cpus):
        # below 4 * cpus trials the run has fewer shards than cores;
        # 4 * cpus * k + 3 trials leave a ragged last shard
        for trials in [*range(1, 4 * cpus), *(4 * cpus * k + 3 for k in (1, 2, 7))]:
            config = binary_config(4, 2, MajorityEven(4), a=0.3, b=0.3, trials=trials)
            sharded(1)
            want = sim(config)
            sharded(cpus)
            # chunks of 4 trials in each shard, one per 4 trials up to cpus
            for chunk in (None, 4 * max(1, min(cpus, trials // 4))):
                assert sim(config, chunk) == want, (trials, chunk)

    @pytest.mark.parametrize("height, trials, shards", [
        (1, 2 * simulate_module._MIN_FILL - 1, False),  # too few trials for two fills
        (1, 2 * simulate_module._MIN_FILL, True),
        (7, 4 * simulate_module._MIN_FILL, False),  # 128 leaves: the buffer cap cuts fills short
        (6, 4 * simulate_module._MIN_FILL, True),  # 64 leaves
    ])
    def test_only_long_fills_start_a_thread(self, monkeypatch, height, trials, shards):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(simulate_module, "_cores", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = binary_config(2, height, MajorityEven(2), trials=trials)
        if shards:
            with pytest.raises(AssertionError, match="thread was started"):
                compare_to_analytic(config)
        else:
            compare_to_analytic(config)

    @pytest.mark.parametrize("failing_shard, error", [
        (0, RuntimeError), (1, RuntimeError), (0, KeyboardInterrupt)])
    def test_shard_exception_reaches_caller(self, sim, sharded, monkeypatch, failing_shard,
                                            error):
        # 400 trials on 2 cores in chunks of 52: shard 0 (the calling
        # thread) holds trials 0..199, shard 1 (a second thread) 200..399
        err = error("shard failed")
        decide = simulate_module._decide
        stops = []
        sibling_starts = set()
        stopped = []

        def recording_event():
            stops.append(threading.Event())
            return stops[-1]

        def failing(counts, runs, streams, uid_base, start, u):
            if (start >= 200) == failing_shard:
                raise err
            if not sibling_starts:
                # the failing shard sets the stop; the sibling then ends
                # after this chunk instead of running its other three
                stopped.append(stops[0].wait(timeout=10))
            sibling_starts.add(start)
            return decide(counts, runs, streams, uid_base, start, u)

        sharded(2)
        monkeypatch.setattr(simulate_module, "threading", SimpleNamespace(
            Event=recording_event, Thread=threading.Thread))
        monkeypatch.setattr(simulate_module, "_decide", failing)
        before = threading.active_count()
        with pytest.raises(error) as info:
            sim(binary_config(3, 2, MajorityOdd(3), trials=400), 100)
        assert info.value is err
        assert threading.active_count() == before
        # a sibling that sees the stop before its first chunk runs none
        assert all(stopped)
        assert sibling_starts <= {200 if failing_shard == 0 else 0}


class TestBudget:
    def test_refuses_oversized_run(self):
        c = binary_config(5, 6, MajorityOdd(5), trials=10**9)
        with pytest.raises(ValueError, match="budget"):
            compare_to_analytic(c)

    def test_explicit_budget_allows(self):
        c = binary_config(3, 1, MajorityOdd(3), trials=50)
        assert compare_to_analytic(c, budget=150).result.trials == 50
        with pytest.raises(ValueError):
            compare_to_analytic(c, budget=149)

    def test_default_budget_value(self):
        assert DEFAULT_BUDGET == 10**10


class TestResults:
    def test_estimate_and_ci_consistent(self):
        r = compare_to_analytic(binary_config(3, 2, MajorityOdd(3))).result
        assert r.estimate == r.error_count / r.trials
        want_ci = 3 * math.sqrt(r.estimate * (1 - r.estimate) / r.trials)
        assert r.ci_halfwidth_3sigma == pytest.approx(want_ci, rel=1e-12, abs=0)

    def test_reduced_root_pair(self):
        spec = TreeSpec(2, 2, 3)
        want = apply_rule(ErrorPair.from_linear(0.1, 0.2), MajorityEven(4, 0.5))
        for hypothesis, side in ((Hypothesis.H0, want.alpha), (Hypothesis.H1, want.beta)):
            c = SimConfig(
                spec,
                alphabet_schedule(spec, [MajorityEven(4)]),
                ErrorPair.from_linear(0.1, 0.2), 10, 1, hypothesis,
            )
            assert compare_to_analytic(c).analytic == side.linear

    def test_comparison_runs_the_reduced_recursion_once(self, monkeypatch):
        calls = []

        def counting(pair, rule):
            calls.append(rule)
            return apply_rule(pair, rule)

        monkeypatch.setattr(kernel, "apply_rule", counting)
        compare_to_analytic(binary_config(3, 4, MajorityOdd(3), trials=8))
        assert len(calls) == 4  # one per deciding level, the root's included


class TestAgreement:
    def test_h0_majority(self):
        report = compare_to_analytic(
            binary_config(3, 2, MajorityOdd(3), trials=200000)
        )
        a1 = 3 * 0.01 * 0.9 + 0.001
        want = 3 * a1**2 * (1 - a1) + a1**3
        assert report.analytic == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(report.z_score) <= 4.0
        assert not report.flagged

    def test_h1_alternating(self):
        report = compare_to_analytic(
            binary_config(
                2, 2, AlternatingMajority(2), a=0.1, b=0.3,
                trials=200000, hyp=Hypothesis.H1,
            )
        )
        assert abs(report.z_score) <= 4.0

    def test_lrt_level(self):
        priors = Priors(0.3, 0.7)
        c = SimConfig(
            spec=TreeSpec(3, 1, 2),
            schedule=[BayesianLRT(3, priors)],
            leaf_pair=ErrorPair.from_linear(0.05, 0.2),
            trials=200000,
            seed=7,
            hypothesis=Hypothesis.H1,
        )
        report = compare_to_analytic(c)
        assert abs(report.z_score) <= 4.0

    def test_alternating_schedule_flips_phase(self):
        # level 1 ties to one, level 2 ties to zero
        phases = alternating_phases(2)
        sched = [AlternatingMajority(2, phase=p) for p in phases]
        c = SimConfig(
            spec=TreeSpec(2, 2, 2),
            schedule=sched,
            leaf_pair=ErrorPair.from_linear(0.1, 0.1),
            trials=200000,
            seed=11,
            hypothesis=Hypothesis.H0,
        )
        report = compare_to_analytic(c)
        assert abs(report.z_score) <= 4.0

    def test_degenerate_sigma_gives_zero_z(self):
        c = binary_config(3, 1, MajorityOdd(3), a=0.0, b=0.5, trials=1000)
        report = compare_to_analytic(c)
        assert report.analytic == 0.0
        assert report.result.estimate == 0.0
        assert report.z_score == 0.0
        assert not report.flagged


class TestAlphabetEquivalence:
    def test_wide_alphabet_matches_reduced_binary(self):
        # (2, d=3) with k0 = 2 collapses to fan-in 4; both simulations
        # must sit within 4 sigma of the same closed form
        leaf = ErrorPair.from_linear(0.1, 0.1)
        spec = TreeSpec(2, 2, 3)
        wide = SimConfig(
            spec,
            alphabet_schedule(spec, [MajorityEven(4)]),
            leaf, 200000, 13, Hypothesis.H0,
        )
        narrow = SimConfig(
            TreeSpec(4, 1, 2),
            [MajorityEven(4)],
            leaf, 200000, 13, Hypothesis.H0,
        )
        want = apply_rule(leaf, MajorityEven(4, 0.5)).alpha_linear
        wide_report = compare_to_analytic(wide)
        narrow_report = compare_to_analytic(narrow)
        assert wide_report.analytic == pytest.approx(want, rel=1e-12, abs=0)
        assert narrow_report.analytic == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(wide_report.z_score) <= 4.0
        assert abs(narrow_report.z_score) <= 4.0
