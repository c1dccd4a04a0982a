"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ tail latency

@pytest.mark.parametrize("n", [11, 12, 100, 1000, 1234])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    tail = run.tail_latency(samples)
    assert tail["beyond"] == 10
    assert sum(x > tail["value"] for x in samples) == 10
    assert tail["value"] == n - 10
    assert tail["percentile"] == pytest.approx(100.0 * (n - 10) / n)
    # one rank higher would leave only nine samples beyond
    assert sum(x > tail["value"] + 1 for x in samples) == 9


def test_tail_with_too_few_samples_is_the_maximum():
    tail = run.tail_latency([3.0, 1.0, 2.0])
    assert tail == {"value": 3.0, "percentile": 100.0, "n": 3, "beyond": 0}


def test_tail_with_ties_counts_strictly_greater_samples():
    samples = [1.0] * 50 + [5.0] * 10
    tail = run.tail_latency(samples)
    assert tail["value"] == 1.0 and tail["beyond"] == 10


# -------------------------------------------------------------- self time

def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_subtracts_union_of_children_with_nested_reentry():
    spans = [
        _span("kernel.apply_rule", 0.0, 10.0, -1),
        _span("kernel.binom_tail", 1.0, 6.0, 0),
        _span("logdomain.log_sum_exp", 2.0, 4.0, 1),
        _span("logdomain.log_sum_exp", 2.5, 3.0, 2),  # re-entry under itself
        _span("logdomain.log1mexp", 7.0, 8.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 3.0, 1.5, 0.5, 1.0])
    m = tracing.derive(spans, {})
    assert m["kernel.self_s"] == pytest.approx(7.0)
    assert m["kernel.busy_s"] == pytest.approx(10.0)
    assert m["logdomain.log_sum_exp.calls"] == 2
    assert m["logdomain.log_sum_exp.self_s"] == pytest.approx(2.0)
    # busy counts the nested re-entry once
    assert m["logdomain.log_sum_exp.busy_s"] == pytest.approx(2.0)
    assert m["logdomain.busy_s"] == pytest.approx(3.0)
    # self times of all spans add up to the root span's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_and_merges_overlapping_children():
    spans = [
        _span("verify.check", 0.0, 4.0, -1),
        _span("oracle.enumerate_step", 1.0, 3.0, 0),
        _span("oracle.optimal_step", 2.0, 5.0, 0),  # overlaps its sibling, runs past the parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_kernel_time_inside_simulate():
    spans = [
        _span("simulate.compare_to_analytic", 0.0, 10.0, -1),
        _span("kernel.lrt_decision_rule", 1.0, 2.0, 0),
        _span("simulate.reduced_root_pair", 3.0, 6.0, 0),
        _span("kernel.apply_rule", 3.5, 5.5, 2),
        _span("kernel.binom_tail", 4.0, 5.0, 3),  # nested: counted via its parent
    ]
    assert tracing.derive(spans, {})["simulate.kernel_s"] == pytest.approx(3.0)


# ------------------------------------------------------------------ ratios

def test_every_ratio_is_reported_with_its_base():
    for name, (num, base, _) in run.RATIOS.items():
        assert name in run.PER_LAYER
        assert base in run.PER_LAYER, f"{name} lacks its base {base}"
        assert num in run.PER_LAYER, f"{name} lacks its numerator {num}"


def test_ratios_are_numerator_over_base():
    m = run.add_ratios({
        "trace.traced_epoch_s": 3.0, "trace.untraced_epoch_s": 2.0,
        "simulate.self_s": 2.0, "simulate.leaf_samples": 1e8,
        "rng.floor_ns_per_draw": 10.0,
    })
    assert m["trace.overhead_ratio"] == pytest.approx(1.5)
    assert m["simulate.ns_per_leaf_sample"] == pytest.approx(20.0)
    assert m["simulate.floor_ratio"] == pytest.approx(2.0)
    assert m["simulate.leaf_samples_per_s"] == pytest.approx(5e7)
    idle = run.add_ratios({"trace.traced_epoch_s": 1.0, "trace.untraced_epoch_s": 1.0})
    assert idle["simulate.ns_per_leaf_sample"] == 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


# ----------------------------------------------------------------- tracing

def test_instrument_rebinds_every_importer_and_counts_from_arguments():
    kernel = importlib.import_module("relaytree.kernel")
    logdomain = importlib.import_module("relaytree.logdomain")
    original = kernel.log_sum_exp
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert kernel.log_sum_exp is not original  # kernel's own binding, not just logdomain's
        pair = kernel.ErrorPair.from_linear(0.1, 0.2)
        kernel.propagate(pair, [kernel.MajorityOdd(5)] * 2, kernel.Priors.equal())
    finally:
        restore()
    assert kernel.log_sum_exp is original and logdomain.log_sum_exp is original
    m = tracing.derive(tracer.spans, tracer.counts)
    # two levels x two sides, each the window [3, 5]
    assert m["kernel.binom_tail.calls"] == 4
    assert m["kernel.binom_tail.terms"] == 12
    names = {i: s[0] for i, s in enumerate(tracer.spans)}
    nested = [
        s for s in tracer.spans
        if s[0] == "logdomain.log_sum_exp" and names[s[3]] == "kernel.binom_tail"
        and names[tracer.spans[s[3]][3]] == "kernel.majority_step_odd"
    ]
    assert len(nested) == 4
    assert m["logdomain.log_sum_exp.terms"] == 12 + 3 * 2  # tails plus one total per level


def test_philox_count_and_streams_unchanged():
    import numpy as np

    key = np.array([5, 7], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).random(4)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        bg = np.random.Philox(key=key)
        bg.advance(0)
        got = np.random.Generator(np.random.Philox(key=key)).random(4)
    finally:
        restore()
    assert np.random.Philox.__name__ == "Philox"
    assert tracer.counts["rng.philox_streams"] == 2
    assert (got == expected).all()


# --------------------------------------------------------------- workloads

def test_inputs_depend_only_on_the_seed():
    for name, make in workloads.WORKLOADS.items():
        if name == "mc_wide":
            continue  # same generator as mc_narrow
        a, b, c = make(3), make(3), make(4)
        assert a.epoch == b.epoch, name
        assert a.epoch != c.epoch, name


def test_memory_guard_refuses_the_huge_binary_tree():
    huge = workloads.MCStratum("m2_h30", 2, 30, 2, "majority", 4, (0.1, 0.2))
    with pytest.raises(ValueError):
        workloads.memory_guard(huge)
    for st in workloads.MC_NARROW + workloads.MC_WIDE:
        workloads.memory_guard(st)
        assert st.m**st.height <= 243 or st in workloads.MC_WIDE


def test_printed_close_allows_one_print_quantum_only():
    assert workloads.printed_close("30.2858953185", "30.2858953185")
    assert workloads.printed_close("30.2858953186", "30.2858953185")
    assert not workloads.printed_close("30.2858953195", "30.2858953185")
    assert not workloads.printed_close("inf", "30.2858953185")


# ------------------------------------------------------------- calibration

def test_per_request_picks_over_repetitions():
    samples = [(0, 3.0), (1, 5.0), (0, 2.0), (1, 4.0), (0, 9.0)]
    assert run.per_request(samples, min) == {0: 2.0, 1: 4.0}
    assert run.per_request(samples, run.statistics.median) == {0: 3.0, 1: 4.5}


def test_calibration_scale_uses_the_four_nearest_kernel_timings():
    cal = run.Calibration()
    cal.samples = [(t, d) for t, d in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])]
    # t = 2.5 lies between samples 2 and 3: neighbours 1..4 -> median 3.5
    assert cal.scale(2.5) == pytest.approx(run.CAL_REF_S / 3.5)
    # before the first sample only the first two are near
    assert cal.scale(-1.0) == pytest.approx(run.CAL_REF_S / 1.5)
