"""Spans and counters for the traced benchmark run.

The traced run wraps the public functions of every relaytree module
from outside the package: each wrapper records a span (name, start,
end, parent, request id) and, for the few functions whose work can be
counted from their arguments, an exact op count.  Wrappers are bound
in every relaytree module that imported the original, so calls made
inside the package (kernel calling log_sum_exp, simulate calling
apply_rule) are seen as well.  Philox constructions are counted by
swapping numpy.random.Philox for a counting subclass for the duration.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict

LAYERS = ("logdomain", "kernel", "oracle", "bounds", "alphabet", "simulate", "verify", "cli")

# simulation entry points: leaf samples are counted at the outermost one
_SIM_ENTRIES = ("simulate.simulate", "simulate.simulate_alphabet", "simulate.compare_to_analytic")


def _leaf_samples(config, *_, **__):
    return {"simulate.leaf_samples": config.trials * config.spec.n_leaves}


# exact op counts computed from a call's arguments: function -> counter increments
COUNTERS = {
    "kernel.binom_tail": lambda m, s_lo, s_hi, p: {"kernel.binom_tail.terms": s_hi - s_lo + 1},
    "oracle.enumerate_step": lambda pair, m, rule: {"oracle.enumerate_step.vectors": 1 << m},
    **{name: _leaf_samples for name in _SIM_ENTRIES},
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        # span = [name, start, end, parent index, request id]
        self.spans = []
        self.counts = defaultdict(int)
        self.request_id = -1
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "logdomain.log_sum_exp":
                # the function lists its argument anyway; do it here to count it
                args = (list(args[0]),) + args[1:]
                counts[name + ".terms"] += len(args[0])
            elif counter is not None and not (
                name in _SIM_ENTRIES and any(spans[i][0] in _SIM_ENTRIES for i in stack)
            ):
                for key, n in counter(*args, **kwargs).items():
                    counts[key] += n
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def instrument(tracer):
    """Bind tracing wrappers for every public relaytree function; returns
    a function that restores the originals."""
    modules = {layer: importlib.import_module(f"relaytree.{layer}") for layer in LAYERS}
    holders = [importlib.import_module("relaytree"), *modules.values()]
    undo = []
    for layer, mod in modules.items():
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in names:
            fn = getattr(mod, attr, None)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for holder in holders:
                if holder.__dict__.get(attr) is fn:
                    undo.append((holder, attr, fn))
                    setattr(holder, attr, wrapper)
    undo.append(_count_philox(tracer))

    def restore():
        for holder, attr, fn in reversed(undo):
            setattr(holder, attr, fn)

    return restore


def _count_philox(tracer):
    """Swap numpy.random.Philox for a subclass that counts constructions
    and times construction plus advance(); same streams bit for bit."""
    import numpy as np

    original = np.random.Philox
    counts = tracer.counts
    clock = time.perf_counter

    class CountingPhilox(original):
        def __init__(self, *args, **kwargs):
            t0 = clock()
            super().__init__(*args, **kwargs)
            counts["rng.philox_streams"] += 1
            counts["rng.philox_setup_s"] += clock() - t0

        def advance(self, delta):
            t0 = clock()
            out = super().advance(delta)
            counts["rng.philox_setup_s"] += clock() - t0
            return out

    np.random.Philox = CountingPhilox
    return (np.random, "Philox", original)


# ------------------------------------------------------------- derivation

def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the union of its child spans, each
    child clipped to the parent's interval."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ())
            if spans[c][2] > start and spans[c][1] < end
        )
        out.append((end - start) - covered)
    return out


def derive(spans, counts) -> dict:
    """Per-function and per-layer calls, busy and self time, plus counts.

    Busy time is the union of a function's (or layer's) spans, so nested
    re-entry is not counted twice; self time sums each span's self time.
    simulate.kernel_s is the time kernel and logdomain spans called
    directly from simulate spend inside the simulator.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    intervals = defaultdict(list)
    kernel_in_sim = 0.0
    for (name, start, end, parent, _), s in zip(spans, own):
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] += 1
            self_s[key] += s
            intervals[key].append((start, end))
        if parent >= 0 and layer in ("kernel", "logdomain") and spans[parent][0].startswith("simulate."):
            kernel_in_sim += end - start
    out = {}
    for key in calls:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_s[key]
        out[f"{key}.busy_s"] = union_length(intervals[key])
    out.update(counts)
    out["simulate.kernel_s"] = kernel_in_sim
    return out
