"""relaytree benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload trace --seed 1 --seconds 25 --trace 0

One client in one thread sends the next request only after the previous
one returns, for --seconds of wall time, and checks every response.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
one fixed epoch of requests untraced and then traced (spans around every
public relaytree function, see tracing.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object; a fuller
report and the spans go to bench/out/.  Workloads and their reasons are
in BENCHMARK.json at the repository root and in bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing  # stdlib only at import time; numpy loads with relaytree during set-up

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("trace", "crosscheck", "mc_narrow", "mc_wide")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, median reported
CAL_EVERY_S = 0.1  # how often the calibration kernel runs between requests
# the calibration kernel's time on the reference host (2-vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6) in its fast phase; times are scaled to it
CAL_REF_S = 2.2e-3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "kernel.binom_tail.calls": "count",
    "kernel.binom_tail.terms": "count",
    "kernel.binom_tail.self_s": "s",
    "kernel.propagate.self_s": "s",
    "kernel.lrt_step.self_s": "s",
    "kernel.apply_rule.calls": "count",
    "logdomain.log_sum_exp.calls": "count",
    "logdomain.log_sum_exp.terms": "count",
    "logdomain.log_sum_exp.self_s": "s",
    "logdomain.log1mexp.calls": "count",
    "logdomain.log1mexp.self_s": "s",
    "bounds.total_bounds.calls": "count",
    "bounds.total_bounds.self_s": "s",
    "bounds.lrt_lower_bound.self_s": "s",
    "cli.run.self_s": "s",
    "oracle.enumerate_step.calls": "count",
    "oracle.enumerate_step.vectors": "count",
    "oracle.enumerate_step.self_s": "s",
    "oracle.optimal_step.calls": "count",
    "oracle.optimal_step.self_s": "s",
    "simulate.leaf_samples": "count",
    "simulate.leaf_samples_per_s": "1/s",
    "simulate.ns_per_leaf_sample": "ns",
    "simulate.floor_ratio": "ratio",
    "simulate.kernel_s": "s",
    "simulate.peak_alloc_mb": "MB",
    "simulate.count_matches_reference": "count",
    "rng.philox_streams": "count",
    "rng.philox_setup_s": "s",
    "rng.floor_ns_per_draw": "ns",
    "trace.requests": "count",
    "trace.untraced_epoch_s": "s",
    "trace.traced_epoch_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.{kind}": unit for layer in tracing.LAYERS
       for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
}

# every ratio the benchmark reports: name -> (numerator, base, scale)
RATIOS = {
    "trace.overhead_ratio": ("trace.traced_epoch_s", "trace.untraced_epoch_s", 1.0),
    "simulate.ns_per_leaf_sample": ("simulate.self_s", "simulate.leaf_samples", 1e9),
    "simulate.leaf_samples_per_s": ("simulate.leaf_samples", "trace.untraced_epoch_s", 1.0),
    "simulate.floor_ratio": ("simulate.ns_per_leaf_sample", "rng.floor_ns_per_draw", 1.0),
}


# ------------------------------------------------------------- statistics

def tail_latency(samples) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Nearest rank: the value at rank r (1-based, ascending) is the
    100*r/n-th percentile and has n - r samples beyond it, so the answer
    is rank n - TAIL_BEYOND.  With too few samples, the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"value": xs[rank - 1], "percentile": 100.0 * rank / n, "n": n, "beyond": n - rank}


def add_ratios(metrics: dict) -> dict:
    """Fill every ratio in RATIOS from its numerator and base (0 when the
    base is 0: the layer was idle)."""
    for name, (num, base, scale) in RATIOS.items():
        b = metrics.get(base, 0)
        metrics[name] = scale * metrics.get(num, 0) / b if b else 0.0
    return metrics


# ---------------------------------------------------------------- running

def _import_workloads():
    if not (SRC / "relaytree" / "__init__.py").is_file():
        raise SystemExit(f"error: no relaytree sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup(name: str, seed: int):
    """Import relaytree, generate the inputs, serve one warm-up request."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[name](seed)
    if not workload.check(workload.warmup, workload.execute(workload.warmup)):
        raise SystemExit(f"error: warm-up request {workload.warmup.key} failed its check")
    return workload, time.perf_counter() - t0


def setup_probe(name: str, seed: int) -> float:
    """setup_s of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Calibration:
    """Times a fixed kernel, independent of relaytree, between requests.

    The kernel mixes the kinds of work the workloads do and the
    neighbours slow down differently: an integer loop, a numpy Philox
    draw with threshold and sum, and a sum over small tuples visited in
    a shuffled order (cache-bound pointer chasing).  A time measured at
    moment t is scaled by CAL_REF_S / (the median of the four kernel
    timings nearest t).
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._key = np.array([3, 5], dtype=np.uint64)
        rng = random.Random(0)
        self._rows = [tuple(rng.randrange(2) for _ in range(10)) for _ in range(1 << 14)]
        self._order = rng.sample(range(len(self._rows)), 3000)
        self.samples = []  # (start time, seconds), in time order
        self.measure()  # the first call pays numpy's lazy set-up
        self.samples.clear()

    def measure(self) -> None:
        np, rows = self._np, self._rows
        t0 = time.perf_counter()
        acc = 0
        for i in range(7500):
            acc += i * i % 7
        for i in self._order:
            acc += sum(rows[i])
        u = np.random.Generator(np.random.Philox(key=self._key)).random(30000)
        acc += int(np.count_nonzero(u.reshape(-1, 4).sum(axis=1) > 2.0))
        self.samples.append((t0, time.perf_counter() - t0))

    def scale(self, t: float) -> float:
        i = bisect.bisect(self.samples, (t,))
        near = self.samples[max(0, i - 2):i + 2]
        return CAL_REF_S / statistics.median(d for _, d in near)


class Client:
    """The single closed-loop client: times, checks and counts requests."""

    def __init__(self, workload):
        self.workload = workload
        self.completed = []  # (epoch index, start time, latency in s)
        self.attempted = 0
        self.failed = 0

    def send(self, i: int) -> None:
        req = self.workload.epoch[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.execute(req)
        except Exception:  # a failed request is counted, the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.completed.append((i, t0, time.perf_counter() - t0))
        if not self.workload.check(req, result):
            self.failed += 1
            print(f"check failed: {req.key} {req.args}", file=sys.stderr)

    def run_epoch(self) -> float:
        """Send every request of the epoch once; returns their summed latency."""
        first = len(self.completed)
        for i in range(len(self.workload.epoch)):
            self.send(i)
        return sum(lat for _, _, lat in self.completed[first:])


def per_request(samples, pick) -> dict:
    """Epoch index -> pick(latencies of its repetitions)."""
    reps = {}
    for i, lat in samples:
        reps.setdefault(i, []).append(lat)
    return {i: pick(v) for i, v in reps.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def floor_ns_per_draw(reps: int = 5, draws: int = 1 << 21) -> float:
    """Median cost of one Philox double drawn in bulk: the simulator's floor."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        gen.random(draws)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / draws * 1e9


def _latency_metrics(lat_s: dict) -> dict:
    lat_ms = [lat_s[i] * 1e3 for i in sorted(lat_s)]
    tail = tail_latency(lat_ms)
    return {
        "requests_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail["value"],
        "tail": tail,
    }


def end_to_end(workload, name: str, seed: int, seconds: float) -> tuple:
    """Cycle the epoch for `seconds`, with the calibration kernel every
    CAL_EVERY_S and set-up probes at evenly spaced moments in between.

    Every time is scaled to the reference host's speed (Calibration) and
    each request's latency is the median of its scaled repetitions;
    median and tail are taken over the epoch's distinct requests.  The
    unscaled figures go to the report.
    """
    cal = Calibration()
    client = Client(workload)
    size = len(workload.epoch)
    start = time.perf_counter()
    probe_at = [start + seconds * (k + 0.5) / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    setup_raw, setup_scaled = [], []
    sent = 0
    last_cal = -math.inf
    while time.perf_counter() < start + seconds or probe_at:
        now = time.perf_counter()
        if now - last_cal >= CAL_EVERY_S:
            cal.measure()
            last_cal = now
        if probe_at and (now >= probe_at[0] or now >= start + seconds):
            probe_at.pop(0)
            raw = setup_probe(name, seed)
            cal.measure()
            setup_raw.append(raw)
            setup_scaled.append(raw * cal.scale(now))
            continue
        client.send(sent % size)
        sent += 1
    cal.measure()
    if not client.completed:
        raise SystemExit("error: no request completed")
    raw = per_request([(i, lat) for i, _, lat in client.completed], statistics.median)
    scaled = per_request([(i, lat * cal.scale(t0)) for i, t0, lat in client.completed],
                         statistics.median)
    chosen = _latency_metrics(scaled)
    metrics = {k: chosen[k] for k in ("requests_per_s", "latency_p50_ms", "latency_tail_ms")}
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setup_scaled)
    durations = [d for _, d in cal.samples]
    details = {
        "tail": chosen["tail"],
        "repetitions_per_request": len(client.completed) / size,
        "unscaled": _latency_metrics(raw),
        "setup_unscaled_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "calibration": {"n": len(durations), "median_s": statistics.median(durations),
                        "min_s": min(durations), "ref_s": CAL_REF_S},
        "failed_ratio": client.failed / client.attempted,
    }
    leaf_samples = getattr(workload, "leaf_samples", None)
    if leaf_samples is not None:
        details["leaf_samples_per_s"] = (
            sum(leaf_samples(r) for r in workload.epoch) / size * chosen["requests_per_s"]
        )
    return metrics, details, client


def traced(workload, seconds: float) -> tuple:
    """Untraced epochs for about half the time, then one traced epoch and,
    for the simulator, one epoch under tracemalloc."""
    import tracemalloc

    client = Client(workload)
    untraced = [client.run_epoch()]
    deadline = time.perf_counter() + seconds / 2
    while time.perf_counter() < deadline:
        untraced.append(client.run_epoch())
    if hasattr(workload, "count_matches"):
        workload.count_matches = 0

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        first = len(client.completed)
        for rid in range(len(workload.epoch)):
            tracer.request_id = rid
            client.send(rid)
        traced_s = sum(lat for _, _, lat in client.completed[first:])
    finally:
        restore()

    metrics = tracing.derive(tracer.spans, tracer.counts)
    metrics["simulate.count_matches_reference"] = getattr(workload, "count_matches", 0)
    metrics["trace.requests"] = len(workload.epoch)
    metrics["trace.untraced_epoch_s"] = statistics.median(untraced)
    metrics["trace.traced_epoch_s"] = traced_s
    metrics["rng.floor_ns_per_draw"] = floor_ns_per_draw()
    if metrics.get("simulate.leaf_samples"):
        peak = 0
        for req in workload.epoch:
            tracemalloc.start()
            try:
                workload.execute(req)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        metrics["simulate.peak_alloc_mb"] = peak / 2**20
    add_ratios(metrics)
    return metrics, tracer, client


# --------------------------------------------------------------- metadata

def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_line_counts() -> dict:
    counts = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "relaytree").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def metadata(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "src_lines": src_line_counts(),
    }


# ------------------------------------------------------------------- main

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up once and exit (used by the set-up probes)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    workload, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    meta = metadata(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, tracer, client = traced(workload, args.seconds)
        tracer.dump(OUT_DIR / f"spans-{stem}.jsonl")
        reported = {k: {"value": metrics.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
        details = {"derived": metrics, "spans": len(tracer.spans)}
    else:
        metrics, details, client = end_to_end(workload, args.workload, args.seed, args.seconds)
        meta["rng.floor_ns_per_draw"] = floor_ns_per_draw()
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}

    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": reported,
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"metadata": meta, "result": result, "details": details}, fh, indent=1)
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for key in ("tail", "repetitions_per_request", "unscaled", "calibration", "failed_ratio",
                "leaf_samples_per_s", "spans"):
        if key in details:
            print(f"# {key}: {details[key]}")
    for key, m in reported.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
