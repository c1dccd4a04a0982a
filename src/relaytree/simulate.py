"""Monte Carlo corroboration of the analytic recursions.

`compare_to_analytic` is the one entry point.  It simulates the actual
message-passing tree: leaves draw Bernoulli bits under the chosen
hypothesis, interior nodes either forward the count of ones below them
or decide by their rule's table P(1 | count), and the root's mistakes
are counted and scored against the closed form.

Randomness is counter-based: node j (leaves first, then each level in
turn) has the Philox stream keyed by (seed, j), and trial i reads double
i of it.  Results are therefore bit-for-bit reproducible however trials
are chunked, and a tie coin at one node never perturbs another node's
draws, so a node none of whose counts in a chunk lands on a fractional
table entry draws no coins at all.  One Philox serves every stream of a
run: moving to another node or chunk only re-keys it and sets its
counter.

Trials run in chunks, laid out node-major: a level is a nodes x trials
array, so each leaf fills one contiguous row of bits, and a level's
counts sum m adjacent rows.  Counts use the narrowest unsigned type that
holds m^k0, the largest count any level can carry.

A long run is split into contiguous trial shards, one per core this
process may run on, that run at the same time on threads: a fill or a
ufunc releases the interpreter lock for its whole array, so long fills
really do overlap.  Each shard has its own Philox and its own buffers,
and starts on a multiple of 4, so trial i still reads double i of its
node's stream and the counts are the same as a serial run's, as with
chunking.  All shards' buffers together hold `_SHARD_SAMPLES` leaf
samples, and a run takes only as many shards as keep every fill at
`_MIN_FILL` doubles or more: shorter fills lose more to hand-offs of the
lock than another core gains.  So a run stays serial, on the calling
thread, when it has fewer than 2 * `_MIN_FILL` trials or more than 64
leaves.  Decision tables are built on the calling thread before any
shard starts.  If a shard raises, the others stop at their next chunk
and the error reaches the caller.  Only two shards, on 2 cores, have
been measured; more shards on more cores are untested for speed.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .alphabet import TreeSpec, alphabet_schedule
from .kernel import ErrorPair, Priors, Summation, _count_runs, propagate

__all__ = [
    "Hypothesis",
    "SimConfig",
    "SimResult",
    "ComparisonReport",
    "DEFAULT_BUDGET",
    "compare_to_analytic",
]

DEFAULT_BUDGET = 10**10  # leaf samples per call before refusing
# doubles per fill below which a shard's thread costs more than it gains:
# on a 2-vCPU host, two shards on trees of 8-256 leaves ran at 0.37-0.6x
# the serial speed with fills of 1024 doubles, 0.83-1.29x with 2048 and
# 1.1-1.64x with 4096
_MIN_FILL = 1 << 12
# leaf samples that a serial run's buffers hold
_CHUNK_SAMPLES = 4_000_000
# leaf samples that all shards' buffers hold together; two threads'
# temporaries and allocator arenas at _CHUNK_SAMPLES raised peak RSS by 2-8 %
_SHARD_SAMPLES = 1 << 19


class Hypothesis(enum.Enum):
    H0 = "h0"
    H1 = "h1"


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    The schedule names one rule per level, bottom up, and must be the
    one `alphabet_schedule` builds from its deciding rules: for d > 2 the
    non-deciding levels are Summation and every k0-th level carries a
    binary rule over the accumulated count, fan-in m^k0.
    """

    spec: TreeSpec
    schedule: tuple
    leaf_pair: ErrorPair
    trials: int
    seed: int
    hypothesis: Hypothesis

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a uint64, got {self.seed}")
        if len(self.schedule) != self.spec.height:
            raise ValueError(
                f"schedule has {len(self.schedule)} rules for height "
                f"{self.spec.height}"
            )
        want = tuple(alphabet_schedule(self.spec, self.boundary_rules))
        if self.schedule != want:
            level = next(k for k, (got, need) in enumerate(zip(self.schedule, want), 1)
                         if got != need)
            raise ValueError(
                f"level {level} must be a Summation of fan-in {self.spec.m} "
                f"for alphabet d={self.spec.d} (k0={self.spec.k0})"
            )

    @property
    def boundary_rules(self) -> tuple:
        """The deciding rules, i.e. the schedule of the reduced binary tree."""
        return self.schedule[self.spec.k0 - 1::self.spec.k0]


@dataclass(frozen=True)
class SimResult:
    error_count: int
    trials: int
    estimate: float
    ci_halfwidth_3sigma: float


@dataclass(frozen=True)
class ComparisonReport:
    """Simulation vs. closed form; flagged when |z| > 4."""

    result: SimResult
    analytic: float
    z_score: float
    flagged: bool


class _Streams:
    """Every node's uniform stream, served by one re-keyed Philox.

    Philox is counter-based: the stream of node uid is fixed by its key
    (seed, uid), and trial i reads double i of it, i.e. word i % 4 of
    counter block i // 4.  Moving to another node or chunk start only
    sets the key and the counter, which is far cheaper than building a
    bit generator.  Chunk starts are multiples of 4, so a stream opens
    on a block boundary with the buffer empty.
    """

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        # the instance's own state dict: its bit_generator name must match
        # the instance's class, which may be a subclass of Philox
        self._state = self._bg.state
        self._counter = self._state["state"]["counter"]
        self._key = self._state["state"]["key"]

    def fill(self, uid: int, start: int, out: np.ndarray) -> np.ndarray:
        """Write node uid's doubles for trials start.. into out."""
        self._counter[0] = start // 4
        self._key[1] = uid
        self._bg.state = self._state
        return self._gen.random(out=out)


def _decide(counts: np.ndarray, runs: tuple, streams: _Streams,
            uid_base: int, start: int, u: np.ndarray) -> np.ndarray:
    """Apply a decision table, split into its runs (lo, hi, P) of equal
    entries, to one-counts laid out nodes x trials: trial i decides 1
    when its uniform is below table[count].  Deciding costs comparisons
    on the counts rather than a per-element table gather.

    Node j of the level draws from stream uid_base + j, and only when one
    of its trials lands on a fractional entry: streams are per node, so
    skipping a node's draws leaves every other draw where it was.
    """
    top = runs[-1][1]
    hits = []
    for lo, hi, p in runs:
        if p > 0.0:
            hit = counts >= lo if hi == top else (counts >= lo) & (counts <= hi)
            if p < 1.0:
                heads = np.zeros_like(hit)
                for j in np.flatnonzero(hit.any(axis=1)):
                    np.less(streams.fill(uid_base + int(j), start, u), p, out=heads[j])
                hit &= heads
            hits.append(hit)
    return reduce(np.logical_or, hits) if hits else np.zeros(counts.shape, dtype=bool)


def _check_budget(spec: TreeSpec, trials: int, budget: int) -> None:
    """Refuse a run of more than `budget` leaf samples, multiplying the
    leaf count m**height up a level at a time and never past the budget."""
    leaves = 1
    for _ in range(spec.height):
        leaves *= spec.m
        if max(trials, 1) * leaves > budget:
            raise ValueError(
                f"simulation needs {trials} trials x {spec.m}^{spec.height} "
                f"leaves, more leaf samples than the budget of {budget}; "
                f"pass a larger budget to allow it"
            )


def _cores() -> int:
    """Cores this process may run on, which a CPU affinity mask can cut
    below the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _run(config: SimConfig, pairs: tuple) -> SimResult:
    """Simulate the tree: exact sums travel upward for k0 - 1 levels and
    a binary rule decides at every k0-th level, i.e. at every level of a
    single-bit tree (d = 2).  pairs[i] is the reduced tree's error pair
    below deciding level i + 1, which its table is fitted to; the last,
    the root's own pair, fits no table."""
    spec = config.spec
    m = spec.m
    n_leaves = spec.n_leaves

    if config.hypothesis is Hypothesis.H0:
        p_one = config.leaf_pair.alpha.linear
    else:
        p_one = -math.expm1(config.leaf_pair.beta.value)  # 1 - beta, stable

    below = iter(pairs)
    decisions = [None if isinstance(rule, Summation) else _count_runs(rule.table(next(below)))
                 for rule in config.schedule]

    # node uids: leaves first, then each level in order
    level_uid_base = [0]
    width = n_leaves
    for _ in config.schedule:
        level_uid_base.append(level_uid_base[-1] + width)
        width //= m

    # a count never exceeds m**k0, the fan-in of a deciding level
    count_dtype = np.min_scalar_type(m**spec.k0)

    # every shard's fills hold at least _MIN_FILL doubles
    fill = min(config.trials, _SHARD_SAMPLES // n_leaves)
    workers = max(1, min(_cores(), fill // _MIN_FILL))
    chunk = max(1, (_CHUNK_SAMPLES if workers == 1 else _SHARD_SAMPLES) // n_leaves)
    # all shards' buffers together hold one chunk; chunk starts stay block-aligned
    chunk = max(4, (chunk // workers + 3) // 4 * 4)

    stop = threading.Event()  # set when a shard raises

    def ones_in(lo: int, hi: int, streams: _Streams) -> int:
        """Root ones over trials lo..hi - 1, lo a multiple of 4."""
        cs = min(chunk, hi - lo)  # a shorter run is a single chunk
        leaf_bits = np.empty((n_leaves, cs), dtype=bool)
        u = np.empty(cs)
        ones = 0
        start = lo
        while start < hi and not stop.is_set():
            cs = min(chunk, hi - start)
            uc = u[:cs]
            values = leaf_bits[:, :cs]
            for j in range(n_leaves):
                np.less(streams.fill(j, start, uc), p_one, out=values[j])
            width = n_leaves
            for level, decision in enumerate(decisions, start=1):
                nodes = width // m
                if values.dtype == bool:
                    values = values.view(np.uint8)  # bits sum as bytes, no cast
                counts = values.reshape(nodes, m, cs).sum(axis=1, dtype=count_dtype)
                if decision is None:
                    values = counts
                else:
                    values = _decide(counts, decision, streams, level_uid_base[level], start, uc)
                width = nodes
            ones += int(np.count_nonzero(values))
            start += cs
        return ones

    # shard starts are multiples of 4, and _MIN_FILL >= 4 keeps every shard
    # non-empty; each shard's Philox is built here, so shard threads call
    # no public function
    cuts = [config.trials * i // workers // 4 * 4 for i in range(workers)]
    shards = [(lo, hi, _Streams(config.seed))
              for lo, hi in zip(cuts, cuts[1:] + [config.trials])]
    # the calling thread runs shard 0; plain threads, because importing
    # concurrent.futures costs a first sharded call 8 ms and 0.6 MB
    results = [0] * workers
    errors = []

    def run(i: int) -> None:
        try:
            results[i] = ones_in(*shards[i])
        except BaseException as err:  # raised again on the calling thread
            stop.set()
            errors.append(err)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        results[0] = ones_in(*shards[0])
    except BaseException:
        stop.set()  # the other shards end at their next chunk
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    ones = sum(results)

    error_count = ones if config.hypothesis is Hypothesis.H0 else config.trials - ones
    estimate = error_count / config.trials
    ci = 3.0 * math.sqrt(estimate * (1.0 - estimate) / config.trials)
    return SimResult(error_count, config.trials, estimate, ci)


def compare_to_analytic(config: SimConfig, *, budget: int = DEFAULT_BUDGET) -> ComparisonReport:
    """Run the simulation and score it against the closed form, the
    reduced tree's `propagate` trace.

    z is the error-count deviation in units of the binomial standard
    deviation implied by the analytic probability.  When that deviation
    is zero the z-score is 0 for exact agreement and +/-inf otherwise.
    """
    _check_budget(config.spec, config.trials, budget)
    pairs = propagate(config.leaf_pair, config.boundary_rules, Priors.equal()).pairs
    result = _run(config, pairs)
    pair = pairs[-1]
    analytic = (
        pair.alpha.linear
        if config.hypothesis is Hypothesis.H0
        else pair.beta.linear
    )
    sd = math.sqrt(analytic * (1.0 - analytic) / config.trials)
    if sd == 0.0:
        z = 0.0 if result.estimate == analytic else math.copysign(
            math.inf, result.estimate - analytic
        )
    else:
        z = (result.estimate - analytic) / sd
    return ComparisonReport(result, analytic, z, abs(z) > 4.0)
