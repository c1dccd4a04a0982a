"""Monte Carlo corroboration of the analytic recursions.

Simulates the actual message-passing tree: leaves draw Bernoulli bits
under the chosen hypothesis, interior nodes apply their fusion rule,
and the root's mistakes are counted.

Randomness is counter-based: node j (leaves first, then each level in
turn) has the Philox stream keyed by (seed, j), and trial i reads double
i of it.  Results are therefore bit-for-bit reproducible however trials
are chunked, and a tie-break at one node never perturbs another node's
draws, so a node that has no tie in a chunk draws no coins at all.  One
Philox serves every stream of a run: moving to another node or chunk
only re-keys it and sets its counter.

Trials run in chunks, laid out node-major: a level is a nodes x trials
array, so each leaf fills one contiguous row of bits, and a level's
counts sum m adjacent rows.  Counts use the narrowest unsigned type that
holds m^k0, the largest count any level can carry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .alphabet import TreeSpec
from .kernel import (
    AlternatingMajority,
    BayesianLRT,
    ErrorPair,
    FusionRule,
    MajorityEven,
    MajorityOdd,
    Summation,
    TiePhase,
    apply_rule,
    lrt_decision_rule,
)

__all__ = [
    "Hypothesis",
    "SimConfig",
    "SimResult",
    "ComparisonReport",
    "DEFAULT_BUDGET",
    "simulate",
    "simulate_alphabet",
    "reduced_root_pair",
    "compare_to_analytic",
]

DEFAULT_BUDGET = 10**10  # leaf samples per call before refusing


class Hypothesis(enum.Enum):
    H0 = "h0"
    H1 = "h1"


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    The schedule names one rule per level, bottom up.  For d > 2 the
    non-deciding levels must be Summation and every k0-th level carries
    a binary rule over the accumulated count, fan-in m^k0.
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
        if self.spec.d > 2 and self.spec.height % self.spec.k0 != 0:
            raise ValueError(
                f"height {self.spec.height} is not a multiple of "
                f"k0={self.spec.k0}"
            )
        m_eff = self.spec.m**self.spec.k0
        for level, rule in enumerate(self.schedule, start=1):
            if level % self.spec.k0 == 0:
                if isinstance(rule, Summation):
                    raise ValueError(
                        f"level {level} must decide, not sum (k0={self.spec.k0})"
                    )
                if rule.m != m_eff:
                    raise ValueError(
                        f"deciding rule at level {level} needs fan-in "
                        f"{m_eff}, got {rule.m}"
                    )
            elif not isinstance(rule, Summation):
                raise ValueError(
                    f"level {level} must be a Summation for alphabet "
                    f"d={self.spec.d} (k0={self.spec.k0})"
                )

    @property
    def boundary_rules(self) -> tuple:
        """The deciding rules, i.e. the schedule of the reduced binary tree."""
        return tuple(
            rule
            for level, rule in enumerate(self.schedule, start=1)
            if level % self.spec.k0 == 0
        )


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


def _decide(counts: np.ndarray, rule: FusionRule, streams: _Streams,
            uid_base: int, start: int, u: np.ndarray) -> np.ndarray:
    """Apply a binary rule to one-counts laid out nodes x trials.

    Node j of the level draws its tie coins from stream uid_base + j,
    and only when one of its trials is tied: streams are per node, so
    skipping a node's coins leaves every other draw where it was.
    """
    if isinstance(rule, MajorityOdd):
        return counts >= (rule.m + 1) // 2
    if isinstance(rule, MajorityEven):
        half = rule.m // 2
        ties = counts == half
        coins = np.zeros_like(ties)
        for j in np.flatnonzero(ties.any(axis=1)):
            np.less(streams.fill(uid_base + int(j), start, u), rule.tie_prob, out=coins[j])
        return (counts > half) | (ties & coins)
    if isinstance(rule, AlternatingMajority):
        half = rule.m // 2
        return counts >= (half if rule.phase is TiePhase.TIES_TO_ONE else half + 1)
    raise TypeError(f"no count decision for rule {rule!r}")


def _run(config: SimConfig, budget: int, chunk: Optional[int]) -> SimResult:
    spec = config.spec
    m = spec.m
    n_leaves = spec.n_leaves
    required = config.trials * n_leaves
    if required > budget:
        raise ValueError(
            f"simulation needs {required} leaf samples "
            f"({config.trials} trials x {n_leaves} leaves) but the budget "
            f"is {budget}; pass budget={required} or more to allow it"
        )

    if config.hypothesis is Hypothesis.H0:
        p_one = config.leaf_pair.alpha.linear
    else:
        p_one = -math.expm1(config.leaf_pair.beta.value)  # 1 - beta, stable

    if chunk is None:
        chunk = max(1, 4_000_000 // n_leaves)
    chunk = max(4, (chunk + 3) // 4 * 4)  # keep chunk starts block-aligned
    chunk = min(chunk, config.trials)  # a shorter run is a single chunk

    # precompute decision tables for likelihood-ratio levels: the rule at
    # a deciding level sees messages whose error pair is the reduced
    # tree's pair below that level
    tables = {}
    reduced_pair = config.leaf_pair
    for level, rule in enumerate(config.schedule, start=1):
        if isinstance(rule, Summation):
            continue
        if isinstance(rule, BayesianLRT):
            tables[level] = np.array(
                lrt_decision_rule(reduced_pair, rule.priors, rule.m), dtype=bool
            )
        reduced_pair = apply_rule(reduced_pair, rule)

    # node uids: leaves first, then each level in order
    level_uid_base = [0]
    width = n_leaves
    for _ in config.schedule:
        level_uid_base.append(level_uid_base[-1] + width)
        width //= m

    # a count never exceeds m**k0, the fan-in of a deciding level
    count_dtype = np.min_scalar_type(m**spec.k0)
    streams = _Streams(config.seed)
    leaf_bits = np.empty((n_leaves, chunk), dtype=bool)
    u = np.empty(chunk)

    ones = 0
    start = 0
    while start < config.trials:
        cs = min(chunk, config.trials - start)
        uc = u[:cs]
        values = leaf_bits[:, :cs]
        for j in range(n_leaves):
            np.less(streams.fill(j, start, uc), p_one, out=values[j])
        width = n_leaves
        for level, rule in enumerate(config.schedule, start=1):
            nodes = width // m
            if values.dtype == bool:
                values = values.view(np.uint8)  # bits sum as bytes, no cast
            counts = values.reshape(nodes, m, cs).sum(axis=1, dtype=count_dtype)
            if isinstance(rule, Summation):
                values = counts
            elif isinstance(rule, BayesianLRT):
                values = tables[level][counts]
            else:
                values = _decide(counts, rule, streams, level_uid_base[level], start, uc)
            width = nodes
        ones += int(np.count_nonzero(values))
        start += cs

    error_count = ones if config.hypothesis is Hypothesis.H0 else config.trials - ones
    estimate = error_count / config.trials
    ci = 3.0 * math.sqrt(estimate * (1.0 - estimate) / config.trials)
    return SimResult(error_count, config.trials, estimate, ci)


def simulate(config: SimConfig, *, budget: int = DEFAULT_BUDGET,
             chunk: Optional[int] = None) -> SimResult:
    """Simulate a single-bit-message tree (d = 2)."""
    if config.spec.d != 2:
        raise ValueError(
            f"simulate is for binary messages; spec has d={config.spec.d}, "
            f"use simulate_alphabet"
        )
    return _run(config, budget, chunk)


def simulate_alphabet(config: SimConfig, *, budget: int = DEFAULT_BUDGET,
                      chunk: Optional[int] = None) -> SimResult:
    """Simulate a count-forwarding tree: exact sums travel upward for
    k0 - 1 levels, a binary rule decides at every k0-th level."""
    return _run(config, budget, chunk)


def reduced_root_pair(config: SimConfig) -> ErrorPair:
    """Root error pair predicted by the closed-form recursion over the
    deciding levels (the reduced binary tree)."""
    pair = config.leaf_pair
    for rule in config.boundary_rules:
        pair = apply_rule(pair, rule)
    return pair


def compare_to_analytic(config: SimConfig, *, budget: int = DEFAULT_BUDGET,
                        chunk: Optional[int] = None) -> ComparisonReport:
    """Run the simulation and score it against the closed form.

    z is the error-count deviation in units of the binomial standard
    deviation implied by the analytic probability.  When that deviation
    is zero the z-score is 0 for exact agreement and +/-inf otherwise.
    """
    result = _run(config, budget, chunk)
    pair = reduced_root_pair(config)
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
