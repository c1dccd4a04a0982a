"""Trees that forward counts instead of single bits.

With an alphabet of D symbols a node can pass the exact number of
affirmative leaves below it for k0 - 1 levels, where k0 is the largest
depth whose counts still fit (M^(k0-1) + 1 <= D).  Deciding only every
k0-th level makes an (M, D) tree behave exactly like an (M^k0, 2) tree
on a fraction of the height, which buys a strictly better decay
exponent per leaf at a bounded cost in bits per message.
`equivalent_tree` names that reduced tree, and `simulate.SimConfig`
takes its deciding rules, one per k0-th level.  The rates are
`bounds.rate_report` at fan-in M^k0, one row of the binary exponents;
only the message cost is this module's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .bounds import RateReport, rate_report
from .kernel import FusionRule

__all__ = [
    "TreeSpec",
    "k0_of",
    "equivalent_tree",
    "rates_from_k0",
    "avg_bits",
    "bits_bounds",
    "alphabet_schedule",
]


def k0_of(m: int, d: int) -> int:
    """Levels of exact counting an alphabet of d symbols supports.

    The unique k0 with m^(k0-1) + 1 <= d < m^k0 + 1, found by integer
    powers only; float logs misplace the boundary cases.
    """
    if m < 2:
        raise ValueError(f"fan-in must be >= 2, got {m}")
    if d < 2:
        raise ValueError(f"alphabet size must be >= 2, got {d}")
    k0 = 1
    power = m
    while power <= d - 1:
        power *= m
        k0 += 1
    # loop exits with m^k0 > d - 1 >= m^(k0-1)
    return k0


@dataclass(frozen=True)
class TreeSpec:
    """Shape of a balanced relay tree: fan-in m, height, alphabet size d."""

    m: int
    height: int
    d: int = 2
    k0: int = field(init=False)

    def __post_init__(self):
        if self.height < 1:
            raise ValueError(f"height must be >= 1, got {self.height}")
        object.__setattr__(self, "k0", k0_of(self.m, self.d))

    @property
    def n_leaves(self) -> int:
        return self.m**self.height


def equivalent_tree(spec: TreeSpec) -> TreeSpec:
    """The binary-message tree with identical root error behavior.

    Summing counts for k0 - 1 levels and deciding at level k0 collapses
    k0 levels into one fusion over m^k0 bits, so the (m, d) tree of
    height h equals an (m^k0, 2) tree of height h / k0.
    """
    if spec.height % spec.k0 != 0:
        raise ValueError(
            f"height {spec.height} is not a multiple of k0={spec.k0} "
            f"(remainder {spec.height % spec.k0}); no equivalent binary tree"
        )
    return TreeSpec(m=spec.m**spec.k0, height=spec.height // spec.k0, d=2)


def rates_from_k0(m: int, k0: int) -> RateReport:
    """The decay exponents of an (m, d) tree that counts for k0 levels:
    those of its (m^k0, 2) equivalent tree, so the report's m is m^k0.
    The paper's rho, varrho and sigma are its upper_bound, majority_random
    and alternating (None at odd m)."""
    if m < 2:
        raise ValueError(f"fan-in must be >= 2, got {m}")
    if k0 < 1:
        raise ValueError(f"k0 must be >= 1, got {k0}")
    return rate_report(m**k0)


def avg_bits(m: int, k0: int) -> float:
    """Mean message length, in bits, over one k0-level counting block.

    Messages at t levels above a deciding level carry counts up to m^t,
    hence log2(m^t + 1) bits; the average weights each level by its
    node count m^(k0 - t) within the block of m^k0 + ... + m nodes.
    """
    if m < 2:
        raise ValueError(f"fan-in must be >= 2, got {m}")
    if k0 < 1:
        raise ValueError(f"k0 must be >= 1, got {k0}")
    try:
        if k0 > math.ceil(1024 / math.log2(m)) + 1:  # m^(k0-1) > 2^1024, left unbuilt
            raise OverflowError
        numer = math.fsum(m ** (k0 - t) * math.log2(m**t + 1) for t in range(k0))
        denom = float(sum(m ** (t + 1) for t in range(k0)))
    except OverflowError:
        raise ValueError(f"avg_bits for m={m}, k0={k0}: m^k0 exceeds double range") from None
    return numer / denom


def bits_bounds(m: int) -> tuple:
    """Large-k0 band for avg_bits: 1 + log2(m)/(m-1) - 1/m <= avg <= 1 + log2(m)/(m-1)."""
    if m < 2:
        raise ValueError(f"fan-in must be >= 2, got {m}")
    try:
        spread = math.log2(m) / (m - 1)
        return (1.0 + spread - 1.0 / m, 1.0 + spread)
    except OverflowError:
        raise ValueError(f"bits_bounds for m={m}: m exceeds double range") from None


def alphabet_schedule(spec: TreeSpec, rules: Sequence[FusionRule]) -> list:
    """The deciding rules as `simulate.SimConfig` takes them, unchanged.

    Only `bench/workloads.py` and `tests/test_acceptance.py` still call
    this; it goes when the former next changes (ROADMAP item 1)."""
    return list(rules)
