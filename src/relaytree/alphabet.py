"""Trees that forward counts instead of single bits.

With an alphabet of D symbols a node can pass the exact number of
affirmative leaves below it for k0 - 1 levels, where k0 is the largest
depth whose counts still fit (M^(k0-1) + 1 <= D).  Deciding only every
k0-th level makes an (M, D) tree behave exactly like an (M^k0, 2) tree
on a fraction of the height, which buys a strictly better decay
exponent per leaf at a bounded cost in bits per message.
`equivalent_tree` names that reduced tree, and `simulate.SimConfig`
takes its deciding rules, one per k0-th level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .kernel import FusionRule

__all__ = [
    "TreeSpec",
    "AlphabetRates",
    "k0_of",
    "equivalent_tree",
    "rates",
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


@dataclass(frozen=True)
class AlphabetRates:
    """Decay exponents in the leaf count for an (m, d) tree.

    rho: upper-bound exponent; varrho: guaranteed exponent of the
    majority strategy; sigma: guaranteed exponent of the alternating
    strategy, defined for even m only.
    """

    rho: float
    varrho: float
    sigma: Optional[float]


def rates_from_k0(m: int, k0: int) -> AlphabetRates:
    """Exponents as functions of the counting depth k0 directly."""
    if m < 2:
        raise ValueError(f"fan-in must be >= 2, got {m}")
    if k0 < 1:
        raise ValueError(f"k0 must be >= 1, got {k0}")
    m_eff = m**k0
    log_m = math.log(m)
    log_m_eff = math.log(m_eff)
    log2_term = math.log(2.0) / (log_m * k0)
    rho = math.log(m_eff + 1) / log_m_eff - log2_term
    if m % 2 == 1:
        varrho = rho
        sigma = None
    else:
        varrho = 1.0 - log2_term
        sigma = 0.5 * (1.0 + math.log(m_eff + 2) / log_m_eff) - log2_term
    return AlphabetRates(rho=rho, varrho=varrho, sigma=sigma)


def rates(m: int, d: int) -> AlphabetRates:
    """Exponents for an (m, d) tree; d enters only through k0."""
    return rates_from_k0(m, k0_of(m, d))


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
        numer = math.fsum(m ** (k0 - t) * math.log2(m**t + 1) for t in range(k0))
        denom = float(sum(m ** (t + 1) for t in range(k0)))
    except OverflowError:
        raise ValueError(f"avg_bits for m={m}, k0={k0}: m^k0 exceeds double range") from None
    return numer / denom


def bits_bounds(m: int) -> tuple:
    """Large-k0 band for avg_bits: 1 + log2(m)/(m-1) - 1/m <= avg <= 1 + log2(m)/(m-1)."""
    if m < 2:
        raise ValueError(f"fan-in must be >= 2, got {m}")
    spread = math.log2(m) / (m - 1)
    return (1.0 + spread - 1.0 / m, 1.0 + spread)


def alphabet_schedule(spec: TreeSpec, rules: Sequence[FusionRule]) -> list:
    """The deciding rules as `simulate.SimConfig` takes them, unchanged.

    Only `bench/workloads.py` and `tests/test_acceptance.py` still call
    this; it goes when the former next changes (ROADMAP item 1)."""
    return list(rules)
