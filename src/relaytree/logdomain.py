"""Probability arithmetic in the natural-log domain.

Error probabilities in deep relay trees decay doubly exponentially with
height, far below the smallest positive double.  All kernel arithmetic
therefore runs on log-probabilities and only converts to linear scale at
the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogProb", "log1mexp", "log_sum_exp"]

# log of probability zero
LOG_ZERO = float("-inf")

# Slack allowed before a positive log-probability is treated as an error
# rather than accumulated rounding from a sum that should be <= 1.
_POSITIVE_TOL = 1e-9


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, stable near both ends."""
    if x > 0.0:
        raise ValueError(f"log1mexp needs x <= 0, got {x}")
    if x == 0.0:
        return LOG_ZERO
    if x == LOG_ZERO:
        return 0.0
    # standard split at -ln 2 to keep one of expm1/exp well conditioned
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_sum_exp(terms, far: int = 0) -> float:
    """log(sum(exp(t) for t in terms)) without overflow or underflow.

    Compensated: after factoring out the maximum the residual sum runs
    through math.fsum, so results are exactly rounded up to the final
    log1p call.

    `far` counts further terms, not listed, whose expm1(t - max(terms))
    is exactly -1.0 (t - max below -37.43).  Each would add exactly -1.0
    to the fsum, and fsum rounds the exact total once, so the far terms
    enter as the single exact term -far: the result is bit-identical to
    listing them, and `max` is unchanged because they lie below it.
    """
    terms = list(terms)
    n = len(terms) + far
    if n < 2:
        return terms[0] if terms else LOG_ZERO
    m = max(terms)
    if m == LOG_ZERO:
        return LOG_ZERO
    # sum of expm1 keeps full precision for terms close to the max
    if len(terms) == 2 and not far:
        # one addition is already exactly rounded, so it equals the fsum
        rest = math.expm1(terms[0] - m) + math.expm1(terms[1] - m)
    else:
        parts = [math.expm1(t - m) for t in terms]
        parts.append(-far)
        rest = math.fsum(parts)
    return m + math.log1p(rest + (n - 1))


_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LogProb:
    """A probability stored as its natural logarithm.

    value <= 0, with -inf encoding exact zero.  Tiny positive values
    (rounding residue from sums that are mathematically <= 1) are
    clamped to 0.0; anything larger is rejected.
    """

    value: float

    def __post_init__(self):
        v = self.value
        if math.isnan(v):
            raise ValueError("log-probability is NaN")
        if v > 0.0:
            if v > _POSITIVE_TOL:
                raise ValueError(f"log-probability {v} exceeds 0")
            object.__setattr__(self, "value", 0.0)

    @classmethod
    def from_linear(cls, p: float) -> "LogProb":
        if math.isnan(p) or p < 0.0 or p > 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        if p == 0.0:
            return cls(LOG_ZERO)
        return cls(math.log(p))

    @property
    def linear(self) -> float:
        """Probability on the ordinary [0, 1] scale (may underflow to 0.0)."""
        return math.exp(self.value)

    @property
    def log2_inverse(self) -> float:
        """log2(1/p), the standard 'number of bits' scale for error decay:
        inf at p = 0, and 0.0, not -0.0, at p = 1."""
        return -self.value / _LN2 + 0.0
