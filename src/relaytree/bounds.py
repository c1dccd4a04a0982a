"""Closed-form bounds and asymptotic rates for relay-tree error decay.

The one-level recursions sandwich the next error between powers of the
current one: alpha' / alpha^lambda lies in [1, c] with lambda the
per-level exponent floor((M+1)/2) and c an explicit binomial constant.
Telescoping gives two-sided bounds on log2(1/alpha_k) growing like
lambda^k, total-error bounds in the leaf count N = M^k, the decay
exponents log_M(lambda), and an inversion that sizes a tree for a
target error.  All quantities are in bits, i.e. on the log2(1/p) scale.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .kernel import ErrorPair, Priors, total_error

__all__ = [
    "RateKind",
    "RateReport",
    "SampleSize",
    "BoundInapplicableError",
    "per_level_exponent",
    "ratio_poly",
    "level_bounds",
    "bound_cells",
    "exponent",
    "rate_report",
    "sample_size",
    "exponent_table",
]


class RateKind(enum.Enum):
    """Which decay family a bound or exponent refers to."""

    MAJORITY_RANDOM = "majority"
    ALTERNATING = "alternating"
    UPPER_BOUND = "upper"


class BoundInapplicableError(ValueError):
    """The requested bound is vacuous for these inputs."""


@dataclass(frozen=True)
class RateReport:
    """Decay exponents gamma (error ~ 2^(-Theta(N^gamma))) for one fan-in m.

    At m = M^k0 they are the rates of an (M, d) tree that counts for k0
    levels (`alphabet.rates_from_k0`): the paper's rho is upper_bound,
    varrho is majority_random and sigma is alternating (None at odd m).
    """

    m: int
    majority_random: float
    alternating: Optional[float]
    upper_bound: float


@dataclass(frozen=True)
class SampleSize:
    """Leaf budget certified to reach a target error.

    n_real is the real-valued solution of the bound inequality, k the
    tree height after rounding up to a full tree, n_tree = m^k.
    """

    n_real: float
    k: int
    n_tree: int


def per_level_exponent(m: int) -> int:
    """floor((m+1)/2): the factor by which one majority level raises the
    exponent of the error probability."""
    if m < 2:
        raise ValueError(f"fusion needs m >= 2, got {m}")
    return (m + 1) // 2


def ratio_poly(m: int, k: int, x: float) -> float:
    """sum_{j=0}^{k} C(m, j) x^(k-j) (1-x)^j for 0 < k < m.

    This polynomial is the one-level ratio alpha'/alpha^(k+...) behind
    the sandwich bounds; it decreases strictly from C(m, k) at 0 to 1
    at 1, which is what makes the bounds two-sided.
    """
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"need x in (0, 1), got {x}")
    return math.fsum(
        math.comb(m, j) * x ** (k - j) * (1.0 - x) ** j for j in range(k + 1)
    )


def _bits(p: float, name: str) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {p}")
    return -math.log2(p)


def _scaled(factor: int, bits: float, m: int, k: int) -> float:
    """factor * bits, the exact factor rounded as float() rounds it,
    refused past double range: a bound column never reads inf."""
    try:
        value = factor * bits
    except OverflowError:  # the factor is past 2^1024
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"level {k}: bound factor for m={m} exceeds double range")
    return value


def _log2_c(m: int) -> float:
    """log2 of the one-level sandwich constant c = C(m, floor((m+1)/2))."""
    return math.log2(math.comb(m, per_level_exponent(m)))


def level_bounds(alpha0: float, m: int, strategy: RateKind):
    """Two-sided bounds, lower first, on log2(1/alpha_k) at levels
    k = 0, 1, 2, ...: alpha_k lies in

    factor * (log2(1/alpha0) - log2(c))  <=  log2(1/alpha_k)  <=  factor * log2(1/alpha0)

    with factor the accumulated per-level exponent and c the sandwich
    constant C(m, floor((m+1)/2)), or () at a level where the strategy
    gives none.  The randomized-tie majority bound holds at every level.
    The alternating bound holds at even levels only (odd levels yield ()),
    and at m = 2 only when the first level ties to zero: with ties to one
    first, alpha from 0.1 has 7.636 bits at level 4, below the 9.288-bit
    lower bound there.  A level's refusal is raised when it is reached.
    """
    bits0 = _bits(alpha0, "alpha0")
    return _by_level((bits0 - _log2_c(m), bits0), m, strategy)


def _total_terms(alpha0: float, beta0: float, priors: Priors, m: int) -> tuple:
    """The leaf bits that the total-error bounds scale by the factor:
    (lower, upper)."""
    bits_a = _bits(alpha0, "alpha0")
    bits_b = _bits(beta0, "beta0")
    worse = min(bits_a, bits_b)  # bits of max(alpha0, beta0)
    return worse - _log2_c(m), priors.pi0 * bits_a + priors.pi1 * bits_b


def _lrt_term(total0: float, priors: Priors, m: int) -> float:
    """The leaf bits that the likelihood-ratio lower bound scales by the factor."""
    priors.require_positive()
    bits0 = _bits(total0, "total0")
    lam = per_level_exponent(m)
    lo, hi = sorted((priors.pi0, priors.pi1))
    try:
        penalty = 2.0 * math.comb(m, lam) * hi / lo**lam
    except (OverflowError, ZeroDivisionError):
        penalty = math.inf
    if penalty == math.inf:  # the quotient overflows to inf without raising
        raise ValueError(
            f"likelihood-ratio penalty for m={m}, min prior {lo} is outside double range"
        )
    return bits0 - math.log2(penalty)


def bound_cells(schedule, alpha0: float, beta0: float):
    """The bound cells, lower first, on log2(1/P_k), the total error at
    levels k = 0, 1, 2, ... of a trace by a kernel.Schedule from leaf pair
    (alpha0, beta0): the root of a height-k tree with N = m^k leaves.

    Random-tie majority and alternating give (lower, upper): the lower
    cell is the level bound of the worse leaf, factor * (log2(1/max(alpha0,
    beta0)) - log2(c)), and the upper cell mixes the two sides' level
    bounds by the priors, factor * (pi0 log2(1/alpha0) + pi1 log2(1/beta0)),
    with factor and c as in level_bounds (alternating at even levels only).
    Likelihood-ratio fusion gives (lower,): the guarantee
    N^(log_M lambda) * (log2(1/L0) - log2(penalty)), with penalty =
    2 C(m, lambda) max(pi) / min(pi)^lambda and L0 the total error of a
    leaf; it may be negative (vacuous) for weak leaves.  () is yielded
    where no theorem applies: a biased coin, and alternating at m = 2,
    where whichever tie direction comes first, alpha or beta escapes the
    even-level constant.  The leaf terms are taken at this call; a level's
    refusal is raised when it is reached."""
    m, priors, rule = schedule.m, schedule.priors, schedule.rule
    if rule == "lrt":
        total0 = total_error(ErrorPair.from_linear(alpha0, beta0), priors).linear
        return _by_level((_lrt_term(total0, priors, m),), m, RateKind.MAJORITY_RANDOM)
    if schedule.pb not in (None, 0.5) or (rule == "alternating" and m == 2):
        return itertools.repeat(())
    strategy = RateKind.ALTERNATING if rule == "alternating" else RateKind.MAJORITY_RANDOM
    return _by_level(_total_terms(alpha0, beta0, priors, m), m, strategy)


def _by_level(terms: tuple, m: int, strategy: RateKind):
    """The bounds at levels 0, 1, 2, ...: each leaf term (from
    `level_bounds`, `_total_terms` or `_lrt_term`) times the factor, the
    product of the per-level exponents, or () at a level where the
    strategy has no bound.  The exact factor is carried up, one
    multiplication per bounded level, and a level whose factor or bound
    leaves double range is refused when it is reached."""
    lam = per_level_exponent(m)
    if strategy is RateKind.MAJORITY_RANDOM:
        base, period = lam, 1
    elif strategy is RateKind.ALTERNATING:
        if m % 2 == 1:
            raise ValueError(f"alternating strategy needs even m, got {m}")
        # tie-to-one levels contribute m/2, tie-to-zero levels m/2 + 1,
        # so each pair of levels multiplies the factor by lam (lam + 1)
        base, period = lam * (lam + 1), 2
    else:
        raise ValueError(f"no level bounds for strategy {strategy}")
    factor = 1
    for k in itertools.count():
        if k % period:
            yield ()
            continue
        yield tuple([_scaled(factor, bits, m, k) for bits in terms])
        factor *= base


def exponent(m: int, which: RateKind) -> float:
    """Decay exponent gamma in error ~ 2^(-Theta(N^gamma)) for fan-in m.

    majority with randomized ties: log_M floor((M+1)/2)
    alternating ties (even M):     log_M (sqrt(M(M+2)) / 2)
    universal upper bound:         log_M ((M+1)/2)

    Every int m >= 2 has its exponents, also past double range.
    """
    if m < 2:
        raise ValueError(f"fusion needs m >= 2, got {m}")
    log_m = math.log(m)
    if which is RateKind.MAJORITY_RANDOM:
        return math.log(per_level_exponent(m)) / log_m
    if which is RateKind.UPPER_BOUND:
        try:
            return math.log((m + 1) / 2.0) / log_m
        except OverflowError:  # m + 1 is past double range; math.log takes the int
            return (math.log(m + 1) - math.log(2.0)) / log_m
    if which is RateKind.ALTERNATING:
        if m % 2 == 1:
            raise ValueError(f"alternating strategy needs even m, got {m}")
        return (0.5 * (math.log(m) + math.log(m + 2)) - math.log(2.0)) / log_m
    raise ValueError(f"unknown rate kind {which}")


def rate_report(m: int) -> RateReport:
    """The three decay exponents of fan-in m, as one row."""
    return RateReport(
        m=m,
        majority_random=exponent(m, RateKind.MAJORITY_RANDOM),
        alternating=exponent(m, RateKind.ALTERNATING) if m % 2 == 0 else None,
        upper_bound=exponent(m, RateKind.UPPER_BOUND),
    )


def exponent_table(m_values: Iterable[int]) -> list:
    """RateReport rows for a range of fan-ins (each within [2, 64])."""
    rows = []
    for m in m_values:
        if not 2 <= m <= 64:
            raise ValueError(f"fan-in {m} outside [2, 64]")
        rows.append(rate_report(m))
    return rows


def sample_size(m: int, alpha0: float, beta0: float, epsilon: float) -> SampleSize:
    """Smallest certified leaf budget for root error <= epsilon under
    randomized-tie majority fusion.

    Inverts the total-error lower bound.  If the leaves already meet the
    target (max error <= epsilon) a single leaf suffices.  If the bound
    cannot certify any decay for these leaves, raises
    BoundInapplicableError rather than returning a vacuous answer.
    """
    lam = per_level_exponent(m)
    bits_a = _bits(alpha0, "alpha0")
    bits_b = _bits(beta0, "beta0")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max(alpha0, beta0) <= epsilon:
        return SampleSize(n_real=1.0, k=0, n_tree=1)
    # C(m, lam) is the largest of m + 1 terms summing to 2^m, so
    # log2 c >= m - log2(m + 1): refuse in O(1) what would fail below;
    # an m past double range has its floor past every leaf's bits
    try:
        vacuous = m - math.log2(m + 1) >= min(bits_a, bits_b)
    except OverflowError:
        vacuous = True
    if vacuous:
        raise BoundInapplicableError(
            f"bound inapplicable: leaf errors ({alpha0}, {beta0}) give "
            f"log2(1/max) = {min(bits_a, bits_b):.6g} <= m - log2(m + 1) "
            f"<= log2(c) for m={m}"
        )
    log2_c = _log2_c(m)
    headroom = min(bits_a, bits_b) - log2_c
    if headroom <= 0.0:
        raise BoundInapplicableError(
            f"bound inapplicable: leaf errors ({alpha0}, {beta0}) give "
            f"log2(1/max) = {min(bits_a, bits_b):.6g} <= log2(c) = {log2_c:.6g} "
            f"for m={m}"
        )
    if lam == 1:
        raise BoundInapplicableError(
            "bound inapplicable: m=2 majority certifies no decay "
            "(per-level exponent 1)"
        )
    n_real = (math.log2(1.0 / epsilon) / headroom) ** (math.log(m) / math.log(lam))
    if math.isinf(n_real):  # no tree size ends the loop below
        raise ValueError(f"epsilon {epsilon} is too small: 1/epsilon overflows a double")
    k = 0
    power = 1
    while power < n_real:
        power *= m
        k += 1
    return SampleSize(n_real=n_real, k=k, n_tree=power)
