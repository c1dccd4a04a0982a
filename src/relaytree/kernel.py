"""Single-level fusion rules and their exact error-probability recursions.

Setting: a balanced tree of relay agents testing H0 against H1.  Leaves
measure and send one bit; every interior agent fuses the M bits of its
children into one bit.  Conditioned on the true hypothesis the child
messages are i.i.d. Bernoulli, so one level of fusion maps the error
pair (alpha, beta) = (false-alarm, miss) of the incoming messages to
the pair of the outgoing message.  This module implements those maps
exactly in the log domain:

  * majority vote for odd fan-in,
  * majority vote for even fan-in with a randomized tie-break,
  * majority vote with a deterministic tie direction that alternates
    between levels,
  * the Bayesian likelihood-ratio test with threshold pi0/pi1.

Propagating a schedule of rules up the tree yields the full per-level
trace of error pairs, which `iter_levels` walks one level at a time.
Every deciding rule also gives its table P(output 1 | s ones among m), a
tuple of entries that carries its runs of equal entries and its step's
weighted count windows, found once: per (m, tie) for majority, and per
decided crossing window for the likelihood-ratio test.  One step serves
every rule, taking log(1 - p) once a side and one tail walk a window.
A trace's walk carries each level's logs as floats.  A level whose two
sides are past exp's underflow takes the deep step on them, each
window's lowest term, the one term the tail walk builds there, with no
objects but an ErrorPair for iter_levels' callers; any other level steps
its pair through apply_rule.  A total whose two prior-weighted sides lie
more than 40 nats apart is the larger one, with no log-sum-exp.  The
simulator decides by the same runs.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

from .logdomain import LOG_ZERO, LogProb, log1mexp, log_sum_exp

__all__ = [
    "ErrorPair",
    "Priors",
    "TiePhase",
    "MajorityOdd",
    "MajorityEven",
    "AlternatingMajority",
    "BayesianLRT",
    "FusionRule",
    "LevelTrace",
    "binom_tail",
    "majority_step_odd",
    "lrt_step",
    "apply_rule",
    "majority_rule",
    "Schedule",
    "alternating_phases",
    "total_error",
    "iter_levels",
    "propagate",
]


@dataclass(frozen=True)
class ErrorPair:
    """Type I / type II error probabilities of one message, in log domain.

    alpha = P(send 1 | H0), beta = P(send 0 | H1).
    """

    alpha: LogProb
    beta: LogProb

    @classmethod
    def from_linear(cls, alpha: float, beta: float) -> "ErrorPair":
        return cls(LogProb.from_linear(alpha), LogProb.from_linear(beta))


@dataclass(frozen=True)
class Priors:
    """Prior probabilities (pi0, pi1) of the two hypotheses.

    Must sum to 1 within 1e-12.  Zero mass on one side is accepted so
    degenerate weightings of the total error remain expressible, but
    likelihood-ratio operations require both priors strictly positive.
    """

    pi0: float
    pi1: float

    def __post_init__(self):
        if not (0.0 <= self.pi0 <= 1.0 and 0.0 <= self.pi1 <= 1.0):
            raise ValueError(f"priors ({self.pi0}, {self.pi1}) outside [0, 1]")
        if abs(self.pi0 + self.pi1 - 1.0) > 1e-12:
            raise ValueError(f"priors sum to {self.pi0 + self.pi1}, not 1")

    @classmethod
    def equal(cls) -> "Priors":
        return cls(0.5, 0.5)

    def require_positive(self) -> None:
        if self.pi0 <= 0.0 or self.pi1 <= 0.0:
            raise ValueError(
                f"likelihood-ratio threshold needs both priors positive, "
                f"got ({self.pi0}, {self.pi1})"
            )


class TiePhase(enum.Enum):
    """Deterministic tie direction for even fan-in majority."""

    TIES_TO_ONE = "one"
    TIES_TO_ZERO = "zero"


@dataclass(frozen=True)
class MajorityOdd:
    """Strict majority over an odd number of messages."""

    m: int

    def __post_init__(self):
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError(f"odd majority needs odd m >= 3, got {self.m}")

    def table(self, pair: ErrorPair) -> "_CountTable":
        return _majority_table(self.m, 0.0)


@dataclass(frozen=True)
class MajorityEven:
    """Majority over an even number of messages, ties broken by a
    Bernoulli(tie_prob) coin in favor of deciding 1."""

    m: int
    tie_prob: float = 0.5

    def __post_init__(self):
        if self.m < 2 or self.m % 2 == 1:
            raise ValueError(f"even majority needs even m >= 2, got {self.m}")
        if not (0.0 < self.tie_prob < 1.0):
            raise ValueError(f"tie_prob {self.tie_prob} outside (0, 1)")

    def table(self, pair: ErrorPair) -> "_CountTable":
        return _majority_table(self.m, self.tie_prob)


@dataclass(frozen=True)
class AlternatingMajority:
    """Majority over an even number of messages with a deterministic tie
    direction; schedules flip the direction from level to level."""

    m: int
    phase: TiePhase = TiePhase.TIES_TO_ONE

    def __post_init__(self):
        if self.m < 2 or self.m % 2 == 1:
            raise ValueError(f"alternating majority needs even m >= 2, got {self.m}")

    def table(self, pair: ErrorPair) -> "_CountTable":
        return _majority_table(self.m, float(self.phase is TiePhase.TIES_TO_ONE))


@dataclass(frozen=True)
class BayesianLRT:
    """Likelihood-ratio test on the count of ones, threshold pi0/pi1."""

    m: int
    priors: Priors
    _log_priors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"fusion needs m >= 2, got {self.m}")
        self.priors.require_positive()
        object.__setattr__(self, "_log_priors", _log_priors(self.priors))

    def table(self, pair: ErrorPair) -> "_CountTable":
        """The test fitted to messages with error pair `pair`.

        Entry s is 1.0 when a node seeing s ones among m messages decides H1:
        (1-beta)^s beta^(m-s) pi1 >= alpha^s (1-alpha)^(m-s) pi0, with ties
        sent to H1, and 0.0 otherwise.  A tie means the two sides agree to
        within 1e-9 relative, so that inputs whose posteriors are equal in
        exact arithmetic land on the same side no matter how the comparison
        is rounded.  A side past double range reads -inf and loses to a
        finite one; a count whose two sides are both past it is refused.
        Degenerate incoming errors are rejected because the likelihood ratio
        is then 0 or infinite.
        """
        return self._decide(pair.alpha.value, pair.beta.value)

    def _decide(self, la: float, lb: float) -> "_CountTable":
        """table at the pair whose logs are (la, lb), which the walk's deep
        levels carry as floats, so they build no pair to get it."""
        m = self.m
        if la == LOG_ZERO or la == 0.0 or lb == LOG_ZERO or lb == 0.0:
            raise ValueError(
                "likelihood-ratio rule undefined for boundary error probabilities"
            )
        l1a, l1b = log1mexp(la), log1mexp(lb)
        lp0, lp1 = self._log_priors
        # h1_side - h0_side is c0 + c1 s, so the table is one threshold (or its
        # complement) and only counts near the crossing x = -c0 / c1 need the
        # comparison.  Every term of a side is <= 0, so |side| peaks at s = 0 or
        # s = m; M (`peak`) is the largest of 1 and those four ends.  The slack
        # is at most 1e-9 M, and the rounding of the sides, of c0 + c1 s and of
        # x is below 1e-13 M (each term carries relative error of order 1e-16),
        # so the comparison can differ from the sign of the exact c0 + c1 s only
        # where |c0 + c1 s| <= 2e-9 M, i.e. within w = 2e-9 M / |c1| of x.
        # The comparison runs on [x - w, x + w] widened by one count each way,
        # clipped to [0, m]; every count below or above that range takes the
        # entry at its near end.  A zero slope, or an overflow in M, c0, c1 or
        # the edges, leaves every count to the comparison.
        peak = max(1.0, abs(m * lb + lp1), abs(m * l1a + lp0),
                   abs(m * l1b + lp1), abs(m * la + lp0))
        c0 = m * (lb - l1a) + (lp1 - lp0)
        c1 = (l1b - lb) + (l1a - la)
        lo, hi = 0, m
        if 0.0 < abs(c1) < math.inf:
            x, w = -c0 / c1, 2e-9 * peak / abs(c1)
            if math.isfinite(x - w) and math.isfinite(x + w):
                lo = min(max(math.floor(x - w) - 1, 0), m)
                hi = max(min(math.ceil(x + w) + 1, m), lo)
        decided = []
        for s in range(lo, hi + 1):
            h1_side = s * l1b + (m - s) * lb + lp1
            h0_side = s * la + (m - s) * l1a + lp0
            slack = 1e-9 * max(1.0, abs(h1_side), abs(h0_side))
            if slack < math.inf:
                decided.append(1.0 if h1_side >= h0_side - slack else 0.0)
            elif h1_side == h0_side:
                raise ValueError(
                    f"likelihood-ratio rule at m={m}: both sides of count {s} "
                    f"leave double range"
                )
            else:  # one side overflowed to -inf: the finite side wins
                decided.append(1.0 if h1_side > h0_side else 0.0)
        return _lrt_table(m, lo, tuple(decided))


@functools.lru_cache(maxsize=16)
def _lrt_table(m: int, lo: int, decided: tuple) -> "_CountTable":
    """BayesianLRT's table over 0..m from the entries `decided` at counts
    lo, lo + 1, ...: built once per window, which few levels change."""
    return _CountTable((decided[0],) * lo + decided + (decided[-1],) * (m + 1 - lo - len(decided)))


FusionRule = Union[MajorityOdd, MajorityEven, AlternatingMajority, BayesianLRT]


class _CountTable(tuple):
    """A count table, entry s = P(output 1 | s ones among m) for s = 0..m,
    that carries its maximal runs (lo, hi, p) of equal entries p and its
    step's plan, the `windows` (log weight, lo, hi) of each side.  It equals
    and hashes as the tuple of its entries, and finds its runs from them."""

    def __new__(cls, entries):
        table = super().__new__(cls, entries)
        m = len(table) - 1
        table.runs = runs = _runs(table)
        table.windows = (
            tuple((math.log(p), lo, hi) for lo, hi, p in runs if p > 0.0),
            tuple((math.log(1.0 - p), m - hi, m - lo) for lo, hi, p in runs if p < 1.0),
        )
        return table


def _runs(entries) -> tuple:
    """The maximal runs (lo, hi, p) of equal entries p of a table."""
    runs, start = [], 0
    for i in range(1, len(entries)):
        if entries[i] != entries[i - 1]:
            runs.append((start, i - 1, entries[i - 1]))
            start = i
    runs.append((start, len(entries) - 1, entries[-1]))
    return tuple(runs)


@functools.lru_cache(maxsize=64)
def _majority_table(m: int, tie: float) -> _CountTable:
    """P(output 1 | s ones), s = 0..m, for majority with tie entry `tie`
    (the tie at s = m/2 exists for even m only)."""
    return _CountTable(1.0 if 2 * s > m else tie if 2 * s == m else 0.0 for s in range(m + 1))


@functools.lru_cache(maxsize=64)
def _log_comb_row(m: int) -> tuple:
    """log C(m, s) for s = 0..m, exactly 0.0 at both ends: the part of
    every binomial tail that does not depend on p, built once per fan-in."""
    row = []
    comb = 1
    for s in range(m + 1):
        row.append(math.log(comb))
        comb = comb * (m - s) // (s + 1)
    return tuple(row)


# Tail terms more than this many nats below the largest are counted, not
# built, and a total's side this far below the other adds nothing; expm1
# of a gap is exactly -1.0 already from 37.43 nats down.
_CUT = 40.0


def binom_tail(m: int, s_lo: int, s_hi: int, p: LogProb) -> LogProb:
    """log of sum_{s=s_lo}^{s_hi} C(m, s) p^s (1-p)^(m-s).

    Exact binomial coefficients; the sum runs through a compensated
    log-sum-exp, so tails deep below double underflow stay meaningful.
    Only the terms within 40 nats of the largest are built; log_sum_exp
    takes the others as one exact count (its `far`), which gives the bits
    of the sum over every term.  The proof is at the walk, _tail.
    """
    if not 0 <= s_lo <= s_hi <= m:
        raise ValueError(f"count window [{s_lo}, {s_hi}] invalid for m={m}")
    log_p = p.value
    log_q = log1mexp(log_p)
    if log_p == LOG_ZERO or log_q == LOG_ZERO:
        # point mass: Binom(m, 0) sits at s = 0 and Binom(m, 1) at s = m
        at = 0 if log_p == LOG_ZERO else m
        return LogProb(0.0 if s_lo <= at <= s_hi else LOG_ZERO)
    return LogProb(_tail(m, s_lo, s_hi, log_p, log_q, _log_comb_row(m)))


def _tail(m: int, s_lo: int, s_hi: int, log_p: float, log_q: float, row: tuple) -> float:
    """binom_tail's value at 0 < p < 1 from log p, log q = log(1 - p) and
    row = _log_comb_row(m), which a caller walking several windows takes once."""
    # The term t(s) is f(s) = ln C(m, s) + s ln p + (m - s) ln q as rounded;
    # f is concave, its steps ln((m - s)/(s + 1)) + ln p - ln q falling in s,
    # so on the window it rises to one maximum and falls away from it.  The
    # walk starts at the mode floor((m + 1) p) clipped to the window, goes
    # right and then left, and a side stops at its first term below `cut`,
    # the largest term seen so far less 40.  The terms past a stop are
    # counted, and the sum keeps its bits if each has t(s) - max < -37.43,
    # where expm1 is exactly -1.0.  Rounding the row entry, the two
    # products and the two sums moves t(s) from f(s) by at most
    # e = 3 eps m (1 + L), with eps = 2^-52 and L = max(|ln p|, |ln q|).
    # (A term that overflows to -inf after a finite one is counted.  If the
    # first is -inf, as at a deep p whose lo ln p overflows, the cut stays
    # -inf, and as -inf < -inf is False every term of the window is built,
    # all -inf, for log_sum_exp to give LOG_ZERO: the value, in O(window).)
    #  * m (1 + L) <= 1e14, so e < 0.07.  A side cannot stop at a term s
    #    short of f's maximum (seen from the start): f(s) is then at least
    #    f at every term seen, on either side, so t(s) lies within 2e of
    #    the largest of them, above `cut`.  Past the stop s*, f falls, so
    #    t(s) <= f(s*) + e <= t(s*) + 2e: under the maximum by more than
    #    40 - 2e - eps |max| > 39.8.
    #  * m (1 + L) > 1e14.  The row cannot be held in memory for m >= 1e9,
    #    so L > 99999.  One of ln p, ln q is within ln 2 of 0, so every step
    #    of f has the sign of ln p - ln q and a size over L - ln 2m > 0.99 L,
    #    while 2e < 1.4e-6 (1 + L).  The rounded terms therefore rise or
    #    fall strictly, by more than 0.98 L > 40 a step: a rising side never
    #    stops, and a falling side stops at its first step down, every
    #    later term lower still.
    start = int((m + 1) * math.exp(log_p))
    start = s_lo if start < s_lo else s_hi if start > s_hi else start
    near, cut = [], LOG_ZERO
    # two plain loops: one loop over the two sides' ranges adds about a
    # fifth to the time of a deep tail, which builds only two terms
    s = start
    while s <= s_hi:
        t = row[s] + s * log_p + (m - s) * log_q
        if t < cut:
            break
        near.append(t)
        if t - _CUT > cut:
            cut = t - _CUT
        s += 1
    s = start - 1
    while s >= s_lo:
        t = row[s] + s * log_p + (m - s) * log_q
        if t < cut:
            break
        near.append(t)
        if t - _CUT > cut:
            cut = t - _CUT
        s -= 1
    # log_sum_exp([t], far) returns t, or t + 0.0 when far > 0, and t is never
    # -0.0 (row[s] >= +0.0 comes first in its sum); LogProb reads residue > 0
    t = near[0] if len(near) == 1 else log_sum_exp(near, far=s_hi - s_lo + 1 - len(near))
    return t if t <= 0.0 else LogProb(t).value


def _table_step(pair: ErrorPair, table: _CountTable) -> ErrorPair:
    """One level of fusion by a count rule, table[s] = P(output 1 | s ones).

    A run [lo, hi] of equal entries p adds p * P(lo <= Binom(m, alpha) <= hi)
    to the outgoing false alarm and (1-p) * P(m-hi <= Binom(m, beta) <= m-lo)
    to the outgoing miss: under H1, s ones are m - s draws of beta; _side
    sums each side's windows.  A deep pair walks its tails too, to
    _deep_step's bits (the proof is there), but a trace's walk takes
    _deep_step on its deep levels and brings none here.
    """
    if table == (0.0, 0.5, 1.0):  # fair majority at m = 2; see _deep_step
        return pair
    m = len(table) - 1
    alpha, beta = table.windows
    return ErrorPair(_side(m, alpha, pair.alpha), _side(m, beta, pair.beta))


def _deep_step(la: float, lb: float, table: _CountTable) -> list:
    """_table_step's [log alpha', log beta'] at a deep pair (la, lb), both
    finite, exp(max(la, lb)) == 0.0, as _walk steps its deep levels: each
    window takes the lowest term of its tail, the one the tail walk builds."""
    if table == (0.0, 0.5, 1.0):
        # exact fixed point of fair majority at m = 2:
        # alpha^2 + (1/2)*2*alpha*(1-alpha) == alpha, preserved bit for bit
        # rather than re-rounded through logs
        return [la, lb]
    # The walk's value, built without it.  With exp(log p) 0.0, log1mexp is
    # log1p(-0.0) = -0.0 and the walk starts at int((m + 1) * 0.0), clipped
    # to the window's lo.  The next term is lower by at least 745.13 - ln m,
    # over 40 for every m below e^705, so the walk builds the one term
    # row[lo] + lo * log p + (m - lo) * -0.0, in _tail's operand order.  If
    # lo * log p overflows, every term is -inf and the walk's log_sum_exp
    # gives LOG_ZERO, as the term does.  A side sums its windows' weighted
    # terms as _side does; a lone window of weight 0.0 is its term (0.0 + t
    # is t, as t is never -0.0).  Two windows can lie within 37 nats (m = 4,
    # pb = 5e-324), so no max.  A side reads as LogProb would read it.
    m = len(table) - 1
    row = _log_comb_row(m)
    sides = []
    for windows, log_p in zip(table.windows, (la, lb)):
        terms = [w + (row[lo] + lo * log_p + (m - lo) * -0.0) for w, lo, _ in windows]
        t = terms[0] if len(terms) == 1 else log_sum_exp(terms)
        sides.append(t if t <= 0.0 else LogProb(t).value)
    return sides


def _side(m: int, windows: tuple, p: LogProb) -> LogProb:
    """log of the sum of exp(w) * binom_tail(m, lo, hi, p) over the windows
    (w, lo, hi), taking log q and the row once.  A lone window of weight 1,
    as each side of a threshold table is, is its binom_tail (0.0 + t is t,
    as t is never -0.0), called as such: the benchmark traces the chain
    majority_step_odd -> binom_tail -> log_sum_exp."""
    if len(windows) == 1 and windows[0][0] == 0.0:
        return binom_tail(m, windows[0][1], windows[0][2], p)
    log_p, log_q = p.value, log1mexp(p.value)
    if log_p == LOG_ZERO or log_q == LOG_ZERO:  # a point mass
        tails = [binom_tail(m, lo, hi, p).value for _, lo, hi in windows]
    else:
        row = _log_comb_row(m)
        tails = [_tail(m, lo, hi, log_p, log_q, row) for _, lo, hi in windows]
    return LogProb(log_sum_exp([w[0] + t for w, t in zip(windows, tails)]))


@functools.lru_cache(maxsize=64, typed=True)
def _rule(kind, *args) -> "FusionRule":
    """kind(*args), built and checked once for the steps below."""
    return kind(*args)


def majority_step_odd(pair: ErrorPair, m: int) -> ErrorPair:
    """One level of strict-majority fusion, odd fan-in.

    The outgoing false alarm is the upper tail P(Binom(m, alpha) >= (m+1)/2),
    and symmetrically for the miss.
    """
    return _table_step(pair, _rule(MajorityOdd, m).table(pair))


def lrt_step(pair: ErrorPair, priors: Priors, m: int) -> ErrorPair:
    """One level of Bayesian likelihood-ratio fusion.

    Applies the decision table to the two conditional count distributions:
    outgoing alpha sums Binom(m, alpha) over counts deciding H1, outgoing
    beta sums Binom(m, 1-beta) over counts deciding H0.
    """
    return _table_step(pair, _rule(BayesianLRT, m, priors).table(pair))


def apply_rule(pair: ErrorPair, rule: FusionRule) -> ErrorPair:
    """Dispatch one fusion level for any binary-output rule."""
    # Every rule is one _table_step on its table.  The odd-majority and
    # likelihood-ratio wrappers stay only because the benchmark pins them:
    # its tests trace the chain through majority_step_odd, and it reports
    # kernel.lrt_step.self_s.
    if isinstance(rule, MajorityOdd):
        return majority_step_odd(pair, rule.m)
    if isinstance(rule, (MajorityEven, AlternatingMajority)):
        return _table_step(pair, rule.table(pair))
    if isinstance(rule, BayesianLRT):
        return lrt_step(pair, rule.priors, rule.m)
    raise TypeError(f"not a fusion rule: {rule!r}")


def majority_rule(m: int, tie_prob: float = 0.5) -> FusionRule:
    """The parity-appropriate majority rule for fan-in m."""
    if m % 2 == 1:
        return MajorityOdd(m)
    return MajorityEven(m, tie_prob)


# Most (levels + 1) x (m + 1) count terms a recurse trace, or the deciding
# tree of a simulation, may take, and most leaf fills (leaves x chunks)
# a simulation may make.  Its costliest corners on a 2-vCPU Xeon:
# m=149,999 at one level, 4.6-5.1 s and 38 MB peak RSS, and m=2 at
# 99,999 levels, 0.8-1.1 s and 45 MB; simulate at m=149,999, 5.1-6.1 s,
# and 262,144 leaves in one chunk of 16 trials, 1.0-1.5 s.
WORK_LIMIT = 300_000


@dataclass(frozen=True)
class Schedule(Sequence):
    """The rules of levels 1..levels of a fan-in m trace: majority with tie
    coin pb (fair when None), ties alternating from `phase` ("one" when
    None), or "lrt" under `priors`; the CLI's --rule, --pb, --phase and
    --pi0, refused in its words.  Level k's rule is picked on demand from
    the family's one or two rules, so no per-level list is built."""

    m: int
    levels: int
    rule: str = "majority"
    pb: Optional[float] = None
    phase: Optional[str] = None
    priors: Priors = Priors.equal()
    _rules: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, pb, phase = self.m, self.pb, self.phase
        if self.levels < 0:
            raise ValueError(f"a schedule needs levels >= 0, got {self.levels}")
        if self.rule == "majority":
            if phase is not None:
                raise ValueError("--phase conflicts with --rule majority; "
                                 "it selects the alternating tie direction")
            if pb is not None:
                if m % 2 == 1:
                    raise ValueError(f"--pb conflicts with odd deciding fan-in {m}; "
                                     "ties need an even fan-in")
                if not 0.0 < pb < 1.0:
                    raise ValueError(f"--pb must be inside (0, 1), got {pb}; "
                                     "for deterministic ties use --rule alternating")
            rules = (majority_rule(m, 0.5 if pb is None else pb),)
        elif self.rule == "alternating":
            if pb is not None:
                raise ValueError("--pb conflicts with --rule alternating; "
                                 "its tie direction is deterministic")
            if m % 2 == 1:
                raise ValueError(f"--rule alternating conflicts with odd deciding fan-in {m}")
            first = TiePhase(phase or "one")
            rules = tuple(AlternatingMajority(m, ph)
                          for ph in sorted(TiePhase, key=lambda ph: ph is not first))
        elif self.rule == "lrt":
            if pb is not None:
                raise ValueError("--pb conflicts with --rule lrt; the test has no ties")
            if phase is not None:
                raise ValueError("--phase conflicts with --rule lrt")
            if not 0.0 < self.priors.pi0 < 1.0:
                raise ValueError(f"--rule lrt needs 0 < --pi0 < 1, got {self.priors.pi0}")
            rules = (BayesianLRT(m, self.priors),)
        else:
            raise ValueError(f"rule must be majority, alternating or lrt, got {self.rule!r}")
        object.__setattr__(self, "_rules", rules)

    def __len__(self) -> int:
        return self.levels

    def __getitem__(self, k: int) -> FusionRule:
        if not -self.levels <= k < self.levels:
            raise IndexError(f"level index {k} outside a schedule of {self.levels} levels")
        return self._rules[k % self.levels % len(self._rules)]

    def __iter__(self):
        return itertools.islice(itertools.cycle(self._rules), self.levels)


def alternating_phases(height: int, first: TiePhase = TiePhase.TIES_TO_ONE) -> list:
    """Tie directions for levels 1..height, flipping at every level."""
    return [rule.phase for rule in Schedule(2, height, "alternating", phase=first.value)]


def total_error(pair: ErrorPair, priors: Priors) -> LogProb:
    """Prior-weighted total error pi0*alpha + pi1*beta, in log domain."""
    return LogProb(_log_total(pair.alpha.value, pair.beta.value, *_log_priors(priors)))


def _log_priors(priors: Priors) -> tuple:
    """(log pi0, log pi1), None for a zero prior, whose side drops out of
    the total; a walk takes them once per trace."""
    return tuple(math.log(pi) if pi > 0.0 else None for pi in (priors.pi0, priors.pi1))


def _log_total(la: float, lb: float, log_pi0, log_pi1) -> float:
    """total_error's log from the logs of alpha, beta and the priors, the
    last two as _log_priors gives them."""
    if log_pi0 is None:
        t = log_pi1 + lb
    elif log_pi1 is None:
        t = log_pi0 + la
    else:
        a, b = log_pi0 + la, log_pi1 + lb
        # Two terms more than 40 nats apart: log_sum_exp([a, b]) takes the
        # larger, say a, as its max, and expm1(b - a) is exactly -1.0 below
        # -37.43 (also at b = -inf), so its sum is 0.0 + -1.0 and it returns
        # a + log1p(-1.0 + 1) = a + 0.0.  So does this, with no expm1 or log1p.
        t = a + 0.0 if a - b > _CUT else b + 0.0 if b - a > _CUT else log_sum_exp([a, b])
    return t if t <= 0.0 else LogProb(t).value


@dataclass(frozen=True)
class LevelTrace:
    """Per-level error evolution of one schedule of fusion rules.

    pairs[k] is the error pair after k levels (pairs[0] is the leaf
    pair), and totals[k] is the prior-weighted total error at level k.
    """

    pairs: tuple
    totals: tuple


def _walk(pair0: ErrorPair, schedule: Sequence[FusionRule], priors: Priors):
    """iter_levels on floats: (pair, la, lb, lt) at levels 0, 1, ..., the
    logs of alpha, beta and the total, and the level's ErrorPair, None at a
    deep level.  A deep incoming pair takes _deep_step on the rule's table
    with no objects; any other takes apply_rule on the pair, which a run of
    such levels hands on from one to the next."""
    log_pi0, log_pi1 = _log_priors(priors)
    pair = pair0
    la, lb = pair.alpha.value, pair.beta.value
    yield pair, la, lb, _log_total(la, lb, log_pi0, log_pi1)
    for k, rule in enumerate(schedule, start=1):
        try:
            # the deep test; a non-rule is left to apply_rule to refuse, and
            # a majority table does not read its pair
            if math.exp(max(la, lb)) == 0.0 and min(la, lb) > LOG_ZERO and isinstance(
                    rule, (MajorityOdd, MajorityEven, AlternatingMajority, BayesianLRT)):
                table = rule._decide(la, lb) if isinstance(rule, BayesianLRT) else rule.table(None)
                la, lb = _deep_step(la, lb, table)
                pair = None
            else:
                pair = apply_rule(ErrorPair(LogProb(la), LogProb(lb)) if pair is None else pair, rule)
                la, lb = pair.alpha.value, pair.beta.value
        except ValueError as err:
            raise ValueError(f"level {k}: {err}") from err
        yield pair, la, lb, _log_total(la, lb, log_pi0, log_pi1)


def iter_levels(pair0: ErrorPair, schedule: Sequence[FusionRule], priors: Priors):
    """The error pair and total of levels 0, 1, ..., len(schedule) of a
    trace up a tree, one rule per level: level k's step runs only when
    level k is taken.  A step's error is raised with its level attached."""
    for pair, la, lb, lt in _walk(pair0, schedule, priors):
        yield ErrorPair(LogProb(la), LogProb(lb)) if pair is None else pair, LogProb(lt)


def propagate(pair0: ErrorPair, schedule: Sequence[FusionRule], priors: Priors) -> LevelTrace:
    """Run the error recursion up a tree, one rule per level.

    Raises the underlying step error with the failing level attached.
    """
    pairs, totals = zip(*iter_levels(pair0, schedule, priors))
    return LevelTrace(pairs, totals)
