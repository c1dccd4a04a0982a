"""Numeric verification of the package's mathematical invariants.

Each check returns a list of failure messages (empty means pass), so
the same functions back both the command-line `verify` subcommand and
the test suite.  Checks validate the proved inequalities and identities
numerically on dense grids; they do not re-derive any proofs.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import alphabet as alph
from . import bounds, oracle
from .kernel import (
    AlternatingMajority,
    BayesianLRT,
    ErrorPair,
    MajorityEven,
    MajorityOdd,
    Priors,
    TiePhase,
    alternating_phases,
    apply_rule,
    binom_tail,
    majority_rule,
    propagate,
    total_error,
)
from .logdomain import LOG_ZERO, LogProb
from .simulate import (
    Hypothesis,
    SimConfig,
    compare_to_analytic,
    simulate,
)

GRID = [i / 100.0 for i in range(1, 50)]  # 0.01 .. 0.49
GRID_48 = [i / 100.0 for i in range(1, 49)]  # 0.01 .. 0.48, for (alpha, beta) squares
ODD_FANINS = (3, 5, 7, 9)
EVEN_FANINS = (2, 4, 6, 8, 10)
TOL = 1e-12
_TRIALS = 10**6  # per Monte Carlo run of the sim suite


def _log_close(x: float, y: float, tol: float = TOL) -> bool:
    """Relative closeness of two log-domain values."""
    if x == y:
        return True
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _pairs_close(x: ErrorPair, y: ErrorPair) -> bool:
    return _log_close(x.alpha.value, y.alpha.value) and _log_close(x.beta.value, y.beta.value)


def _pair(a: float, b: float) -> ErrorPair:
    return ErrorPair.from_linear(a, b)


def _alternating(m: int, height: int, first: TiePhase = TiePhase.TIES_TO_ONE) -> list:
    """A schedule of `height` alternating-majority levels starting at `first`."""
    return [AlternatingMajority(m, ph) for ph in alternating_phases(height, first)]


def exact_majority_trace(alpha0: Fraction, m: int, levels: int) -> list:
    """Rational-arithmetic trace of odd-majority fusion, the independent
    route for deep-trace expectations."""
    trace = [alpha0]
    half_up = (m + 1) // 2
    for _ in range(levels):
        a = trace[-1]
        nxt = sum(
            math.comb(m, s) * a**s * (1 - a) ** (m - s)
            for s in range(half_up, m + 1)
        )
        trace.append(nxt)
    return trace


# ---------------------------------------------------------------- kernel

def check_step_examples() -> list:
    fails = []
    leaf = _pair(0.1, 0.1)
    cases = [
        ("odd m=3", apply_rule(leaf, MajorityOdd(3)).alpha_linear, 0.028),
        ("odd m=5", apply_rule(leaf, MajorityOdd(5)).alpha_linear, 0.00856),
        ("odd m=3 x=.05", apply_rule(_pair(0.05, 0.05), MajorityOdd(3)).alpha_linear, 0.00725),
        ("even m=4 pb=.5", apply_rule(leaf, MajorityEven(4, 0.5)).alpha_linear, 0.028),
    ]
    ep0 = apply_rule(leaf, AlternatingMajority(2, TiePhase.TIES_TO_ZERO))
    cases.append(("even m=2 pb=0 alpha", ep0.alpha_linear, 0.01))
    cases.append(("even m=2 pb=0 beta", ep0.beta_linear, 0.19))
    alt = apply_rule(leaf, AlternatingMajority(4, TiePhase.TIES_TO_ONE))
    cases.append(("alt m=4 ties-one alpha", alt.alpha_linear, 0.0523))
    cases.append(("alt m=4 ties-one beta", alt.beta_linear, 0.0037))
    two = propagate(leaf, _alternating(2, 2), Priors.equal()).root
    cases.append(("alt m=2 two levels alpha", two.alpha_linear, 0.0361))
    cases.append(("alt m=2 two levels beta", two.beta_linear, 0.0199))
    for name, got, want in cases:
        if not math.isclose(got, want, rel_tol=1e-9):
            fails.append(f"{name}: got {got!r}, expected {want!r}")
    full = binom_tail(4, 0, 4, LogProb.from_linear(0.1))
    if abs(full.value) > 1e-12:
        fails.append(f"binom_tail full window: log={full.value}, expected 0")
    return fails


def check_lrt_examples() -> list:
    fails = []
    pair = _pair(0.01, 0.3)
    lrt = BayesianLRT(3, Priors.equal())
    table = lrt.table(pair)
    if table != (0.0, 1.0, 1.0, 1.0):
        fails.append(f"lrt table for (0.01, 0.3): {table}")
    step = apply_rule(pair, lrt)
    if not math.isclose(step.alpha_linear, 0.029701, rel_tol=1e-9):
        fails.append(f"lrt alpha: {step.alpha_linear}")
    if not math.isclose(step.beta_linear, 0.027, rel_tol=1e-9):
        fails.append(f"lrt beta: {step.beta_linear}")
    # uninformative messages with a skewed prior: always decide H0
    coin = apply_rule(_pair(0.5, 0.5), BayesianLRT(2, Priors(0.9, 0.1)))
    if coin.alpha.value != LOG_ZERO or coin.beta.value != 0.0:
        fails.append(f"coin leaf lrt: ({coin.alpha_linear}, {coin.beta_linear})")
    return fails


def _ratio_fails(rule, lam: int, log_lo: float, log_hi: float) -> list:
    """Grid points where one step of `rule` puts log(alpha' / alpha^lam)
    outside [log_lo, log_hi], with 1e-9 slack."""
    fails = []
    for x in GRID:
        pair = _pair(x, x)
        ratio = apply_rule(pair, rule).alpha.value - lam * pair.alpha.value
        if ratio < log_lo - 1e-9 or ratio > log_hi + 1e-9:
            fails.append(f"{rule!r}, alpha={x}: log-ratio {ratio}")
    return fails


def check_odd_majority_sandwich() -> list:
    """1 <= alpha' / alpha^((m+1)/2) <= C(m, (m-1)/2) on the grid."""
    return [msg for m in ODD_FANINS for msg in _ratio_fails(
        MajorityOdd(m), (m + 1) // 2, 0.0, math.log(math.comb(m, (m - 1) // 2)))]


def check_even_majority_sandwich() -> list:
    """1 <= alpha' / alpha^(m/2) <= C(m, m/2)/2 for the fair tie coin."""
    return [msg for m in EVEN_FANINS for msg in _ratio_fails(
        MajorityEven(m, 0.5), m // 2, 0.0, math.log(math.comb(m, m // 2) / 2.0))]


def check_tie_weight_sandwich() -> list:
    """P_b <= alpha' / alpha^(m/2) <= 2^m for biased tie coins."""
    return [msg for m in EVEN_FANINS for pb in (0.1, 0.3, 0.7, 0.9)
            for msg in _ratio_fails(MajorityEven(m, pb), m // 2, math.log(pb), m * math.log(2))]


def check_alternating_sandwich() -> list:
    """Tie-to-one and tie-to-zero step ratios against their constants."""
    fails = []
    for m in EVEN_FANINS:
        half = m // 2
        fails += _ratio_fails(AlternatingMajority(m, TiePhase.TIES_TO_ONE),
                              half, 0.0, math.log(math.comb(m, half)))
        fails += _ratio_fails(AlternatingMajority(m, TiePhase.TIES_TO_ZERO),
                              half + 1, 0.0, math.log(math.comb(m, half - 1)))
    return fails


def check_m2_fixed_point() -> list:
    """Fair-coin tie-breaking at m=2 is the identity map, bit for bit."""
    fails = []
    for a0, b0 in ((0.1, 0.1), (0.37, 0.02), (0.005, 0.49)):
        pair0 = _pair(a0, b0)
        trace = propagate(pair0, [MajorityEven(2, 0.5)] * 20, Priors.equal())
        for k, pair in enumerate(trace.pairs):
            if pair.alpha.value != pair0.alpha.value or pair.beta.value != pair0.beta.value:
                fails.append(f"leaf ({a0}, {b0}) moved at level {k}")
                break
    return fails


def check_deep_trace() -> list:
    """Five-level m=3 trace against exact rational arithmetic."""
    fails = []
    expected = exact_majority_trace(Fraction(1, 10), 3, 4)
    trace = propagate(_pair(0.1, 0.1), [MajorityOdd(3)] * 4, Priors.equal())
    for k, (want, pair) in enumerate(zip(expected, trace.pairs)):
        got = pair.alpha.value
        target = math.log(Fraction(want))
        if not _log_close(got, target, 1e-13):
            fails.append(f"level {k}: log alpha {got} vs exact {target}")
    return fails


def check_lrt_majority_symmetry() -> list:
    """Equal errors and equal priors reduce the LRT to plain majority."""
    fails = []
    for m in ODD_FANINS:
        lrt_rule, maj_rule = BayesianLRT(m, Priors.equal()), MajorityOdd(m)
        for x in GRID:
            pair = _pair(x, x)
            lrt = apply_rule(pair, lrt_rule)
            maj = apply_rule(pair, maj_rule)
            if not _log_close(lrt.alpha.value, lrt.beta.value):
                fails.append(f"m={m}, x={x}: lrt alpha != beta")
            if not _log_close(lrt.alpha.value, maj.alpha.value):
                fails.append(f"m={m}, x={x}: lrt != majority")
    return fails


def check_lrt_threshold_structure() -> list:
    """Informative messages give a monotone (threshold) decision table."""
    fails = []
    for m in (2, 3, 4, 5, 6):
        lrt = BayesianLRT(m, Priors(0.3, 0.7))
        for a in GRID:
            for b in (0.05, 0.25, 0.45):
                if a + b >= 1.0:
                    continue
                table = lrt.table(_pair(a, b))
                if any(table[s] and not table[s + 1] for s in range(m)):
                    fails.append(f"m={m}, pair=({a},{b}): non-threshold {table}")
    return fails


def check_boundary_pairs() -> list:
    """Degenerate leaves stay degenerate under majority; LRT refuses them."""
    fails = []
    zero_one = _pair(0.0, 1.0)
    for rule in (MajorityOdd(3), MajorityEven(4, 0.3), AlternatingMajority(2)):
        trace = propagate(zero_one, [rule] * 3, Priors.equal())
        root = trace.root
        if root.alpha.value != LOG_ZERO or root.beta.value != 0.0:
            fails.append(f"{rule}: boundary pair moved to "
                         f"({root.alpha_linear}, {root.beta_linear})")
    try:
        apply_rule(zero_one, BayesianLRT(3, Priors.equal()))
        fails.append("lrt accepted a boundary pair")
    except ValueError:
        pass
    return fails


def check_totals() -> list:
    """Trace totals equal pi0 alpha + pi1 beta recomputed independently."""
    fails = []
    priors = Priors(0.25, 0.75)
    trace = propagate(_pair(0.2, 0.05), [MajorityOdd(3)] * 5, priors)
    for k, (pair, tot) in enumerate(zip(trace.pairs, trace.totals)):
        direct = math.log(0.25 * pair.alpha_linear + 0.75 * pair.beta_linear)
        if not _log_close(tot.value, direct, 1e-12):
            fails.append(f"level {k}: total {tot.value} vs {direct}")
    return fails


# ---------------------------------------------------------------- oracle

@lru_cache(maxsize=None)
def _rules_for(m: int) -> tuple:
    """(kernel rule, vector twin) pairs of the majority family at fan-in m.

    Cached per fan-in (at most 19 entries under the oracle's m <= 20
    cap), so each twin keeps its decisions and asks its rule once per
    vector for the life of the process.
    """
    if m % 2 == 1:
        return ((MajorityOdd(m), oracle.majority_vector_rule(m)),)
    ties = [(MajorityEven(m, pb), pb) for pb in (0.5, 0.3)]
    ties += [(AlternatingMajority(m, TiePhase.TIES_TO_ONE), 1.0),
             (AlternatingMajority(m, TiePhase.TIES_TO_ZERO), 0.0)]
    return tuple((rule, oracle.majority_vector_rule(m, tie)) for rule, tie in ties)


def check_kernel_matches_enumeration(fanins=range(2, 11), grid=GRID_48) -> list:
    """Closed-form steps equal brute-force enumeration over all vectors."""
    fails = []
    for m in fanins:
        lrt = BayesianLRT(m, Priors.equal())
        for a in grid:
            for b in grid:
                pair = _pair(a, b)
                # the likelihood-ratio table depends on the pair
                lrt_twin = oracle.count_vector_rule(m, lrt.table(pair))
                for rule, twin in (*_rules_for(m), (lrt, lrt_twin)):
                    got = apply_rule(pair, rule)
                    ref = oracle.enumerate_step(pair, m, twin)
                    for side in ("alpha", "beta"):
                        ours, theirs = getattr(got, side).value, getattr(ref, side).value
                        if not _log_close(ours, theirs):
                            fails.append(f"{rule} ({a},{b}): {side} {ours} vs oracle {theirs}")
                    if len(fails) > 20:
                        return fails
    return fails


def check_lrt_matches_optimal(fanins=range(2, 7), grid=GRID_48) -> list:
    """The count-threshold LRT equals the per-vector MAP optimum."""
    fails = []
    priors_list = [Priors.equal(), Priors(0.9, 0.1), Priors(0.3, 0.7)]
    for m in fanins:
        for priors in priors_list:
            lrt = BayesianLRT(m, priors)
            for a in grid:
                for b in grid:
                    pair = _pair(a, b)
                    got = apply_rule(pair, lrt)
                    ref = oracle.optimal_step(pair, priors, m)
                    if not _pairs_close(got, ref):
                        fails.append(
                            f"m={m}, priors=({priors.pi0},{priors.pi1}), "
                            f"pair=({a},{b}): lrt != optimal"
                        )
                        if len(fails) > 20:
                            return fails
    return fails


def check_lrt_beats_count_rules() -> list:
    """No deterministic per-count rule has smaller total error than the LRT."""
    fails = []
    grid = [i / 20.0 for i in range(1, 10)]  # 0.05 .. 0.45
    priors_list = [Priors.equal(), Priors(0.9, 0.1), Priors(0.3, 0.7)]
    for m in range(2, 7):
        s_arr = np.arange(m + 1)
        # row r is the rule deciding 1 at count s iff bit s of r is set
        tables = ((np.arange(1 << (m + 1))[:, None] >> s_arr) & 1).astype(float)
        combs = np.array([math.comb(m, s) for s in range(m + 1)], dtype=float)
        for priors in priors_list:
            lrt = BayesianLRT(m, priors)
            for a in grid:
                for b in grid:
                    pmf0 = combs * a**s_arr * (1 - a) ** (m - s_arr)
                    pmf1 = combs * (1 - b) ** s_arr * b ** (m - s_arr)
                    alpha_all = tables @ pmf0
                    beta_all = (1.0 - tables) @ pmf1
                    best = np.min(priors.pi0 * alpha_all + priors.pi1 * beta_all)
                    ours = total_error(apply_rule(_pair(a, b), lrt), priors).linear
                    if ours > best * (1 + 1e-12) + 1e-15:
                        fails.append(
                            f"m={m}, priors=({priors.pi0},{priors.pi1}), "
                            f"pair=({a},{b}): lrt {ours} > best rule {best}"
                        )
    return fails


def check_lrt_beats_majority() -> list:
    """Per-level total error: likelihood ratio <= fair majority."""
    fails = []
    for m in range(2, 7):
        rule = majority_rule(m)
        for priors in (Priors.equal(), Priors(0.3, 0.7), Priors(0.9, 0.1)):
            lrt = BayesianLRT(m, priors)
            for a in GRID_48:
                for b in GRID_48:
                    pair = _pair(a, b)
                    lrt_total = total_error(apply_rule(pair, lrt), priors)
                    maj_total = total_error(apply_rule(pair, rule), priors)
                    if lrt_total.value > maj_total.value + 1e-12:
                        fails.append(
                            f"m={m}, priors=({priors.pi0},{priors.pi1}), "
                            f"pair=({a},{b}): lrt worse than majority"
                        )
                        if len(fails) > 20:
                            return fails
    return fails


def check_permutation_invariance() -> list:
    """Shuffling message positions inside a rule cannot change the errors."""
    fails = []
    m = 5
    base = oracle.VectorRule(m, lambda v: 1.0 if v[0] and v[1] else 0.0)
    perm = (3, 1, 4, 0, 2)
    shuffled = oracle.VectorRule(m, lambda v: 1.0 if v[perm[0]] and v[perm[1]] else 0.0)
    for a, b in ((0.1, 0.2), (0.45, 0.05), (0.3, 0.3)):
        one = oracle.enumerate_step(_pair(a, b), m, base)
        two = oracle.enumerate_step(_pair(a, b), m, shuffled)
        if not _pairs_close(one, two):
            fails.append(f"pair=({a},{b}): permutation changed the step")
    return fails


# ---------------------------------------------------------------- bounds

def check_ratio_poly() -> list:
    """Known closed forms plus strict monotone decrease on fine grids."""
    fails = []
    for x in GRID:
        if not math.isclose(bounds.ratio_poly(2, 1, x), 2.0 - x, rel_tol=1e-12):
            fails.append(f"ratio_poly(2,1,{x}) != 2 - x")
        if not math.isclose(
            bounds.ratio_poly(3, 2, x), x * x - 3 * x + 3, rel_tol=1e-12
        ):
            fails.append(f"ratio_poly(3,2,{x}) != x^2 - 3x + 3")
    xs = [i / 1001.0 for i in range(1, 1001)]  # 1000 interior points
    for m in range(2, 11):
        for k in range(1, m):
            prev = None
            for x in xs:
                val = bounds.ratio_poly(m, k, x)
                if prev is not None and not val < prev:
                    fails.append(f"ratio_poly(m={m},k={k}) not decreasing at x={x}")
                    break
                prev = val
    return fails


def check_level_bounds_values() -> list:
    fails = []
    sw = bounds.level_bounds(0.1, 3, 4, bounds.RateKind.MAJORITY_RANDOM)
    want_lo = 16 * (math.log2(10) - math.log2(3))
    want_hi = 16 * math.log2(10)
    if not math.isclose(sw.lower, want_lo, rel_tol=1e-12):
        fails.append(f"majority lower {sw.lower} != {want_lo}")
    if not math.isclose(sw.upper, want_hi, rel_tol=1e-12):
        fails.append(f"majority upper {sw.upper} != {want_hi}")
    sw0 = bounds.level_bounds(0.1, 5, 0, bounds.RateKind.MAJORITY_RANDOM)
    if not math.isclose(sw0.upper, math.log2(10), rel_tol=1e-12):
        fails.append("k=0 upper is not log2(1/alpha0)")
    alt = bounds.level_bounds(0.1, 2, 2, bounds.RateKind.ALTERNATING)
    if not math.isclose(alt.lower, 2 * (math.log2(10) - 1.0), rel_tol=1e-12):
        fails.append(f"alternating lower {alt.lower}")
    if not math.isclose(alt.upper, 2 * math.log2(10), rel_tol=1e-12):
        fails.append(f"alternating upper {alt.upper}")
    try:
        bounds.level_bounds(0.1, 2, 3, bounds.RateKind.ALTERNATING)
        fails.append("odd-height alternating bound did not raise")
    except ValueError:
        pass
    return fails


def check_sandwich_on_traces() -> list:
    """Traced log2(1/alpha_k) lies inside the telescoped level bounds."""
    fails = []
    for m in range(2, 11):
        lam = bounds.per_level_exponent(m)
        informative = 0.5 / math.comb(m, lam)
        alphas = (0.1, 0.3, informative)
        rule = majority_rule(m)
        for a0 in alphas:
            trace = propagate(_pair(a0, a0), [rule] * 12, Priors.equal())
            for k, pair in enumerate(trace.pairs):
                sw = bounds.level_bounds(a0, m, k, bounds.RateKind.MAJORITY_RANDOM)
                if not sw.contains(pair.alpha.log2_inverse, tol=1e-6):
                    fails.append(
                        f"majority m={m}, a0={a0}, k={k}: "
                        f"{pair.alpha.log2_inverse} outside [{sw.lower}, {sw.upper}]"
                    )
        if m % 2 == 0:
            # the even-k alternating bound telescopes with one tie-inclusive
            # step per pair, which anchors ties-to-zero at level 1; at m=2
            # the opposite order squares the constant and escapes the bound
            firsts = [TiePhase.TIES_TO_ZERO]
            if m >= 4:
                firsts.append(TiePhase.TIES_TO_ONE)
            for a0 in alphas:
                for first in firsts:
                    trace = propagate(_pair(a0, a0), _alternating(m, 12, first), Priors.equal())
                    for k in range(0, 13, 2):
                        sw = bounds.level_bounds(
                            a0, m, k, bounds.RateKind.ALTERNATING
                        )
                        bits = trace.pairs[k].alpha.log2_inverse
                        if not sw.contains(bits, tol=1e-6):
                            fails.append(
                                f"alternating m={m}, a0={a0}, k={k}, "
                                f"first={first.value}: {bits} outside "
                                f"[{sw.lower}, {sw.upper}]"
                            )
    return fails


def check_exponent_ratio_convergence() -> list:
    """log2(1/alpha_k) / lambda^k decreases into its limiting band."""
    fails = []
    for m in (2, 3, 4, 5, 7, 10):
        lam = bounds.per_level_exponent(m)
        log2_c = math.log2(math.comb(m, lam))
        for a0 in (0.1, 0.01):
            trace = propagate(_pair(a0, a0), [majority_rule(m)] * 10, Priors.equal())
            ratios = [
                trace.pairs[k].alpha.log2_inverse / lam**k for k in range(11)
            ]
            for k in range(10):
                if ratios[k + 1] > ratios[k] + 1e-9:
                    fails.append(f"m={m}, a0={a0}: ratio rose at level {k + 1}")
            lo = math.log2(1 / a0) - log2_c
            hi = math.log2(1 / a0)
            if not lo - 1e-9 <= ratios[-1] <= hi + 1e-9:
                fails.append(
                    f"m={m}, a0={a0}: limit ratio {ratios[-1]} outside "
                    f"[{lo}, {hi}]"
                )
    return fails


def check_total_bounds() -> list:
    fails = []
    sw = bounds.total_bounds(0.1, 0.1, Priors.equal(), 3, 81)
    if not math.isclose(sw.lower, 16 * (math.log2(10) - math.log2(3)), rel_tol=1e-12):
        fails.append(f"total lower {sw.lower}")
    if not math.isclose(sw.upper, 16 * math.log2(10), rel_tol=1e-12):
        fails.append(f"total upper {sw.upper}")
    trace = propagate(_pair(0.1, 0.1), [MajorityOdd(3)] * 4, Priors.equal())
    bits = trace.totals[-1].log2_inverse
    if not sw.contains(bits, tol=1e-9):
        fails.append(f"root total {bits} outside [{sw.lower}, {sw.upper}]")
    # alternating totals: m >= 4 only; at m=2 one of alpha/beta always
    # follows the order that escapes the even-height constant
    for m in (4, 6):
        for priors in (Priors.equal(), Priors(0.3, 0.7)):
            for first in (TiePhase.TIES_TO_ONE, TiePhase.TIES_TO_ZERO):
                trace = propagate(_pair(0.1, 0.15), _alternating(m, 4, first), priors)
                for k in (2, 4):
                    sw = bounds.total_bounds(
                        0.1, 0.15, priors, m, m**k, bounds.RateKind.ALTERNATING
                    )
                    got = trace.totals[k].log2_inverse
                    if not sw.contains(got, tol=1e-9):
                        fails.append(
                            f"alternating total m={m}, first={first.value}, "
                            f"k={k}: {got} outside [{sw.lower}, {sw.upper}]"
                        )
    try:
        bounds.total_bounds(0.1, 0.1, Priors.equal(), 3, 80)
        fails.append("non-power leaf count did not raise")
    except ValueError:
        pass
    return fails


def check_lrt_lower_bound() -> list:
    fails = []
    got = bounds.lrt_lower_bound(0.05, Priors.equal(), 3, 3)
    want = 2 * (math.log2(20) - math.log2(12))
    if not math.isclose(got, want, rel_tol=1e-12):
        fails.append(f"lrt bound {got} != {want}")
    at_edge = bounds.lrt_lower_bound(1.0 / 12.0, Priors.equal(), 3, 3)
    if abs(at_edge) > 1e-9:
        fails.append(f"edge bound {at_edge} != 0")
    # the guarantee must hold on actual traces
    for m in (3, 5):
        for priors in (Priors.equal(), Priors(0.3, 0.7)):
            pair0 = _pair(0.1, 0.1)
            leaf_total = total_error(pair0, priors).linear
            trace = propagate(pair0, [BayesianLRT(m, priors)] * 3, priors)
            for k in range(1, 4):
                guar = bounds.lrt_lower_bound(leaf_total, priors, m, m**k)
                actual = trace.totals[k].log2_inverse
                if actual < guar - 1e-9:
                    fails.append(
                        f"m={m}, priors=({priors.pi0},{priors.pi1}), k={k}: "
                        f"actual {actual} bits < guaranteed {guar}"
                    )
    return fails


def check_exponents() -> list:
    fails = []
    cases = [
        (3, bounds.RateKind.MAJORITY_RANDOM, math.log(2) / math.log(3)),
        (5, bounds.RateKind.MAJORITY_RANDOM, math.log(3) / math.log(5)),
        (2, bounds.RateKind.MAJORITY_RANDOM, 0.0),
        (4, bounds.RateKind.MAJORITY_RANDOM, 0.5),
        (4, bounds.RateKind.ALTERNATING, math.log(math.sqrt(6)) / math.log(4)),
        (4, bounds.RateKind.UPPER_BOUND, math.log(2.5) / math.log(4)),
        (2, bounds.RateKind.ALTERNATING, 0.5),
    ]
    for m, kind, want in cases:
        got = bounds.exponent(m, kind)
        if not math.isclose(got, want, rel_tol=0, abs_tol=1e-12):
            fails.append(f"exponent({m}, {kind.value}) = {got}, want {want}")
    for row in bounds.exponent_table(range(2, 65)):
        if row.m % 2 == 0:
            if not row.majority_random <= row.alternating <= row.upper_bound:
                fails.append(f"m={row.m}: exponent ordering broken")
        else:
            if row.alternating is not None:
                fails.append(f"m={row.m}: odd fan-in reported alternating rate")
            if row.majority_random != row.upper_bound:
                fails.append(f"m={row.m}: odd majority rate != upper bound")
        if row.lrt_lower != row.majority_random:
            fails.append(f"m={row.m}: lrt rate != majority rate")
    return fails


def check_sample_size() -> list:
    fails = []
    res = bounds.sample_size(3, 0.1, 0.1, 1e-6)
    n_want = (math.log2(1e6) / (math.log2(10) - math.log2(3))) ** (
        math.log(3) / math.log(2)
    )
    if not math.isclose(res.n_real, n_want, rel_tol=1e-12):
        fails.append(f"n_real {res.n_real} != {n_want}")
    if (res.k, res.n_tree) != (4, 81):
        fails.append(f"(k, n_tree) = ({res.k}, {res.n_tree}), want (4, 81)")
    trace = propagate(_pair(0.1, 0.1), [MajorityOdd(3)] * 4, Priors.equal())
    if not trace.pairs[4].alpha_linear <= 1e-6 < trace.pairs[3].alpha_linear:
        fails.append("certified height does not bracket the target")
    triv = bounds.sample_size(3, 0.1, 0.1, 0.1)
    if not (triv.n_real <= 1.0 and triv.k == 0 and triv.n_tree == 1):
        fails.append(f"trivial target: {triv}")
    for m, a in ((3, 0.4), (2, 0.1)):
        try:
            bounds.sample_size(m, a, a, 1e-6)
            fails.append(f"vacuous bound (m={m}, a0={a}) did not raise")
        except bounds.BoundInapplicableError:
            pass
    return fails


# -------------------------------------------------------------- alphabet

def check_k0() -> list:
    fails = []
    for (m, d), want in {(2, 2): 1, (2, 5): 3, (3, 10): 3, (10, 11): 2}.items():
        got = alph.k0_of(m, d)
        if got != want:
            fails.append(f"k0_of({m}, {d}) = {got}, want {want}")
    for m in range(2, 13):
        for d in range(2, 201):
            k0 = alph.k0_of(m, d)
            if not m ** (k0 - 1) + 1 <= d <= m**k0:
                fails.append(f"k0_of({m}, {d}) = {k0} outside its window")
    return fails


def check_equivalent_tree() -> list:
    fails = []
    eq = alph.equivalent_tree(alph.TreeSpec(3, 6, 10))
    if (eq.m, eq.height, eq.d) != (27, 2, 2):
        fails.append(f"(3, 10, h=6) reduced to ({eq.m}, {eq.height}, {eq.d})")
    for m, d, h in ((2, 5, 6), (3, 4, 8), (5, 25, 4), (4, 17, 6)):
        spec = alph.TreeSpec(m, h, d)
        if h % spec.k0:
            continue
        red = alph.equivalent_tree(spec)
        if red.n_leaves != spec.n_leaves:
            fails.append(f"({m},{d},h={h}): leaf count changed")
    try:
        alph.equivalent_tree(alph.TreeSpec(3, 7, 10))
        fails.append("indivisible height did not raise")
    except ValueError as err:
        if "remainder 1" not in str(err):
            fails.append(f"remainder missing from message: {err}")
    return fails


def check_alphabet_rates() -> list:
    fails = []
    r34 = alph.rates(3, 4)
    want = math.log(10) / math.log(9) - math.log(2) / (2 * math.log(3))
    if not math.isclose(r34.rho, want, rel_tol=1e-12):
        fails.append(f"rho(3,4) {r34.rho} != {want}")
    if r34.varrho != r34.rho or r34.sigma is not None:
        fails.append("odd fan-in rate structure wrong")
    r10 = alph.rates(10, 11)
    want = 1.0 - math.log(2) / (2 * math.log(10))
    if not math.isclose(r10.varrho, want, rel_tol=1e-12):
        fails.append(f"varrho(10,11) {r10.varrho} != {want}")
    r42 = alph.rates(4, 2)
    want = 0.5 * (1 + math.log(6) / math.log(4)) - 0.5
    if not math.isclose(r42.sigma, want, rel_tol=1e-12):
        fails.append(f"sigma(4,2) {r42.sigma} != {want}")
    for m in range(2, 21):
        for d in (2, 3, 7, 50):
            r = alph.rates(m, d)
            if m % 2 == 0:
                if not r.varrho <= r.sigma <= r.rho + 1e-12:
                    fails.append(f"rate ordering broken at m={m}, d={d}")
            elif r.varrho != r.rho or r.sigma is not None:
                fails.append(f"odd-m rates malformed at m={m}, d={d}")
    return fails


def check_rate_collapse() -> list:
    """d=2 alphabet rates must equal the binary exponents."""
    fails = []
    for m in range(2, 21):
        r = alph.rates(m, 2)
        upper = bounds.exponent(m, bounds.RateKind.UPPER_BOUND)
        major = bounds.exponent(m, bounds.RateKind.MAJORITY_RANDOM)
        if abs(r.rho - upper) > 1e-12:
            fails.append(f"m={m}: rho {r.rho} != upper {upper}")
        if m % 2 == 0:
            alt = bounds.exponent(m, bounds.RateKind.ALTERNATING)
            if abs(r.varrho - major) > 1e-12:
                fails.append(f"m={m}: varrho {r.varrho} != majority {major}")
            if abs(r.sigma - alt) > 1e-12:
                fails.append(f"m={m}: sigma {r.sigma} != alternating {alt}")
        else:
            if abs(r.varrho - upper) > 1e-12:
                fails.append(f"m={m}: odd varrho {r.varrho} != {upper}")
    return fails


def check_avg_bits() -> list:
    fails = []
    got = alph.avg_bits(10, 3)
    want = (1000 + 100 * math.log2(11) + 10 * math.log2(101)) / 1110
    if not math.isclose(got, want, rel_tol=1e-12):
        fails.append(f"avg_bits(10,3) {got} != {want}")
    if abs(got - 1.27255) > 1e-4:
        fails.append(f"avg_bits(10,3) {got} far from 1.27255")
    if abs(alph.avg_bits(2, 10) - 1.6916709959845238) > 1e-9:
        fails.append(f"avg_bits(2,10) = {alph.avg_bits(2, 10)}")
    lo, hi = alph.bits_bounds(2)
    if (lo, hi) != (1.5, 2.0):
        fails.append(f"bits_bounds(2) = ({lo}, {hi})")
    for m in range(2, 21):
        lo, hi = alph.bits_bounds(m)
        for k0 in range(8, 15):
            val = alph.avg_bits(m, k0)
            if not lo - 1e-12 <= val <= hi + 1e-12:
                fails.append(f"avg_bits({m}, {k0}) = {val} outside [{lo}, {hi}]")
    return fails


# ------------------------------------------------------------------- sim

def _binary_config(m, height, a0, rule_kind, trials, seed, hyp=Hypothesis.H0):
    spec = alph.TreeSpec(m, height, 2)
    if rule_kind == "majority":
        schedule = [majority_rule(m)] * height
    elif rule_kind == "majority_biased":
        schedule = [MajorityEven(m, 0.3)] * height
    elif rule_kind == "alternating":
        schedule = _alternating(m, height)
    elif rule_kind == "lrt":
        schedule = [BayesianLRT(m, Priors.equal())] * height
    else:
        raise ValueError(rule_kind)
    return SimConfig(spec, tuple(schedule), _pair(a0, a0), trials, seed, hyp)


def check_sim_determinism() -> list:
    fails = []
    cfg = _binary_config(3, 2, 0.2, "majority", 40_000, seed=7)
    first = simulate(cfg)
    again = simulate(cfg)
    if first != again:
        fails.append("same seed, different results")
    for chunk in (4, 52, 1000, 39996):
        alt = simulate(cfg, chunk=chunk)
        if alt.error_count != first.error_count:
            fails.append(f"chunk={chunk} changed the count")
    other = simulate(_binary_config(3, 2, 0.2, "majority", 40_000, seed=8))
    if other.error_count == first.error_count:
        fails.append("seed change left the count identical (suspicious)")
    return fails


def check_sim_budget() -> list:
    fails = []
    cfg = _binary_config(5, 6, 0.1, "majority", 10**9, seed=1)
    try:
        simulate(cfg)
        fails.append("over-budget run was not refused")
    except ValueError as err:
        if "budget" not in str(err):
            fails.append(f"refusal does not name the budget: {err}")
    return fails


def check_sim_agreement() -> list:
    """|z| <= 4 between simulation and recursion across the rule matrix.

    Each config gets its own seed (20260817, 20260818, ...), so no two
    share a leaf stream and the z-tests are independent.
    """
    fails = []
    seed = 20260817
    for m in (2, 3, 4, 5):
        kinds = ["majority", "lrt"]
        if m % 2 == 0:
            kinds += ["majority_biased", "alternating"]
        for kind in kinds:
            for height in (1, 2, 3):
                for a0 in (0.1, 0.3):
                    for hyp in (Hypothesis.H0, Hypothesis.H1):
                        cfg = _binary_config(m, height, a0, kind, _TRIALS, seed, hyp)
                        seed += 1
                        rep = compare_to_analytic(cfg)
                        if rep.flagged:
                            fails.append(
                                f"m={m}, {kind}, h={height}, a0={a0}, "
                                f"{hyp.value}: z={rep.z_score:.2f} "
                                f"(est {rep.result.estimate}, "
                                f"analytic {rep.analytic})"
                            )
    return fails


def check_alphabet_equivalence_sim() -> list:
    """Count-forwarding trees behave like their reduced binary twins."""
    fails = []
    # frozen example: m=2, d=5 gives k0=3, one boundary over 8 leaves,
    # ties to 1 there, so alpha_root = upper tail from 4 of Binom(8, 0.1)
    spec = alph.TreeSpec(2, 3, 5)
    sched = alph.alphabet_schedule(spec, [AlternatingMajority(8, TiePhase.TIES_TO_ONE)])
    cfg = SimConfig(spec, tuple(sched), _pair(0.1, 0.1), _TRIALS, 4242, Hypothesis.H0)
    rep = compare_to_analytic(cfg)
    analytic = binom_tail(8, 4, 8, LogProb.from_linear(0.1)).linear
    if not math.isclose(rep.analytic, analytic, rel_tol=1e-12):
        fails.append(f"reduced analytic {rep.analytic} != direct tail {analytic}")
    if abs(rep.result.estimate - analytic) > 3 * math.sqrt(
        analytic * (1 - analytic) / _TRIALS
    ):
        fails.append(
            f"(2, d=5, h=3) estimate {rep.result.estimate} not within "
            f"3 sigma of {analytic}"
        )
    # alphabet run vs simulated reduced twin, both hypotheses
    for m, d, h, a0 in ((2, 3, 4, 0.3), (3, 10, 3, 0.3)):
        spec = alph.TreeSpec(m, h, d)
        red_spec = alph.equivalent_tree(spec)
        boundary = [majority_rule(red_spec.m, 0.5)] * red_spec.height
        sched = alph.alphabet_schedule(spec, boundary)
        for hyp in (Hypothesis.H0, Hypothesis.H1):
            rep = compare_to_analytic(
                SimConfig(spec, tuple(sched), _pair(a0, a0), _TRIALS, 99, hyp)
            )
            full, p = rep.result, rep.analytic
            red = simulate(
                SimConfig(red_spec, tuple(boundary), _pair(a0, a0), _TRIALS, 100, hyp)
            )
            sd = math.sqrt(max(p * (1 - p), 1e-30) / _TRIALS)
            if abs(full.estimate - red.estimate) > 3 * math.sqrt(2) * sd:
                fails.append(
                    f"(m={m}, d={d}, h={h}, {hyp.value}): alphabet "
                    f"{full.estimate} vs reduced {red.estimate}"
                )
    return fails


# ---------------------------------------------------------------- suites

SUITES = {
    "kernel": [
        ("step_examples", check_step_examples),
        ("lrt_examples", check_lrt_examples),
        ("odd_majority_sandwich", check_odd_majority_sandwich),
        ("even_majority_sandwich", check_even_majority_sandwich),
        ("tie_weight_sandwich", check_tie_weight_sandwich),
        ("alternating_sandwich", check_alternating_sandwich),
        ("m2_fixed_point", check_m2_fixed_point),
        ("deep_trace", check_deep_trace),
        ("lrt_majority_symmetry", check_lrt_majority_symmetry),
        ("lrt_threshold_structure", check_lrt_threshold_structure),
        ("boundary_pairs", check_boundary_pairs),
        ("totals", check_totals),
    ],
    "oracle": [
        ("kernel_matches_enumeration", check_kernel_matches_enumeration),
        ("lrt_matches_optimal", check_lrt_matches_optimal),
        ("lrt_beats_count_rules", check_lrt_beats_count_rules),
        ("lrt_beats_majority", check_lrt_beats_majority),
        ("permutation_invariance", check_permutation_invariance),
    ],
    "bounds": [
        ("ratio_poly", check_ratio_poly),
        ("level_bounds_values", check_level_bounds_values),
        ("sandwich_on_traces", check_sandwich_on_traces),
        ("exponent_ratio_convergence", check_exponent_ratio_convergence),
        ("total_bounds", check_total_bounds),
        ("lrt_lower_bound", check_lrt_lower_bound),
        ("exponents", check_exponents),
        ("sample_size", check_sample_size),
    ],
    "alphabet": [
        ("k0", check_k0),
        ("equivalent_tree", check_equivalent_tree),
        ("alphabet_rates", check_alphabet_rates),
        ("rate_collapse", check_rate_collapse),
        ("avg_bits", check_avg_bits),
    ],
    "sim": [
        ("determinism", check_sim_determinism),
        ("budget", check_sim_budget),
        ("agreement", check_sim_agreement),
        ("alphabet_equivalence", check_alphabet_equivalence_sim),
    ],
}


def run_suites(names, report=print) -> int:
    """Run the named suites, print one line per check with its wall time,
    return failure count."""
    failures = 0
    for suite in names:
        for name, fn in SUITES[suite]:
            start = time.perf_counter()
            fails = fn()
            took = time.perf_counter() - start
            report(f"{'FAIL' if fails else 'ok  '} {suite}.{name}  {took:.1f} s")
            failures += len(fails)
            for msg in fails[:10]:
                report(f"     {msg}")
            if len(fails) > 10:
                report(f"     ... and {len(fails) - 10} more")
    return failures
