"""Numeric verification of the package's mathematical invariants.

Each check returns a list of failure messages (empty means pass), so
the same functions back both the command-line `verify` subcommand and
the test suite.  A check here reaches its answer by a route independent
of the code it checks: 2^m enumeration, exact `Fraction` traces, the
proved sandwiches on dense grids and on traces, identities between the
closed forms of two modules, or Monte Carlo.  Hand-computed example
values and refusal messages are pinned in `tests/`, not here.
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
from .logdomain import LogProb, log_sum_exp
from .simulate import Hypothesis, SimConfig, compare_to_analytic

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
    """P_b <= alpha' / alpha^(m/2) <= 2^m for biased tie coins, and each
    biased step is the P_b-mixture of the two deterministic tie steps:
    alpha'(P_b) = (1 - P_b) alpha'(ties to zero) + P_b alpha'(ties to one),
    and the same for beta'."""
    fails = []
    for m in EVEN_FANINS:
        rules = [MajorityEven(m, pb) for pb in (0.1, 0.3, 0.7, 0.9)]
        for rule in rules:
            fails += _ratio_fails(rule, m // 2, math.log(rule.tie_prob), m * math.log(2))
        for x in GRID:
            pair = _pair(x, x)
            zero = apply_rule(pair, AlternatingMajority(m, TiePhase.TIES_TO_ZERO))
            one = apply_rule(pair, AlternatingMajority(m, TiePhase.TIES_TO_ONE))
            for rule in rules:
                got, pb = apply_rule(pair, rule), rule.tie_prob
                mix = [log_sum_exp([math.log1p(-pb) + z.value, math.log(pb) + o.value])
                       for z, o in ((zero.alpha, one.alpha), (zero.beta, one.beta))]
                if not (_log_close(got.alpha.value, mix[0]) and _log_close(got.beta.value, mix[1])):
                    fails.append(f"{rule!r}, alpha={x}: step is not the tie-weight mixture")
    return fails


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


# ---------------------------------------------------------------- oracle

@lru_cache(maxsize=None)
def _rules_for(m: int) -> tuple:
    """(kernel rule, vector twin) pairs of the majority family at fan-in m.

    Each twin is a count rule on the oracle's own majority table, so its
    decisions gather that table over the counts of ones.  Cached per
    fan-in (at most 19 entries under the oracle's m <= 20 cap), so each
    twin keeps its decisions for the life of the process.
    """
    if m % 2 == 1:
        return ((MajorityOdd(m), oracle.majority_vector_rule(m)),)
    ties = [(MajorityEven(m, pb), pb) for pb in (0.5, 0.3)]
    ties += [(AlternatingMajority(m, TiePhase.TIES_TO_ONE), 1.0),
             (AlternatingMajority(m, TiePhase.TIES_TO_ZERO), 0.0)]
    return tuple((rule, oracle.majority_vector_rule(m, tie)) for rule, tie in ties)


def _once(memo: dict, key: tuple, fn, *args):
    """fn(*args), computed once per key of `memo`, a dict that lives for
    one check call, so nothing is carried from one call to the next."""
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def check_kernel_matches_enumeration(fanins=range(2, 11), grid=GRID_48) -> list:
    """Closed-form steps equal brute-force enumeration over all vectors.

    Every pair is stepped through `apply_rule` and compared with its own
    oracle pair.  The oracle's alpha' reads only the twin and alpha, and
    its beta' only the twin and beta, so each one-sided sum is computed
    once per twin and value within the call.  A likelihood-ratio twin is
    shared by the pairs whose tables coincide; twins are keyed by identity.
    """
    fails = []
    for m in fanins:
        lrt = BayesianLRT(m, Priors.equal())
        count_twins = {}  # likelihood-ratio table -> its count twin
        sums = {}  # (side, id(twin), value) -> one-sided oracle sum
        for a in grid:
            for b in grid:
                pair = _pair(a, b)
                a_lin, b_lin = pair.alpha.linear, pair.beta.linear
                # the likelihood-ratio table depends on the pair
                table = lrt.table(pair)
                lrt_twin = _once(count_twins, table, oracle.count_vector_rule, m, table)
                for rule, twin in (*_rules_for(m), (lrt, lrt_twin)):
                    got = apply_rule(pair, rule)
                    ref = ErrorPair.from_linear(
                        _once(sums, ("alpha", id(twin), a_lin), oracle.enumerate_alpha, twin, a_lin),
                        _once(sums, ("beta", id(twin), b_lin), oracle.enumerate_beta, twin, b_lin),
                    )
                    for side in ("alpha", "beta"):
                        ours, theirs = getattr(got, side).value, getattr(ref, side).value
                        if not _log_close(ours, theirs):
                            fails.append(f"{rule} ({a},{b}): {side} {ours} vs oracle {theirs}")
                    if len(fails) > 20:
                        return fails
    return fails


def check_lrt_matches_optimal(fanins=range(2, 7), grid=GRID_48) -> list:
    """The count-threshold LRT equals the per-vector MAP optimum.

    Every (pair, priors) cell is stepped through `apply_rule` and compared
    with its own MAP pair.  P(v | H0) reads only alpha and P(v | H1) only
    beta, so each likelihood vector is built once per value within the
    call; the MAP mask and its two sums are formed per cell.
    """
    fails = []
    priors_list = [Priors.equal(), Priors(0.9, 0.1), Priors(0.3, 0.7)]
    for m in fanins:
        likelihoods = {}  # (hypothesis, value) -> likelihood vector
        for priors in priors_list:
            lrt = BayesianLRT(m, priors)
            for a in grid:
                for b in grid:
                    pair = _pair(a, b)
                    a_lin, b_lin = pair.alpha.linear, pair.beta.linear
                    got = apply_rule(pair, lrt)
                    ref = oracle.map_step(
                        _once(likelihoods, ("h0", a_lin), oracle.h0_likelihoods, a_lin, m),
                        _once(likelihoods, ("h1", b_lin), oracle.h1_likelihoods, b_lin, m),
                        priors,
                    )
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
    """Traced root totals lie inside their total-error sandwiches."""
    fails = []
    sw = bounds.total_bounds(0.1, 0.1, Priors.equal(), 3, 4)
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
                    sw = bounds.total_bounds(0.1, 0.15, priors, m, k, bounds.RateKind.ALTERNATING)
                    got = trace.totals[k].log2_inverse
                    if not sw.contains(got, tol=1e-9):
                        fails.append(
                            f"alternating total m={m}, first={first.value}, "
                            f"k={k}: {got} outside [{sw.lower}, {sw.upper}]"
                        )
    return fails


def check_lrt_lower_bound() -> list:
    """The LRT guarantee holds on traced likelihood-ratio totals."""
    fails = []
    for m in (3, 5):
        for priors in (Priors.equal(), Priors(0.3, 0.7)):
            pair0 = _pair(0.1, 0.1)
            leaf_total = total_error(pair0, priors).linear
            trace = propagate(pair0, [BayesianLRT(m, priors)] * 3, priors)
            for k in range(1, 4):
                guar = bounds.lrt_lower_bound(leaf_total, priors, m, k)
                actual = trace.totals[k].log2_inverse
                if actual < guar - 1e-9:
                    fails.append(
                        f"m={m}, priors=({priors.pi0},{priors.pi1}), k={k}: "
                        f"actual {actual} bits < guaranteed {guar}"
                    )
    return fails


# -------------------------------------------------------------- alphabet

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
            red = compare_to_analytic(
                SimConfig(red_spec, tuple(boundary), _pair(a0, a0), _TRIALS, 100, hyp)
            ).result
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
        ("odd_majority_sandwich", check_odd_majority_sandwich),
        ("even_majority_sandwich", check_even_majority_sandwich),
        ("tie_weight_sandwich", check_tie_weight_sandwich),
        ("alternating_sandwich", check_alternating_sandwich),
        ("deep_trace", check_deep_trace),
        ("lrt_majority_symmetry", check_lrt_majority_symmetry),
        ("lrt_threshold_structure", check_lrt_threshold_structure),
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
        ("sandwich_on_traces", check_sandwich_on_traces),
        ("exponent_ratio_convergence", check_exponent_ratio_convergence),
        ("total_bounds", check_total_bounds),
        ("lrt_lower_bound", check_lrt_lower_bound),
    ],
    "alphabet": [
        ("rate_collapse", check_rate_collapse),
    ],
    "sim": [
        ("agreement", check_sim_agreement),
        ("alphabet_equivalence", check_alphabet_equivalence_sim),
    ],
}


def run_suites(names) -> int:
    """Run the named suites, print one line per check with its wall time,
    return failure count."""
    failures = 0
    for suite in names:
        for name, fn in SUITES[suite]:
            start = time.perf_counter()
            try:
                fails = fn()
            except Exception as err:  # a check that raises fails once; the rest still run
                fails = [f"{type(err).__name__}: {err}"]
            took = time.perf_counter() - start
            print(f"{'FAIL' if fails else 'ok  '} {suite}.{name}  {took:.1f} s")
            failures += len(fails)
            for msg in fails[:10]:
                print(f"     {msg}")
            if len(fails) > 10:
                print(f"     ... and {len(fails) - 10} more")
    return failures
