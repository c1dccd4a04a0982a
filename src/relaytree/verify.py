"""Numeric verification of the package's mathematical invariants.

Each check is a generator that yields one message per failure, and
`_suite` registers it in `SUITES` where it is defined.  Its public name
returns the failures as a list (empty means pass), so the same functions
back both the command-line `verify` subcommand and the test suite.  A
check here reaches its answer by a route independent of the code it
checks: 2^m enumeration, exact `Fraction` traces, the proved sandwiches
on dense grids and on traces, identities between the closed forms of two
modules, or Monte Carlo.  Hand-computed example values and refusal
messages are pinned in `tests/`, not here.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache, wraps

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
    Schedule,
    TiePhase,
    apply_rule,
    binom_tail,
    iter_levels,
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
SUITES: dict = {}  # suite -> [(check name, check)], in the order defined below


def _suite(suite: str, name: str = ""):
    """Register a check, a generator of failure messages, in SUITES[suite]
    as `name`, by default its own name less `check_`; the registered and
    public function returns the failures as a list."""
    def register(check):
        @wraps(check)
        def listed(*args, **kwargs) -> list:
            return list(check(*args, **kwargs))

        SUITES.setdefault(suite, []).append((name or check.__name__.removeprefix("check_"), listed))
        return listed

    return register


def _log_close(x: float, y: float, tol: float = TOL) -> bool:
    """Relative closeness of two log-domain values."""
    if x == y:
        return True
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _pairs_close(x: ErrorPair, y: ErrorPair) -> bool:
    return _log_close(x.alpha.value, y.alpha.value) and _log_close(x.beta.value, y.beta.value)


def _pair(a: float, b: float) -> ErrorPair:
    return ErrorPair.from_linear(a, b)


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

def _ratio_fails(rule, lam: int, log_lo: float, log_hi: float) -> Iterator[str]:
    """Grid points where one step of `rule` puts log(alpha' / alpha^lam)
    outside [log_lo, log_hi], with 1e-9 slack."""
    for x in GRID:
        pair = _pair(x, x)
        ratio = apply_rule(pair, rule).alpha.value - lam * pair.alpha.value
        if ratio < log_lo - 1e-9 or ratio > log_hi + 1e-9:
            yield f"{rule!r}, alpha={x}: log-ratio {ratio}"


@_suite("kernel")
def check_odd_majority_sandwich() -> Iterator[str]:
    """1 <= alpha' / alpha^((m+1)/2) <= C(m, (m-1)/2) on the grid."""
    yield from (msg for m in ODD_FANINS for msg in _ratio_fails(
        MajorityOdd(m), (m + 1) // 2, 0.0, math.log(math.comb(m, (m - 1) // 2))))


@_suite("kernel")
def check_even_majority_sandwich() -> Iterator[str]:
    """1 <= alpha' / alpha^(m/2) <= C(m, m/2)/2 for the fair tie coin."""
    yield from (msg for m in EVEN_FANINS for msg in _ratio_fails(
        MajorityEven(m, 0.5), m // 2, 0.0, math.log(math.comb(m, m // 2) / 2.0)))


@_suite("kernel")
def check_tie_weight_sandwich() -> Iterator[str]:
    """P_b <= alpha' / alpha^(m/2) <= 2^m for biased tie coins, and each
    biased step is the P_b-mixture of the two deterministic tie steps:
    alpha'(P_b) = (1 - P_b) alpha'(ties to zero) + P_b alpha'(ties to one),
    and the same for beta'."""
    for m in EVEN_FANINS:
        rules = [MajorityEven(m, pb) for pb in (0.1, 0.3, 0.7, 0.9)]
        for rule in rules:
            yield from _ratio_fails(rule, m // 2, math.log(rule.tie_prob), m * math.log(2))
        for x in GRID:
            pair = _pair(x, x)
            zero = apply_rule(pair, AlternatingMajority(m, TiePhase.TIES_TO_ZERO))
            one = apply_rule(pair, AlternatingMajority(m, TiePhase.TIES_TO_ONE))
            for rule in rules:
                got, pb = apply_rule(pair, rule), rule.tie_prob
                mix = [log_sum_exp([math.log1p(-pb) + z.value, math.log(pb) + o.value])
                       for z, o in ((zero.alpha, one.alpha), (zero.beta, one.beta))]
                if not (_log_close(got.alpha.value, mix[0]) and _log_close(got.beta.value, mix[1])):
                    yield f"{rule!r}, alpha={x}: step is not the tie-weight mixture"


@_suite("kernel")
def check_alternating_sandwich() -> Iterator[str]:
    """Tie-to-one and tie-to-zero step ratios against their constants."""
    for m in EVEN_FANINS:
        half = m // 2
        yield from _ratio_fails(AlternatingMajority(m, TiePhase.TIES_TO_ONE),
                                half, 0.0, math.log(math.comb(m, half)))
        yield from _ratio_fails(AlternatingMajority(m, TiePhase.TIES_TO_ZERO),
                                half + 1, 0.0, math.log(math.comb(m, half - 1)))


@_suite("kernel")
def check_deep_trace() -> Iterator[str]:
    """Five-level m=3 trace against exact rational arithmetic."""
    expected = exact_majority_trace(Fraction(1, 10), 3, 4)
    trace = propagate(_pair(0.1, 0.1), [MajorityOdd(3)] * 4, Priors.equal())
    for k, (want, pair) in enumerate(zip(expected, trace.pairs)):
        got = pair.alpha.value
        target = math.log(Fraction(want))
        if not _log_close(got, target, 1e-13):
            yield f"level {k}: log alpha {got} vs exact {target}"


@_suite("kernel")
def check_lrt_majority_symmetry() -> Iterator[str]:
    """Equal errors and equal priors reduce the LRT to plain majority."""
    for m in ODD_FANINS:
        lrt_rule, maj_rule = BayesianLRT(m, Priors.equal()), MajorityOdd(m)
        for x in GRID:
            pair = _pair(x, x)
            lrt = apply_rule(pair, lrt_rule)
            maj = apply_rule(pair, maj_rule)
            if not _log_close(lrt.alpha.value, lrt.beta.value):
                yield f"m={m}, x={x}: lrt alpha != beta"
            if not _log_close(lrt.alpha.value, maj.alpha.value):
                yield f"m={m}, x={x}: lrt != majority"


@_suite("kernel")
def check_lrt_threshold_structure() -> Iterator[str]:
    """Informative messages give a monotone (threshold) decision table."""
    for m in (2, 3, 4, 5, 6):
        lrt = BayesianLRT(m, Priors(0.3, 0.7))
        for a in GRID:
            for b in (0.05, 0.25, 0.45):
                if a + b >= 1.0:
                    continue
                table = lrt.table(_pair(a, b))
                if any(table[s] and not table[s + 1] for s in range(m)):
                    yield f"m={m}, pair=({a},{b}): non-threshold {table}"


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


@_suite("oracle")
def check_kernel_matches_enumeration(fanins=range(2, 11), grid=GRID_48) -> Iterator[str]:
    """Closed-form steps equal brute-force enumeration over all vectors.

    Every pair is stepped through `apply_rule` and compared with its own
    oracle pair.  The oracle's alpha' reads only the twin and alpha, and
    its beta' only the twin and beta, so each one-sided sum is computed
    once per twin and value within the call.  A likelihood-ratio twin is
    shared by the pairs whose tables coincide; twins are keyed by identity.
    """
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
                            yield f"{rule} ({a},{b}): {side} {ours} vs oracle {theirs}"


@_suite("oracle")
def check_lrt_matches_optimal(fanins=range(2, 7), grid=GRID_48) -> Iterator[str]:
    """The count-threshold LRT equals the per-vector MAP optimum.

    Every (pair, priors) cell is stepped through `apply_rule` and compared
    with its own MAP pair.  P(v | H0) reads only alpha and P(v | H1) only
    beta, so each likelihood vector is built once per value within the
    call; the MAP mask and its two sums are formed per cell.
    """
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
                        yield (
                            f"m={m}, priors=({priors.pi0},{priors.pi1}), "
                            f"pair=({a},{b}): lrt != optimal"
                        )


@_suite("oracle")
def check_lrt_beats_count_rules() -> Iterator[str]:
    """No deterministic per-count rule has smaller total error than the LRT."""
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
                        yield (
                            f"m={m}, priors=({priors.pi0},{priors.pi1}), "
                            f"pair=({a},{b}): lrt {ours} > best rule {best}"
                        )


@_suite("oracle")
def check_lrt_beats_majority() -> Iterator[str]:
    """Per-level total error: likelihood ratio <= fair majority."""
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
                        yield (
                            f"m={m}, priors=({priors.pi0},{priors.pi1}), "
                            f"pair=({a},{b}): lrt worse than majority"
                        )


@_suite("oracle")
def check_permutation_invariance() -> Iterator[str]:
    """Shuffling message positions inside a rule cannot change the errors."""
    m = 5
    base = oracle.VectorRule(m, lambda v: 1.0 if v[0] and v[1] else 0.0)
    perm = (3, 1, 4, 0, 2)
    shuffled = oracle.VectorRule(m, lambda v: 1.0 if v[perm[0]] and v[perm[1]] else 0.0)
    for a, b in ((0.1, 0.2), (0.45, 0.05), (0.3, 0.3)):
        one = oracle.enumerate_step(_pair(a, b), m, base)
        two = oracle.enumerate_step(_pair(a, b), m, shuffled)
        if not _pairs_close(one, two):
            yield f"pair=({a},{b}): permutation changed the step"


# ---------------------------------------------------------------- bounds

@_suite("bounds")
def check_ratio_poly() -> Iterator[str]:
    """Known closed forms plus strict monotone decrease on fine grids."""
    for x in GRID:
        if not math.isclose(bounds.ratio_poly(2, 1, x), 2.0 - x, rel_tol=1e-12):
            yield f"ratio_poly(2,1,{x}) != 2 - x"
        if not math.isclose(
            bounds.ratio_poly(3, 2, x), x * x - 3 * x + 3, rel_tol=1e-12
        ):
            yield f"ratio_poly(3,2,{x}) != x^2 - 3x + 3"
    xs = [i / 1001.0 for i in range(1, 1001)]  # 1000 interior points
    for m in range(2, 11):
        for k in range(1, m):
            prev = None
            for x in xs:
                val = bounds.ratio_poly(m, k, x)
                if prev is not None and not val < prev:
                    yield f"ratio_poly(m={m},k={k}) not decreasing at x={x}"
                    break
                prev = val


@_suite("bounds")
def check_sandwich_on_traces() -> Iterator[str]:
    """Traced log2(1/alpha_k) lies inside the telescoped level bounds."""
    for m in range(2, 11):
        lam = bounds.per_level_exponent(m)
        informative = 0.5 / math.comb(m, lam)
        alphas = (0.1, 0.3, informative)
        for a0 in alphas:
            trace = propagate(_pair(a0, a0), Schedule(m, 12), Priors.equal())
            for k, pair in enumerate(trace.pairs):
                sw = bounds.level_bounds(a0, m, k, bounds.RateKind.MAJORITY_RANDOM)
                if not sw.contains(pair.alpha.log2_inverse, tol=1e-6):
                    yield (
                        f"majority m={m}, a0={a0}, k={k}: "
                        f"{pair.alpha.log2_inverse} outside [{sw.lower}, {sw.upper}]"
                    )
        if m % 2 == 0:
            # the even-k alternating bound telescopes with one tie-inclusive
            # step per pair, which anchors ties-to-zero at level 1; at m=2
            # the opposite order squares the constant and escapes the bound
            firsts = ["zero", "one"] if m >= 4 else ["zero"]
            for a0 in alphas:
                for first in firsts:
                    schedule = Schedule(m, 12, "alternating", phase=first)
                    trace = propagate(_pair(a0, a0), schedule, Priors.equal())
                    for k in range(0, 13, 2):
                        sw = bounds.level_bounds(
                            a0, m, k, bounds.RateKind.ALTERNATING
                        )
                        bits = trace.pairs[k].alpha.log2_inverse
                        if not sw.contains(bits, tol=1e-6):
                            yield (
                                f"alternating m={m}, a0={a0}, k={k}, "
                                f"first={first}: {bits} outside "
                                f"[{sw.lower}, {sw.upper}]"
                            )


@_suite("bounds")
def check_exponent_ratio_convergence() -> Iterator[str]:
    """log2(1/alpha_k) / lambda^k decreases into its limiting band."""
    for m in (2, 3, 4, 5, 7, 10):
        lam = bounds.per_level_exponent(m)
        log2_c = math.log2(math.comb(m, lam))
        for a0 in (0.1, 0.01):
            trace = propagate(_pair(a0, a0), Schedule(m, 10), Priors.equal())
            ratios = [
                trace.pairs[k].alpha.log2_inverse / lam**k for k in range(11)
            ]
            for k in range(10):
                if ratios[k + 1] > ratios[k] + 1e-9:
                    yield f"m={m}, a0={a0}: ratio rose at level {k + 1}"
            lo = math.log2(1 / a0) - log2_c
            hi = math.log2(1 / a0)
            if not lo - 1e-9 <= ratios[-1] <= hi + 1e-9:
                yield (
                    f"m={m}, a0={a0}: limit ratio {ratios[-1]} outside "
                    f"[{lo}, {hi}]"
                )


def _outside_cells(schedule: Schedule, a0: float, b0: float) -> Iterator[str]:
    """The levels of a trace by `schedule` from leaf pair (a0, b0) whose
    total bits leave, by more than 1e-9, the cells that bounds.bound_cells
    gives the same level: below its lower cell, or above its upper one."""
    walk = iter_levels(_pair(a0, b0), schedule, schedule.priors)
    for k, (cells, (_, total)) in enumerate(zip(bounds.bound_cells(schedule, a0, b0), walk)):
        bits = total.log2_inverse
        lower = cells[0] if cells else -math.inf
        upper = cells[1] if len(cells) == 2 else math.inf
        if not lower - 1e-9 <= bits <= upper + 1e-9:
            yield f"level {k}: total {bits} bits outside [{lower}, {upper}]"


@_suite("bounds")
def check_total_bounds() -> Iterator[str]:
    """Traced totals lie inside their total-error sandwiches at every level."""
    yield from (f"majority m=3, {msg}" for msg in _outside_cells(Schedule(3, 4), 0.1, 0.1))
    # alternating totals: m >= 4 only; at m=2 one of alpha/beta always
    # follows the order that escapes the even-height constant
    for m in (4, 6):
        for priors in (Priors.equal(), Priors(0.3, 0.7)):
            for first in ("one", "zero"):
                schedule = Schedule(m, 4, "alternating", phase=first, priors=priors)
                yield from (f"alternating m={m}, pi0={priors.pi0}, first={first}, {msg}"
                            for msg in _outside_cells(schedule, 0.1, 0.15))


@_suite("bounds")
def check_lrt_lower_bound() -> Iterator[str]:
    """The LRT guarantee holds on traced likelihood-ratio totals."""
    for m in (3, 5):
        for priors in (Priors.equal(), Priors(0.3, 0.7)):
            yield from (f"lrt m={m}, pi0={priors.pi0}, {msg}"
                        for msg in _outside_cells(Schedule(m, 3, "lrt", priors=priors), 0.1, 0.1))


# -------------------------------------------------------------- alphabet

@_suite("alphabet")
def check_rate_collapse() -> Iterator[str]:
    """d=2 alphabet rates must equal the binary exponents."""
    for m in range(2, 21):
        r = alph.rates(m, 2)
        upper = bounds.exponent(m, bounds.RateKind.UPPER_BOUND)
        major = bounds.exponent(m, bounds.RateKind.MAJORITY_RANDOM)
        if abs(r.rho - upper) > 1e-12:
            yield f"m={m}: rho {r.rho} != upper {upper}"
        if m % 2 == 0:
            alt = bounds.exponent(m, bounds.RateKind.ALTERNATING)
            if abs(r.varrho - major) > 1e-12:
                yield f"m={m}: varrho {r.varrho} != majority {major}"
            if abs(r.sigma - alt) > 1e-12:
                yield f"m={m}: sigma {r.sigma} != alternating {alt}"
        elif abs(r.varrho - upper) > 1e-12:
            yield f"m={m}: odd varrho {r.varrho} != {upper}"


# ------------------------------------------------------------------- sim

@_suite("sim", "agreement")
def check_sim_agreement() -> Iterator[str]:
    """|z| <= 4 between simulation and recursion across the rule matrix.

    Each config gets its own seed (20260817, 20260818, ...), so no two
    share a leaf stream and the z-tests are independent.
    """
    seed = 20260817
    for m in (2, 3, 4, 5):
        kinds = {"majority": {}, "lrt": {"rule": "lrt"}}
        if m % 2 == 0:
            kinds.update(majority_biased={"pb": 0.3}, alternating={"rule": "alternating"})
        for kind, flags in kinds.items():
            for height in (1, 2, 3):
                for a0 in (0.1, 0.3):
                    for hyp in (Hypothesis.H0, Hypothesis.H1):
                        cfg = SimConfig(alph.TreeSpec(m, height, 2), Schedule(m, height, **flags),
                                        _pair(a0, a0), _TRIALS, seed, hyp)
                        seed += 1
                        rep = compare_to_analytic(cfg)
                        if rep.flagged:
                            yield (
                                f"m={m}, {kind}, h={height}, a0={a0}, "
                                f"{hyp.value}: z={rep.z_score:.2f} "
                                f"(est {rep.result.estimate}, "
                                f"analytic {rep.analytic})"
                            )


@_suite("sim", "alphabet_equivalence")
def check_alphabet_equivalence_sim() -> Iterator[str]:
    """Count-forwarding trees behave like their reduced binary twins."""
    # frozen example: m=2, d=5 gives k0=3, one decision over 8 leaves,
    # ties to 1 there, so alpha_root = upper tail from 4 of Binom(8, 0.1)
    spec = alph.TreeSpec(2, 3, 5)
    rules = [AlternatingMajority(8, TiePhase.TIES_TO_ONE)]
    cfg = SimConfig(spec, rules, _pair(0.1, 0.1), _TRIALS, 4242, Hypothesis.H0)
    rep = compare_to_analytic(cfg)
    analytic = binom_tail(8, 4, 8, LogProb.from_linear(0.1)).linear
    if not math.isclose(rep.analytic, analytic, rel_tol=1e-12):
        yield f"reduced analytic {rep.analytic} != direct tail {analytic}"
    if abs(rep.result.estimate - analytic) > 3 * math.sqrt(
        analytic * (1 - analytic) / _TRIALS
    ):
        yield (
            f"(2, d=5, h=3) estimate {rep.result.estimate} not within "
            f"3 sigma of {analytic}"
        )
    # alphabet run vs simulated reduced twin, both hypotheses
    for m, d, h, a0 in ((2, 3, 4, 0.3), (3, 10, 3, 0.3)):
        spec = alph.TreeSpec(m, h, d)
        red_spec = alph.equivalent_tree(spec)
        rules = Schedule(red_spec.m, red_spec.height)
        for hyp in (Hypothesis.H0, Hypothesis.H1):
            rep = compare_to_analytic(
                SimConfig(spec, rules, _pair(a0, a0), _TRIALS, 99, hyp)
            )
            full, p = rep.result, rep.analytic
            red = compare_to_analytic(
                SimConfig(red_spec, rules, _pair(a0, a0), _TRIALS, 100, hyp)
            ).result
            sd = math.sqrt(max(p * (1 - p), 1e-30) / _TRIALS)
            if abs(full.estimate - red.estimate) > 3 * math.sqrt(2) * sd:
                yield (
                    f"(m={m}, d={d}, h={h}, {hyp.value}): alphabet "
                    f"{full.estimate} vs reduced {red.estimate}"
                )


# ---------------------------------------------------------------- suites

def run_suites(names) -> int:
    """Run the named suites, print one line per check with its wall time
    and the first ten of its failures, return the count of all failures."""
    failures = 0
    for suite in names:
        for name, fn in SUITES[suite]:
            start = time.perf_counter()
            try:
                msgs = fn()
            except Exception as err:  # a check that raises fails once; the rest still run
                msgs = [f"{type(err).__name__}: {err}"]
            took = time.perf_counter() - start
            print(f"{'FAIL' if msgs else 'ok  '} {suite}.{name}  {took:.1f} s")
            failures += len(msgs)
            for msg in msgs[:10]:
                print(f"     {msg}")
            if len(msgs) > 10:
                print(f"     ... and {len(msgs) - 10} more")
    return failures
