"""Every `verify` check reports its failures.

Each test breaks what one check compares against and asserts that the
check's own failure text appears.  The kernel_matches_enumeration,
lrt_matches_optimal, lrt_beats_count_rules, even_majority_sandwich and
tie_weight_sandwich mutations live in tests/test_oracle.py.
"""

import dataclasses
import math

from relaytree import oracle, verify
from relaytree.kernel import BayesianLRT, ErrorPair, MajorityOdd, _CountTable, apply_rule
from relaytree.simulate import ComparisonReport, SimResult

NAMES = [
    "kernel.odd_majority_sandwich",
    "kernel.even_majority_sandwich",
    "kernel.tie_weight_sandwich",
    "kernel.alternating_sandwich",
    "kernel.deep_trace",
    "kernel.lrt_majority_symmetry",
    "kernel.lrt_threshold_structure",
    "oracle.kernel_matches_enumeration",
    "oracle.lrt_matches_optimal",
    "oracle.lrt_beats_count_rules",
    "oracle.lrt_beats_majority",
    "oracle.permutation_invariance",
    "bounds.ratio_poly",
    "bounds.sandwich_on_traces",
    "bounds.exponent_ratio_convergence",
    "bounds.total_cells",
    "bounds.lrt_cells",
    "alphabet.rates_on_traces",
    "sim.agreement",
    "sim.alphabet_equivalence",
]


def test_suites_list_the_twenty_checks_in_order():
    assert [f"{suite}.{name}" for suite, checks in verify.SUITES.items()
            for name, _ in checks] == NAMES
    # each registered callable is the module's public check
    for suite, checks in verify.SUITES.items():
        for name, fn in checks:
            assert fn.__name__.startswith("check_") and getattr(verify, fn.__name__) is fn


def alpha_mapped(monkeypatch, fn, kind=object):
    """Make verify step rules of type `kind` with alpha' replaced by fn(alpha')."""
    real = apply_rule

    def mapped(pair, rule):
        got = real(pair, rule)
        if not isinstance(rule, kind):
            return got
        return ErrorPair.from_linear(fn(got.alpha.linear), got.beta.linear)

    monkeypatch.setattr(verify, "apply_rule", mapped)


# ---------------------------------------------------------------- kernel

def test_odd_majority_sandwich_sees_a_step_below_its_lower_bound(monkeypatch):
    alpha_mapped(monkeypatch, lambda a: a * 1e-3)
    fails = verify.check_odd_majority_sandwich()
    assert len(fails) == len(verify.ODD_FANINS) * len(verify.GRID)
    assert all(msg.startswith("MajorityOdd(m=") and ": log-ratio " in msg for msg in fails)


def test_alternating_sandwich_sees_a_step_below_its_lower_bound(monkeypatch):
    alpha_mapped(monkeypatch, lambda a: a * 1e-3)
    fails = verify.check_alternating_sandwich()
    assert len(fails) == 2 * len(verify.EVEN_FANINS) * len(verify.GRID)
    assert all(msg.startswith("AlternatingMajority(m=") and ": log-ratio " in msg
               for msg in fails)


def test_deep_trace_sees_a_wrong_fan_in(monkeypatch):
    real = verify.propagate
    monkeypatch.setattr(verify, "propagate",
                        lambda pair, rules, priors: real(pair, [MajorityOdd(5)] * len(rules), priors))
    fails = verify.check_deep_trace()
    assert [msg.split(":")[0] for msg in fails] == [f"level {k}" for k in range(1, 5)]
    assert all(" vs exact " in msg for msg in fails)


def test_lrt_majority_symmetry_sees_an_lrt_alpha_off(monkeypatch):
    alpha_mapped(monkeypatch, lambda a: a * 1.01, BayesianLRT)
    fails = verify.check_lrt_majority_symmetry()
    assert len(fails) == 2 * len(verify.ODD_FANINS) * len(verify.GRID)
    assert {msg.split(": ")[1] for msg in fails} == {"lrt alpha != beta", "lrt != majority"}


def test_lrt_threshold_structure_sees_a_reversed_table(monkeypatch):
    real = BayesianLRT.table
    monkeypatch.setattr(BayesianLRT, "table", lambda rule, p: _CountTable(real(rule, p)[::-1]))
    fails = verify.check_lrt_threshold_structure()
    assert fails
    assert all(": non-threshold " in msg for msg in fails)


# ---------------------------------------------------------------- oracle

def test_lrt_beats_majority_sees_a_worse_lrt(monkeypatch):
    # halfway to 1: still a probability, and always worse
    alpha_mapped(monkeypatch, lambda a: (1 + a) / 2, BayesianLRT)
    fails = verify.check_lrt_beats_majority()
    assert fails
    assert all(msg.endswith("lrt worse than majority") for msg in fails)


def test_permutation_invariance_sees_a_position_that_never_errs(monkeypatch):
    # an enumeration that reads message 0 as 0 whatever was sent: the base
    # rule reads position 0, its shuffle does not
    real = oracle.enumerate_step

    def stuck(pair, m, rule):
        return real(pair, m, oracle.VectorRule(m, lambda v: rule.decide((0, *v[1:]))))

    monkeypatch.setattr(oracle, "enumerate_step", stuck)
    fails = verify.check_permutation_invariance()
    assert len(fails) == 3
    assert all(msg.endswith("permutation changed the step") for msg in fails)


# ---------------------------------------------------------------- bounds

def test_ratio_poly_sees_a_relative_error(monkeypatch):
    real = verify.bounds.ratio_poly
    monkeypatch.setattr(verify.bounds, "ratio_poly", lambda m, k, x: real(m, k, x) * (1 + 1e-9))
    fails = verify.check_ratio_poly()
    assert len(fails) == 2 * len(verify.GRID)
    assert any(msg.endswith("!= 2 - x") for msg in fails)
    assert any(msg.endswith("!= x^2 - 3x + 3") for msg in fails)


def shifted_cells(monkeypatch, bits, walk="bound_cells"):
    """Make verify's bound `walk` yield cells `bits` higher than the real ones."""
    real = getattr(verify.bounds, walk)
    monkeypatch.setattr(verify.bounds, walk, lambda *args: (
        tuple(cell + bits for cell in cells) for cells in real(*args)))


def test_sandwich_on_traces_sees_a_shifted_level_bound(monkeypatch):
    shifted_cells(monkeypatch, 1e3, "level_bounds")
    fails = verify.check_sandwich_on_traces()
    assert len(fails) == 284
    assert sum(msg.startswith("majority m=") for msg in fails) == 195
    assert sum(msg.startswith("alternating m=") for msg in fails) == 89
    assert all(" outside [" in msg for msg in fails)


def test_exponent_ratio_convergence_sees_a_wrong_exponent(monkeypatch):
    real = verify.bounds.per_level_exponent
    monkeypatch.setattr(verify.bounds, "per_level_exponent", lambda m: real(m) + 1)
    fails = verify.check_exponent_ratio_convergence()
    assert any(": limit ratio " in msg and " outside [" in msg for msg in fails)


def test_total_bounds_sees_a_shifted_total_bound(monkeypatch):
    shifted_cells(monkeypatch, 1e3)
    fails = verify.check_total_cells()
    # levels 0..4 of the m=3 trace, and levels 0, 2, 4 of the 8 alternating ones
    assert len(fails) == 5 + 2 * 2 * 2 * 3
    assert all(msg.startswith("majority m=3, level ") for msg in fails[:5])
    assert all(msg.startswith("alternating m=") for msg in fails[5:])
    assert all(" bits outside [" in msg for msg in fails)


def test_total_bounds_sees_alternating_traces_given_the_random_tie_theorem(monkeypatch):
    # alternating traces outrun the random-tie upper bound at m = 4, level 4
    real = verify.bounds.bound_cells

    def random_tie(schedule, a0, b0):
        if schedule.rule == "alternating":
            schedule = dataclasses.replace(schedule, rule="majority", phase=None)
        return real(schedule, a0, b0)

    monkeypatch.setattr(verify.bounds, "bound_cells", random_tie)
    fails = verify.check_total_cells()
    assert len(fails) == 2
    assert all(msg.startswith("alternating m=4, ") and ", first=one, level 4: total " in msg
               for msg in fails)


def test_lrt_lower_bound_sees_a_guarantee_above_the_trace(monkeypatch):
    shifted_cells(monkeypatch, 1e3)
    fails = verify.check_lrt_cells()
    # levels 0..3 of each of the four traces; the guarantee has no upper cell
    assert len(fails) == 2 * 2 * 4
    assert all(msg.startswith("lrt m=") and msg.endswith(", inf]") for msg in fails)


# -------------------------------------------------------------- alphabet

def mutated_rates(monkeypatch, **fields):
    """Make verify's alphabet rates carry field(m, k0, rates) for each of
    `fields` in place of the true rate."""
    real = verify.alph.rates_from_k0

    def mutated(m, k0):
        r = real(m, k0)
        return dataclasses.replace(r, **{name: fn(m, k0, r) for name, fn in fields.items()})

    monkeypatch.setattr(verify.alph, "rates_from_k0", mutated)


def test_rates_on_traces_sees_a_wrong_rate(monkeypatch):
    mutated_rates(monkeypatch, majority_random=lambda m, k0, r: r.majority_random + 1e-9)
    fails = verify.check_rates_on_traces()
    # every majority case: m = 2..8, each k0 with m^k0 <= 5000
    assert len(fails) == 12 + 7 + 6 + 5 + 4 + 4 + 4
    assert all(", majority: slope " in msg and " vs varrho " in msg for msg in fails)

    # the alternating exponent's formula at fan-in m^k0 + 1, not m^k0
    def sigma(m, k0, r):
        n = m**k0 + 1
        return (0.5 * (math.log(n) + math.log(n + 2)) - math.log(2.0)) / math.log(n)

    monkeypatch.undo()
    mutated_rates(monkeypatch, alternating=sigma)
    fails = verify.check_rates_on_traces()
    # every alternating case: even m = 2..8, each k0 with m^k0 <= 5000
    assert len(fails) == 12 + 6 + 4 + 4
    assert all(", alternating: slope " in msg and " vs sigma " in msg for msg in fails)


def test_rates_on_traces_sees_a_slope_above_rho(monkeypatch):
    mutated_rates(monkeypatch, upper_bound=lambda m, k0, r: 0.0)
    fails = verify.check_rates_on_traces()
    # all 68 cases but fair-coin majority at fan-in 2, whose slope is 0
    assert len(fails) == 68 - 1
    assert all(" above rho " in msg for msg in fails)


# ------------------------------------------------------------------- sim

def report(estimate, analytic, z):
    return ComparisonReport(SimResult(0, 1, estimate, 0.0), analytic, z, abs(z) > 4.0)


def test_sim_agreement_sees_every_flagged_run(monkeypatch):
    # no simulation runs: every config's report is flagged
    monkeypatch.setattr(verify, "compare_to_analytic", lambda cfg: report(0.5, 0.1, 9.0))
    fails = verify.check_sim_agreement()
    assert len(fails) == 12 * 3 * 2 * 2  # rule matrix x heights x leaf errors x hypotheses
    assert all(": z=9.00 (est 0.5, analytic 0.1)" in msg for msg in fails)


def test_alphabet_equivalence_sees_a_run_off_its_reduced_twin(monkeypatch):
    # no simulation runs: count-forwarding trees (d > 2) report 0.5 against
    # an analytic 0.2, their binary twins 0.2
    def fake(cfg):
        return report(0.5 if cfg.spec.d > 2 else 0.2, 0.2, 0.0)

    monkeypatch.setattr(verify, "compare_to_analytic", fake)
    fails = verify.check_alphabet_equivalence_sim()
    assert fails[0].startswith("reduced analytic 0.2 != direct tail ")
    assert fails[1].startswith("(2, d=5, h=3) estimate 0.5 not within 3 sigma of ")
    assert len(fails) == 2 + 2 * 2
    assert all(msg.endswith("alphabet 0.5 vs reduced 0.2") for msg in fails[2:])

