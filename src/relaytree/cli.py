"""Command-line front end.

Subcommands run the error recursion, the exponent and alphabet tables,
the sample-size planner, Monte Carlo simulations, and the verification
suites.  Tables go to standard output as CSV with 12-significant-digit
numerics (the planner emits JSON); diagnostics go to standard error.
Exit codes: 0 success, 1 verification failure, 2 usage error, and 141
(as if killed by SIGPIPE) when the reader of standard output goes away.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import bounds, kernel
from .alphabet import TreeSpec, avg_bits, bits_bounds, equivalent_tree, k0_of, rates_from_k0
from .kernel import ErrorPair, Priors, Schedule, iter_levels
from .simulate import Hypothesis, SimConfig, compare_to_analytic
from .verify import SUITES, run_suites

__all__ = ["run", "main"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def _emit_lines(header, lines) -> None:
    """Write a CSV header, then the finished row lines.  No cell holds a
    comma, quote or newline, so cells joined by commas are CSV that needs
    no quoting.  Callers build every line before any is written, so a
    refusal prints nothing.  writelines, not one write of the joined text:
    under python -u stdout writes straight to the file, and a large write
    that a closed pipe cuts short drops its rest with no error (exit 0,
    not 141)."""
    sys.stdout.write(",".join(header) + "\n")
    sys.stdout.writelines(lines)


def _emit_csv(header, rows) -> None:
    _emit_lines(header, [",".join(map(_fmt, row)) + "\n" for row in rows])


def _within(cast, low, high=math.inf, closed=True):
    """argparse type: cast the text, then require low <= x <= high
    (closed) or low < x < high (open); NaN lies in no range."""
    if high == math.inf:
        domain = f">= {low}"
    elif closed:
        domain = f"inside [{low}, {high}]"
    else:
        domain = f"inside ({low}, {high})"

    def parse(text: str):
        x = cast(text)
        if not (low <= x <= high if closed else low < x < high):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {x}")
        return x

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _refuse_overflow(k: int, logs, table: tuple) -> None:
    """Refuse a row whose alpha, beta or total log2(1/p) reads inf because
    a double overflowed.  Either log2 of a finite log overflows, or the
    log itself reached -inf.  Only a level table that decides 1 at no
    count (0 at no count) gives alpha (beta) an exact zero; majority and
    alternating tables send mass to both sides."""
    zeros = (max(table) == 0.0, min(table) == 1.0, False)
    for name, p, zero in zip(("alpha_log2inv", "beta_log2inv", "total_log2inv"), logs, zeros):
        if p.log2_inverse == math.inf and not (zero and p.value == -math.inf):
            raise ValueError(f"level {k}: {name} exceeds double range")


# one recurse row: the level; alpha, beta and the three log2(1/p) columns,
# as _fmt prints a float; then thm_lower and thm_upper, indexed by how
# many of the two the theorem gives at that level, the rest left empty
_RECURSE_ROW = "%d,%.12g,%.12g,%.12g,%.12g,%.12g"
_RECURSE_ROWS = tuple(_RECURSE_ROW + cells + "\n" for cells in (",,", ",%.12g,", ",%.12g,%.12g"))
_LN2 = math.log(2.0)


def _cmd_recurse(args) -> int:
    m = args.m
    if (args.levels + 1) * (m + 1) > kernel.WORK_LIMIT:
        raise ValueError(
            f"--levels {args.levels} with --m {m} exceeds the work limit: "
            f"(levels + 1) x (m + 1) must be at most {kernel.WORK_LIMIT}"
        )
    priors = Priors(args.pi0, 1.0 - args.pi0)
    schedule = Schedule(m, args.levels, args.rule, args.pb, args.phase, priors)
    # levels are taken in order, each its bound cells, then its step, then
    # its row's checks, so the first refusal is the lowest level's
    cells = itertools.islice(bounds.bound_cells(schedule, args.alpha0, args.beta0), args.levels + 1)
    walk = iter_levels(ErrorPair.from_linear(args.alpha0, args.beta0), schedule, priors)
    lines, below = [], None
    for k, (bound, (pair, tot)) in enumerate(zip(cells, walk)):
        # each log read once: the columns are LogProb.linear and .log2_inverse
        la, lb, lt = pair.alpha.value, pair.beta.value, tot.value
        logs = (-la / _LN2 + 0.0, -lb / _LN2 + 0.0, -lt / _LN2 + 0.0)
        if math.inf in logs:
            # the leaf row is finite: --alpha0 and --beta0 lie inside (0, 1);
            # a bound column is refused before it would read inf
            _refuse_overflow(k, (pair.alpha, pair.beta, tot), schedule[k - 1].table(below))
        lines.append(_RECURSE_ROWS[len(bound)] % (k, math.exp(la), math.exp(lb), *logs, *bound))
        below = pair
    _emit_lines(
        [
            "level",
            "alpha",
            "beta",
            "alpha_log2inv",
            "beta_log2inv",
            "total_log2inv",
            "thm_lower",
            "thm_upper",
        ],
        lines,
    )
    return 0


def _cmd_simulate(args) -> int:
    priors = Priors(args.pi0, 1.0 - args.pi0)
    spec = TreeSpec(args.m, args.height, args.d)
    reduced = equivalent_tree(spec)
    config = SimConfig(
        spec=spec,
        schedule=Schedule(reduced.m, reduced.height, args.rule, args.pb, args.phase, priors),
        leaf_pair=ErrorPair.from_linear(args.alpha0, args.beta0),
        trials=args.trials,
        seed=args.seed,
        hypothesis=Hypothesis(args.hypothesis),
    )
    report = compare_to_analytic(config)
    if report.flagged:
        print(
            f"warning: |z| = {abs(report.z_score):.2f} > 4 against the "
            f"closed form",
            file=sys.stderr,
        )
    _emit_csv(
        ["estimate", "ci3sigma", "analytic", "zscore"],
        [
            [
                report.result.estimate,
                report.result.ci_halfwidth_3sigma,
                report.analytic,
                report.z_score,
            ]
        ],
    )
    return 0


def _cmd_exponents(args) -> int:
    if args.m_min > args.m_max:
        raise ValueError(f"need --m-min <= --m-max, got ({args.m_min}, {args.m_max})")
    rows = [
        [r.m, r.majority_random, r.alternating, r.upper_bound]
        for r in bounds.exponent_table(range(args.m_min, args.m_max + 1))
    ]
    _emit_csv(["m", "majority_random", "alternating", "upper_bound"], rows)
    return 0


def _cmd_alphabet(args) -> int:
    if args.k0_max is not None:
        if args.d is not None:
            raise ValueError(
                "--d conflicts with --k0-max: the sweep ranges over "
                "counting depths directly"
            )
        k0_values = range(1, args.k0_max + 1)
    else:
        if args.d is None:
            raise ValueError("alphabet needs --d (single row) or --k0-max (sweep)")
        k0_values = [k0_of(args.m, args.d)]
    lo, hi = bits_bounds(args.m)
    rows = []
    for k0 in k0_values:
        r = rates_from_k0(args.m, k0)
        rows.append([k0, r.rho, r.varrho, r.sigma, avg_bits(args.m, k0), lo, hi])
    _emit_csv(
        ["k0", "rho", "varrho", "sigma", "avg_bits", "band_lower", "band_upper"],
        rows,
    )
    return 0


def _cmd_samplesize(args) -> int:
    res = bounds.sample_size(args.m, args.alpha0, args.beta0, args.epsilon)
    json.dump({"n_real": res.n_real, "k": res.k, "n_tree": res.n_tree}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = run_suites(names)
    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
        return 1
    return 0


@functools.cache  # parse_args builds a fresh Namespace on every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaytree",
        description="Error evolution, bounds, and simulation for relay-tree "
        "hypothesis testing.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_rule_flags(p):
        p.add_argument("--rule", choices=["majority", "alternating", "lrt"],
                       default="majority")
        p.add_argument("--pb", type=float, default=None,
                       help="tie probability for even-fan-in majority")
        p.add_argument("--phase", choices=["one", "zero"], default=None,
                       help="first tie direction for the alternating rule")
        p.add_argument("--pi0", type=_within(float, 0, 1), default=0.5)
        p.add_argument("--alpha0", type=_within(float, 0, 1, closed=False), required=True)
        p.add_argument("--beta0", type=_within(float, 0, 1, closed=False), required=True)

    p = sub.add_parser("recurse", help="per-level error trace with bounds")
    p.add_argument("--m", type=_within(int, 2), required=True)
    add_rule_flags(p)
    p.add_argument("--levels", type=_within(int, 0), required=True)
    p.set_defaults(func=_cmd_recurse)

    p = sub.add_parser("simulate", help="Monte Carlo check of one tree")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    add_rule_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hypothesis", choices=["h0", "h1"], default="h0")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exponents", help="decay-exponent table")
    p.add_argument("--m-min", type=_within(int, 2, 64), required=True)
    p.add_argument("--m-max", type=_within(int, 2, 64), required=True)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("alphabet", help="rates and message cost of count forwarding")
    p.add_argument("--m", type=_within(int, 2), required=True)
    p.add_argument("--d", type=_within(int, 2), default=None)
    p.add_argument("--k0-max", dest="k0_max", type=_within(int, 1), default=None)
    p.set_defaults(func=_cmd_alphabet)

    p = sub.add_parser("samplesize", help="leaf budget for a target error")
    p.add_argument("--m", type=_within(int, 2), required=True)
    p.add_argument("--alpha0", type=_within(float, 0, 1, closed=False), required=True)
    p.add_argument("--beta0", type=_within(float, 0, 1, closed=False), required=True)
    p.add_argument("--epsilon", type=_within(float, 0, 1, closed=False), required=True)
    p.set_defaults(func=_cmd_samplesize)

    p = sub.add_parser("verify", help="run the numeric invariant suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as err:
        # flag conflicts, and domain rejections (vacuous bounds, bad shapes) too
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: write the rest, and the final flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
