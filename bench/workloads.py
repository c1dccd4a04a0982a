"""Seeded request generators and per-request correctness gates.

Each workload draws its requests from a fixed pool whose references
(printed log2inv columns for `trace`, exact error counts for `mc_*`)
were recorded by record_reference.py.  The seed picks which pool
variant each stratum uses, the trace depths and the crosscheck grids,
and the order; every stratum (cost class) appears equally often in an
epoch, so epochs of different seeds cost about the same.  relaytree
sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from relaytree import (
    DEFAULT_BUDGET,
    AlternatingMajority,
    BayesianLRT,
    ErrorPair,
    Hypothesis,
    MajorityEven,
    Priors,
    SimConfig,
    TreeSpec,
    alphabet_schedule,
    alternating_phases,
    majority_rule,
)
from relaytree import cli, verify
from relaytree.bounds import per_level_exponent

# the package re-exports the function simulate under the module's name
simulate = importlib.import_module("relaytree.simulate")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MC_VARIANTS = 8  # pool entries per stratum
TRACE_VARIANTS = 2  # fewer: each trace entry stores up to 400 rows


@dataclass(frozen=True)
class Request:
    stratum: str
    key: str  # pool entry, the reference lookup key
    args: tuple


def _pool_rng(workload: str, stratum: str) -> random.Random:
    # fixed, seed-independent: the pool is what the references cover
    return random.Random(f"relaytree-bench/{workload}/{stratum}")


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json.gz"


def _load_reference(name: str) -> dict:
    with gzip.open(reference_path(name), "rt") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ trace

# (stratum, m, extra recurse flags); each rule family of the CLI
TRACE_STRATA = [
    ("odd_m3", 3, ()),
    ("odd_m5", 5, ()),
    ("odd_m9", 9, ()),
    ("odd_m63", 63, ()),
    ("odd_m255", 255, ()),
    ("even_m4_pb0.5", 4, ("--pb", "0.5")),
    ("even_m64_pb0.5", 64, ("--pb", "0.5")),
    ("even_m4_pb0.3", 4, ("--pb", "0.3")),
    ("even_m10_pb0.3", 10, ("--pb", "0.3")),
    ("alt_m4", 4, ("--rule", "alternating")),
    ("alt_m10", 10, ("--rule", "alternating")),
    ("lrt_m3_pi0.5", 3, ("--rule", "lrt", "--pi0", "0.5")),
    ("lrt_m4_pi0.3", 4, ("--rule", "lrt", "--pi0", "0.3")),
    ("lrt_m64_pi0.5", 64, ("--rule", "lrt", "--pi0", "0.5")),
    ("lrt_m255_pi0.3", 255, ("--rule", "lrt", "--pi0", "0.3")),
]
TRACE_MIN_DEPTH = 50
TRACE_MAX_DEPTH = 400
TRACE_PER_STRATUM = 8
TRACE_COLUMNS = ("alpha_log2inv", "beta_log2inv", "total_log2inv")


def trace_cap(m: int) -> int:
    """Deepest level whose log2inv values and bound columns stay finite.

    Bits grow at most by per_level_exponent(m) + 1 per level; 1e296
    leaves room for the leaf bits and the LRT penalty term.
    """
    growth = per_level_exponent(m) + 1
    return min(TRACE_MAX_DEPTH, int(math.log(1e296) / math.log(growth)))


def trace_pool() -> list:
    """Every (stratum, variant) pool entry as (stratum, key, argv at cap depth)."""
    pool = []
    for stratum, m, flags in TRACE_STRATA:
        rng = _pool_rng("trace", stratum)
        for v in range(TRACE_VARIANTS):
            a0 = round(rng.uniform(0.01, 0.3), 3)
            b0 = round(rng.uniform(0.01, 0.3), 3)
            argv = ["recurse", "--m", str(m), "--alpha0", repr(a0), "--beta0", repr(b0), *flags]
            if "alternating" in flags:
                argv += ["--phase", ("one", "zero")[v % 2]]
            pool.append((stratum, f"{stratum}/{v}", argv, trace_cap(m)))
    return pool


def run_recurse(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue()


def print_quantum(ref: float) -> float:
    """One unit in the 12th significant digit, the CLI's print precision."""
    if ref == 0.0 or math.isinf(ref):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(ref))) - 11)


def printed_close(got: str, ref: str) -> bool:
    """Printed values agree within verify.TOL relative, plus one print
    quantum: two values within 1e-12 can round one digit apart."""
    if got == ref:
        return True
    g, r = float(got), float(ref)
    return abs(g - r) <= verify.TOL * max(1.0, abs(r)) + print_quantum(r)


def in_bounds(total: str, lower: str, upper: str) -> bool:
    t = float(total)
    slack = 2 * print_quantum(t) + 1e-9
    if lower and t < float(lower) - slack:
        return False
    if upper and t > float(upper) + slack:
        return False
    return True


class TraceWorkload:
    """In-process `relaytree recurse` over every rule family, 50-400 levels."""

    name = "trace"

    def __init__(self, seed: int):
        self.reference = _load_reference("trace")
        rng = random.Random(seed)
        by_stratum = {}
        for stratum, key, argv, cap in trace_pool():
            by_stratum.setdefault(stratum, []).append((key, argv, cap))
        self.epoch = []
        for stratum, entries in by_stratum.items():
            cap = entries[0][2]
            width = (cap - TRACE_MIN_DEPTH) / TRACE_PER_STRATUM
            for i in range(TRACE_PER_STRATUM):
                key, argv, _ = rng.choice(entries)
                # one depth per equal slice of [50, cap], the same for every seed,
                # so epochs of different seeds cost the same
                depth = TRACE_MIN_DEPTH + int((i + 0.5) * width)
                self.epoch.append(Request(stratum, key, (*argv, "--levels", str(depth))))
        rng.shuffle(self.epoch)
        self.warmup = max(self.epoch, key=lambda r: (r.stratum == "odd_m255", int(r.args[-1])))

    def execute(self, req: Request):
        return run_recurse(list(req.args))

    def check(self, req: Request, result) -> bool:
        rc, out = result
        if rc != 0:
            return False
        lines = out.splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        ref = self.reference[req.key]
        if len(rows) != int(req.args[-1]) + 1 or len(rows) > len(ref):
            return False
        cols = [header.index(c) for c in TRACE_COLUMNS]
        lo, hi, tot = header.index("thm_lower"), header.index("thm_upper"), header.index("total_log2inv")
        for row, ref_row in zip(rows, ref):
            if not all(printed_close(row[c], r) for c, r in zip(cols, ref_row)):
                return False
            if not in_bounds(row[tot], row[lo], row[hi]):
                return False
        return True


# ------------------------------------------------------------- crosscheck

CROSS_STRATA = [("kme", m) for m in range(2, 15)] + [("lrt_opt", m) for m in range(3, 15)]
CROSS_GRID_POINTS = 2
CROSS_PER_STRATUM = 4


class CrosscheckWorkload:
    """Per-cell kernel-vs-enumeration and LRT-vs-optimum checks, m = 2..14."""

    name = "crosscheck"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.epoch = []
        for check, m in CROSS_STRATA:
            for _ in range(CROSS_PER_STRATUM):
                grid = tuple(sorted(rng.sample(verify.GRID_48, CROSS_GRID_POINTS)))
                self.epoch.append(Request(f"{check}_m{m}", f"{check}_m{m}", (check, m, grid)))
        rng.shuffle(self.epoch)
        self.warmup = next(r for r in self.epoch if r.stratum == "kme_m14")

    def execute(self, req: Request):
        check, m, grid = req.args
        fn = (
            verify.check_kernel_matches_enumeration
            if check == "kme"
            else verify.check_lrt_matches_optimal
        )
        return fn(fanins=(m,), grid=list(grid))

    def check(self, req: Request, result) -> bool:
        return result == []


# --------------------------------------------------------------------- mc

MEM_CAP_BYTES = 512 * 2**20  # trials x leaves x 8 B, the simulator's int64 layout
MAX_LEAVES = 2**13  # far below the m=2, h=30 class


@dataclass(frozen=True)
class MCStratum:
    name: str
    m: int
    height: int
    d: int
    rule: str  # majority | biased | alternating | lrt | lrt_0.3
    trials: int
    err_range: tuple  # leaf alpha0/beta0 drawn from this range


def memory_guard(stratum: MCStratum) -> None:
    """Refuse a request class whose trials x leaves x 8 B layout could
    crowd the machine, or which the simulator's budget would refuse."""
    leaves = stratum.m**stratum.height
    samples = stratum.trials * leaves
    if leaves > MAX_LEAVES:
        raise ValueError(f"{stratum.name}: {leaves} leaves exceeds {MAX_LEAVES}")
    if samples * 8 > MEM_CAP_BYTES:
        raise ValueError(f"{stratum.name}: {samples * 8} B exceeds {MEM_CAP_BYTES} B")
    if samples > DEFAULT_BUDGET:
        raise ValueError(f"{stratum.name}: {samples} leaf samples exceeds the budget")


# most requests draw about 1e6 leaf samples; two heavier strata hold the tail
MC_NARROW = [
    MCStratum("odd_m3_h2", 3, 2, 2, "majority", 120_000, (0.05, 0.3)),
    MCStratum("odd_m9_h1", 9, 1, 2, "majority", 120_000, (0.1, 0.35)),
    MCStratum("odd_m3_h3", 3, 3, 2, "majority", 100_000, (0.1, 0.35)),
    MCStratum("odd_m5_h2", 5, 2, 2, "majority", 100_000, (0.1, 0.35)),
    MCStratum("even_m2_h3", 2, 3, 2, "majority", 125_000, (0.05, 0.3)),
    MCStratum("biased_m4_h1", 4, 1, 2, "biased", 250_000, (0.05, 0.3)),
    MCStratum("alt_m2_h3", 2, 3, 2, "alternating", 125_000, (0.05, 0.3)),
    MCStratum("alt_m2_h2", 2, 2, 2, "alternating", 250_000, (0.05, 0.3)),
    MCStratum("lrt_m3_h2", 3, 2, 2, "lrt", 120_000, (0.05, 0.3)),
    MCStratum("lrt0.3_m2_h3", 2, 3, 2, "lrt_0.3", 125_000, (0.05, 0.3)),
    MCStratum("count_m2_d5_h3", 2, 3, 5, "majority", 125_000, (0.1, 0.35)),
    MCStratum("count_m2_d3_h2", 2, 2, 3, "alternating", 250_000, (0.1, 0.35)),
    MCStratum("count_m3_d4_h2", 3, 2, 4, "majority", 120_000, (0.2, 0.4)),
]

# trials kept to one chunk, so per-node stream set-up is a large share
MC_WIDE = [
    MCStratum("even_m2_h10", 2, 10, 2, "majority", 1_000, (0.05, 0.45)),
    MCStratum("even_m2_h12", 2, 12, 2, "majority", 400, (0.05, 0.45)),
    MCStratum("biased_m2_h10", 2, 10, 2, "biased", 1_000, (0.3, 0.45)),
    MCStratum("biased_m4_h5", 4, 5, 2, "biased", 1_000, (0.35, 0.45)),
    MCStratum("alt_m4_h5", 4, 5, 2, "alternating", 1_000, (0.4, 0.47)),
    MCStratum("alt_m2_h11", 2, 11, 2, "alternating", 500, (0.4, 0.47)),
    MCStratum("odd_m3_h7", 3, 7, 2, "majority", 800, (0.44, 0.49)),
    MCStratum("lrt_m3_h7", 3, 7, 2, "lrt", 800, (0.44, 0.49)),
    MCStratum("count_m2_d3_h10", 2, 10, 3, "majority", 1_000, (0.3, 0.45)),
]


def _boundary_rules(rule: str, m_eff: int, n: int) -> list:
    if rule == "majority":
        return [majority_rule(m_eff, 0.5)] * n
    if rule == "biased":
        return [MajorityEven(m_eff, 0.3)] * n
    if rule == "alternating":
        return [AlternatingMajority(m_eff, ph) for ph in alternating_phases(n)]
    pi0 = 0.3 if rule == "lrt_0.3" else 0.5
    return [BayesianLRT(m_eff, Priors(pi0, 1.0 - pi0))] * n


def mc_pool(workload: str, strata) -> list:
    """Every (stratum, variant) pool entry as (stratum, key, params)."""
    pool = []
    for st in strata:
        memory_guard(st)
        rng = _pool_rng(workload, st.name)
        for v in range(MC_VARIANTS):
            lo, hi = st.err_range
            params = (
                st.name,
                round(rng.uniform(lo, hi), 3),
                round(rng.uniform(lo, hi), 3),
                ("h0", "h1")[v % 2],
                rng.randrange(2**32),
            )
            pool.append((st.name, f"{st.name}/{v}", params))
    return pool


def mc_config(strata_by_name: dict, params) -> SimConfig:
    name, a0, b0, hyp, sim_seed = params
    st = strata_by_name[name]
    spec = TreeSpec(st.m, st.height, st.d)
    boundary = _boundary_rules(st.rule, st.m**spec.k0, st.height // spec.k0)
    return SimConfig(
        spec,
        tuple(alphabet_schedule(spec, boundary)),
        ErrorPair.from_linear(a0, b0),
        st.trials,
        sim_seed,
        Hypothesis(hyp),
    )


class MCWorkload:
    """simulate.compare_to_analytic on seeded picks from a stratum pool."""

    def __init__(self, name: str, strata, per_stratum: int, seed: int):
        self.name = name
        self.strata = {st.name: st for st in strata}
        self.reference = _load_reference(name)
        rng = random.Random(seed)
        by_stratum = {}
        for stratum, key, params in mc_pool(name, strata):
            by_stratum.setdefault(stratum, []).append(Request(stratum, key, params))
        self.epoch = [
            req for entries in by_stratum.values() for req in rng.sample(entries, per_stratum)
        ]
        rng.shuffle(self.epoch)
        self.warmup = max(self.epoch, key=self.leaf_samples)
        self.count_matches = 0

    def leaf_samples(self, req: Request) -> int:
        st = self.strata[req.stratum]
        return st.trials * st.m**st.height

    def execute(self, req: Request):
        return simulate.compare_to_analytic(mc_config(self.strata, req.args))

    def check(self, req: Request, report) -> bool:
        # a documented stream change may move exact counts, so a count
        # mismatch is tallied, not failed; |z| <= 4 is the gate
        if report.result.error_count == self.reference[req.key]:
            self.count_matches += 1
        return math.isfinite(report.z_score) and abs(report.z_score) <= 4.0


WORKLOADS = {
    "trace": TraceWorkload,
    "crosscheck": CrosscheckWorkload,
    # requests per stratum: epochs of 3-4 s, and the tail rank (11th slowest)
    # falls inside a stratum rather than between two
    "mc_narrow": lambda seed: MCWorkload("mc_narrow", MC_NARROW, 7, seed),
    "mc_wide": lambda seed: MCWorkload("mc_wide", MC_WIDE, 4, seed),
}
