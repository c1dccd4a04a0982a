"""Record the reference outputs the benchmark's correctness gates compare to.

    python3 bench/record_reference.py

Runs every pool entry once: each trace entry at its stratum's cap depth
(shallower requests compare against a prefix), each Monte Carlo entry
with its fixed trials and seed.  Refuses to write a reference that
fails its own gate (bounds containment, |z| <= 4).
"""

from __future__ import annotations

import gzip
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def record_trace() -> dict:
    ref = {}
    for _, key, argv, cap in wl.trace_pool():
        rc, out = wl.run_recurse([*argv, "--levels", str(cap)])
        lines = out.splitlines()
        header = lines[0].split(",")
        cols = [header.index(c) for c in wl.TRACE_COLUMNS]
        rows = [line.split(",") for line in lines[1:]]
        lo, hi, tot = (header.index(c) for c in ("thm_lower", "thm_upper", "total_log2inv"))
        if rc != 0 or not all(wl.in_bounds(r[tot], r[lo], r[hi]) for r in rows):
            raise SystemExit(f"{key}: exit {rc} or total outside its bounds")
        ref[key] = [[row[c] for c in cols] for row in rows]
    return ref


def record_mc(name: str, strata) -> dict:
    by_name = {st.name: st for st in strata}
    ref = {}
    for _, key, params in wl.mc_pool(name, strata):
        report = wl.simulate.compare_to_analytic(wl.mc_config(by_name, params))
        if report.flagged:
            raise SystemExit(f"{key}: z = {report.z_score}")
        ref[key] = report.result.error_count
    return ref


def main() -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    outputs = {
        "trace": record_trace(),
        "mc_narrow": record_mc("mc_narrow", wl.MC_NARROW),
        "mc_wide": record_mc("mc_wide", wl.MC_WIDE),
    }
    for name, ref in outputs.items():
        # mtime=0 keeps the file byte-identical for identical references
        with gzip.GzipFile(wl.reference_path(name), "wb", mtime=0) as raw, \
                io.TextIOWrapper(raw) as fh:
            json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(ref)} entries")


if __name__ == "__main__":
    main()
