"""The standing CLI output corpus: for each argv, the sha256 of what
`relaytree` writes to standard output, its standard-error text and its
exit code, recorded in `cli_corpus.json` next to this file.

    python tests/cli_corpus.py record            # rewrite the manifest from this tree
    python tests/cli_corpus.py check [TEXT]      # replay it; exit 1 on any difference

`check TEXT` replays only the entries whose argv contains TEXT.  Every
run goes in-process through `relaytree.cli.run`.  The `  N.N s` wall
times that `verify` prints are masked before hashing.  Refusals that
argparse makes are left out: its usage text wraps to the terminal width.
An intended output change re-records the manifest and names the entries
that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from relaytree import cli

MANIFEST = Path(__file__).resolve().with_name("cli_corpus.json")

_LEAVES = "--alpha0 0.1 --beta0 0.2"
_SIM = f"{_LEAVES} --trials 10 --seed 1"

# cases that the tier-1 test replays, about 1.5 s in all
FAST = [
    # recurse: every rule family, with --pb, --phase and --pi0
    "recurse --m 3 --alpha0 0.1 --beta0 0.1 --levels 4",
    f"recurse --m 3 {_LEAVES} --levels 0",
    f"recurse --m 3 --pi0 0.3 {_LEAVES} --levels 6",
    f"recurse --m 4 {_LEAVES} --levels 6",
    f"recurse --m 4 --pb 0.5 {_LEAVES} --levels 6",
    f"recurse --m 4 --pb 0.3 {_LEAVES} --levels 6",
    f"recurse --m 6 --pb 0.9 --pi0 0.7 {_LEAVES} --levels 6",
    f"recurse --m 4 --rule alternating {_LEAVES} --levels 6",
    f"recurse --m 4 --rule alternating --phase one {_LEAVES} --levels 6",
    f"recurse --m 4 --rule alternating --phase zero --pi0 0.3 {_LEAVES} --levels 6",
    f"recurse --m 2 --rule alternating {_LEAVES} --levels 6",
    f"recurse --m 2 --rule alternating --phase zero {_LEAVES} --levels 6",
    f"recurse --m 3 --rule lrt {_LEAVES} --levels 6",
    f"recurse --m 4 --rule lrt --pi0 0.3 {_LEAVES} --levels 6",
    "recurse --m 2 --rule lrt --pi0 0.9 --alpha0 0.45 --beta0 0.45 --levels 1",
    # recurse: deep traces, and the levels where a bound or a double runs out
    f"recurse --m 3 {_LEAVES} --levels 1022",
    f"recurse --m 3 {_LEAVES} --levels 1023",
    f"recurse --m 3 {_LEAVES} --levels 74999",
    "recurse --m 3 --alpha0 0.3 --beta0 0.3 --levels 1030",
    f"recurse --m 255 {_LEAVES} --levels 145",
    f"recurse --m 255 {_LEAVES} --levels 160",
    f"recurse --m 4 --pb 0.3 {_LEAVES} --levels 2000",
    # level 5 steps a pair past exp's underflow whose two alpha windows lie
    # 13.5 nats apart: the sum of both, not the larger, gives its digits
    "recurse --m 10 --pb 5e-324 --alpha0 0.22 --beta0 0.01 --levels 8",
    f"recurse --m 2 --rule alternating {_LEAVES} --levels 3000",
    f"recurse --m 4 --rule lrt {_LEAVES} --levels 791",
    f"recurse --m 4 --rule lrt {_LEAVES} --levels 792",
    f"recurse --m 1100 --rule lrt {_LEAVES} --levels 1",
    "recurse --m 3 --rule lrt --alpha0 0.01 --beta0 0.01 --levels 900",
    # recurse: flag conflicts
    f"recurse --m 4 --phase one {_LEAVES} --levels 1",
    f"recurse --m 3 --pb 0.3 {_LEAVES} --levels 1",
    f"recurse --m 4 --pb 1 {_LEAVES} --levels 1",
    f"recurse --m 4 --pb 0 {_LEAVES} --levels 1",
    f"recurse --m 4 --rule alternating --pb 0.3 {_LEAVES} --levels 1",
    f"recurse --m 3 --rule alternating {_LEAVES} --levels 1",
    f"recurse --m 4 --rule lrt --pb 0.3 {_LEAVES} --levels 1",
    f"recurse --m 4 --rule lrt --phase one {_LEAVES} --levels 1",
    f"recurse --m 3 --rule lrt --pi0 1 {_LEAVES} --levels 1",
    f"recurse --m 3 --rule lrt --pi0 0 {_LEAVES} --levels 1",
    # recurse: the work limit, (levels + 1) x (m + 1) <= 300,000
    f"recurse --m 2 {_LEAVES} --levels 99999",
    f"recurse --m 299 {_LEAVES} --levels 1000",
    f"recurse --m 2 {_LEAVES} --levels 100000",
    f"recurse --m 150000 {_LEAVES} --levels 1",
    # simulate: every rule family, both hypotheses, a wide alphabet
    "simulate --m 3 --height 2 --alpha0 0.1 --beta0 0.1 --trials 100000 --seed 20260817",
    "simulate --m 2 --height 2 --alpha0 0.1 --beta0 0.1 --trials 20000 --seed 3",
    f"simulate --m 4 --height 2 {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 4 --height 2 --pb 0.3 {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 4 --height 2 --rule alternating {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 4 --height 2 --rule alternating --phase zero {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 3 --height 2 --rule lrt --pi0 0.3 {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 3 --height 2 --hypothesis h1 {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 2 --height 4 --d 3 {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 3 --height 3 --d 10 --hypothesis h1 {_LEAVES} --trials 20000 --seed 5",
    f"simulate --m 2 --height 3 {_LEAVES} --trials 1 --seed 18446744073709551615",
    # simulate: flag conflicts and refused shapes
    f"simulate --m 3 --height 3 --d 10 --pb 0.3 {_SIM}",
    f"simulate --m 3 --height 3 --d 10 --rule alternating {_SIM}",
    f"simulate --m 4 --height 1 --rule lrt --phase zero {_SIM}",
    f"simulate --m 2 --height 3 --d 3 {_SIM}",
    f"simulate --m 1 --height 3 {_SIM}",
    f"simulate --m 2 --height 0 {_SIM}",
    f"simulate --m 2 --height 2 {_LEAVES} --trials 0 --seed 1",
    f"simulate --m 2 --height 2 {_LEAVES} --trials 10 --seed -1",
    f"simulate --m 2 --height 2 {_LEAVES} --trials 10 --seed 18446744073709551616",
    # simulate: the budget, the deciding tree's work limit, and the leaf
    # fills, leaves x chunks of trials, that its work limit also bounds
    f"simulate --m 2 --height 1 {_LEAVES} --trials 5000000001 --seed 1",
    f"simulate --m 2 --height 1000000000 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 150000 --height 1 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 600 --height 2 --d 700 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 548 --height 2 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 2 --height 30 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 2 --height 18 {_LEAVES} --trials 38146 --seed 1",
    # exponents, alphabet and samplesize
    "exponents --m-min 2 --m-max 6",
    "exponents --m-min 2 --m-max 64",
    "exponents --m-min 5 --m-max 4",
    "alphabet --m 2 --k0-max 4",
    "alphabet --m 3 --d 10",
    "alphabet --m 3 --k0-max 8",
    "alphabet --m 1000 --k0-max 110",
    # sweeps refused past double range before any row is built
    "alphabet --m 2 --k0-max 100000000000",
    "alphabet --m 3 --k0-max 149999",
    "alphabet --m 2 --d 4 --k0-max 3",
    "alphabet --m 2",
    # an m past double range is refused, not an OverflowError
    f"alphabet --m {2**1024} --k0-max 3",
    "samplesize --m 3 --alpha0 0.1 --beta0 0.1 --epsilon 1e-6",
    "samplesize --m 2 --alpha0 0.1 --beta0 0.1 --epsilon 1e-6",
    "samplesize --m 3 --alpha0 0.4 --beta0 0.4 --epsilon 1e-6",
    "samplesize --m 7 --alpha0 0.01 --beta0 0.3 --epsilon 1e-12",
    "samplesize --m 3 --alpha0 0.1 --beta0 0.1 --epsilon 0.5",
    "samplesize --m 1000000000 --alpha0 0.1 --beta0 0.1 --epsilon 1e-6",
    f"samplesize --m {2**1024} --alpha0 0.1 --beta0 0.1 --epsilon 1e-6",
    # verify: the pass output of the fast suites
    "verify --suite alphabet",
    "verify --suite bounds",
    "verify --suite kernel",
]

# cases that only the full replay runs: each takes one to several seconds
SLOW = [
    f"recurse --m 149999 {_LEAVES} --levels 1",
    f"simulate --m 149999 --height 1 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 547 --height 2 {_LEAVES} --trials 1 --seed 1",
    f"simulate --m 2 --height 18 {_LEAVES} --trials 16 --seed 1",
    f"simulate --m 2 --height 18 {_LEAVES} --trials 17 --seed 1",
    f"simulate --m 10 --height 5 {_LEAVES} --trials 120 --seed 1",
    f"simulate --m 10 --height 5 {_LEAVES} --trials 121 --seed 1",
]

CASES = FAST + SLOW

_TIMING = re.compile(r"  \d+\.\d s$", re.M)  # verify's per-check wall time


def outcome(case: str) -> dict:
    """Run one case in-process: the sha256 of its standard output, with
    verify's timings masked, its standard-error text and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(case.split())
    text = _TIMING.sub("  N.N s", out.getvalue())
    return {"stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stderr": err.getvalue(), "exit": code}


def manifest_text(cases) -> str:
    """The manifest of `cases`, in their order, as the file holds it."""
    return json.dumps({case: outcome(case) for case in cases}, indent=1) + "\n"


def differences(entries: dict) -> list:
    """The cases whose replay differs from their manifest entry, each with
    what it recorded and what it gives now."""
    found = []
    for case, want in entries.items():
        got = outcome(case)
        if got != want:
            found.append(f"{case}\n  recorded {want}\n  now      {got}")
    return found


def main(argv) -> int:
    if argv[:1] == ["record"] and len(argv) == 1:
        MANIFEST.write_text(manifest_text(CASES))
        return 0
    if argv[:1] == ["check"] and len(argv) <= 2:
        entries = json.loads(MANIFEST.read_text())
        if len(argv) == 2:
            entries = {case: want for case, want in entries.items() if argv[1] in case}
        found = differences(entries)
        for msg in found:
            print(msg)
        print(f"{len(entries) - len(found)} of {len(entries)} corpus entries match")
        return 1 if found else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
