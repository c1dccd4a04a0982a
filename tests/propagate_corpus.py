"""The standing `.hex()` corpora of the kernel's and the oracle's exact
values, recorded next to this file, one manifest per family:

  * `propagate_corpus.json`: for each rule family and fan-in, the sha256
    of every level's `alpha.value.hex()` and `beta.value.hex()`;
  * `binom_tail_corpus.json`: for each fan-in and count window, the sha256
    of `binom_tail(m, s_lo, s_hi, p).value.hex()` over every log p of
    LOG_PS;
  * `oracle_corpus.json`: for each fan-in of ORACLE_FANINS, the sha256 of
    `enumerate_alpha` and `enumerate_beta` of each majority twin (at even
    m, one per tie weight of TIE_WEIGHTS) over ORACLE_GRID, and of
    `map_step`'s pair on `h0_likelihoods` and `h1_likelihoods` at both
    ORACLE_PRIORS, for each (alpha, beta) from every other ORACLE_GRID value.

    python tests/propagate_corpus.py record      # rewrite the manifests from this tree
    python tests/propagate_corpus.py check       # replay them; exit 1 on any difference

Each trace walks from the leaf pair (0.1, 0.2) for LEVELS levels, or up
to its first refused level, whose refusal text is recorded too.  The
trace families are odd and fair majority, a 0.3 tie coin, both
alternating phases, and the likelihood-ratio test at pi0 0.3 and 0.5,
each at every fan-in of FANINS that it accepts.  The tails run at
fan-ins up to 10,000 (the table of log C(m, s) costs time quadratic in
m) over the full, upper, lower and a single-count window, with log p
from -1e300 to -1e-300 and both point masses.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

from relaytree import (
    ErrorPair, LogProb, Priors, Schedule, binom_tail, enumerate_alpha, enumerate_beta,
    h0_likelihoods, h1_likelihoods, iter_levels, majority_vector_rule, map_step,
)

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "propagate_corpus.json"
LEVELS = 1000
FANINS = (2, 3, 4, 5, 255)
LEAF = (0.1, 0.2)
# name -> (the Schedule's rule fields, whether an odd fan-in accepts them)
FAMILIES = {
    "majority": ({}, True),
    "pb0.3": ({"pb": 0.3}, False),
    "alternating-one": ({"rule": "alternating", "phase": "one"}, False),
    "alternating-zero": ({"rule": "alternating", "phase": "zero"}, False),
    "lrt-pi0.3": ({"rule": "lrt", "priors": Priors(0.3, 0.7)}, True),
    "lrt-pi0.5": ({"rule": "lrt", "priors": Priors.equal()}, True),
}
CASES = [f"{name} m={m}" for name, (_, odd) in FAMILIES.items()
         for m in FANINS if odd or m % 2 == 0]

TAIL_MANIFEST = HERE / "binom_tail_corpus.json"
TAIL_FANINS = (2, 3, 10, 101, 1000, 10000)
# window name -> its counts [s_lo, s_hi] at fan-in m
WINDOWS = {
    "full": lambda m: (0, m),
    "upper": lambda m: ((m + 1) // 2, m),
    "lower": lambda m: (0, m // 2),
    "single": lambda m: (m // 3, m // 3),
}
LOG_PS = (*(-10.0**e for e in range(300, -301, -10)), math.log(0.5), -math.inf, 0.0)
TAIL_CASES = [f"m={m} {window}" for m in TAIL_FANINS for window in WINDOWS]

ORACLE_MANIFEST = HERE / "oracle_corpus.json"
# from m = 10 on, a sum has 1,024 terms or more and is taken exactly in integers
ORACLE_FANINS = range(2, 17)
ORACLE_GRID = (1e-9, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5)
TIE_WEIGHTS = (0.5, 0.3, 1.0, 0.0)
ORACLE_PRIORS = (Priors.equal(), Priors(0.3, 0.7))
ORACLE_CASES = [f"m={m} {part}" for m in ORACLE_FANINS
                for part in ([f"tie={w}" for w in TIE_WEIGHTS] if m % 2 == 0 else ["majority"])
                + ["map"]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(case: str) -> dict:
    """The levels a trace case runs, the refusal that stops it (or None)
    and the sha256 of its pairs' `.hex()` lines."""
    name, m = case.split(" m=")
    flags, m = FAMILIES[name][0], int(m)
    priors = flags.get("priors", Priors.equal())
    pairs, refusal = [], None
    try:
        for pair, _ in iter_levels(ErrorPair.from_linear(*LEAF), Schedule(m, LEVELS, **flags), priors):
            pairs.append(pair)
    except ValueError as err:  # "level k: ...", after levels 0..k-1
        refusal = str(err)
    text = "".join(f"{p.alpha.value.hex()} {p.beta.value.hex()}\n" for p in pairs)
    return {"levels": len(pairs) - 1, "refusal": refusal, "sha256": _sha256(text)}


def tail_outcome(case: str) -> dict:
    """The sha256 of a tail case's `.hex()` lines, one per log p."""
    m, window = case.split(" ")
    m = int(m.removeprefix("m="))
    s_lo, s_hi = WINDOWS[window](m)
    text = "".join(f"{binom_tail(m, s_lo, s_hi, LogProb(lp)).value.hex()}\n" for lp in LOG_PS)
    return {"sha256": _sha256(text)}


def oracle_outcome(case: str) -> dict:
    """The sha256 of an oracle case's `.hex()` lines: one per grid value of
    a majority twin, or one per (priors, alpha, beta) of the MAP step."""
    m, part = case.split(" ")
    m = int(m.removeprefix("m="))
    if part == "map":
        sub = ORACLE_GRID[::2]
        pairs = (map_step(h0_likelihoods(a, m), h1_likelihoods(b, m), priors)
                 for priors in ORACLE_PRIORS for a in sub for b in sub)
        text = "".join(f"{p.alpha.value.hex()} {p.beta.value.hex()}\n" for p in pairs)
    else:
        rule = majority_vector_rule(m, float(part.removeprefix("tie=")) if m % 2 == 0 else 0.5)
        text = "".join(f"{enumerate_alpha(rule, x).hex()} {enumerate_beta(rule, x).hex()}\n"
                       for x in ORACLE_GRID)
    return {"sha256": _sha256(text)}


# family -> (manifest, cases, outcome)
CORPORA = {
    "propagate": (MANIFEST, CASES, outcome),
    "binom_tail": (TAIL_MANIFEST, TAIL_CASES, tail_outcome),
    "oracle": (ORACLE_MANIFEST, ORACLE_CASES, oracle_outcome),
}


def differences(entries: dict, outcome=outcome) -> list:
    """The cases whose replay by `outcome` differs from their manifest entry."""
    found = []
    for case, want in entries.items():
        got = outcome(case)
        if got != want:
            found.append(f"{case}\n  recorded {want}\n  now      {got}")
    return found


def main(argv) -> int:
    if argv == ["record"]:
        for manifest, cases, run in CORPORA.values():
            manifest.write_text(json.dumps({case: run(case) for case in cases}, indent=1) + "\n")
        return 0
    if argv == ["check"]:
        failed = False
        for family, (manifest, _, run) in CORPORA.items():
            entries = json.loads(manifest.read_text())
            found = differences(entries, run)
            for msg in found:
                print(msg)
            print(f"{len(entries) - len(found)} of {len(entries)} {family} corpus entries match")
            failed = failed or bool(found)
        return 1 if failed else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
