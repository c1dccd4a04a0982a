"""The standing `.hex()` corpus of `propagate` at depth: for each rule
family and fan-in, the sha256 of every level's `alpha.value.hex()` and
`beta.value.hex()`, recorded in `propagate_corpus.json` next to this file.

    python tests/propagate_corpus.py record      # rewrite the manifest from this tree
    python tests/propagate_corpus.py check       # replay it; exit 1 on any difference

Each case runs from the leaf pair (0.1, 0.2) for LEVELS levels, or up to
its first refused level, whose refusal text is recorded too.  The
families are odd and fair majority, a 0.3 tie coin, both alternating
phases, and the likelihood-ratio test at pi0 0.3 and 0.5, each at every
fan-in of FANINS that it accepts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from relaytree import ErrorPair, Priors, Schedule, propagate

MANIFEST = Path(__file__).resolve().with_name("propagate_corpus.json")
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


def outcome(case: str) -> dict:
    """The levels a case runs, the refusal that stops it (or None) and
    the sha256 of its pairs' `.hex()` lines."""
    name, m = case.split(" m=")
    flags, m = FAMILIES[name][0], int(m)
    priors = flags.get("priors", Priors.equal())
    leaf, levels, refusal = ErrorPair.from_linear(*LEAF), LEVELS, None
    try:
        trace = propagate(leaf, Schedule(m, levels, **flags), priors)
    except ValueError as err:  # "level k: ...": run up to the level below k
        refusal = str(err)
        levels = int(refusal.split(":")[0].removeprefix("level ")) - 1
        trace = propagate(leaf, Schedule(m, levels, **flags), priors)
    text = "".join(f"{p.alpha.value.hex()} {p.beta.value.hex()}\n" for p in trace.pairs)
    return {"levels": levels, "refusal": refusal,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def differences(entries: dict) -> list:
    """The cases whose replay differs from their manifest entry."""
    found = []
    for case, want in entries.items():
        got = outcome(case)
        if got != want:
            found.append(f"{case}\n  recorded {want}\n  now      {got}")
    return found


def main(argv) -> int:
    if argv == ["record"]:
        MANIFEST.write_text(json.dumps({case: outcome(case) for case in CASES}, indent=1) + "\n")
        return 0
    if argv == ["check"]:
        entries = json.loads(MANIFEST.read_text())
        found = differences(entries)
        for msg in found:
            print(msg)
        print(f"{len(entries) - len(found)} of {len(entries)} corpus entries match")
        return 1 if found else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
