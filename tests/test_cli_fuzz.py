"""A pinned fuzz of the command line: every call exits 0 or 2, with no
traceback.

The argument lists are drawn once, from a fixed seed, over `recurse`,
`alphabet`, `samplesize`, `exponents` and the refusals of `simulate`.
Every number comes from two short lists of edge values: ints from 2 to
10^400, past double range, and floats from the smallest subnormal to
1 - 2^-53.  Each call runs in-process through `relaytree.cli.run`; the
whole fuzz takes a few seconds.
"""

import contextlib
import io
import random
import traceback

from relaytree import cli

INTS = [2, 3, 64, 1085, 149_999, 2**53 + 1, 10**59, 2**1023, 2**1024, 10**400]
FLOATS = [5e-324, 1e-300, 0.45, 0.5, 1 - 2**-53]
# simulate draws its trials from these, so every run is refused by the
# budget, or sooner: trials x m^height > 10^10 leaf samples
TOO_MANY_TRIALS = INTS[5:]
SEED = 20261020
CALLS = 500


def draw_argv(rng: random.Random) -> list:
    """One argument list: a subcommand, its required flags, and each
    optional flag with even odds, every value drawn from INTS or FLOATS."""
    def num(pool):
        return str(rng.choice(pool))

    def maybe(*pairs):
        return [text for flag, value in pairs if rng.random() < 0.5 for text in (flag, value)]

    leaves = ["--alpha0", num(FLOATS), "--beta0", num(FLOATS)]
    rule_flags = maybe(("--rule", rng.choice(["majority", "alternating", "lrt"])),
                       ("--pb", num(FLOATS)), ("--phase", rng.choice(["one", "zero"])),
                       ("--pi0", num(FLOATS)))
    command = rng.choice(["recurse", "alphabet", "samplesize", "exponents", "simulate"])
    if command == "recurse":
        return ["recurse", "--m", num(INTS), "--levels", num(INTS), *leaves, *rule_flags]
    if command == "alphabet":
        return ["alphabet", "--m", num(INTS), *maybe(("--d", num(INTS)), ("--k0-max", num(INTS)))]
    if command == "samplesize":
        return ["samplesize", "--m", num(INTS), *leaves, "--epsilon", num(FLOATS)]
    if command == "exponents":
        return ["exponents", "--m-min", num(INTS), "--m-max", num(INTS)]
    return ["simulate", "--m", num(INTS), "--height", num(INTS), *maybe(("--d", num(INTS))),
            *leaves, *rule_flags, "--trials", num(TOO_MANY_TRIALS), "--seed", num(INTS)]


def outcome(argv: list):
    """The exit code of one in-process call, or the traceback it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.run(argv)
        except Exception:  # what the fuzz looks for: a call that escapes run
            return traceback.format_exc(limit=-1)


def test_every_call_exits_0_or_2():
    rng = random.Random(SEED)
    calls = [draw_argv(rng) for _ in range(CALLS)]
    bad = [(argv, got) for argv in calls if (got := outcome(argv)) not in (0, 2)]
    assert bad == []
