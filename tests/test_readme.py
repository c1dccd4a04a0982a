"""The README's examples print what the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from relaytree import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _cli_examples() -> list:
    """(argv, shown lines) for every `$ relaytree` example that shows output."""
    examples = []
    for block in _blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        starts = [i for i, line in enumerate(lines) if line.startswith("$ ")]
        for i, end in zip(starts, [*starts[1:], len(lines)]):
            argv = shlex.split(lines[i][2:], comments=True)
            if argv[0] == "relaytree" and i + 1 < end:
                examples.append((argv[1:], lines[i + 1:end]))
    return examples


def _matches(shown: list, got: list) -> bool:
    """Every shown line appears in order; a '...' line stands for any
    number of lines, and elsewhere the lines are adjacent."""
    pos, skipping = 0, False
    for line in shown:
        if line == "...":
            skipping = True
            continue
        if skipping:
            if line not in got[pos:]:
                return False
            pos = got.index(line, pos)
        elif pos >= len(got) or got[pos] != line:
            return False
        pos, skipping = pos + 1, False
    return skipping or pos == len(got)


EXAMPLES = _cli_examples()


def test_every_shown_example_is_collected():
    assert [argv[0] for argv, _ in EXAMPLES] == ["recurse", "simulate", "exponents", "samplesize"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_cli_example(capsys, argv, shown):
    assert cli.run(argv) == 0
    assert _matches(shown, capsys.readouterr().out.splitlines())


def test_library_example():
    (snippet,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    printed = out.getvalue().splitlines()
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", snippet, re.M)
    assert printed[0] == "7.639009737159174e-10"
    assert len(printed) == len(comments) == 3
    for got, shown in zip(printed, comments):
        if shown.endswith("..."):
            assert got.startswith(shown[:-3])
        else:
            assert got == shown
