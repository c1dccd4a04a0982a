"""The standing CLI output corpus replays as recorded (see cli_corpus.py).

Tier-1 replays the FAST cases; `python tests/cli_corpus.py check`
replays every case.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import cli_corpus

SRC = Path(__file__).resolve().parents[1] / "src" / "relaytree"


def manifest() -> dict:
    return json.loads(cli_corpus.MANIFEST.read_text())


def test_manifest_holds_every_case_in_order():
    assert list(manifest()) == cli_corpus.CASES
    assert len(set(cli_corpus.CASES)) == len(cli_corpus.CASES)


def test_fast_cases_replay_as_recorded():
    entries = manifest()
    assert cli_corpus.differences({case: entries[case] for case in cli_corpus.FAST}) == []


def test_recording_twice_gives_the_same_manifest():
    # verify's masked timings, a sharded simulate and a refusal among them
    cases = [case for case in cli_corpus.FAST
             if case.startswith(("verify --suite alphabet", "simulate --m 3 --height 2 --alpha0 0.1"))
             or "--levels 100000" in case]
    assert len(cases) == 3
    first = cli_corpus.manifest_text(cases)
    assert cli_corpus.manifest_text(cases) == first
    assert json.loads(first) == {case: manifest()[case] for case in cases}


def test_one_changed_printed_digit_fails_the_replay(tmp_path):
    # a copy of the package whose samplesize prints k one higher
    copy = tmp_path / "relaytree"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = copy / "cli.py"
    text = cli_py.read_text()
    assert text.count('"k": res.k,') == 1
    cli_py.write_text(text.replace('"k": res.k,', '"k": res.k + 1,'))
    proc = subprocess.run(
        [sys.executable, cli_corpus.__file__, "check", "samplesize"],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # only the two runs that print a plan differ; the refusals still match
    moved = [line for line in proc.stdout.splitlines() if line.startswith("samplesize ")]
    assert moved == [
        "samplesize --m 3 --alpha0 0.1 --beta0 0.1 --epsilon 1e-6",
        "samplesize --m 3 --alpha0 0.1 --beta0 0.1 --epsilon 0.5",
    ]
    assert proc.stdout.endswith("5 of 7 corpus entries match\n")
