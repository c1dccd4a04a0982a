"""The standing `.hex()` corpora of `propagate` and `binom_tail` replay as
recorded (see propagate_corpus.py)."""

import json
import math

import propagate_corpus


def manifest(path=propagate_corpus.MANIFEST) -> dict:
    return json.loads(path.read_text())


def test_manifest_holds_every_case_in_order():
    for path, cases, _ in propagate_corpus.CORPORA.values():
        assert list(manifest(path)) == cases
    assert len(propagate_corpus.CASES) == 21


def test_every_case_replays_as_recorded():
    for path, _, outcome in propagate_corpus.CORPORA.values():
        assert propagate_corpus.differences(manifest(path), outcome) == []


def test_a_leaf_moved_in_its_tenth_digit_fails_the_replay(monkeypatch):
    monkeypatch.setattr(propagate_corpus, "LEAF", (0.1000000001, 0.2))
    case = "majority m=3"
    assert propagate_corpus.differences({case: manifest()[case]}) != []


def test_a_tail_p_moved_in_its_tenth_digit_fails_the_replay(monkeypatch):
    moved = tuple(math.log(0.5000000001) if lp == math.log(0.5) else lp
                  for lp in propagate_corpus.LOG_PS)
    assert moved != propagate_corpus.LOG_PS
    monkeypatch.setattr(propagate_corpus, "LOG_PS", moved)
    case = "m=1000 upper"
    entry = manifest(propagate_corpus.TAIL_MANIFEST)[case]
    assert propagate_corpus.differences({case: entry}, propagate_corpus.tail_outcome) != []
