"""The standing `.hex()` corpus of `propagate` replays as recorded (see
propagate_corpus.py)."""

import json

import propagate_corpus


def manifest() -> dict:
    return json.loads(propagate_corpus.MANIFEST.read_text())


def test_manifest_holds_every_case_in_order():
    assert list(manifest()) == propagate_corpus.CASES
    assert len(propagate_corpus.CASES) == 21


def test_every_case_replays_as_recorded():
    assert propagate_corpus.differences(manifest()) == []


def test_a_leaf_moved_in_its_tenth_digit_fails_the_replay(monkeypatch):
    monkeypatch.setattr(propagate_corpus, "LEAF", (0.1000000001, 0.2))
    case = "majority m=3"
    assert propagate_corpus.differences({case: manifest()[case]}) != []
