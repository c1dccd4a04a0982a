"""The standing `.hex()` corpora of `propagate`, `binom_tail` and the
oracle's sums replay as recorded (see propagate_corpus.py)."""

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


def test_an_oracle_grid_value_moved_in_its_tenth_digit_fails_the_replay(monkeypatch):
    moved = tuple(0.3000000001 if x == 0.3 else x for x in propagate_corpus.ORACLE_GRID)
    assert moved != propagate_corpus.ORACLE_GRID
    monkeypatch.setattr(propagate_corpus, "ORACLE_GRID", moved)
    case = "m=12 tie=0.3"  # 4,096 terms a sum: the exact integer route
    entry = manifest(propagate_corpus.ORACLE_MANIFEST)[case]
    assert propagate_corpus.differences({case: entry}, propagate_corpus.oracle_outcome) != []
