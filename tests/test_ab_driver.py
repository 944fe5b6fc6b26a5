"""Decision rule of the perfbench A/B driver (``tools/ab.py``)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [10.0, 10.2, 9.8, 10.4, 9.6, 10.1, 9.9, 10.3, 9.7, 10.0]


def test_quartiles_of_ten_and_of_one():
    q = ab.quartiles(list(range(1, 11)))
    assert (q.q1, q.median, q.q3) == (3.25, 5.5, 7.75)
    assert q.iqr == 4.5
    assert ab.quartiles([2.0]) == ab.Quartiles(2.0, 2.0, 2.0)


def test_ties_count_for_neither_side():
    d = ab.decide(PARENT, list(PARENT))
    assert (d.wins, d.losses) == (0, 0)
    assert d.ratio == 1.0
    assert d.base == d.change
    assert d.verdict == "no gain"


def test_ten_wins_inside_the_parent_iqr_are_no_gain():
    change = [x - 0.05 for x in PARENT]
    d = ab.decide(PARENT, change)
    assert d.wins == 10 and d.losses == 0
    assert 0 < d.base.median - d.change.median < d.base.iqr
    assert d.verdict == "no gain"


def test_clear_gain():
    change = [x * 0.5 for x in PARENT]
    change[3] = 11.0    # one lost pair still clears 9 in 10
    d = ab.decide(PARENT, change)
    assert (d.wins, d.losses) == (9, 1)
    assert d.base.median - d.change.median > d.base.iqr
    assert d.ratio == pytest.approx(0.5, abs=0.01)
    assert d.verdict == "gain"


def test_direction_follows_higher_is_better():
    doubled = [2 * x for x in PARENT]
    assert ab.decide(PARENT, doubled, higher_is_better=True).verdict == "gain"
    assert ab.decide(PARENT, doubled).wins == 0


def test_worse_only_beyond_the_bound():
    slower = [x * 1.1 for x in PARENT]
    assert ab.decide(PARENT, slower, bound=0.2).verdict == "no gain"
    assert ab.decide(PARENT, slower, bound=0.05).verdict == "worse"
    assert ab.decide(PARENT, slower).verdict == "no gain"


def test_gain_needs_ten_pairs():
    d = ab.decide(PARENT[:5], [x / 2 for x in PARENT[:5]])
    assert d.wins == 5
    assert d.verdict == "no gain"


def test_unpaired_samples_rejected():
    with pytest.raises(ValueError):
        ab.decide([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.decide([], [])
