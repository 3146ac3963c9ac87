"""tools/bench_pairs.py's summary of paired benchmark runs."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import schedule, summarise  # noqa: E402


def test_lower_is_better():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 14.0, 8.0]
    s = summarise(parent, change, "lower")
    assert s["parent"] == (12.0, 11.0, 13.0)  # median, then the inclusive quartiles
    assert s["change"] == (10.0, 9.0, 12.0)
    assert s["wins"] == 3  # pairs 1, 3 and 5; a tie (pair 2) is no win
    assert s["ratio"] == pytest.approx(10 / 12 - 1)
    assert s["gap_iqr"] == pytest.approx((12 - 10) / (13 - 11))


def test_higher_is_better_flips_wins_and_gap():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 14.0, 8.0]
    s = summarise(parent, change, "higher")
    assert s["wins"] == 1  # pair 4 alone
    assert s["gap_iqr"] == pytest.approx(-(12 - 10) / (13 - 11))


def test_quartiles_interpolate_between_values():
    s = summarise([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], "lower")
    assert s["parent"] == (2.5, 1.75, 3.25)
    assert s["wins"] == 0 and s["gap_iqr"] == 0


def test_zero_iqr():
    assert summarise([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], "lower")["gap_iqr"] == 0
    assert summarise([5.0, 5.0, 5.0], [4.0, 4.0, 4.0], "lower")["gap_iqr"] == math.inf
    assert summarise([5.0, 5.0, 5.0], [4.0, 4.0, 4.0], "higher")["gap_iqr"] == -math.inf


def test_rejects_unpaired_or_unknown():
    with pytest.raises(ValueError):
        summarise([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarise([1.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarise([1.0, 2.0], [1.0, 2.0], "smaller")


def test_schedule_runs_consecutive_seeds_from_the_first():
    assert schedule(11, 4) == [(11, ("change", "parent")), (12, ("parent", "change")),
                               (13, ("change", "parent")), (14, ("parent", "change"))]
    assert [seed for seed, _ in schedule(1, 10)] == list(range(1, 11))


def test_odd_pairs_run_the_change_first_whatever_the_first_seed():
    # the first pair runs the change first even from an even seed
    assert schedule(2, 3) == [(2, ("change", "parent")), (3, ("parent", "change")),
                              (4, ("change", "parent"))]
