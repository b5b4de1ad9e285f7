"""Statistics of ``scripts/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quartiles(bench_pairs):
    assert bench_pairs.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_holds_on_nine_wins_of_ten(bench_pairs):
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    change = [0.7] * 9 + [1.2]  # the change loses the last pair
    s = bench_pairs.compare(parent, change, "lower", 0.24)
    assert (s["change_wins"], s["parent_wins"], s["ties"]) == (9, 1, 0)
    assert s["gap"] == pytest.approx(1.0 - 0.7)
    assert s["parent_spread"] == pytest.approx(1.0175 - 0.9825)
    assert s["holds"] and s["within_bound"]


def test_ties_count_for_neither_side(bench_pairs):
    # a tie is neither side's win
    parent = [1.0] * 10
    change = [0.5] * 9 + [1.0]
    s = bench_pairs.compare(parent, change, "lower", 0.24)
    assert (s["change_wins"], s["parent_wins"], s["ties"]) == (9, 0, 1)
    assert s["holds"]  # 9 of 10 pairs won
    s = bench_pairs.compare(parent, [0.5] * 8 + [1.0, 1.0], "lower", 0.24)
    assert (s["change_wins"], s["ties"]) == (8, 2)
    assert not s["holds"]  # 8 of 10 pairs won


def test_gap_must_exceed_the_parents_quartile_spread(bench_pairs):
    # every pair won, but by less than the parent's own spread
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [p - 0.1 for p in parent]
    s = bench_pairs.compare(parent, change, "lower", 0.24)
    assert s["change_wins"] == 5
    assert s["gap"] == pytest.approx(0.1) and s["parent_spread"] == 2.0
    assert not s["holds"]


def test_higher_is_better_and_the_bound(bench_pairs):
    parent = [6.0, 6.0, 6.0, 6.0]
    s = bench_pairs.compare(parent, [6.0] * 4, "higher", 0.05)
    assert (s["change_wins"], s["ties"], s["worse_rel"]) == (0, 4, 0.0)
    assert s["within_bound"] and not s["holds"]
    s = bench_pairs.compare(parent, [5.0] * 4, "higher", 0.05)
    assert s["parent_wins"] == 4
    assert s["worse_rel"] == pytest.approx(1 / 6) and not s["within_bound"]
