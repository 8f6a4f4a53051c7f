"""The summariser of ``benchmarks/pairs.py``: the numbers a performance
claim in CHANGES.md is judged by."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py",
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_summary_of_ten_pairs():
    # ISSUE 19's first row: ops_per_s on fs_cached, seed 23
    a = [50816, 49756, 49712, 52647, 50081, 50756, 52127, 50060, 50753, 50661]
    b = [70498, 66152, 72701, 69542, 70106, 70276, 67453, 67784, 68494, 70758]
    s = pairs.summarise(a, b, "higher")
    assert (s["median_a"], s["median_b"]) == (50707, 69824)
    assert s["quartiles_a"] == (49984, 51143.75)
    assert s["quartiles_b"] == (67701.25, 70563)
    assert (s["b_better"], s["ties"]) == (10, 0)
    assert s["apart"] == 19117 and s["iqr_a"] == 1159.75
    # the same readings of a metric where lower is better: A wins them all
    assert pairs.summarise(a, b, "lower")["b_better"] == 0


def test_a_tie_counts_for_neither_side():
    a = [1.5, 2.0, 3.0, 4.0]
    b = [1.5, 1.0, 3.0, 5.0]
    lower = pairs.summarise(a, b, "lower")
    higher = pairs.summarise(a, b, "higher")
    assert (lower["b_better"], lower["ties"]) == (1, 2)
    assert (higher["b_better"], higher["ties"]) == (1, 2)


def test_one_pair_has_no_spread_and_unpaired_readings_are_refused():
    s = pairs.summarise([2.0], [1.0], "lower")
    assert s["quartiles_a"] == (2.0, 2.0) and s["iqr_a"] == 0
    assert s["b_better"] == 1
    with pytest.raises(ValueError):
        pairs.summarise([1.0, 2.0], [1.0], "lower")

