"""``benchmarks/profile.py``: cProfile over a whole-stack workload."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_profile",
    Path(__file__).resolve().parent.parent / "benchmarks" / "profile.py",
)
profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile)


def test_a_tiny_chaos_campaign_profiles_the_harness():
    problems, tables = profile.top_functions("chaos_reconfig", 7, scale=0.01)
    assert problems == []
    assert set(tables) == {"self", "cumulative"}
    for rows in tables.values():
        assert 0 < len(rows) <= profile.TOP
    cumulative = [row[1] for row in tables["cumulative"]]
    assert cumulative == sorted(cumulative, reverse=True)
    assert any(
        where.endswith("(run_chaos)")
        for _self, _cumulative, _calls, where in tables["cumulative"]
    )
