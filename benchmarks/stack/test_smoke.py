"""Smoke test of the stack benchmark: ``pytest benchmarks/stack -q``.

Runs the benchmark at ``--smoke`` sizes and checks what it emits against
the root ``BENCHMARK.json``.  Not part of tier-1 (``testpaths`` is
``tests/``): it measures nothing, it only keeps the plumbing honest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def schema():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("stack") / "record.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8")), done.stdout, out


def test_schema_is_within_the_contract(schema):
    assert set(schema) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert schema["paths"] == ["benchmarks/stack"]
    assert 2 <= len(schema["workloads"]) <= 8
    assert 1 <= len(schema["end_to_end"]) <= 16
    assert 1 <= len(schema["per_layer"]) <= 128
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer")
        for entry in schema[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in schema["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in schema["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in schema["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in schema["end_to_end"] + schema["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in schema["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"


def test_record_covers_every_declared_workload_and_metric(schema, record):
    data, printed, _ = record
    assert data["summary"]["correct"] is True
    assert list(data["summary"])[-1] == "claim"
    assert data["summary"]["claim"] is None
    assert {"cpu_count", "python_build", "platform"} <= set(data["host"])
    assert list(data["workloads"]) == [
        w["name"] for w in schema["workloads"]
    ]
    for name, entry in data["workloads"].items():
        assert entry["correct"], entry["problems"]
        for metric in schema["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert cell["better"] == metric["better"]
            assert cell["bound"] == metric["bound"]
            assert cell["q1"] <= cell["median"] <= cell["q3"]
            assert cell["value"] != 0 and cell["leave_one_out"]
            assert f"{name:15s} {metric['name']:40s}" in printed
        assert list(entry["per_layer"]) == [
            m["name"] for m in schema["per_layer"]
        ]
        assert "bench.noise_mad_pct" in entry["per_layer"]
        for metric in schema["per_layer"]:
            assert f"{name:15s} {metric['name']:40s}" in printed
        assert all(seam["ok"] for seam in entry["attribution"]["seams"])
        assert entry["per_layer"]["bench.self_sum_pct"] == pytest.approx(
            100.0, abs=5.0
        )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_contract_result_line(schema, trace, key):
    done = subprocess.run(
        RUN + ["--workload", "fs_stream", "--seed", "11", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in schema[key]]
    for metric in schema[key]:
        cell = result["metrics"][metric["name"]]
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == metric["unit"]


def test_compare_of_a_record_with_itself_finds_nothing_worse(record):
    _, _, path = record
    done = subprocess.run(
        RUN + ["compare", str(path), str(path)], cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout
    assert "unchanged" in done.stdout
