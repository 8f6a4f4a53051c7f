"""Schedule fence around the chaos harness.

``fixtures/chaos_history_golden.json`` was recorded before any change to
how ``run_chaos`` draws payloads, builds history events or picks
corruption targets.  For the two cells of the ``chaos_reconfig``
benchmark workload (MCV without bit rot, NAC under the default fault
mix; batched steps and view changes on) and the first four run seeds a
campaign derives from base seed 7, it holds the sha256 of the run's
*full* history and of ``repr(ChaosResult)``.

The history is part of the fence because a result fingerprint alone does
not pin the events: a campaign that never violates reads the same result
from a checker that became more permissive.

Regenerating (only when the schedule is meant to change):

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/faults/test_chaos_history_golden.py
"""

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

import repro.faults.chaos as chaos_module
from repro.exec.seeding import derive_seed
from repro.faults import ChaosConfig, run_chaos
from repro.types import SchemeName

FIXTURE = Path(__file__).parent / "fixtures" / "chaos_history_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

BASE_SEED = 7
RUNS = 4
_COMMON = dict(operations=1200, batch_rate=0.3, reconfigure_rate=0.02)
CELLS = {
    "mcv-no-bitrot": ChaosConfig(
        scheme=SchemeName.VOTING, corrupt_weight=0.0, **_COMMON
    ),
    "nac": ChaosConfig(scheme=SchemeName.NAIVE_AVAILABLE_COPY, **_COMMON),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _history_rows(events):
    return [
        (e.kind, e.block, e.site,
         None if e.value is None else e.value.hex(), e.version, e.info)
        for e in events
    ]


def _fingerprints(config, monkeypatch):
    recorders = []

    class Registering(chaos_module.HistoryRecorder):
        def __init__(self):
            super().__init__()
            recorders.append(self)

    monkeypatch.setattr(chaos_module, "HistoryRecorder", Registering)
    runs = []
    for index in range(RUNS):
        seed = derive_seed(BASE_SEED, index, f"chaos:{config.scheme.value}")
        result = run_chaos(replace(config, seed=seed))
        (recorder,) = recorders
        recorders.clear()
        runs.append({
            "seed": seed,
            "events": len(recorder.events),
            "history_sha256": _sha256(
                json.dumps(_history_rows(recorder.events))
            ),
            "result_sha256": _sha256(repr(result)),
        })
    return runs


def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_chaos_schedule_reproduces_golden_history(cell, monkeypatch):
    got = _fingerprints(CELLS[cell], monkeypatch)
    if REGEN:
        golden = _golden() if FIXTURE.exists() else {}
        golden[cell] = got
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert got == _golden()[cell]
