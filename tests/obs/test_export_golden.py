"""Byte-level fence around the JSON-lines export.

``fixtures/export_golden.json`` was recorded on the tree *before* the
trace store changed layout; whatever the tracer keeps in memory, the
export of the recipe below -- a traced workload per scheme, a batching,
reconfiguring chaos run for MCV and NAC (all six layers), and a batching
chaos run under an R = 1 policy (policy-tagged device spans, reads and
batch reads served locally) -- must stay the same bytes.  The per-part entries only name the run that
drifted; the total is the fence.

Regenerating (only when the trace *schema* is meant to change):

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/obs/test_export_golden.py
"""

import hashlib
import io
import json
import os
from pathlib import Path

from repro.core.policy import QuorumPolicy
from repro.faults import ChaosConfig, run_chaos
from repro.obs import Tracer, traced_workload
from repro.types import SchemeName

FIXTURE = Path(__file__).parent / "fixtures" / "export_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _tracers():
    for scheme in SchemeName:
        run = traced_workload(
            scheme=scheme, horizon=400.0, seed=3, device_ops=64
        )
        yield f"workload-{scheme.value}", run.obs.tracer
    for scheme in (SchemeName.VOTING, SchemeName.NAIVE_AVAILABLE_COPY):
        tracer = Tracer()
        run_chaos(
            ChaosConfig(
                scheme=scheme, seed=5, operations=600, batch_rate=0.3,
                reconfigure_rate=0.02,
            ),
            tracer=tracer,
        )
        yield f"chaos-{scheme.value}", tracer
    tracer = Tracer()
    run_chaos(
        ChaosConfig(
            policy=QuorumPolicy(5, 1, 5), seed=5, operations=600,
            batch_rate=0.3,
        ),
        tracer=tracer,
    )
    yield "chaos-local-reads", tracer


def _export_fingerprint():
    total = hashlib.sha256()
    lines = 0
    parts = {}
    for label, tracer in _tracers():
        buf = io.StringIO()
        count = tracer.export(buf)
        data = buf.getvalue().encode("utf-8")
        assert count == len(tracer) == data.count(b"\n")
        total.update(data)
        lines += count
        parts[label] = {
            "lines": count, "sha256": hashlib.sha256(data).hexdigest(),
        }
    return {"lines": lines, "sha256": total.hexdigest(), "parts": parts}


def test_export_reproduces_golden_bytes():
    got = _export_fingerprint()
    if REGEN:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(
            json.dumps(got, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # Parts first: a mismatch here names the run that drifted.
    assert got["parts"] == golden["parts"]
    assert got["lines"] == golden["lines"]
    assert got["sha256"] == golden["sha256"]
