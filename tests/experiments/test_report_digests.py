"""Report fence: every registered experiment renders what it rendered
when ``fixtures/report_digests.json`` was recorded.

The fixture holds one sha256 of ``render()`` per experiment id, so a
change that moves a report names the report it moved.  The twelve
analytic and sub-second experiments run in tier-1; the ten simulation
studies take from a few seconds to two minutes each and carry the
``slow`` marker, which is deselected by default:

    python -m pytest -q -m slow tests/experiments/test_report_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_experiment

FIXTURE = Path(__file__).parent / "fixtures" / "report_digests.json"
DIGESTS = json.loads(FIXTURE.read_text())

FAST = frozenset({
    "figure-9",
    "figure-10",
    "figure-11",
    "figure-12",
    "figures-7-8",
    "theorem-4.1",
    "batching-study",
    "partition-demo",
    "membership-study",
    "policy-study",
    "observability-demo",
    "conclusions-summary",
})


def test_fixture_names_every_experiment():
    assert set(DIGESTS) == set(EXPERIMENTS)
    assert FAST <= set(EXPERIMENTS)


@pytest.mark.parametrize(
    "experiment_id",
    [
        pytest.param(
            experiment_id,
            marks=() if experiment_id in FAST else pytest.mark.slow,
        )
        for experiment_id in EXPERIMENTS
    ],
)
def test_report_renders_its_recorded_digest(experiment_id):
    text = run_experiment(experiment_id).render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[experiment_id], experiment_id
