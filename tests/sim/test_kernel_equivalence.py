"""Golden-trace equivalence suite for the simulator kernel.

The fixtures in ``fixtures/kernel_golden.json`` were recorded on the
pre-rewrite kernel; every optimization of the hot path must reproduce
them **bit-identically**: same event firing order, same simulated
timestamps, same message counts, same span streams, same checker
verdicts.  A digest mismatch means the rewrite changed behavior, not
just speed -- the summaries are compared first so the failure message
names what moved.

Regenerating (only when a change is *intended* to alter behavior):

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/sim/test_kernel_equivalence.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.types import SchemeName

from ._fingerprint import SCENARIOS, fingerprint, membership_campaign

FIXTURE = Path(__file__).parent / "fixtures" / "kernel_golden.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _load_golden():
    if not FIXTURE.exists():
        pytest.fail(
            f"missing golden fixture {FIXTURE}; regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _regen_entry(name):
    golden = {}
    if FIXTURE.exists():
        golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    golden[name] = fingerprint(name)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_reproduces_golden_fingerprint(name):
    if REGEN:
        _regen_entry(name)
        return
    golden = _load_golden()
    assert name in golden, (
        f"no golden entry for {name!r}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    got = fingerprint(name)
    # Summaries first: a mismatch here names the drifting quantity.
    assert got["summary"] == golden[name]["summary"]
    assert got["digest"] == golden[name]["digest"]


def _check_campaign_at_two_jobs(name, **kwargs):
    if REGEN:
        pytest.skip("regeneration run")
    golden = _load_golden()[name]
    pooled = membership_campaign(jobs=2, **kwargs)
    assert pooled["summary"] == golden["summary"]
    assert pooled["digest"] == golden["digest"]


def test_membership_campaign_identical_across_jobs():
    """jobs=1 and jobs=N produce one and the same fingerprint."""
    _check_campaign_at_two_jobs("membership-campaign")


def test_membership_campaign_nac_identical_across_jobs():
    _check_campaign_at_two_jobs(
        "membership-campaign-nac", scheme=SchemeName.NAIVE_AVAILABLE_COPY
    )
