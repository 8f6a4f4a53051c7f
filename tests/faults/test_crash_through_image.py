"""Every crash goes through the site image.

The paper's failure model is fail-stop with stable storage: a crash
loses the process and keeps exactly what the site wrote to stable
storage.  The ``crash_through_image`` fixture makes that literal: each
``Site.crash`` also resets the crashed site's durable fields
(:attr:`Site.DURABLE`) to ``load_site(dump_site(site))``.  If the image
carries every durable field, the reset changes nothing, so

* every kernel golden fingerprint reproduces unedited, and
* a chaos matrix (MCV / AC / NAC with and without view changes, and
  sloppy voting with hinted handoff) gives results equal, field by
  field, to the same runs without the fixture.

Planted mutants of ``dump_site`` that drop one durable field show the
matrix notices a lossy image.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.core import QuorumPolicy
from repro.device import Site, persistence
from repro.device.persistence import load_site
from repro.faults.chaos import ChaosConfig, ChaosResult, run_chaos
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName

from ..sim._fingerprint import SCENARIOS, fingerprint

_GOLDEN = Path(__file__).parents[1] / "sim" / "fixtures" / "kernel_golden.json"

_MATRIX = [
    ChaosConfig(scheme=scheme, operations=400, reconfigure_rate=rate)
    for scheme in SchemeName
    for rate in (0.0, 0.02)
] + [
    ChaosConfig(
        scheme=SchemeName.VOTING, operations=400,
        policy=QuorumPolicy(5, 1, 1, allow_sloppy=True, hinted_handoff=True),
    )
]
_SEEDS = range(6)


def _reset_from_image(site: Site) -> None:
    """Reset ``site``'s durable fields to what its image carries."""
    fresh = load_site(persistence.dump_site(site))
    for name in Site.DURABLE:
        if name != "_store":
            setattr(site, name, getattr(fresh, name))
    # In place: the site's bound store accessors stay valid.
    site.store.restore(fresh.store.entries(), fresh.store.quarantined_blocks())


@pytest.fixture
def crash_through_image(monkeypatch):
    crash = Site.crash

    def crash_then_reload(site: Site) -> None:
        crash(site)
        _reset_from_image(site)

    monkeypatch.setattr(Site, "crash", crash_then_reload)


def _run_matrix():
    return [
        run_chaos(replace(config, seed=seed))
        for config in _MATRIX for seed in _SEEDS
    ]


def _differing(results, expected):
    """``(scheme, seed, field)`` for each run that differs from the
    reference, naming its first differing field."""
    out = []
    for got, want in zip(results, expected):
        for f in fields(ChaosResult):
            if getattr(got, f.name) != getattr(want, f.name):
                out.append((got.scheme.short, got.seed, f.name))
                break
    return out


@pytest.fixture(scope="module")
def reference_results():
    """The matrix with crashes that only stop the process."""
    return _run_matrix()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fingerprint_survives_crash_through_image(
    name, crash_through_image
):
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))[name]
    got = fingerprint(name)
    assert got["summary"] == golden["summary"]
    assert got["digest"] == golden["digest"]


def test_chaos_matrix_survives_crash_through_image(
    reference_results, crash_through_image
):
    results = _run_matrix()
    assert len(results) == 42
    assert sum(r.injected.crashes for r in results) > 0
    assert _differing(results, reference_results) == []


def test_hint_parked_on_a_crashed_fallback_reaches_its_owner(
    crash_through_image
):
    """A hint outlives its holder's crash: the stash is stable storage.

    The sloppy history checker cannot see a lost hint (a stale R = 1
    read is legal under a sloppy policy), so this pins the replay
    itself: owner 1 is down, the write from 0 parks its hint on
    fallback 2 (1 mod 4 of the appliers 0, 2, 3, 4), 2 crashes through
    its image and comes back, then the owner repairs.
    """
    policy = QuorumPolicy(5, 1, 1, allow_sloppy=True, hinted_handoff=True)
    protocol = build_group(
        SchemeName.VOTING, 5, 8, 64, Network(), policy=policy
    )
    owner, fallback = protocol.site(1), protocol.site(2)
    protocol.on_site_failed(owner.site_id)
    version = protocol.write(0, 3, b"\x5a" * 64)
    assert fallback.hints == [(1, 3, b"\x5a" * 64, version)]
    protocol.on_site_failed(fallback.site_id)
    protocol.on_site_repaired(fallback.site_id)
    protocol.on_site_repaired(owner.site_id)
    assert owner.block_version(3) == version
    assert owner.read_block(3) == b"\x5a" * 64
    assert protocol.hints_replayed == 1
    assert fallback.hints == []


# -- planted mutants: an image that drops one durable field -------------------

_dump_site = persistence.dump_site


def _without_checksums(site: Site) -> bytes:
    """Re-checksum every copy as it reads now: rot becomes clean data."""
    fresh = load_site(_dump_site(site))
    for index, data, version in list(fresh.store.written_blocks()):
        fresh.write_block(index, data, version)
    return _dump_site(fresh)


def _without_hints(site: Site) -> bytes:
    fresh = load_site(_dump_site(site))
    fresh.hints = []
    return _dump_site(fresh)


def _without_epoch(site: Site) -> bytes:
    fresh = load_site(_dump_site(site))
    fresh.set_epoch(0)
    return _dump_site(fresh)


@pytest.mark.parametrize("mutant", [
    _without_checksums,
    _without_hints,
    pytest.param(_without_epoch, marks=pytest.mark.xfail(
        strict=True,
        reason="every repair re-reads the coordinator's epoch through "
        "_sync_epoch; a lost epoch shows only once epochs travel by "
        "message (ROADMAP item 13 (b))",
    )),
], ids=["checksums", "hints", "epoch"])
def test_lossy_image_is_caught(
    mutant, reference_results, crash_through_image, monkeypatch
):
    monkeypatch.setattr(persistence, "dump_site", mutant)
    assert _differing(_run_matrix(), reference_results) != []
