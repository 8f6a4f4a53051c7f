"""Seeded closed-loop chaos harness for the reliable device.

:func:`run_chaos` drives a replica group through a deterministic,
seed-replayable schedule of client operations and injected faults --
silent corruption, whole-site and mid-write crashes, delivery drops --
interleaved with repairs and background scrubs, recording everything in
a :class:`~repro.faults.checker.HistoryRecorder`.  At the end it repairs
every site, scrubs, reads back every block, and has the checker verify
that no successful read ever violated read-latest-write and that every
injected corruption was either detected (healed/quarantined) or
harmlessly overwritten.

This is both a CLI tool (``python -m repro chaos``) and the engine
behind the property-based fault tests: same seed, same schedule, same
verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.available_copy import AvailableCopyProtocol
from ..core.naive import NaiveAvailableCopyProtocol
from ..core.policy import QuorumPolicy
from ..core.quorum import QuorumSpec
from ..core.voting import VotingProtocol
from ..device.reliable import ReliableDevice, RetryPolicy
from ..device.scrub import scrub_replicas
from ..device.site import Site
from ..errors import (
    CorruptBlockError,
    DeviceError,
    MembershipError,
    NoAvailableCopyError,
    SiteDownError,
)
from ..membership import MembershipManager
from ..net.message import MessageCategory
from ..net.network import Network
from ..types import SchemeName, SiteState
from .checker import (
    HistoryRecorder,
    StalenessWitness,
    Violation,
    check_history_sloppy,
)
from .injector import FaultInjector, InjectionCounts

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "run_chaos",
    "run_chaos_campaign",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of one chaos run (everything derives from ``seed``)."""

    scheme: SchemeName = SchemeName.VOTING
    seed: int = 0
    num_sites: int = 5
    num_blocks: int = 24
    block_size: int = 64
    #: Client operation steps (each may also draw a fault).
    operations: int = 400
    #: Probability that a step injects a fault before the operation.
    fault_rate: float = 0.30
    #: Relative odds of each fault family, given a fault fires.
    corrupt_weight: float = 0.35
    crash_weight: float = 0.20
    mid_write_weight: float = 0.15
    drop_weight: float = 0.30
    #: Probability per step that one failed site is repaired.
    repair_rate: float = 0.20
    #: Scrub every this many steps (0 disables background scrubs).
    scrub_every: int = 60
    #: Fraction of operations that are writes.
    write_fraction: float = 0.5
    #: Probability per step that the operation is a *batched* multi-block
    #: access instead of a single-block one.  0 (default) preserves the
    #: historical rng draw sequence exactly, so existing seeded
    #: schedules replay unchanged.
    batch_rate: float = 0.0
    #: Largest batch a batched step may issue (>= 2 when batch_rate > 0).
    max_batch: int = 8
    #: Probability per step that a planned reconfiguration (add / remove
    #: / replace, rotating) is opened.  0 (default) disables dynamic
    #: membership entirely AND preserves the historical rng draw
    #: sequence, so existing seeded schedules replay unchanged.
    reconfigure_rate: float = 0.0
    #: Fresh sites available to join the group (ids continue upward
    #: from ``num_sites``); each add/replace consumes one.
    spare_sites: int = 2
    #: Never shrink the group below this many members.
    min_sites: int = 3
    #: Blocks per membership catch-up chunk (state-transfer pacing).
    catchup_blocks: int = 4
    #: Whether members fence in-flight writes at epoch boundaries.
    #: Disabling reproduces the quorum-drift hazard (ablation only).
    fencing: bool = True
    retry: Optional[RetryPolicy] = RetryPolicy(
        max_attempts=3, initial_delay=0.0
    )
    #: Optional (RF, R, W) quorum policy.  None (default) runs the
    #: paper's fixed quorum composition AND preserves the historical
    #: rng draw sequence, so existing seeded schedules replay
    #: unchanged.  When set, ``num_sites`` must equal ``policy.rf``
    #: and sloppy policies are checked with the staleness-witnessing
    #: checker instead of the strict one.
    policy: Optional[QuorumPolicy] = None


@dataclass
class ChaosResult:
    """Verdict and accounting of one chaos run."""

    scheme: SchemeName
    seed: int
    operations: int
    injected: InjectionCounts
    violations: List[Violation]
    #: (site, block) corruptions neither detected nor overwritten.
    unaccounted_corruptions: List[Tuple[int, int]]
    corruptions_detected: int = 0
    blocks_healed: int = 0
    sites_fenced: int = 0
    reads_ok: int = 0
    reads_failed: int = 0
    writes_ok: int = 0
    writes_failed: int = 0
    torn_writes: int = 0
    retries: int = 0
    failovers: int = 0
    messages: int = 0
    history: Dict[str, int] = field(default_factory=dict)
    #: Committed view changes (0 when dynamic membership is off).
    view_changes: int = 0
    #: The group's final membership epoch.
    final_epoch: int = 0
    #: Committed view changes by kind (add / remove / replace).
    reconfigurations: Dict[str, int] = field(default_factory=dict)
    #: Write fan-outs rejected at an epoch boundary.
    epoch_fences: int = 0
    #: A transition window was still open at the end of the run.
    reconfig_pending: bool = False
    #: State-transfer exchanges spent on joiner catch-up (messages and
    #: bytes, priced by the same size model as foreground traffic).
    catchup_messages: int = 0
    catchup_bytes: int = 0
    #: The (RF, R, W) policy descriptor, "" for the paper's default.
    policy: str = ""
    #: Stale-but-legitimate reads (sloppy policies only).
    staleness_witnesses: List[StalenessWitness] = field(
        default_factory=list
    )
    #: Hinted handoff and read repair activity (policy runs only).
    hints_parked: int = 0
    hints_replayed: int = 0
    read_repairs: int = 0
    #: Total bytes of all transmissions (the size-model accounting).
    bytes_total: int = 0

    @property
    def ok(self) -> bool:
        """No consistency violations and every corruption accounted for."""
        return not self.violations and not self.unaccounted_corruptions

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        text = (
            f"chaos[{self.scheme.value}, seed={self.seed}]: {status} -- "
            f"{self.injected.total_faults} faults "
            f"({self.injected.corruptions} corruptions, "
            f"{self.injected.crashes + self.injected.mid_write_crashes} "
            f"crashes of which {self.injected.mid_write_crashes} "
            f"mid-write, {self.injected.drops} drops), "
            f"{self.writes_ok}/{self.writes_ok + self.writes_failed} "
            f"writes ok, {self.reads_ok}/"
            f"{self.reads_ok + self.reads_failed} reads ok, "
            f"{self.torn_writes} torn, "
            f"{self.corruptions_detected} corruptions detected, "
            f"{self.blocks_healed} healed, {self.sites_fenced} fenced, "
            f"{self.retries} retries, {len(self.violations)} violations"
        )
        if self.view_changes or self.reconfig_pending:
            kinds = ", ".join(
                f"{k}={v}" for k, v in sorted(
                    self.reconfigurations.items()
                ) if v
            )
            text += (
                f"; {self.view_changes} view changes ({kinds or 'none'}) "
                f"to epoch {self.final_epoch}, "
                f"{self.epoch_fences} epoch fences"
            )
            if self.reconfig_pending:
                text += ", 1 window still open"
        if self.policy:
            text += (
                f"; policy {self.policy}: "
                f"{len(self.staleness_witnesses)} stale reads, "
                f"{self.hints_parked} hints parked / "
                f"{self.hints_replayed} replayed, "
                f"{self.read_repairs} read repairs"
            )
        return text


def _campaign_run(task) -> "ChaosResult":
    """Pool worker: one independent run of a campaign.

    The run's seed is the task's derived seed, a pure function of the
    campaign's base seed and the run index, so campaigns produce the
    same verdicts at any ``jobs`` value and in any completion order.
    """
    return run_chaos(replace(task.payload, seed=task.seed))


def run_chaos_campaign(
    config: ChaosConfig,
    runs: int,
    jobs: Optional[int] = None,
    runner=None,
) -> List["ChaosResult"]:
    """Fan ``runs`` independently seeded chaos schedules out in parallel.

    Run ``i`` replays ``config`` with a seed derived from
    ``(config.seed, i)``; results come back in run order.  A campaign
    is the chaos analogue of a Monte-Carlo sweep: many independent
    seeded schedules, one verdict each.
    """
    from ..exec import ParallelRunner

    if runs < 1:
        raise ValueError(f"campaign needs at least one run, got {runs}")
    runner = runner if runner is not None else ParallelRunner(
        jobs=jobs, name="chaos"
    )
    return runner.map(
        _campaign_run,
        [config] * runs,
        base_seed=config.seed,
        namespace=f"chaos:{config.scheme.value}",
    )


def _build_protocol(config: ChaosConfig):
    if config.policy is not None and config.policy.rf != config.num_sites:
        raise ValueError(
            f"policy replication factor {config.policy.rf} does not "
            f"match num_sites={config.num_sites}"
        )
    if config.scheme is SchemeName.VOTING:
        spec = QuorumSpec.majority(config.num_sites)
        sites = [
            Site(i, config.num_blocks, config.block_size,
                 weight=spec.weight_of(i))
            for i in range(config.num_sites)
        ]
        return VotingProtocol(
            sites, Network(), spec=spec, policy=config.policy
        )
    sites = [
        Site(i, config.num_blocks, config.block_size)
        for i in range(config.num_sites)
    ]
    if config.scheme is SchemeName.AVAILABLE_COPY:
        return AvailableCopyProtocol(sites, Network(), policy=config.policy)
    if config.scheme is SchemeName.NAIVE_AVAILABLE_COPY:
        return NaiveAvailableCopyProtocol(
            sites, Network(), policy=config.policy
        )
    raise ValueError(f"unknown scheme {config.scheme!r}")


def _random_block(rng: random.Random, size: int) -> bytes:
    """``size`` payload bytes: ``bytes(rng.getrandbits(8) for _ in
    range(size))`` in one draw.

    CPython's ``getrandbits(8)`` is the top byte of one 32-bit
    Mersenne-Twister output, and ``getrandbits(32 * size)`` packs the
    same ``size`` outputs least significant word first.  Every fourth
    byte from offset 3 is therefore the same payload, and the generator
    ends in the same state, so every later draw of a seeded schedule
    replays unchanged.
    """
    return rng.getrandbits(32 * size).to_bytes(4 * size, "little")[3::4]


def _inject_one(rng, config, protocol, injector, device) -> None:
    """Draw and apply one fault (best effort: a draw may be a no-op)."""
    weights = [
        ("corrupt", config.corrupt_weight),
        ("crash", config.crash_weight),
        ("mid_write", config.mid_write_weight),
        ("drop", config.drop_weight),
    ]
    kind = rng.choices(
        [k for k, _ in weights], weights=[w for _, w in weights]
    )[0]
    site_ids = protocol.site_ids
    tracer = protocol.tracer
    if kind == "corrupt":
        # Aim at a written, intact copy so the injection takes.
        candidates = [
            (s.site_id, index)
            for s in protocol.sites
            for index in s.store.intact_blocks()
        ]
        if candidates:
            site_id, block = rng.choice(candidates)
            injector.corrupt_block(
                site_id, block, flip=rng.randrange(config.block_size)
            )
            tracer.event(
                "chaos.fault", layer="chaos", kind="corrupt",
                site=site_id, block=block,
            )
    elif kind == "crash":
        up = [s.site_id for s in protocol.operational_sites()]
        if up:
            victim = rng.choice(up)
            injector.crash_site(victim)
            tracer.event(
                "chaos.fault", layer="chaos", kind="crash",
                site=victim,
            )
    elif kind == "mid_write":
        try:
            origin = device.current_origin()
        except DeviceError:
            return
        survivors = rng.randrange(1, max(2, config.num_sites - 1))
        injector.arm_mid_write_crash(origin, survivors=survivors)
        tracer.event(
            "chaos.fault", layer="chaos", kind="mid_write",
            site=origin, survivors=survivors,
        )
    elif kind == "drop":
        victim = rng.choice(site_ids)
        count = rng.randrange(1, 4)
        injector.drop_deliveries(victim, count=count)
        tracer.event(
            "chaos.fault", layer="chaos", kind="drop",
            site=victim, count=count,
        )


def _scrub_quietly(protocol) -> None:
    try:
        scrub_replicas(protocol)
    except NoAvailableCopyError:
        pass


#: Planned reconfigurations rotate through the kinds in this order, so a
#: campaign that commits three changes has exercised all of them.
_RECONFIG_KINDS = ("add", "remove", "replace")


def _reconfigure_one(rng, config, manager, spares) -> None:
    """Open one planned view change, if any kind is feasible.

    Kind selection prefers the rotation slot (``view_changes % 3``) and
    falls back to any feasible kind; victims are drawn from the rng so
    schedules stay seed-replayable.  A no-op when the window is already
    open or nothing is feasible (no spares, group at minimum size).
    """
    if manager.in_transition:
        return
    protocol = manager.protocol
    members = sorted(protocol.site_ids)
    can_grow = bool(spares) and len(members) < config.num_sites + 2
    feasible = []
    if can_grow:
        feasible.append("add")
    if len(members) > config.min_sites:
        feasible.append("remove")
    if spares:
        feasible.append("replace")
    if not feasible:
        return
    preferred = _RECONFIG_KINDS[manager.view_changes % 3]
    kind = preferred if preferred in feasible else rng.choice(feasible)
    tracer = protocol.tracer
    try:
        if kind == "add":
            manager.open_add(spares[0])
            spares.pop(0)
        elif kind == "remove":
            manager.open_remove(rng.choice(members))
        else:
            manager.open_replace(rng.choice(members), spares[0])
            spares.pop(0)
    except MembershipError:
        return
    tracer.event(
        "chaos.reconfigure", layer="chaos", kind=kind,
        epoch=protocol.current_epoch(),
    )


def run_chaos(config: ChaosConfig, tracer=None) -> ChaosResult:
    """Run one seeded chaos schedule and check its history.

    ``tracer`` (a :class:`repro.obs.Tracer`) makes the whole run
    observable: fault injections and repairs appear as ``chaos.*``
    events alongside the device/protocol/net spans of the operations
    they disrupt.  The schedule itself is tracer-independent -- the rng
    draw sequence is identical with and without one.
    """
    rng = random.Random(config.seed)
    protocol = _build_protocol(config)
    if tracer is not None:
        protocol.network.set_tracer(tracer)
    recorder = HistoryRecorder()
    protocol.recorder = recorder
    injector = FaultInjector(protocol, recorder=recorder).attach()
    device = ReliableDevice(
        protocol, failover=True, retry=config.retry
    )
    manager: Optional[MembershipManager] = None
    spares: List[Site] = []
    if config.reconfigure_rate > 0:
        manager = MembershipManager(
            protocol,
            fencing=config.fencing,
            catchup_blocks=config.catchup_blocks,
            recorder=recorder,
        )
        spares = [
            Site(config.num_sites + i, config.num_blocks,
                 config.block_size)
            for i in range(config.spare_sites)
        ]

        def crash_replace(origin: int) -> None:
            # A mid-write crash triggers an unplanned replacement: swap
            # the victim for a spare, exactly as an operator would pull
            # a dead machine.  Skipped when a window is already open or
            # no spare remains.
            if manager.in_transition or not spares:
                return
            try:
                manager.open_replace(origin, spares[0])
            except MembershipError:
                return
            spares.pop(0)
            protocol.tracer.event(
                "chaos.reconfigure", layer="chaos",
                kind="crash-replace", site=origin,
                epoch=protocol.current_epoch(),
            )

        injector.on_mid_write_crash = crash_replace
    result = ChaosResult(
        scheme=config.scheme,
        seed=config.seed,
        operations=config.operations,
        injected=injector.counts,
        violations=[],
        unaccounted_corruptions=[],
    )

    def do_write(block: int, value: bytes) -> None:
        try:
            device.write_block(block, value)
        except DeviceError as exc:
            result.writes_failed += 1
            recorder.write_failed(block, type(exc).__name__)
        else:
            result.writes_ok += 1
            recorder.write_ok(block, value, device.last_write_version)

    def do_read(block: int) -> None:
        try:
            value = device.read_block(block)
        except DeviceError as exc:
            result.reads_failed += 1
            recorder.read_failed(block, type(exc).__name__)
        else:
            result.reads_ok += 1
            recorder.read_ok(block, value)

    def do_batch_write(writes: Dict[int, bytes]) -> None:
        blocks = sorted(writes)
        try:
            device.write_blocks(writes)
        except DeviceError as exc:
            result.writes_failed += len(blocks)
            recorder.batch_write_failed(blocks, type(exc).__name__)
        else:
            result.writes_ok += len(blocks)
            recorder.batch_write_ok(writes, device.last_write_versions)

    def do_batch_read(blocks: List[int]) -> None:
        try:
            values = device.read_blocks(blocks)
        except DeviceError as exc:
            result.reads_failed += len(blocks)
            recorder.batch_read_failed(blocks, type(exc).__name__)
        else:
            result.reads_ok += len(values)
            recorder.batch_read_ok(values)

    for step in range(config.operations):
        if rng.random() < config.fault_rate:
            _inject_one(rng, config, protocol, injector, device)
        if rng.random() < config.repair_rate:
            down = [
                s.site_id for s in protocol.sites
                if s.state is SiteState.FAILED
            ]
            if down:
                repaired = rng.choice(down)
                injector.repair_site(repaired)
                protocol.tracer.event(
                    "chaos.repair", layer="chaos", site=repaired,
                )
        # Like batch_rate, the reconfigure_rate > 0 guard keeps legacy
        # schedules' rng draw sequences byte-identical: dynamic
        # membership adds its draw (and its deterministic catch-up
        # step) only when explicitly enabled.
        if manager is not None:
            if rng.random() < config.reconfigure_rate:
                _reconfigure_one(rng, config, manager, spares)
            manager.step()
        # The batch_rate > 0 guard keeps the rng draw sequence of the
        # default (single-block) configuration byte-identical to the
        # pre-batching harness, so seeded schedules replay unchanged.
        if config.batch_rate > 0 and rng.random() < config.batch_rate:
            size = rng.randrange(2, max(3, config.max_batch + 1))
            blocks = rng.sample(
                range(config.num_blocks),
                min(size, config.num_blocks),
            )
            if rng.random() < config.write_fraction:
                do_batch_write({
                    b: _random_block(rng, config.block_size)
                    for b in sorted(blocks)
                })
            else:
                do_batch_read(blocks)
        else:
            block = rng.randrange(config.num_blocks)
            if rng.random() < config.write_fraction:
                do_write(block, _random_block(rng, config.block_size))
            else:
                do_read(block)
        if config.scrub_every and (step + 1) % config.scrub_every == 0:
            _scrub_quietly(protocol)

    # -- quiescence: stop injecting, repair everything, scrub, read back -------
    injector.disarm_mid_write_crash()
    injector.detach()  # pending drop budgets must not blind the audit
    for site in protocol.sites:
        if site.state is SiteState.FAILED:
            injector.repair_site(site.site_id)
            protocol.tracer.event(
                "chaos.repair", layer="chaos", site=site.site_id,
                quiescence=True,
            )
    if manager is not None and manager.in_transition:
        # Drain any open transition window now that every member is
        # back up; a window that still cannot commit (e.g. the joiner's
        # catch-up source keeps failing verification) is reported, not
        # hidden -- the final reads below still run under joint quorums.
        result.reconfig_pending = not manager.finalize()
    _scrub_quietly(protocol)
    for block in range(config.num_blocks):
        do_read(block)

    # -- verdict -------------------------------------------------------------------
    result.torn_writes = recorder.count("torn_write")
    if config.policy is not None and config.policy.is_sloppy:
        # Sloppy policies legally serve stale data; the checker
        # *witnesses* it (with the version lag) instead of forbidding
        # it.  Anything not explained by ANY past value stays a
        # violation.
        result.violations, result.staleness_witnesses = (
            check_history_sloppy(recorder.events)
        )
    else:
        result.violations = recorder.check()
    if config.policy is not None:
        result.policy = config.policy.describe()
        result.hints_parked = protocol.hints_parked
        result.hints_replayed = protocol.hints_replayed
        result.read_repairs = protocol.read_repairs
    result.bytes_total = protocol.meter.total_bytes
    for site_id, block in sorted(recorder.unresolved_corruptions()):
        # Undetected is fine only if the copy is now verifiably intact
        # (a later write or repair overwrote the damage) or the store
        # quarantined it without a protocol-level detection event.
        try:
            store = protocol.site(site_id).store
        except SiteDownError:
            # The corrupt copy left with its site when a view change
            # expelled it; no current replica carries the damage.
            continue
        if not store.verify(block):
            result.unaccounted_corruptions.append((site_id, block))
    result.corruptions_detected = protocol.corruptions_detected
    result.blocks_healed = protocol.blocks_healed
    result.sites_fenced = protocol.sites_fenced
    result.retries = device.fault_stats.retries
    result.failovers = device.fault_stats.failovers
    result.messages = protocol.meter.total
    result.history = recorder.summary()
    if manager is not None:
        result.view_changes = manager.view_changes
        result.final_epoch = protocol.current_epoch()
        result.reconfigurations = dict(manager.reconfigurations)
        result.epoch_fences = protocol.epoch_fences
        meter = protocol.meter
        for category in (MessageCategory.STATE_TRANSFER_REQUEST,
                         MessageCategory.STATE_TRANSFER_REPLY):
            result.catchup_messages += meter.category_count(category)
            result.catchup_bytes += meter.category_bytes(category)
    return result
