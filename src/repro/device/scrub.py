"""Replica scrubbing: audit and repair stale copies in the background.

Voting's lazy recovery (Section 3.1) leaves stale blocks on repaired
sites until a read or write happens to touch them.  That is the paper's
recommendation -- repair traffic is deferred and often avoided entirely
-- but an operator may want to bound the staleness window.  The scrubber
is that tool: it collects version vectors from every reachable site,
reports which copies lag the group maximum, and (optionally) pushes
fresh blocks to them.

The audit also covers *integrity*: each site verifies its block
checksums and piggybacks the list of corrupt copies on its
version-vector reply (no extra transmissions), so scrubbing bounds not
just the staleness window but the exposure window of silent corruption.
``scrub_replicas`` heals corrupt copies from an intact peer.

For the available-copy schemes a scrub of a healthy group finds nothing
(available copies are identical by construction -- the scrubber is also
a handy invariant probe for tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.protocol import ReplicationProtocol
from ..core.version import VersionVector
from ..errors import NoAvailableCopyError
from ..net.message import MessageCategory, VectorReply
from ..types import BlockIndex, SiteId

__all__ = ["ScrubReport", "audit_replicas", "scrub_replicas"]


@dataclass
class ScrubReport:
    """What a scrub pass found (and possibly fixed)."""

    coordinator: SiteId
    sites_audited: int
    #: site -> blocks on which that site lags the group maximum.
    stale: Dict[SiteId, List[BlockIndex]] = field(default_factory=dict)
    #: site -> blocks whose copy failed checksum verification there.
    corrupt: Dict[SiteId, List[BlockIndex]] = field(default_factory=dict)
    blocks_repaired: int = 0
    blocks_healed: int = 0
    messages: int = 0

    @property
    def clean(self) -> bool:
        """No stale and no corrupt copies among the audited sites."""
        return not self.stale and not self.corrupt

    def summary(self) -> str:
        if self.clean:
            return (
                f"scrub: clean ({self.sites_audited} sites, "
                f"{self.messages} transmissions)"
            )
        parts = []
        if self.stale:
            lagging = sum(len(blocks) for blocks in self.stale.values())
            parts.append(
                f"{lagging} stale block copies on "
                f"{len(self.stale)} site(s), {self.blocks_repaired} "
                "repaired"
            )
        if self.corrupt:
            bad = sum(len(blocks) for blocks in self.corrupt.values())
            parts.append(
                f"{bad} corrupt block copies on "
                f"{len(self.corrupt)} site(s), {self.blocks_healed} "
                "healed"
            )
        return (
            f"scrub: {', '.join(parts)}, {self.messages} transmissions"
        )


def _collect_vectors(protocol: ReplicationProtocol, coordinator: SiteId):
    """Gather version vectors and integrity findings from all reachable
    sites (metered).

    Each site piggybacks the list of its corrupt block copies on the
    same reply, so the integrity audit costs no extra transmissions.
    The request carries an empty vector: the coordinator asks for
    vectors and offers none.  Returns ``(vectors, corrupt)`` maps keyed
    by site id.
    """

    def serve(node, _payload):
        return VectorReply(
            node.version_vector(), {}, node.store.corrupt_blocks()
        )

    replies = protocol.network.broadcast_query(
        coordinator,
        request=MessageCategory.VERSION_VECTOR_REQUEST,
        reply=MessageCategory.VERSION_VECTOR_REPLY,
        handler=serve,
        payload=VersionVector(),
    )
    replies[coordinator] = serve(protocol.site(coordinator), None)
    vectors = {s: reply.vector for s, reply in replies.items()}
    corrupt = {s: reply.corrupt for s, reply in replies.items()
               if reply.corrupt}
    return vectors, corrupt


def _pick_coordinator(protocol: ReplicationProtocol) -> SiteId:
    candidates = [
        s for s in protocol.available_sites()
        if not getattr(s, "is_witness", False)
    ]
    if not candidates:
        raise NoAvailableCopyError("no available data site to scrub from")
    return candidates[0].site_id


def audit_replicas(protocol: ReplicationProtocol) -> ScrubReport:
    """Read-only staleness + integrity audit of all reachable copies."""
    coordinator = _pick_coordinator(protocol)
    before = protocol.meter.total
    with protocol.tracer.span(
        "scrub.audit", layer="scrub",
        scheme=protocol.scheme.value, coordinator=coordinator,
    ) as span:
        report = _audit(protocol, coordinator, before)
        span.set(
            sites=report.sites_audited,
            stale=sum(len(b) for b in report.stale.values()),
            corrupt=sum(len(b) for b in report.corrupt.values()),
            messages=report.messages,
        )
    return report


def _audit(
    protocol: ReplicationProtocol, coordinator: SiteId, before: int
) -> ScrubReport:
    vectors, corrupt = _collect_vectors(protocol, coordinator)
    for site_id, blocks in sorted(corrupt.items()):
        for block in blocks:
            protocol.note_corruption(site_id, block)
    # group maximum per block
    group_max = {}
    for vector in vectors.values():
        for block, version in vector.items():
            if version > group_max.get(block, 0):
                group_max[block] = version
    stale: Dict[SiteId, List[BlockIndex]] = {}
    for site_id, vector in sorted(vectors.items()):
        if getattr(protocol.site(site_id), "is_witness", False):
            continue  # witnesses hold no data to be stale
        lagging = sorted(
            block
            for block, version in group_max.items()
            if vector.get(block) < version
        )
        if lagging:
            stale[site_id] = lagging
    return ScrubReport(
        coordinator=coordinator,
        sites_audited=len(vectors),
        stale=stale,
        corrupt={s: list(blocks) for s, blocks in sorted(corrupt.items())},
        messages=protocol.meter.total - before,
    )


def _push_block(protocol, source, target_id, block) -> bool:
    """One block-transfer transmission from ``source`` to ``target_id``."""

    def deliver(node, payload):
        index, data, version = payload
        node.write_block(index, data, version)

    return protocol.network.unicast_oneway(
        src=source.site_id,
        dst=target_id,
        category=MessageCategory.BLOCK_TRANSFER,
        handler=deliver,
        payload=(
            block,
            source.read_block(block),
            source.block_version(block),
        ),
    )


def _push_blocks(protocol, source, target_id, blocks) -> bool:
    """Ship a whole group of blocks in ONE scatter-gather transmission.

    The batched sweep groups each lagging target's blocks by repair
    source; every (source, target) pair then costs a single
    BATCH_BLOCK_TRANSFER instead of one BLOCK_TRANSFER per block.
    """

    def deliver(node, payload):
        for index in sorted(payload):
            data, version = payload[index]
            node.write_block(index, data, version)

    return protocol.network.unicast_oneway(
        src=source.site_id,
        dst=target_id,
        category=MessageCategory.BATCH_BLOCK_TRANSFER,
        handler=deliver,
        payload={
            block: (source.read_block(block), source.block_version(block))
            for block in blocks
        },
    )


def _intact_source(protocol, block, exclude, at_least=0):
    """The best verified copy of ``block`` among operational data sites."""
    candidates = [
        s for s in protocol.operational_sites()
        if s.site_id != exclude
        and not getattr(s, "is_witness", False)
        and s.store.verify(block)
        and s.block_version(block) >= at_least
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda s: (s.block_version(block),
                                          -s.site_id))


def scrub_replicas(protocol: ReplicationProtocol) -> ScrubReport:
    """Audit, then push fresh blocks to every lagging or corrupt
    reachable copy.

    Repairs use one block-transfer transmission per stale block, sourced
    from a site holding the group-maximum version; corrupt copies are
    healed the same way from a checksum-verified peer holding at least
    the damaged copy's version.
    """
    report = audit_replicas(protocol)
    before = protocol.meter.total
    with protocol.tracer.span(
        "scrub.repair", layer="scrub", scheme=protocol.scheme.value,
    ) as span:
        _repair(protocol, report)
        span.set(
            repaired=report.blocks_repaired,
            healed=report.blocks_healed,
            messages=protocol.meter.total - before,
        )
    report.messages += protocol.meter.total - before
    return report


def _repair(protocol: ReplicationProtocol, report: ScrubReport) -> None:
    sites_by_id = {s.site_id: s for s in protocol.sites}
    for site_id, blocks in sorted(report.stale.items()):
        # Group this target's lagging blocks by repair source so each
        # (source, target) pair costs one batched transmission.
        by_source: Dict[SiteId, List[BlockIndex]] = {}
        for block in blocks:
            source = _intact_source(protocol, block, exclude=site_id)
            if source is None:
                continue  # no verified copy anywhere; stays reported
            by_source.setdefault(source.site_id, []).append(block)
        for source_id in sorted(by_source):
            group = by_source[source_id]
            if _push_blocks(protocol, sites_by_id[source_id],
                            site_id, group):
                report.blocks_repaired += len(group)
    for site_id, blocks in sorted(report.corrupt.items()):
        target = sites_by_id[site_id]
        for block in blocks:
            if target.store.verify(block):
                continue  # already fixed by the staleness pass
            needed = target.block_version(block)
            source = _intact_source(
                protocol, block, exclude=site_id, at_least=needed
            )
            if source is None:
                # Data loss: no intact copy current enough exists.  Keep
                # the bad copy quarantined so reads fail loudly instead
                # of returning damaged or stale bytes.
                target.store.quarantine(block)
                continue
            if _push_block(protocol, source, site_id, block):
                report.blocks_healed += 1
                protocol.note_heal(site_id, block)
