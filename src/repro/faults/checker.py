"""History-based consistency checking for fault schedules.

A :class:`HistoryRecorder` collects the complete, ordered history of a
fault experiment: every device-level read and write (successful, failed
or *torn*), every injected fault, and every detection/heal/fence the
protocols report.  :func:`check_history` then verifies the device's one
externally visible guarantee -- **read-latest-write** -- against that
history.

The correctness condition, per block:

* A successful read must return either the value of the latest
  *committed* write (or all-zeroes if there has been none), or the
  value of a **torn** write whose version is at least the committed
  version.  A torn write -- the origin crashed mid-fan-out -- is
  indeterminate: some replicas applied it, so the group may legally
  serve it; but once a committed write supersedes it (strictly higher
  version) it must never reappear.
* A failed read (device unavailable, site down, corruption reported) is
  *allowed* under faults -- availability is what Section 4 trades away
  -- but wrong data never is.

Version collisions are real, not a modelling artefact: a torn write at
version ``v`` and a later independent committed write at the same ``v``
cannot be ordered without two-phase commit, which the paper's protocols
deliberately omit.  The admissible-set semantics above absorbs exactly
that ambiguity and no more.

**Sloppy quorum policies** (``R + W <= RF`` or ``2W <= RF``) legally
return *stale* data: an older committed (or superseded torn) value.
:func:`check_history_sloppy` therefore classifies each anomalous read
instead of condemning it: a read explained by some *earlier* value of
the block becomes a :class:`StalenessWitness` -- evidence of the
staleness the policy traded for availability, with the version lag
quantified -- while a read explained by *nothing ever written* remains
a :class:`Violation` exactly as under the strict checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..types import BlockIndex, SiteId

__all__ = [
    "Event",
    "HistoryRecorder",
    "StalenessWitness",
    "Violation",
    "check_history",
    "check_history_sloppy",
]


class Event(NamedTuple):
    """One entry in a fault-experiment history.

    A tuple rather than an object: a chaos campaign records tens of
    thousands of them, and the recorder builds each one positionally.
    """

    kind: str
    block: Optional[BlockIndex] = None
    site: Optional[SiteId] = None
    value: Optional[bytes] = None
    version: Optional[int] = None
    info: str = ""


@dataclass(frozen=True)
class Violation:
    """A read that returned data no admissible write explains."""

    event_index: int
    block: BlockIndex
    observed: bytes
    admissible: str

    def __str__(self) -> str:
        return (
            f"event {self.event_index}: read of block {self.block} "
            f"returned {self.observed[:16]!r}... but admissible values "
            f"were {self.admissible}"
        )


@dataclass(frozen=True)
class StalenessWitness:
    """A read that returned a *stale* but once-legitimate value.

    Produced only by :func:`check_history_sloppy`: the observed value
    was committed (or torn) at ``observed_version`` and has since been
    superseded by a committed write at ``latest_version``.  Not a
    correctness violation under a sloppy policy -- it is the evidence
    of the staleness the policy admits, and what hinted handoff and
    read repair exist to shrink.

    ``observed_version <= latest_version``, and :attr:`lag` is 0
    exactly when the two are *tied*: with ``W`` below a majority, two
    writes whose quorums did not see each other both commit the same
    version (sibling writes), and a read may return either.  That is
    the committed-write analogue of the equal-version torn write
    ``_scan`` leaves admissible -- no global order exists between the
    two -- so the read of the sibling recorded first is a witness of
    lag 0, not a violation.
    """

    event_index: int
    block: BlockIndex
    observed: bytes
    observed_version: int
    latest_version: int

    @property
    def lag(self) -> int:
        """How many committed versions behind the read was (0: a tie)."""
        return self.latest_version - self.observed_version

    def __str__(self) -> str:
        return (
            f"event {self.event_index}: read of block {self.block} "
            f"returned the value of v{self.observed_version}, "
            f"{self.lag} version(s) behind committed "
            f"v{self.latest_version}"
        )


class HistoryRecorder:
    """Ordered log of operations and faults for one replica group.

    The chaos harness records device operations; the
    :class:`~repro.faults.injector.FaultInjector` records injections;
    the protocols themselves (via
    :meth:`~repro.core.protocol.ReplicationProtocol.note_corruption`
    and friends) record detections, heals and fencings.
    """

    def __init__(self) -> None:
        self.events: List[Event] = []

    def _add(self, *fields) -> None:
        """Append ``Event(*fields)``; fields in :class:`Event` order."""
        self.events.append(Event(*fields))

    # -- device operations (recorded by the harness) --------------------------

    def write_ok(self, block: BlockIndex, value: bytes,
                 version: int) -> None:
        self._add("write_ok", block, None, bytes(value), version)

    def torn_write(self, block: BlockIndex, value: bytes,
                   version: int) -> None:
        """The origin crashed mid-fan-out: outcome indeterminate."""
        self._add("torn_write", block, None, bytes(value), version)

    def write_failed(self, block: BlockIndex, reason: str = "") -> None:
        self._add("write_failed", block, None, None, None, reason)

    def read_ok(self, block: BlockIndex, value: bytes) -> None:
        self._add("read_ok", block, None, bytes(value))

    def read_failed(self, block: BlockIndex, reason: str = "") -> None:
        self._add("read_failed", block, None, None, None, reason)

    # -- batched device operations --------------------------------------------
    #
    # A batch is recorded as one per-block event per member (tagged
    # ``info="batch"``): the consistency condition is per block, so the
    # checker needs no batch-aware logic -- each block of a batch is
    # judged exactly like a single-block operation.

    def batch_read_ok(self, values: Dict[BlockIndex, bytes]) -> None:
        for block in sorted(values):
            self._add("read_ok", block, None, bytes(values[block]), None,
                      "batch")

    def batch_write_ok(
        self,
        values: Dict[BlockIndex, bytes],
        versions: Dict[BlockIndex, int],
    ) -> None:
        for block in sorted(values):
            self._add("write_ok", block, None, bytes(values[block]),
                      versions[block], "batch")

    def batch_read_failed(
        self, blocks: List[BlockIndex], reason: str = ""
    ) -> None:
        for block in sorted(blocks):
            self._add("read_failed", block, None, None, None, reason)

    def batch_write_failed(
        self, blocks: List[BlockIndex], reason: str = ""
    ) -> None:
        for block in sorted(blocks):
            self._add("write_failed", block, None, None, None, reason)

    # -- faults (recorded by the injector) ------------------------------------

    def crash(self, site: SiteId, mid_write: bool = False) -> None:
        self._add("crash", None, site, None, None,
                  "mid-write" if mid_write else "")

    def repair(self, site: SiteId) -> None:
        self._add("repair", None, site)

    def corruption_injected(self, site: SiteId,
                            block: BlockIndex) -> None:
        self._add("corruption_injected", block, site)

    def delivery_dropped(self, site: SiteId, category: str) -> None:
        self._add("delivery_dropped", None, site, None, None, category)

    # -- protocol observations (recorded via the protocol hooks) ----------------

    def corruption_detected(self, site: SiteId,
                            block: BlockIndex) -> None:
        self._add("corruption_detected", block, site)

    def block_healed(self, site: SiteId, block: BlockIndex) -> None:
        self._add("block_healed", block, site)

    def site_fenced(self, site: SiteId) -> None:
        self._add("site_fenced", None, site)

    # -- membership (recorded by the membership manager) -------------------------

    def view_change(self, epoch: int, sites, phase: str = "commit") -> None:
        """A view change began or committed.

        The epoch rides in ``version`` and the membership in ``info``,
        so a checked history shows exactly which reads and writes ran
        under which membership -- the consistency condition itself is
        epoch-agnostic (admissible values carry across view changes;
        that is the whole point of the joint-quorum window).
        """
        self._add(
            "view_change", None, None, None, epoch,
            f"{phase}:{','.join(str(s) for s in sorted(sites))}",
        )

    # -- summaries ------------------------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # -- corruption accounting --------------------------------------------------

    def unresolved_corruptions(self) -> Set[Tuple[SiteId, BlockIndex]]:
        """Injected corruptions never detected by any protocol path.

        An entry here is not automatically a bug -- a later write can
        legitimately overwrite a corrupt copy before anything reads it
        -- but the chaos harness requires each one to be explained by a
        verified-clean final store.
        """
        latent: Set[Tuple[SiteId, BlockIndex]] = set()
        for event in self.events:
            key = (event.site, event.block)
            if event.kind == "corruption_injected":
                latent.add(key)
            elif event.kind == "corruption_detected":
                latent.discard(key)
        return latent

    def check(self) -> List[Violation]:
        return check_history(self.events)


def check_history(events: List[Event]) -> List[Violation]:
    """Verify read-latest-write over a recorded history.

    Returns the (possibly empty) list of violations: successful reads
    whose value matches neither the latest committed write nor any
    still-admissible torn write.
    """
    violations, _ = _scan(events, allow_stale=False)
    return violations


def check_history_sloppy(
    events: List[Event],
) -> Tuple[List[Violation], List[StalenessWitness]]:
    """Check a history produced under a *sloppy* quorum policy.

    Anomalous reads explained by an earlier committed (or superseded
    torn) value of the block are returned as witnesses, not
    violations; reads explained by nothing ever written remain
    violations.  A clean sloppy run therefore reports
    ``([], witnesses)`` -- and a strict policy's history should yield
    ``([], [])`` through either checker.
    """
    return _scan(events, allow_stale=True)


def _scan(
    events: List[Event], allow_stale: bool
) -> Tuple[List[Violation], List[StalenessWitness]]:
    committed_value: Dict[BlockIndex, bytes] = {}
    committed_version: Dict[BlockIndex, int] = {}
    #: block -> {value: version} of torn writes still admissible.
    torn: Dict[BlockIndex, Dict[bytes, int]] = {}
    #: block -> {value: version} of every value that was once
    #: legitimate -- past committed values and superseded torn writes
    #: (tracked only when classifying stale reads).
    past: Dict[BlockIndex, Dict[bytes, int]] = {}
    violations: List[Violation] = []
    witnesses: List[StalenessWitness] = []

    for index, event in enumerate(events):
        if event.kind == "write_ok":
            if allow_stale:
                history = past.setdefault(event.block, {})
                if not history:
                    # The pre-write state -- all-zeroes at version 0 --
                    # is itself a once-legitimate value.
                    history[bytes(len(event.value))] = 0
                history[event.value] = event.version
            committed_value[event.block] = event.value
            committed_version[event.block] = event.version
            block_torn = torn.get(event.block)
            if block_torn:
                # A committed write at version v supersedes every torn
                # write strictly below v; equal-version torn writes
                # remain ambiguous (no global order exists).
                for value, version in list(block_torn.items()):
                    if version < event.version:
                        del block_torn[value]
                        if allow_stale:
                            past.setdefault(event.block, {})[value] = (
                                version
                            )
        elif event.kind == "torn_write":
            current = committed_version.get(event.block, 0)
            if event.version >= current:
                torn.setdefault(event.block, {})[event.value] = (
                    event.version
                )
        elif event.kind == "read_ok":
            expected = committed_value.get(event.block)
            if expected is None:
                expected = bytes(len(event.value))
            if event.value == expected:
                continue
            if event.value in torn.get(event.block, {}):
                continue
            if allow_stale:
                stale_version = past.get(event.block, {}).get(event.value)
                if stale_version is not None:
                    witnesses.append(StalenessWitness(
                        event_index=index,
                        block=event.block,
                        observed=event.value,
                        observed_version=stale_version,
                        latest_version=committed_version.get(
                            event.block, 0
                        ),
                    ))
                    continue
            admissible = [
                f"committed v{committed_version.get(event.block, 0)}"
            ]
            admissible += [
                f"torn v{v}" for v in torn.get(event.block, {}).values()
            ]
            violations.append(Violation(
                event_index=index,
                block=event.block,
                observed=event.value,
                admissible=", ".join(admissible),
            ))
    return violations, witnesses
