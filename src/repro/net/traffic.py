"""Traffic metering.

The :class:`TrafficMeter` counts every high-level transmission the network
carries, broken down by :class:`~repro.net.message.MessageCategory` and --
when the caller brackets operations with :meth:`TrafficMeter.record` -- by
operation kind (``read`` / ``write`` / ``recovery``).  The per-operation
means are what Figures 11 and 12 of the paper plot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import AccountingError
from ..sim.stats import RunningStat
from .message import MessageCategory

__all__ = [
    "TrafficMeter", "TrafficSnapshot", "OperationKind", "ABORTED_SUFFIX",
]

#: Operation kinds used for attribution; free-form strings are accepted
#: but these three are the ones the paper analyses.
OperationKind = str

READ = "read"
WRITE = "write"
RECOVERY = "recovery"

#: Appended to an operation kind when the bracketed operation raised;
#: aborted operations get their own statistic so the per-operation
#: means (Figures 11-12) only average *completed* operations.
ABORTED_SUFFIX = ":aborted"


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable copy of a meter's counters at one instant."""

    total: int
    by_category: Dict[MessageCategory, int] = field(default_factory=dict)
    total_bytes: int = 0

    def delta(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        """Messages counted between ``earlier`` and this snapshot."""
        categories = {
            cat: self.by_category.get(cat, 0) - earlier.by_category.get(cat, 0)
            for cat in set(self.by_category) | set(earlier.by_category)
        }
        return TrafficSnapshot(
            total=self.total - earlier.total,
            by_category={c: n for c, n in categories.items() if n},
            total_bytes=self.total_bytes - earlier.total_bytes,
        )


class TrafficMeter:
    """Counts high-level transmissions and attributes them to operations."""

    def __init__(self) -> None:
        self._by_category: Counter = Counter()
        self._total = 0
        self._bytes_by_category: Counter = Counter()
        self._total_bytes = 0
        self._per_operation: Dict[OperationKind, RunningStat] = {}
        self._per_operation_bytes: Dict[OperationKind, RunningStat] = {}
        self._current_op: Optional[str] = None
        self._op_start_total = 0
        self._op_start_bytes = 0

    # -- counting (called by the network) ----------------------------------

    def count_for(
        self,
        category: MessageCategory,
        transmissions: int = 1,
        total_bytes: int = 0,
    ) -> None:
        """Record ``transmissions`` transmissions of ``category``.

        On a multicast network a broadcast costs 1; on a unique-addressing
        network it costs one per destination -- the network passes the
        right number, plus (optionally) the bytes those transmissions
        carry between them, priced by its
        :class:`~repro.net.sizes.SizeModel`.  Sizes may differ per
        transmission: a fan-out's replies are booked in one call.
        """
        self._by_category[category] += transmissions
        self._total += transmissions
        if total_bytes:
            self._bytes_by_category[category] += total_bytes
            self._total_bytes += total_bytes

    # -- queries ------------------------------------------------------------

    @property
    def total(self) -> int:
        """Total transmissions counted so far."""
        return self._total

    @property
    def total_bytes(self) -> int:
        """Total bytes counted so far (0 unless a size model is wired)."""
        return self._total_bytes

    def category_count(self, category: MessageCategory) -> int:
        """Transmissions counted for one category."""
        return self._by_category[category]

    def category_bytes(self, category: MessageCategory) -> int:
        """Bytes counted for one category."""
        return self._bytes_by_category[category]

    def snapshot(self) -> TrafficSnapshot:
        """Copy of all counters, for before/after comparisons."""
        return TrafficSnapshot(
            total=self._total,
            by_category=dict(self._by_category),
            total_bytes=self._total_bytes,
        )

    # -- per-operation attribution ------------------------------------------

    def record(self, kind: OperationKind) -> "_OperationRecord":
        """Attribute all messages sent inside the block to ``kind``.

        An operation that raises is attributed under ``kind + ":aborted"``
        instead: its messages were really sent (quorum probes before a
        refused write, say) but folding them into the *successful*
        per-operation means would skew the figures the paper plots --
        Section 5 costs are per completed operation.

        Nested recording is not supported (protocol operations in this
        system never nest), and attempting it raises
        :class:`~repro.errors.AccountingError` to surface accounting
        bugs early.

        Returns a plain slotted context manager (not a generator-based
        one): ``record`` brackets every device operation, so the
        ``contextlib`` generator machinery was measurable kernel
        overhead.
        """
        return _OperationRecord(self, kind)

    def _attribute(self, kind: OperationKind) -> None:
        """Book the messages of the just-ended operation under ``kind``.

        ``dict.get`` + explicit insert rather than ``setdefault``: the
        latter constructs (and usually discards) a fresh
        :class:`RunningStat` on every operation.
        """
        stat = self._per_operation.get(kind)
        if stat is None:
            stat = self._per_operation[kind] = RunningStat()
        stat.add(self._total - self._op_start_total)
        stat_bytes = self._per_operation_bytes.get(kind)
        if stat_bytes is None:
            stat_bytes = self._per_operation_bytes[kind] = RunningStat()
        stat_bytes.add(self._total_bytes - self._op_start_bytes)

    def operation_kinds(self) -> list:
        """Every kind that has at least one recorded operation, sorted."""
        return sorted(self._per_operation)

    def operations(self, kind: OperationKind) -> int:
        """Number of operations recorded under ``kind``."""
        stat = self._per_operation.get(kind)
        return stat.count if stat else 0

    def mean_messages(self, kind: OperationKind) -> float:
        """Mean transmissions per operation of ``kind`` (0 if none)."""
        stat = self._per_operation.get(kind)
        return stat.mean if stat and stat.count else 0.0

    def messages_for(self, kind: OperationKind) -> RunningStat:
        """The full running statistic for ``kind`` (count/mean/stddev).

        Get-then-insert, like :meth:`_attribute`: a known kind
        constructs no throwaway :class:`RunningStat`.
        """
        stat = self._per_operation.get(kind)
        if stat is None:
            stat = self._per_operation[kind] = RunningStat()
        return stat

    def mean_bytes(self, kind: OperationKind) -> float:
        """Mean bytes per operation of ``kind`` (0 if none)."""
        stat = self._per_operation_bytes.get(kind)
        return stat.mean if stat and stat.count else 0.0

    def reset(self) -> None:
        """Zero every counter (per-operation statistics included)."""
        self._by_category.clear()
        self._total = 0
        self._bytes_by_category.clear()
        self._total_bytes = 0
        self._per_operation.clear()
        self._per_operation_bytes.clear()
        self._current_op = None
        self._op_start_total = 0
        self._op_start_bytes = 0


class _OperationRecord:
    """Context manager backing :meth:`TrafficMeter.record`."""

    __slots__ = ("_meter", "_kind")

    def __init__(self, meter: TrafficMeter, kind: OperationKind) -> None:
        self._meter = meter
        self._kind = kind

    def __enter__(self) -> None:
        meter = self._meter
        if meter._current_op is not None:
            raise AccountingError(
                f"cannot record {self._kind!r} inside "
                f"{meter._current_op!r}"
            )
        meter._current_op = self._kind
        meter._op_start_total = meter._total
        meter._op_start_bytes = meter._total_bytes
        return None

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        meter = self._meter
        try:
            if exc_type is None:
                meter._attribute(self._kind)
            else:
                meter._attribute(self._kind + ABORTED_SUFFIX)
        finally:
            meter._current_op = None
        return False
