"""The reliable device (Sections 1-2) -- the paper's headline abstraction.

A :class:`ReliableDevice` "appears to the file system as an ordinary
block-structured device, but is implemented as a set of server processes
on several sites".  It implements the same
:class:`~repro.device.interface.BlockDevice` contract as
:class:`~repro.device.local.LocalBlockDevice`, so any client written
against that interface -- notably :class:`repro.fs.FileSystem` -- runs on
it unchanged.  Each read or write is delegated to the replica group's
consistency protocol from an *origin* site (the site whose user-state
server the device driver stub talks to, Figure 1).

Because the server is a user-state process, "there is no reason to
require it to reside on the same site as the device driver stub"; with
``failover=True`` (default) the device transparently re-attaches to
another operational site when its preferred origin is down, modelling the
diskless-workstation deployment of Section 2.

Resilience extensions (inert unless configured):

* ``retry`` -- a :class:`RetryPolicy` bounds how many times a failed
  operation is reattempted.  With ``clock`` set to the group's
  :class:`~repro.sim.engine.Simulator`, each reattempt first advances
  simulated time by an exponentially backed-off delay, giving the
  failure/repair processes a chance to restore the group.  (Only for
  harness-driven operation: the simulator is not re-entrant, so a
  clocked device must not be used from inside simulation events.)
* ``degrade_to_read_only`` -- when a write exhausts its retry budget
  without reaching a quorum / available copy, the device stops
  accepting writes (:class:`~repro.errors.ReadOnlyDeviceError`) until
  :meth:`reset_degraded` is called; reads continue.
* ``fault_stats`` -- structured counters for retries, failovers,
  corrupt reads and rejected writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence

from ..core.protocol import ReplicationProtocol
from ..errors import (
    CorruptBlockError,
    DeviceUnavailableError,
    ReadOnlyDeviceError,
    SiteDownError,
)
from ..obs.trace import UNSET
from ..sim.engine import Simulator
from ..types import BlockIndex, SiteId, SiteState
from .interface import BlockDevice

__all__ = ["ReliableDevice", "RetryPolicy", "FaultStats"]

#: Attribute names of a ``device.<op>`` span, single-block (the index)
#: and batched (the count); one tuple per shape, shared by every span.
#: ``policy`` is set only on policy-configured runs, ``retries`` on exit.
_DEVICE_BLOCK_KEYS = ("origin", "block", "policy", "retries")
_DEVICE_BATCH_KEYS = ("origin", "batch", "policy", "retries")

#: Errors a retry can plausibly outwait: the group being unavailable,
#: the origin being down (it may repair), or a corrupt copy (a scrub or
#: another client's read may heal it).
_RETRYABLE = (DeviceUnavailableError, SiteDownError, CorruptBlockError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for device operations.

    ``max_attempts`` counts the initial try: 3 means one try plus two
    retries.  Delays follow ``initial_delay * backoff_factor**k`` capped
    at ``max_delay``; they are only meaningful when the device has a
    simulation clock to advance.
    """

    max_attempts: int = 3
    initial_delay: float = 1.0
    backoff_factor: float = 2.0
    max_delay: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.initial_delay < 0:
            raise ValueError("initial_delay must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_delay < self.initial_delay:
            raise ValueError("max_delay must be >= initial_delay")

    def delays(self) -> Iterator[float]:
        """The backoff delay before each retry (``max_attempts - 1``)."""
        delay = self.initial_delay
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.backoff_factor


@dataclass
class FaultStats:
    """Per-device fault and resilience counters."""

    #: Reattempts after a retryable failure (not counting first tries).
    retries: int = 0
    #: Operations issued from a non-preferred origin site.
    failovers: int = 0
    #: Reads that surfaced a corrupt block to the device layer.
    corrupt_reads: int = 0
    #: Writes rejected because the device degraded to read-only mode.
    degraded_writes_rejected: int = 0
    #: Protocol round-trips spent serving reads (one per attempt,
    #: retries included).  A sequential n-block read costs n rounds; a
    #: batched one costs 1 -- the latency win batching buys.
    read_rounds: int = 0
    #: Protocol round-trips spent serving writes (same accounting).
    write_rounds: int = 0

    def snapshot(self) -> dict:
        return {
            "retries": self.retries,
            "failovers": self.failovers,
            "corrupt_reads": self.corrupt_reads,
            "degraded_writes_rejected": self.degraded_writes_rejected,
            "read_rounds": self.read_rounds,
            "write_rounds": self.write_rounds,
        }


class _DeviceSpan:
    """Context manager stamping the retries an operation consumed.

    Wraps a live span so the ``retries`` attribute reflects the *delta*
    over this one operation, not the device's lifetime counter.
    """

    __slots__ = ("_device", "_span", "_before")

    def __init__(self, device: "ReliableDevice", span) -> None:
        self._device = device
        self._span = span
        self._before = 0

    def __enter__(self):
        self._before = self._device.fault_stats.retries
        self._span.__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.set(
            retries=self._device.fault_stats.retries - self._before,
        )
        return self._span.__exit__(exc_type, exc, tb)


class ReliableDevice(BlockDevice):
    """An ordinary-looking block device backed by a replica group.

    Parameters
    ----------
    protocol:
        The consistency protocol managing the replica group.
    origin:
        Preferred site to issue operations from (defaults to the group's
        first site).
    failover:
        When True, pick another usable site if the preferred origin
        cannot currently initiate operations; when False, surface
        :class:`~repro.errors.SiteDownError` instead.
    retry:
        Optional :class:`RetryPolicy`; None (default) preserves the
        original fail-fast behaviour exactly.
    clock:
        Optional simulator whose time backoff delays advance.  Without
        it retries are immediate (useful when some other agent -- a
        scrubber, a fault plan -- changes group state between attempts).
    degrade_to_read_only:
        When True, a write that (after retries) cannot reach the group
        flips the device into read-only mode instead of leaving later
        writes to fail the same slow way.
    """

    def __init__(
        self,
        protocol: ReplicationProtocol,
        origin: Optional[SiteId] = None,
        failover: bool = True,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Simulator] = None,
        degrade_to_read_only: bool = False,
    ) -> None:
        super().__init__()
        self._protocol = protocol
        self._origin = protocol.site_ids[0] if origin is None else origin
        protocol.site(self._origin)  # validate membership early
        self._failover = failover
        self._retry = retry
        self._clock = clock
        self._degrade_to_read_only = degrade_to_read_only
        self._degraded = False
        self.fault_stats = FaultStats()
        #: Version number assigned to the most recent successful write
        #: (None before any); fault-history harnesses correlate with it.
        self.last_write_version: Optional[int] = None
        #: Per-block versions of the most recent successful write or
        #: batched write (None before any); the batched analogue of
        #: :attr:`last_write_version`.
        self.last_write_versions: Optional[Dict[BlockIndex, int]] = None

    # -- geometry -------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self._protocol.num_blocks

    @property
    def block_size(self) -> int:
        return self._protocol.block_size

    @property
    def protocol(self) -> ReplicationProtocol:
        return self._protocol

    @property
    def tracer(self):
        """The span tracer (the group network's; a no-op unless wired)."""
        return self._protocol.tracer

    def _span(self, op: str, keys: Sequence[str], value: int):
        """Open a ``device.<op>`` span; stamps the retries it consumed.

        ``keys`` is :data:`_DEVICE_BLOCK_KEYS` (``value`` the index) or
        :data:`_DEVICE_BATCH_KEYS` (``value`` the count).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return tracer.span(op, "device")  # the shared no-op handle
        policy = self._protocol.policy
        # Tag policy-configured runs so traces from a sweep are
        # attributable to their (RF, R, W) point without a join.
        tag = UNSET if policy is None else policy.describe()
        return _DeviceSpan(self, tracer.open_span(
            f"device.{op}", "device", keys, self._origin, value, tag, UNSET,
        ))

    @property
    def origin(self) -> SiteId:
        """The preferred origin site."""
        return self._origin

    @property
    def degraded(self) -> bool:
        """Whether the device is currently refusing writes."""
        return self._degraded

    def reset_degraded(self) -> None:
        """Operator action: accept writes again."""
        self._degraded = False

    # -- origin selection ----------------------------------------------------------

    def _pick_origin(self, count: bool = True) -> SiteId:
        """The site operations will be issued from right now."""
        try:
            preferred = self._protocol.site(self._origin)
        except SiteDownError:
            # A view change expelled the preferred origin: the stub's
            # site is gone for good, not merely down.  Re-pin to a
            # current member (permanently -- unlike a transient
            # failover) or surface the expulsion when failover is off.
            if not self._failover:
                raise
            if count:
                self.fault_stats.failovers += 1
            self._origin = self._protocol.site_ids[0]
            preferred = self._protocol.site(self._origin)
        if preferred.state is SiteState.AVAILABLE:
            return self._origin
        if not self._failover:
            return self._origin  # let the protocol raise precisely
        candidates = [
            s for s in self._protocol.available_sites()
            if not getattr(s, "is_witness", False)
        ]
        if candidates:
            if count:
                self.fault_stats.failovers += 1
            return candidates[0].site_id
        raise DeviceUnavailableError(
            "no site can currently serve the reliable device"
        )

    def current_origin(self) -> SiteId:
        """Where the next operation would be issued from (no counting).

        Raises :class:`~repro.errors.DeviceUnavailableError` when no
        site can serve; fault harnesses use this to aim mid-write
        crashes at the site that will actually run the fan-out.
        """
        return self._pick_origin(count=False)

    # -- retry loop ---------------------------------------------------------------

    def _with_retries(self, attempt):
        """Run ``attempt`` under the retry policy; raise its last error."""
        if self._retry is None:
            return attempt()
        delays = self._retry.delays()
        while True:
            try:
                return attempt()
            except _RETRYABLE:
                delay = next(delays, None)
                if delay is None:
                    raise
                # Count the retry before advancing the clock: a backoff
                # that raises (simulator horizon, injected clock fault)
                # must not lose an attempt that was in fact decided.
                self.fault_stats.retries += 1
                if self._clock is not None and delay > 0:
                    self._clock.run(until=self._clock.now + delay)

    # -- BlockDevice implementation ---------------------------------------------------

    def read_block(self, index: BlockIndex) -> bytes:
        def attempt() -> bytes:
            # Pick the origin before counting the round: an attempt
            # that cannot even find an origin never talks to the group,
            # so it must not inflate the round counters.
            origin = self._pick_origin()
            self.fault_stats.read_rounds += 1
            return self._protocol.read(origin, index)

        with self._span("read", _DEVICE_BLOCK_KEYS, index):
            try:
                data = self._with_retries(attempt)
            except CorruptBlockError:
                self.fault_stats.corrupt_reads += 1
                self.stats.failed_reads += 1
                raise
            except (DeviceUnavailableError, SiteDownError):
                self.stats.failed_reads += 1
                raise
        self.stats.reads += 1
        return data

    def write_block(self, index: BlockIndex, data: bytes) -> None:
        if self._degraded:
            self.fault_stats.degraded_writes_rejected += 1
            self.stats.failed_writes += 1
            raise ReadOnlyDeviceError(
                "device is in read-only degraded mode"
            )

        def attempt() -> int:
            origin = self._pick_origin()
            self.fault_stats.write_rounds += 1
            return self._protocol.write(origin, index, data)

        with self._span("write", _DEVICE_BLOCK_KEYS, index):
            try:
                version = self._with_retries(attempt)
            except (DeviceUnavailableError, SiteDownError):
                self.stats.failed_writes += 1
                if self._degrade_to_read_only:
                    self._degraded = True
                raise
        self.stats.writes += 1
        self.last_write_version = version
        self.last_write_versions = {index: version}

    # -- batched access ------------------------------------------------------

    def read_blocks(
        self, indices: Sequence[BlockIndex]
    ) -> Dict[BlockIndex, bytes]:
        """Read a whole batch through ONE protocol round per attempt.

        The retry policy governs the batch as a unit: a retryable
        failure re-runs the entire batch (protocol batch reads are
        idempotent), so an n-block batch that succeeds first try costs
        one round instead of n.
        """
        ordered = list(dict.fromkeys(indices))
        if not ordered:
            return {}

        def attempt() -> Dict[BlockIndex, bytes]:
            origin = self._pick_origin()
            self.fault_stats.read_rounds += 1
            return self._protocol.read_batch(origin, ordered)

        with self._span("read_batch", _DEVICE_BATCH_KEYS, len(ordered)):
            try:
                data = self._with_retries(attempt)
            except CorruptBlockError:
                self.fault_stats.corrupt_reads += 1
                self.stats.failed_reads += 1
                raise
            except (DeviceUnavailableError, SiteDownError):
                self.stats.failed_reads += 1
                raise
        self.stats.reads += len(data)
        self.stats.note_batch_read(len(data))
        return data

    def write_blocks(self, writes: Mapping[BlockIndex, bytes]) -> None:
        """Write a whole batch through ONE protocol round per attempt.

        Degraded-mode rejection, retry accounting and read-only
        demotion all apply to the batch as a unit; per-block version
        assignment happens inside the protocol exactly as on the
        sequential path.
        """
        if not writes:
            return
        if self._degraded:
            self.fault_stats.degraded_writes_rejected += 1
            self.stats.failed_writes += 1
            raise ReadOnlyDeviceError(
                "device is in read-only degraded mode"
            )

        def attempt() -> Dict[BlockIndex, int]:
            origin = self._pick_origin()
            self.fault_stats.write_rounds += 1
            return self._protocol.write_batch(origin, writes)

        with self._span("write_batch", _DEVICE_BATCH_KEYS, len(writes)):
            try:
                versions = self._with_retries(attempt)
            except (DeviceUnavailableError, SiteDownError):
                self.stats.failed_writes += 1
                if self._degrade_to_read_only:
                    self._degraded = True
                raise
        self.stats.writes += len(versions)
        self.stats.note_batch_write(len(versions))
        self.last_write_version = max(versions.values())
        self.last_write_versions = dict(versions)
