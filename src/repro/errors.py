"""Exception hierarchy for the reliable-device reproduction.

Every exception raised by this package derives from :class:`ReproError`,
so callers can catch one type at the API boundary.  The hierarchy mirrors
the package layout: device errors, protocol errors, network errors,
file-system errors, simulation errors and analysis errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Device layer
# ---------------------------------------------------------------------------


class DeviceError(ReproError):
    """Base class for block-device errors."""


class BlockOutOfRangeError(DeviceError):
    """A block index fell outside ``[0, num_blocks)``."""

    def __init__(self, index: int, num_blocks: int) -> None:
        super().__init__(f"block index {index} out of range [0, {num_blocks})")
        self.index = index
        self.num_blocks = num_blocks


class BlockSizeError(DeviceError):
    """A write supplied data whose length differs from the block size."""

    def __init__(self, got: int, expected: int) -> None:
        super().__init__(f"block payload of {got} bytes, expected {expected}")
        self.got = got
        self.expected = expected


class DeviceUnavailableError(DeviceError):
    """The replicated device cannot serve the request right now.

    Raised by the voting protocol when no quorum is reachable and by the
    available-copy protocols when no available copy exists (e.g. during
    recovery from a total failure).
    """


class CorruptBlockError(DeviceError):
    """A block's contents failed checksum verification.

    Raised at read time when stable storage returns data that does not
    match the checksum recorded at write time (bit rot / silent
    corruption), or when the only reachable copies of a block are
    quarantined.  The fail-stop model of the paper excludes this failure
    mode; the fault-injection subsystem adds it back.
    """

    def __init__(self, index: int, site_id: "int | None" = None,
                 detail: str = "") -> None:
        where = f" at site {site_id}" if site_id is not None else ""
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"block {index}{where} failed checksum verification{suffix}"
        )
        self.index = index
        self.site_id = site_id


class ReadOnlyDeviceError(DeviceError):
    """The device has degraded to read-only mode.

    A :class:`~repro.device.reliable.ReliableDevice` configured with
    ``degrade_to_read_only=True`` stops accepting writes after a write
    exhausts its retry budget without reaching a quorum / available
    copy; reads continue to be served.
    """


class SiteDownError(DeviceError):
    """An operation was initiated at (or addressed to) a failed site."""

    def __init__(self, site_id: int, detail: str = "") -> None:
        suffix = f": {detail}" if detail else ""
        super().__init__(f"site {site_id} is not operational{suffix}")
        self.site_id = site_id


# ---------------------------------------------------------------------------
# Consistency protocols
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for consistency-control protocol errors."""


class QuorumNotReachedError(DeviceUnavailableError, ProtocolError):
    """Voting could not assemble the required quorum of weighted votes."""

    def __init__(self, gathered: float, required: float) -> None:
        super().__init__(
            f"gathered weight {gathered:g} does not exceed quorum {required:g}"
        )
        self.gathered = gathered
        self.required = required


class NoAvailableCopyError(DeviceUnavailableError, ProtocolError):
    """No site currently holds an *available* copy of the blocks."""


class NoCurrentDataCopyError(DeviceUnavailableError, ProtocolError):
    """A quorum exists but no reachable *data* site holds the current
    version of the requested block.

    Only possible in voting configurations with witnesses: the quorum's
    highest version number can be contributed by a witness, which holds
    no block contents to read from.  Full-block *writes* still succeed
    in this situation (the new version supersedes the old contents), a
    block-level-replication benefit."""


class QuorumSpecError(ProtocolError):
    """A quorum specification violated the safety constraints.

    Weighted voting requires ``read_quorum + write_quorum >= total_weight``
    and ``2 * write_quorum >= total_weight`` so that any read quorum
    intersects any write quorum and any two write quorums intersect.
    """


class QuorumPolicyError(QuorumSpecError):
    """An (RF, R, W) quorum policy violated its constraints.

    Raised for structurally impossible policies (R or W outside
    ``[1, RF]``) and for *sloppy* policies -- ``R + W <= RF`` or
    ``2W <= RF`` -- requested without the explicit ``allow_sloppy``
    escape hatch.  Sloppy policies trade read-latest-write for
    availability; demanding the flag keeps that trade a deliberate
    decision rather than an arithmetic accident.
    """


class MembershipError(ProtocolError):
    """An invalid reconfiguration of the replica group was requested.

    Raised by :mod:`repro.membership` for structurally impossible view
    changes: adopting a site that is already a member, expelling a
    non-member, opening a view change while another is in flight, or
    reconfiguring a group whose scheme cannot support it (e.g. a voting
    group with witnesses or non-majority quorums).
    """


class StaleEpochError(DeviceUnavailableError, ProtocolError):
    """A write fan-out straddled an epoch boundary and was fenced.

    Sites that have adopted a newer membership epoch reject in-flight
    updates tagged with an older one; when the rejections leave the
    fan-out short of its (joint) quorum the write is torn and this is
    raised.  It derives from :class:`DeviceUnavailableError` so the
    reliable device's retry policy re-issues the operation under the
    new epoch instead of failing it.
    """


# ---------------------------------------------------------------------------
# Network layer
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network errors."""


class UnknownSiteError(NetworkError):
    """A message was addressed to a site the network does not know."""

    def __init__(self, site_id: int) -> None:
        super().__init__(f"site {site_id} is not registered with the network")
        self.site_id = site_id


class AccountingError(NetworkError, RuntimeError):
    """Per-operation traffic attribution was used incorrectly.

    Raised by :meth:`repro.net.traffic.TrafficMeter.record` on nested
    recording, which would double-book transmissions and skew the
    per-operation means of Figures 11-12.  Also a ``RuntimeError`` for
    backward compatibility with callers that predate the hierarchy.
    """


# ---------------------------------------------------------------------------
# File system
# ---------------------------------------------------------------------------


class FileSystemError(ReproError):
    """Base class for errors raised by :mod:`repro.fs`."""


class FSFormatError(FileSystemError):
    """The on-device data does not look like a valid file system."""


class FileNotFoundFSError(FileSystemError):
    """A path component does not exist."""


class FileExistsFSError(FileSystemError):
    """Attempt to create a name that already exists."""


class NotADirectoryFSError(FileSystemError):
    """A non-directory appeared where a directory was required."""


class IsADirectoryFSError(FileSystemError):
    """A directory appeared where a regular file was required."""


class DirectoryNotEmptyFSError(FileSystemError):
    """``rmdir`` was applied to a non-empty directory."""


class NoSpaceFSError(FileSystemError):
    """The device ran out of free blocks or inodes."""


class InvalidPathFSError(FileSystemError):
    """A path was empty, malformed, or contained an over-long name."""


class FileTooLargeFSError(FileSystemError):
    """A write would exceed the maximum file size the inode can map."""


# ---------------------------------------------------------------------------
# Simulation and analysis
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class StatSealedError(SimulationError, RuntimeError):
    """A finalized time-weighted statistic was updated or re-finalized.

    Integrating past the declared end of a run would corrupt the
    availability integral; the stat raises instead of silently
    extending.  Also a ``RuntimeError`` for backward compatibility with
    callers that predate the hierarchy.
    """


class AnalysisError(ReproError):
    """Base class for analytic-model errors (bad parameters, etc.)."""


class CensoredEstimateError(AnalysisError):
    """Too many Monte-Carlo episodes were censored to trust the estimate.

    Raised when the fraction of episodes whose horizon expired before
    the observed event exceeds the caller's threshold: averaging only
    the uncensored episodes would bias the estimate (e.g. MTTF
    downward, because exactly the longest-lived episodes are dropped).
    """

    def __init__(
        self, censored: int, episodes: int, threshold: float
    ) -> None:
        fraction = censored / episodes if episodes else 1.0
        super().__init__(
            f"{censored} of {episodes} episodes censored "
            f"({fraction:.1%} > threshold {threshold:.1%}); raise the "
            "horizon or the threshold"
        )
        self.censored = censored
        self.episodes = episodes
        self.threshold = threshold


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """Misconfiguration of the parallel execution engine."""
