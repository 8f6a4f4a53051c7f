"""The exception hierarchy's contracts.

Callers rely on catching broad categories (everything is a ReproError;
every "cannot serve right now" is a DeviceUnavailableError), so the
subclass relationships are API.
"""

import pytest

from repro import errors
from repro.net import TrafficMeter
from repro.sim.stats import TimeWeightedStat


def test_everything_derives_from_repro_error():
    exception_types = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    assert len(exception_types) > 20
    for exc_type in exception_types:
        assert issubclass(exc_type, errors.ReproError), exc_type


def test_unavailability_family():
    """Every 'cannot serve right now' error is DeviceUnavailableError."""
    for exc_type in (
        errors.QuorumNotReachedError,
        errors.NoAvailableCopyError,
        errors.NoCurrentDataCopyError,
    ):
        assert issubclass(exc_type, errors.DeviceUnavailableError)
        assert issubclass(exc_type, errors.ProtocolError)


def test_network_and_simulation_families():
    """The two layer bases are caught at their layer's boundary; the
    two that are also ``RuntimeError`` keep older callers working."""
    for exc_type in (errors.UnknownSiteError, errors.AccountingError):
        assert issubclass(exc_type, errors.NetworkError)
    for exc_type in (errors.ScheduleInPastError, errors.StatSealedError):
        assert issubclass(exc_type, errors.SimulationError)
    for exc_type in (errors.AccountingError, errors.StatSealedError):
        assert issubclass(exc_type, RuntimeError)


def test_nested_traffic_record_raises_accounting_error():
    meter = TrafficMeter()
    with meter.record("write"):
        with pytest.raises(errors.AccountingError, match="inside 'write'"):
            with meter.record("read"):
                pass


def test_update_after_finalize_raises_stat_sealed_error():
    stat = TimeWeightedStat(initial_value=1.0)
    stat.finalize(at_time=10.0)
    with pytest.raises(errors.StatSealedError):
        stat.update(0.0, at_time=20.0)


def test_second_finalize_raises_stat_sealed_error():
    stat = TimeWeightedStat(initial_value=1.0)
    stat.finalize(at_time=10.0)
    with pytest.raises(errors.StatSealedError, match="already finalized"):
        stat.finalize(at_time=20.0)


def test_site_down_is_not_unavailability():
    """A down origin is a local condition, not device unavailability --
    the reliable device's failover logic depends on the distinction."""
    assert not issubclass(errors.SiteDownError,
                          errors.DeviceUnavailableError)
    assert issubclass(errors.SiteDownError, errors.DeviceError)


def test_fs_errors_are_their_own_family():
    for exc_type in (
        errors.FileNotFoundFSError,
        errors.FileExistsFSError,
        errors.NotADirectoryFSError,
        errors.IsADirectoryFSError,
        errors.DirectoryNotEmptyFSError,
        errors.NoSpaceFSError,
        errors.InvalidPathFSError,
        errors.FileTooLargeFSError,
        errors.FSFormatError,
    ):
        assert issubclass(exc_type, errors.FileSystemError)
        assert not issubclass(exc_type, errors.DeviceError)


def test_structured_errors_carry_fields():
    exc = errors.BlockOutOfRangeError(9, 8)
    assert exc.index == 9 and exc.num_blocks == 8
    assert "9" in str(exc)

    exc = errors.QuorumNotReachedError(1.0, 2.5)
    assert exc.gathered == 1.0 and exc.required == 2.5

    exc = errors.SiteDownError(3, "testing")
    assert exc.site_id == 3
    assert "testing" in str(exc)

    exc = errors.BlockSizeError(10, 512)
    assert exc.got == 10 and exc.expected == 512


def test_catching_the_root_catches_protocol_errors():
    with pytest.raises(errors.ReproError):
        raise errors.QuorumNotReachedError(0.0, 1.0)
