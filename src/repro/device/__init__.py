"""The reliable device and its building blocks.

The layering mirrors the paper's Figure 1: a file system talks to an
ordinary-looking :class:`~repro.device.interface.BlockDevice`; under the
reliable implementation that device is a
:class:`~repro.device.reliable.ReliableDevice` delegating to a replica
group of :class:`~repro.device.site.Site` server processes through a
consistency protocol.  :class:`~repro.device.cluster.ReplicatedCluster`
wires a whole simulated deployment together in one call.
"""

from .block import BlockStore, DEFAULT_BLOCK_SIZE
from .cache import BufferCache, CacheStats
from .cluster import ClusterConfig, ReplicatedCluster
from .driver import DeviceDriverStub
from .interface import BlockDevice, DeviceStats
from .local import LocalBlockDevice
from .persistence import dump_site, load_site
from .reliable import FaultStats, ReliableDevice, RetryPolicy
from .scrub import ScrubReport, audit_replicas, scrub_replicas
from .site import Site

__all__ = [
    "BlockDevice",
    "DeviceStats",
    "BlockStore",
    "DEFAULT_BLOCK_SIZE",
    "LocalBlockDevice",
    "Site",
    "ReliableDevice",
    "RetryPolicy",
    "FaultStats",
    "ScrubReport",
    "audit_replicas",
    "scrub_replicas",
    "dump_site",
    "load_site",
    "BufferCache",
    "CacheStats",
    "DeviceDriverStub",
    "ClusterConfig",
    "ReplicatedCluster",
]
