"""What a file-system call costs on the wire, exactly.

The stack is the benchmark's ``fs_stream`` one -- ``FileSystem`` on a
64-block ``DeviceDriverStub`` cache on a five-site MCV ``ReliableDevice``
-- with no failures, so every number is a count, not a timing: a write
the file system issues is one write quorum round, a read the cache
misses is one read round, and section 5's model prices each round.  The
device calls per file-system call are the budget
``tests/fs/test_device_budget.py`` pins on a local device; a per-block
loop creeping back into :mod:`repro.fs` multiplies them, and fails here
as messages.
"""

import random

from repro.analysis.traffic import traffic_model
from repro.device import DeviceDriverStub
from repro.fs import FileSystem
from repro.types import SchemeName

from ..conftest import make_cluster

SITES = 5


def test_eight_block_calls_cost_what_the_model_says():
    cluster = make_cluster(SchemeName.VOTING, num_sites=SITES, num_blocks=512)
    stub = DeviceDriverStub(cluster.device(), cache_blocks=64)
    fs = FileSystem.format(stub)
    bs = stub.block_size
    rng = random.Random(14)
    fs.create("/a")
    fs.write_file("/a", rng.randbytes(16 * bs))  # now inside the indirect range

    def messages(call):
        """Transmissions ``call`` causes, and what it returns."""
        before = cluster.meter.total
        result = call()
        return cluster.meter.total - before, result

    round_cost = traffic_model(SchemeName.VOTING, SITES, rho=0.0)
    data = rng.randbytes(8 * bs)

    # bitmap, data batch, indirect table, inode; every read hits the cache
    sent, _ = messages(lambda: fs.write_file("/a", data, 16 * bs))
    assert sent == 4 * round_cost.write

    # the data batch alone
    sent, _ = messages(lambda: fs.write_file("/a", data[::-1], 16 * bs))
    assert sent == 1 * round_cost.write

    # push /a's table and data out of the cache, then warm the path only
    fs.create("/b")
    for call in range(10):
        fs.write_file("/b", rng.randbytes(8 * bs), call * 8 * bs)
    assert fs.exists("/a")
    # cold: the indirect table, then the eight blocks as one batch
    sent, got = messages(lambda: fs.read_file("/a", 16 * bs, 8 * bs))
    assert (sent, got) == (2 * round_cost.read, data[::-1])
    sent, got = messages(lambda: fs.read_file("/a", 16 * bs, 8 * bs))
    assert (sent, got) == (0, data[::-1])


def test_a_path_is_priced_once_per_mount():
    """No buffer cache here: the file system sits straight on the
    reliable device, so every device read is a quorum round and the
    name cache is all that stands between a path and its price."""
    cluster = make_cluster(SchemeName.VOTING, num_sites=SITES, num_blocks=512)
    device = cluster.device()
    fs = FileSystem.format(device)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.create("/a/b/f")
    fs.write_file("/a/b/f", b"one block")
    read = traffic_model(SchemeName.VOTING, SITES, rho=0.0).read

    def messages(call):
        before = cluster.meter.total
        call()
        return cluster.meter.total - before

    # per component its directory's inode and one scan; the file's
    # inode; for the read, its block
    cold = FileSystem.mount(device)
    assert messages(lambda: cold.read_file("/a/b/f")) == 8 * read == 40
    assert messages(lambda: cold.read_file("/a/b/f")) == 2 * read
    cold = FileSystem.mount(device)
    assert messages(lambda: cold.stat("/a/b/f")) == 7 * read
    assert messages(lambda: cold.stat("/a/b/f")) == 1 * read
    # the mount that made the names never looks them up
    assert messages(lambda: fs.stat("/a/b/f")) == 1 * read
