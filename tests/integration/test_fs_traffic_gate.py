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
