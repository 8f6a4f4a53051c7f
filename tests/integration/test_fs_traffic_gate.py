"""What a file-system call costs on the wire, exactly.

The stack is the benchmark's ``fs_stream`` one -- ``FileSystem`` on a
64-block ``DeviceDriverStub`` cache on a five-site MCV ``ReliableDevice``
-- with no failures, so every number is a count, not a timing: a write
the file system issues is one write quorum round, a read the cache
misses is one read round, and section 5's message script prices each
round in messages and bytes (at U = n: every site is up).  The
device calls per file-system call are the budget
``tests/fs/test_device_budget.py`` pins on a local device; a per-block
loop creeping back into :mod:`repro.fs` multiplies them, and fails here
as messages.
"""

import random

from repro.analysis.byte_traffic import script_bytes
from repro.analysis.traffic import message_script, script_transmissions
from repro.device import DeviceDriverStub
from repro.fs import FileSystem
from repro.net.traffic import READ, WRITE
from repro.types import SchemeName

from ..conftest import make_cluster

SITES = 5


def round_price(op):
    """Messages and bytes of one failure-free MCV ``op`` round."""
    script = message_script(SchemeName.VOTING, op, SITES)
    return (
        script_transmissions(script, SITES, SITES),
        script_bytes(script, SITES, SITES),
    )


READ_MSGS, READ_BYTES = round_price(READ)
WRITE_MSGS, WRITE_BYTES = round_price(WRITE)


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

    data = rng.randbytes(8 * bs)

    # bitmap, data batch, indirect table, inode; every read hits the cache
    sent, _ = messages(lambda: fs.write_file("/a", data, 16 * bs))
    assert sent == 4 * WRITE_MSGS

    # the data batch alone
    sent, _ = messages(lambda: fs.write_file("/a", data[::-1], 16 * bs))
    assert sent == 1 * WRITE_MSGS

    # push /a's table and data out of the cache, then warm the path only
    fs.create("/b")
    for call in range(10):
        fs.write_file("/b", rng.randbytes(8 * bs), call * 8 * bs)
    assert fs.exists("/a")
    # cold: the indirect table, then the eight blocks as one batch
    sent, got = messages(lambda: fs.read_file("/a", 16 * bs, 8 * bs))
    assert (sent, got) == (2 * READ_MSGS, data[::-1])
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
    read = READ_MSGS

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


def test_a_one_block_transfer_is_the_single_block_round():
    """Figures 3 and 4 as they stand: on a mount with no buffer cache a
    transfer inside one block costs the single-block read and write
    rounds, and no batch message of any kind is sent for it."""
    cluster = make_cluster(SchemeName.VOTING, num_sites=SITES, num_blocks=512)
    device = cluster.device()
    fs = FileSystem.format(device)
    bs = device.block_size
    fs.create("/f")
    fs.write_file("/f", bytes(2 * bs))

    def spent(call):
        before = cluster.meter.snapshot()
        call()
        return cluster.meter.snapshot().delta(before)

    def batch_messages(traffic):
        return [c for c in traffic.by_category if c.name.startswith("BATCH_")]

    inode = spent(lambda: fs.stat("/f"))  # the inode and nothing else
    assert (inode.total, inode.total_bytes) == (READ_MSGS, READ_BYTES) \
        == (5, 200)

    # in place and wholly covered: the inode read, then one write round
    write = spent(lambda: fs.write_file("/f", b"x" * bs, bs))
    assert write.total - inode.total == WRITE_MSGS == 6
    assert write.total_bytes - inode.total_bytes == WRITE_BYTES == 752
    assert batch_messages(write) == []

    # a partial end adds the read of the block it lies in
    patch = spent(lambda: fs.write_file("/f", b"y" * 40, bs + 7))
    assert patch.total == 2 * READ_MSGS + WRITE_MSGS
    assert patch.total_bytes == 2 * READ_BYTES + WRITE_BYTES
    assert batch_messages(patch) == []

    read = spent(lambda: fs.read_file("/f", bs + 7, 40))
    assert (read.total, read.total_bytes) == (2 * READ_MSGS, 2 * READ_BYTES)
    assert batch_messages(read) == []

    # two blocks are a batch, as before
    assert batch_messages(spent(lambda: fs.read_file("/f"))) != []
