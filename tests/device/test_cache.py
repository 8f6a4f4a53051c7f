"""Unit tests for the write-through buffer cache."""

import pytest

from repro.device import BufferCache, LocalBlockDevice
from repro.errors import DeviceError

from ..fs.conftest import BS, RecordingDevice


def make_cached(capacity=2, num_blocks=8, block_size=8):
    backing = LocalBlockDevice(num_blocks=num_blocks, block_size=block_size)
    return BufferCache(backing, capacity_blocks=capacity), backing


def test_read_miss_then_hit():
    cache, backing = make_cached()
    backing.write_block(0, b"AAAAAAAA")
    assert cache.read_block(0) == b"AAAAAAAA"
    assert cache.read_block(0) == b"AAAAAAAA"
    assert cache.cache_stats.misses == 1
    assert cache.cache_stats.hits == 1
    assert backing.stats.reads == 1  # second read served from cache


def test_write_through_updates_backing_immediately():
    cache, backing = make_cached()
    cache.write_block(1, b"BBBBBBBB")
    assert backing.read_block(1) == b"BBBBBBBB"
    # and the cache serves the new data without touching the backing
    reads_before = backing.stats.reads
    assert cache.read_block(1) == b"BBBBBBBB"
    assert backing.stats.reads == reads_before


def test_lru_eviction():
    cache, backing = make_cached(capacity=2)
    for i in range(3):
        backing.write_block(i, bytes([i]) * 8)
    cache.read_block(0)
    cache.read_block(1)
    cache.read_block(0)  # touch 0: 1 becomes LRU
    cache.read_block(2)  # evicts 1
    backing_reads = backing.stats.reads
    cache.read_block(0)  # still cached
    assert backing.stats.reads == backing_reads
    cache.read_block(1)  # was evicted -> miss
    assert backing.stats.reads == backing_reads + 1


def test_invalidate_single_and_all():
    cache, backing = make_cached(capacity=4)
    backing.write_block(0, b"AAAAAAAA")
    backing.write_block(1, b"BBBBBBBB")
    cache.read_block(0)
    cache.read_block(1)
    cache.invalidate(0)
    reads = backing.stats.reads
    cache.read_block(1)  # hit
    assert backing.stats.reads == reads
    cache.read_block(0)  # miss after invalidate
    assert backing.stats.reads == reads + 1
    cache.invalidate()
    cache.read_block(1)
    assert backing.stats.reads == reads + 2


def test_failed_write_does_not_pollute_cache():
    from repro.errors import BlockSizeError

    cache, backing = make_cached()
    backing.write_block(0, b"AAAAAAAA")
    cache.read_block(0)
    with pytest.raises(BlockSizeError):
        cache.write_block(0, b"bad")
    assert cache.read_block(0) == b"AAAAAAAA"


@pytest.mark.parametrize("lands", [False, True], ids=["refused", "landed"])
@pytest.mark.parametrize("batch", [False, True], ids=["block", "blocks"])
def test_a_write_that_raised_leaves_no_copy_in_the_cache(batch, lands):
    old, new, kept = (bytes([fill]) * BS for fill in b"onk")
    backing = RecordingDevice(num_blocks=8)
    cache = BufferCache(backing, capacity_blocks=4)
    cache.write_blocks({0: old, 1: old, 2: kept})
    named = [0, 1] if batch else [0]

    # the next write is refused, or lands and then raises -- what a
    # replicated write does that loses its quorum after the fan-out
    backing.in_doubt, backing.fail_at = lands, backing.write_calls + 1
    with pytest.raises(DeviceError):
        if batch:
            cache.write_blocks({index: new for index in named})
        else:
            cache.write_block(0, new)
    backing.fail_at = None

    # the device is the authority on what the write left: every block
    # the call named is a miss, whichever way it went ...
    misses = cache.cache_stats.misses
    for index in named:
        assert backing.read_block(index) == (new if lands else old)
        assert cache.read_block(index) == backing.read_block(index)
    assert cache.cache_stats.misses == misses + len(named)
    # ... and a block it did not name is still served from memory
    assert cache.read_block(2) == kept
    assert cache.cache_stats.misses == misses + len(named)


def test_hit_rate():
    cache, backing = make_cached(capacity=4)
    backing.write_block(0, bytes(8))
    cache.read_block(0)
    cache.read_block(0)
    cache.read_block(0)
    assert cache.cache_stats.hit_rate == pytest.approx(2 / 3)


def test_capacity_validation():
    backing = LocalBlockDevice(num_blocks=4, block_size=8)
    with pytest.raises(ValueError):
        BufferCache(backing, capacity_blocks=0)


def test_geometry_passthrough():
    cache, backing = make_cached()
    assert cache.num_blocks == backing.num_blocks
    assert cache.block_size == backing.block_size
    assert cache.backing is backing


class TestBatchedAccess:
    """Batched reads/writes through the cache."""

    def test_partial_hit_fetches_only_misses_in_one_call(self):
        cache, backing = make_cached(capacity=4)
        for i in range(4):
            backing.write_block(i, bytes([i]) * 8)
        cache.read_block(0)
        cache.read_block(2)
        calls_before = backing.stats.batch_reads
        reads_before = backing.stats.reads
        result = cache.read_blocks([0, 1, 2, 3])
        assert result == {i: bytes([i]) * 8 for i in range(4)}
        assert cache.cache_stats.hits >= 2
        # only the two misses hit the backing, in ONE batched call
        assert backing.stats.reads == reads_before + 2
        assert backing.stats.batch_reads == calls_before + 1

    def test_full_hit_costs_no_backing_call(self):
        cache, backing = make_cached(capacity=4)
        for i in range(3):
            cache.write_block(i, bytes([i]) * 8)
        reads_before = backing.stats.reads
        assert cache.read_blocks([0, 1, 2]) == {
            i: bytes([i]) * 8 for i in range(3)
        }
        assert backing.stats.reads == reads_before

    def test_batch_result_preserves_request_order_and_dedupes(self):
        cache, backing = make_cached(capacity=4)
        for i in range(3):
            backing.write_block(i, bytes([i]) * 8)
        result = cache.read_blocks([2, 0, 2, 1])
        assert list(result) == [2, 0, 1]
        # Every access counts, like the sequential path: 4 reads, and
        # the duplicate of block 2 is a hit (its first access cached it).
        assert cache.stats.reads == 4
        assert cache.cache_stats.hits == 1
        assert cache.cache_stats.misses == 3

    def test_eviction_order_under_batched_access(self):
        cache, backing = make_cached(capacity=2)
        for i in range(3):
            backing.write_block(i, bytes([i]) * 8)
        cache.read_block(0)
        cache.read_block(1)
        # batch touching [0] refreshes 0's recency: 1 becomes LRU
        cache.read_blocks([0])
        cache.read_blocks([2])  # evicts 1
        reads = backing.stats.reads
        cache.read_block(0)  # still cached
        assert backing.stats.reads == reads
        cache.read_block(1)  # evicted -> miss
        assert backing.stats.reads == reads + 1

    def test_batched_write_through_and_caching(self):
        cache, backing = make_cached(capacity=4)
        writes = {i: bytes([0x40 + i]) * 8 for i in range(3)}
        cache.write_blocks(writes)
        for i, data in writes.items():
            assert backing.read_block(i) == data
        reads_before = backing.stats.reads
        assert cache.read_blocks(list(writes)) == writes
        assert backing.stats.reads == reads_before  # all hits

    def test_failed_batch_write_does_not_pollute_cache(self):
        from repro.errors import BlockSizeError

        cache, backing = make_cached(capacity=4)
        backing.write_block(0, b"AAAAAAAA")
        cache.read_block(0)
        with pytest.raises(BlockSizeError):
            cache.write_blocks({0: b"CCCCCCCC", 1: b"bad"})
        assert cache.read_block(0) == b"AAAAAAAA"

    def test_invalidate_between_batches(self):
        cache, backing = make_cached(capacity=4)
        for i in range(3):
            backing.write_block(i, bytes([i]) * 8)
        cache.read_blocks([0, 1, 2])
        backing.write_block(1, b"ZZZZZZZZ")  # out-of-band update
        cache.invalidate(1)
        result = cache.read_blocks([0, 1, 2])
        assert result[1] == b"ZZZZZZZZ"  # refetched, not stale
        assert result[0] == bytes([0]) * 8  # others still cached
        misses = cache.cache_stats.misses
        cache.invalidate()
        cache.read_blocks([0, 2])
        assert cache.cache_stats.misses == misses + 2

    def test_batch_stats_counters(self):
        cache, backing = make_cached(capacity=4)
        cache.write_blocks({0: bytes(8), 1: bytes(8)})
        cache.read_blocks([0, 1])
        snap = cache.stats.snapshot()
        assert snap.batch_writes == 1
        assert snap.batch_write_blocks == 2
        assert snap.batch_reads == 1
        assert snap.batch_read_blocks == 2
