"""The block allocator against the scan it replaced.

``BlockBitmap.allocate`` skips full bytes and starts from a remembered
lower bound; the reference below is the plain lowest-first scan over a
set.  Random ``allocate(k)`` / ``free`` / reload sequences must hand out
the same blocks in the same order, run out of space at the same call,
and take nothing when fewer than ``k`` blocks remain.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.device import LocalBlockDevice
from repro.errors import NoSpaceFSError
from repro.fs import SuperBlock
from repro.fs.bitmap import BlockBitmap

#: 64-byte blocks hold 512 bits: 600 blocks need two bitmap blocks, so
#: runs straddle the boundary; 593 data blocks exhaust within a sequence.
NUM_BLOCKS, BLOCK_SIZE = 600, 64


class NaiveAllocator:
    """Lowest free block first, found by looking at every block."""

    def __init__(self, sb):
        self._blocks = range(sb.data_start, sb.num_blocks)
        self.used = set()

    def allocate(self, count):
        free = [b for b in self._blocks if b not in self.used][:count]
        if len(free) < count:
            raise NoSpaceFSError("reference out of space")
        self.used.update(free)
        return free

    def free(self, blocks):
        self.used.difference_update(blocks)


steps = st.one_of(
    st.tuples(st.just("allocate"), st.integers(0, 200)),
    # which of the allocated blocks to free: indices into the sorted set
    st.tuples(st.just("free"), st.lists(st.integers(0, 10_000), max_size=40)),
    st.tuples(st.just("reload"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(sequence=st.lists(steps, min_size=1, max_size=25))
def test_allocator_matches_naive_scan(sequence):
    device = LocalBlockDevice(num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE)
    sb = SuperBlock.compute(NUM_BLOCKS, BLOCK_SIZE, num_inodes=4)
    bitmap = BlockBitmap(device, sb)
    bitmap.mark_allocated(0, sb.data_start)
    reference = NaiveAllocator(sb)
    for kind, argument in sequence:
        if kind == "allocate":
            try:
                expected = reference.allocate(argument)
            except NoSpaceFSError:
                with pytest.raises(NoSpaceFSError):
                    bitmap.allocate(argument)
            else:
                assert bitmap.allocate(argument) == expected
        elif kind == "free":
            held = sorted(reference.used)
            chosen = {held[pick % len(held)] for pick in argument if held}
            reference.free(chosen)
            bitmap.free(*chosen)
        else:
            bitmap = BlockBitmap(device, sb)
            bitmap.load()
        assert bitmap.free_count() == sb.data_blocks - len(reference.used)
        assert {
            block
            for block in range(sb.data_start, sb.num_blocks)
            if bitmap.is_allocated(block)
        } == reference.used
