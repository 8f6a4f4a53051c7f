"""Free-block bitmap behaviour."""

import pytest

from repro.device import LocalBlockDevice
from repro.errors import FSFormatError, NoSpaceFSError
from repro.fs import SuperBlock
from repro.fs.bitmap import BlockBitmap


def make_bitmap(num_blocks=64, block_size=512):
    device = LocalBlockDevice(num_blocks=num_blocks, block_size=block_size)
    sb = SuperBlock.compute(num_blocks, block_size, num_inodes=8)
    bitmap = BlockBitmap(device, sb)
    for i in range(sb.data_start):
        bitmap.mark_allocated(i)
    return bitmap, sb, device


def test_allocation_starts_at_data_start():
    bitmap, sb, _ = make_bitmap()
    assert bitmap.allocate(1) == [sb.data_start]
    assert bitmap.allocate(1) == [sb.data_start + 1]


def test_free_then_reallocate_lowest_first():
    bitmap, sb, _ = make_bitmap()
    blocks = [bitmap.allocate(1)[0] for _ in range(3)]
    bitmap.free(blocks[0])
    assert bitmap.allocate(1) == [blocks[0]]


def test_exhaustion_raises():
    bitmap, sb, _ = make_bitmap(num_blocks=16)
    for _ in range(sb.data_blocks):
        bitmap.allocate(1)
    with pytest.raises(NoSpaceFSError):
        bitmap.allocate(1)


def test_double_free_rejected():
    bitmap, _sb, _ = make_bitmap()
    (block,) = bitmap.allocate(1)
    bitmap.free(block)
    with pytest.raises(FSFormatError):
        bitmap.free(block)


def test_freeing_metadata_region_rejected():
    bitmap, _sb, _ = make_bitmap()
    with pytest.raises(FSFormatError):
        bitmap.free(0)


def test_free_count():
    bitmap, sb, _ = make_bitmap()
    total = sb.data_blocks
    assert bitmap.free_count() == total
    bitmap.allocate(1)
    assert bitmap.free_count() == total - 1


def test_state_persists_through_reload():
    bitmap, sb, device = make_bitmap()
    (allocated,) = bitmap.allocate(1)
    fresh = BlockBitmap(device, sb)
    fresh.load()
    assert fresh.is_allocated(allocated)
    assert not fresh.is_allocated(allocated + 1)
