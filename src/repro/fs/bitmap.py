"""Free-block accounting via an on-device bitmap."""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..device.interface import BlockDevice
from ..errors import DeviceError, FSFormatError, NoSpaceFSError
from ..types import BlockIndex
from .layout import SuperBlock

__all__ = ["BlockBitmap"]


class BlockBitmap:
    """One bit per device block; set bits mark allocated blocks.

    The bitmap is held in memory (it is tiny) and written through to the
    device on every mutation, so a crash of the *client* never leaves
    allocation state only in RAM.  A mutation of many bits is still one
    mutation: each bitmap block it touches is written once, before the
    call returns.  Reads during :meth:`load` re-sync from the device.
    """

    def __init__(self, device: BlockDevice, superblock: SuperBlock) -> None:
        self._device = device
        self._sb = superblock
        self._bits = bytearray(superblock.bitmap_blocks * superblock.block_size)
        #: No data block below this index is free: where the allocation
        #: scan starts.  Only a lower bound, so a stale value costs time,
        #: never correctness.
        self._lowest_free = superblock.data_start

    # -- persistence ------------------------------------------------------

    def load(self) -> None:
        """Read the bitmap from the device."""
        chunks: List[bytes] = []
        for i in range(self._sb.bitmap_blocks):
            chunks.append(self._device.read_block(self._sb.bitmap_start + i))
        self._bits = bytearray(b"".join(chunks))
        self._lowest_free = self._sb.data_start

    # -- bit operations ------------------------------------------------------

    def is_allocated(self, index: BlockIndex) -> bool:
        return bool(self._bits[index // 8] & (1 << (index % 8)))

    def _mark(self, indices: Iterable[BlockIndex], value: bool) -> None:
        """Set or clear the bits of ``indices``, in memory."""
        bits = self._bits
        for index in indices:
            if value:
                bits[index // 8] |= 1 << (index % 8)
            else:
                bits[index // 8] &= ~(1 << (index % 8))

    def _flush(self, indices: Iterable[BlockIndex]) -> None:
        """Write back each bitmap block that holds a bit of ``indices``,
        once, lowest first."""
        block_size = self._sb.block_size
        bits_per_block = block_size * 8
        for which in sorted({index // bits_per_block for index in indices}):
            start = which * block_size
            self._device.write_block(
                self._sb.bitmap_start + which,
                bytes(self._bits[start : start + block_size]),
            )

    def mark_allocated(
        self, start: BlockIndex, stop: Optional[BlockIndex] = None
    ) -> None:
        """Mark blocks ``[start, stop)`` used -- one block when ``stop``
        is omitted (format-time metadata reservation)."""
        blocks = range(start, start + 1 if stop is None else stop)
        self._mark(blocks, True)
        self._flush(blocks)

    # -- allocation -------------------------------------------------------------

    def allocate(self, count: int) -> List[BlockIndex]:
        """Claim the ``count`` lowest free data blocks, in ascending
        order -- all of them or, when fewer remain, none."""
        bits = self._bits
        limit = self._sb.num_blocks
        found: List[BlockIndex] = []
        index = self._lowest_free
        while len(found) < count and index < limit:
            byte = bits[index // 8]
            if byte == 0xFF:
                index = (index | 7) + 1
                continue
            if not byte & (1 << (index % 8)):
                found.append(index)
            index += 1
        if len(found) < count:
            raise NoSpaceFSError(
                f"{count} data block(s) wanted, {len(found)} free"
            )
        self._mark(found, True)
        try:
            self._flush(found)
        except DeviceError:
            # None, then: what reached the device is at most a leak,
            # and the next flush of that bitmap block takes it back.
            self._mark(found, False)
            raise
        if found:
            self._lowest_free = found[-1] + 1
        return found

    def free(self, *indices: BlockIndex) -> None:
        """Release data blocks -- all of them or, when one is not an
        allocated data block, none."""
        for index in indices:
            if index < self._sb.data_start or index >= self._sb.num_blocks:
                raise FSFormatError(
                    f"block {index} is not a data block "
                    f"[{self._sb.data_start}, {self._sb.num_blocks})"
                )
            if not self.is_allocated(index):
                raise FSFormatError(f"double free of block {index}")
        if len(set(indices)) != len(indices):
            raise FSFormatError(f"double free within {sorted(indices)}")
        if indices:
            self._lowest_free = min(self._lowest_free, *indices)
            self._mark(indices, False)
            self._flush(indices)

    def free_count(self) -> int:
        """Number of unallocated data blocks."""
        data_blocks = self._sb.data_blocks
        # bit i of the little-endian integer is the bit of block i
        used = int.from_bytes(self._bits, "little") >> self._sb.data_start
        used &= (1 << data_blocks) - 1
        return data_blocks - bin(used).count("1")
