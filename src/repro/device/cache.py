"""A write-through buffer cache.

Section 2's UNIX model: "the file system consults internal data
structures to ascertain if it has the requested block in the buffer
cache.  If the block is not present then the file system requests the
device driver to fetch the block."  :class:`BufferCache` models that
cache as a :class:`~repro.device.interface.BlockDevice` decorator: reads
hit the cache when possible, writes go through to the backing device
immediately (write-through keeps the replicas authoritative, so a site
failure never loses acknowledged data).

The cache is coherent for a single client, which matches the paper's
model -- it does "not attempt to model systems which guard against
concurrent access of files" (Section 5).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import DeviceError
from ..types import BlockIndex
from .interface import BlockDevice

__all__ = ["BufferCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss counters for a buffer cache."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of read accesses served from the cache (0 if none)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class BufferCache(BlockDevice):
    """LRU write-through cache in front of any block device."""

    def __init__(self, backing: BlockDevice, capacity_blocks: int = 64):
        super().__init__()
        if capacity_blocks <= 0:
            raise ValueError(
                f"cache capacity must be positive, got {capacity_blocks}"
            )
        self._backing = backing
        self._capacity = int(capacity_blocks)
        self._blocks: "OrderedDict[BlockIndex, bytes]" = OrderedDict()
        self.cache_stats = CacheStats()

    @property
    def num_blocks(self) -> int:
        return self._backing.num_blocks

    @property
    def block_size(self) -> int:
        return self._backing.block_size

    @property
    def backing(self) -> BlockDevice:
        return self._backing

    def _remember(self, index: BlockIndex, data: bytes) -> None:
        self._blocks[index] = data
        self._blocks.move_to_end(index)
        while len(self._blocks) > self._capacity:
            self._blocks.popitem(last=False)

    def read_block(self, index: BlockIndex) -> bytes:
        self.stats.reads += 1
        cached = self._blocks.get(index)
        if cached is not None:
            self.cache_stats.hits += 1
            self._blocks.move_to_end(index)
            return cached
        self.cache_stats.misses += 1
        data = self._backing.read_block(index)
        self._remember(index, data)
        return data

    def write_block(self, index: BlockIndex, data: bytes) -> None:
        # Write-through: the backing device is updated before the cache
        # absorbs the new contents.  If it raises, the write is in
        # doubt -- a replicated write can land and then lose its quorum
        # -- so the cache keeps neither the old nor the new contents,
        # and the next read asks the device.
        try:
            self._backing.write_block(index, data)
        except DeviceError:
            self._blocks.pop(index, None)
            raise
        self.stats.writes += 1
        self._remember(index, bytes(data))

    # -- batched access -----------------------------------------------------

    def read_blocks(
        self, indices: Sequence[BlockIndex]
    ) -> Dict[BlockIndex, bytes]:
        """Serve hits from the cache, fetch all misses in ONE backing call.

        A partial hit costs exactly one backing round for the missing
        blocks; a full hit costs none.  Hit/miss accounting and LRU
        recency are per *access*, identical to the sequential path:
        every requested index counts as one read, and a duplicate of an
        index earlier in the batch is a cache hit (sequentially, the
        first access would have loaded it).
        """
        requested = list(indices)
        ordered = list(dict.fromkeys(requested))
        self.stats.reads += len(requested)
        self.stats.note_batch_read(len(ordered))
        self.cache_stats.hits += len(requested) - len(ordered)
        result: Dict[BlockIndex, bytes] = {}
        misses: List[BlockIndex] = []
        for index in ordered:
            cached = self._blocks.get(index)
            if cached is not None:
                self.cache_stats.hits += 1
                self._blocks.move_to_end(index)
                result[index] = cached
            else:
                self.cache_stats.misses += 1
                misses.append(index)
        if misses:
            fetched = self._backing.read_blocks(misses)
            for index in misses:
                data = fetched[index]
                self._remember(index, data)
                result[index] = data
        # present results in first-occurrence order, like the request
        return {index: result[index] for index in ordered}

    def write_blocks(self, writes: Mapping[BlockIndex, bytes]) -> None:
        """Write-through a whole batch with one backing call.

        The backing device sees the entire batch at once; only then
        does the cache absorb the new contents, so a failed batch never
        pollutes it.  A batch that raised may have landed in part (see
        :meth:`write_block`): every block it named is dropped.
        """
        try:
            self._backing.write_blocks(writes)
        except DeviceError:
            for index in writes:
                self._blocks.pop(index, None)
            raise
        self.stats.writes += len(writes)
        self.stats.note_batch_write(len(writes))
        for index in sorted(writes):
            self._remember(index, bytes(writes[index]))

    def invalidate(self, index: Optional[BlockIndex] = None) -> None:
        """Drop one block (or everything, when ``index`` is None).

        >>> from repro.device import BufferCache, LocalBlockDevice
        >>> backing = LocalBlockDevice(num_blocks=4, block_size=4)
        >>> backing.write_block(0, b"abcd")
        >>> cache = BufferCache(backing, capacity_blocks=2)
        >>> cache.read_block(0)
        b'abcd'
        >>> cache.invalidate(0)        # one block
        >>> cache.read_block(0) == b"abcd" and cache.cache_stats.misses
        2
        >>> cache.invalidate()         # None: everything
        >>> _ = cache.read_block(0)
        >>> cache.cache_stats.misses
        3
        """
        if index is None:
            self._blocks.clear()
        else:
            self._blocks.pop(index, None)
