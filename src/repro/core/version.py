"""Per-block version numbers and version vectors.

Every copy of every block carries a version number that is incremented on
each write (Figures 3-4) and compared during recovery (Figure 5): a
recovering site sends its version vector ``v`` to its repair source, which
answers with the correct vector ``v'`` plus the blocks that changed while
the site was down.  Only modified blocks travel -- the block-level
scheme's central saving over file-level replication (Section 3).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple

from ..types import BlockIndex, VersionNumber

__all__ = ["VersionVector"]


class VersionVector:
    """A mapping from block index to version number.

    Unwritten blocks have version 0 and are not stored explicitly, so the
    vector stays compact for large, sparsely written devices.  Instances
    are mutable (sites update them in place during writes and recovery)
    but support value-style comparison.
    """

    __slots__ = ("_versions",)

    def __init__(
        self, versions: Mapping[BlockIndex, VersionNumber] = ()
    ) -> None:
        self._versions: Dict[BlockIndex, VersionNumber] = {
            k: v for k, v in dict(versions).items() if v != 0
        }

    # -- element access -------------------------------------------------------

    def get(self, block: BlockIndex) -> VersionNumber:
        """Version of ``block`` (0 if never written)."""
        return self._versions.get(block, 0)

    def getter(self) -> Callable[[BlockIndex, VersionNumber], VersionNumber]:
        """The underlying dict's bound ``.get`` -- call with default 0.

        A flattened accessor for hot version probes (one dict lookup
        instead of two call frames).  Valid for the vector's lifetime:
        the dict is mutated in place by :meth:`set`/:meth:`bump` but
        never rebound.
        """
        return self._versions.get

    def set(self, block: BlockIndex, version: VersionNumber) -> None:
        """Set the version of ``block``."""
        if version < 0:
            raise ValueError(f"negative version {version}")
        if version == 0:
            self._versions.pop(block, None)
        else:
            self._versions[block] = version

    def clear(self) -> None:
        """Forget every entry (in place, so :meth:`getter` stays valid)."""
        self._versions.clear()

    def bump(self, block: BlockIndex, to_at_least: VersionNumber) -> None:
        """Raise ``block``'s version to at least ``to_at_least``."""
        if to_at_least > self.get(block):
            self.set(block, to_at_least)

    # -- vector operations -------------------------------------------------

    def stale_relative_to(self, other: "VersionVector") -> List[BlockIndex]:
        """Blocks where ``self`` is older than ``other``, sorted.

        These are exactly the blocks a recovering site must fetch from its
        repair source.
        """
        mine = self._versions.get
        return sorted([
            block for block, version in other.items()
            if mine(block, 0) < version
        ])

    def newer_than(self, other: "VersionVector") -> List[BlockIndex]:
        """Blocks where ``self`` is newer than ``other``, sorted."""
        return other.stale_relative_to(self)

    def dominates(self, other: "VersionVector") -> bool:
        """True when no block of ``other`` is newer than ours."""
        return not self.stale_relative_to(other)

    def merge_max(self, other: "VersionVector") -> None:
        """Raise each entry to the pairwise maximum (in place)."""
        for block, version in other.items():
            self.bump(block, version)

    def total(self) -> int:
        """Sum of all version numbers.

        A convenient scalar proxy for "how much has this copy seen": under
        the single-writer histories exercised here, the copy with the
        maximal vector also has the maximal total, which is how recovery
        code picks the most current comatose copy (Figures 5-6 compare
        ``version(t) >= version(u)`` as scalars).
        """
        return sum(self._versions.values())

    def copy(self) -> "VersionVector":
        """An independent copy of this vector (its entries are already
        non-zero, so they are copied as they are)."""
        clone = VersionVector.__new__(VersionVector)
        clone._versions = self._versions.copy()
        return clone

    # -- iteration / comparison ----------------------------------------------

    def items(self) -> Iterable[Tuple[BlockIndex, VersionNumber]]:
        """(block, version) pairs for explicitly versioned blocks."""
        return self._versions.items()

    def blocks(self) -> Iterator[BlockIndex]:
        """Block indices with non-zero versions."""
        return iter(self._versions)

    def __len__(self) -> int:
        return len(self._versions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._versions == other._versions

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("VersionVector is mutable and unhashable")

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{k}:{v}" for k, v in sorted(self._versions.items())
        )
        return f"VersionVector({{{entries}}})"
