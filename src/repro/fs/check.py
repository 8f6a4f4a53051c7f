"""File-system consistency checking (an ``fsck`` for the block FS).

Walks the directory tree from the root and cross-checks every piece of
on-device metadata:

* every directory entry references an allocated inode of a sane type;
* every file/indirect block referenced by an inode is inside the data
  area, marked allocated in the bitmap, and referenced exactly once;
* every allocated inode is reachable from the root (else: orphan);
* every allocated data block is referenced (else: leak);
* file sizes fit within the blocks their inodes can map;
* every referenced block passes its device-level checksum (a block the
  device refuses to serve -- :class:`~repro.errors.CorruptBlockError`
  -- is reported in the distinct ``corrupt`` category).

Used by tests to prove namespace operations never corrupt the device --
including when the device is the replicated one with failures injected
mid-workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..errors import CorruptBlockError
from .directory import Directory
from .filesystem import FileSystem, ROOT_INODE, _POINTER
from .inode import FileType, InodeTable, NO_BLOCK

__all__ = ["CheckReport", "check_filesystem"]


@dataclass
class CheckReport:
    """Outcome of one consistency check."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: Blocks the device refused to serve (failed checksum): distinct
    #: from structural errors because the *metadata* may be intact and
    #: the block may be healable from a replica.
    corrupt: List[str] = field(default_factory=list)
    inodes_reachable: int = 0
    blocks_referenced: int = 0

    @property
    def ok(self) -> bool:
        """No errors and no corrupt blocks (warnings are tolerated)."""
        return not self.errors and not self.corrupt

    def summary(self) -> str:
        if self.ok:
            status = "clean"
        else:
            parts = []
            if self.errors:
                parts.append(f"{len(self.errors)} error(s)")
            if self.corrupt:
                parts.append(f"{len(self.corrupt)} corrupt block(s)")
            status = ", ".join(parts)
        return (
            f"fsck: {status}, {self.inodes_reachable} inodes, "
            f"{self.blocks_referenced} blocks, "
            f"{len(self.warnings)} warning(s)"
        )


def _blocks_of(fs: FileSystem, inode) -> List[int]:
    """Every device block an inode references (indirect table included)."""
    blocks = [b for b in inode.direct if b != NO_BLOCK]
    if inode.indirect != NO_BLOCK:
        blocks.append(inode.indirect)
        table = fs.device.read_block(inode.indirect)
        for index in range(fs._pointers_per_block):
            (block,) = _POINTER.unpack_from(table, index * _POINTER.size)
            if block != NO_BLOCK:
                blocks.append(block)
    return blocks


def check_filesystem(fs: FileSystem) -> CheckReport:
    """Audit a mounted file system; never modifies it.  Inodes are read
    through a table of the check's own, so from the device and not from
    the mount's in-core inodes."""
    report = CheckReport()
    sb = fs.superblock
    inodes = InodeTable(fs.device, sb)
    seen_blocks: Dict[int, str] = {}
    reachable: Set[int] = set()

    def claim_blocks(owner: str, inode) -> None:
        try:
            blocks = _blocks_of(fs, inode)
        except CorruptBlockError as exc:
            report.corrupt.append(
                f"{owner}: indirect block unreadable: {exc}"
            )
            return
        for block in blocks:
            if not sb.data_start <= block < sb.num_blocks:
                report.errors.append(
                    f"{owner}: block {block} outside the data area"
                )
                continue
            if block in seen_blocks:
                report.errors.append(
                    f"{owner}: block {block} already referenced by "
                    f"{seen_blocks[block]}"
                )
                continue
            seen_blocks[block] = owner
            if not fs._bitmap.is_allocated(block):
                report.errors.append(
                    f"{owner}: block {block} referenced but free in the "
                    "bitmap"
                )

    def walk(path: str, inode_number: int) -> None:
        if inode_number in reachable:
            report.errors.append(
                f"{path}: inode {inode_number} reached twice (cycle or "
                "duplicate entry)"
            )
            return
        try:
            inode = inodes.read(inode_number)
        except CorruptBlockError as exc:
            report.corrupt.append(
                f"{path}: inode {inode_number} unreadable: {exc}"
            )
            return
        except Exception as exc:  # out-of-range inode numbers
            report.errors.append(f"{path}: unreadable inode: {exc}")
            return
        reachable.add(inode_number)
        if inode.is_free:
            report.errors.append(
                f"{path}: entry points at free inode {inode_number}"
            )
            return
        max_size = fs.max_file_size()
        if inode.size > max_size:
            report.errors.append(
                f"{path}: size {inode.size} exceeds the mappable "
                f"maximum {max_size}"
            )
        claim_blocks(path, inode)
        if inode.is_directory:
            try:
                entries = list(Directory(fs, inode).entries())
            except CorruptBlockError as exc:
                report.corrupt.append(
                    f"{path}: directory data unreadable: {exc}"
                )
                return
            for entry in entries:
                walk(f"{path.rstrip('/')}/{entry.name}",
                     entry.inode_number)

    walk("/", ROOT_INODE)

    # orphan inodes: allocated but unreachable
    for number in range(sb.num_inodes):
        try:
            inode = inodes.read(number)
        except CorruptBlockError:
            continue  # already reported by the walk (or unreferenced)
        if not inode.is_free and number not in reachable:
            report.errors.append(
                f"inode {number} ({inode.file_type.name.lower()}) is "
                "allocated but unreachable"
            )
    # leaked blocks: allocated but unreferenced
    for block in range(sb.data_start, sb.num_blocks):
        if fs._bitmap.is_allocated(block) and block not in seen_blocks:
            report.warnings.append(
                f"block {block} is allocated but referenced by no inode"
            )
    # integrity: every referenced data block must be readable
    for block, owner in sorted(seen_blocks.items()):
        try:
            fs.device.read_block(block)
        except CorruptBlockError as exc:
            report.corrupt.append(
                f"{owner}: data block {block} failed its checksum: {exc}"
            )
    # root must be a directory
    try:
        root = inodes.read(ROOT_INODE)
    except CorruptBlockError:
        root = None  # reported by the walk
    if root is not None and root.file_type is not FileType.DIRECTORY:
        report.errors.append("root inode is not a directory")

    report.inodes_reachable = len(reachable)
    report.blocks_referenced = len(seen_blocks)
    return report
