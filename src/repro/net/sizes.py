"""Message-size model for byte-level traffic accounting.

Section 5 counts *transmissions*, noting that one could "instead focus
on the sizes of the messages by estimating the total number of actual
blocks transferred by each scheme", with similar but "slightly less
pronounced" differences.  This module makes that alternative accounting
concrete: a message costs one header plus its payload, and the payload
is priced from the shape its category declares
(:class:`~repro.net.message.Field`) -- a vote, a version-vector entry or
a versioned block, once or once per entry of a field.

The defaults are deliberately round numbers; the *qualitative* claim
("less pronounced but same ordering") is insensitive to them, which the
tests verify by sweeping the header and block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from .message import VERSIONED_BLOCK, VOTE, VV_ENTRY, MessageCategory

__all__ = ["SizeModel"]


@dataclass(frozen=True)
class SizeModel:
    """Bytes per message, by category and payload.

    Parameters
    ----------
    header_bytes:
        Fixed framing/addressing overhead of every transmission.
    vote_bytes:
        A vote: version number plus weight (Figure 3's reply).
    vv_entry_bytes:
        One version-vector entry (block index + version number).
    block_bytes:
        One data block -- must match the device's block size for the
        accounting to mean anything.
    """

    header_bytes: int = 32
    vote_bytes: int = 8
    vv_entry_bytes: int = 8
    block_bytes: int = 512

    def __post_init__(self) -> None:
        for name in ("header_bytes", "vote_bytes", "vv_entry_bytes",
                     "block_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        unit = {
            VOTE: self.vote_bytes,
            VV_ENTRY: self.vv_entry_bytes,
            VERSIONED_BLOCK: self.vv_entry_bytes + self.block_bytes,
        }
        # Derived tables, not dataclass fields (excluded from eq/hash/
        # repr).  ``_fixed``: the size of every category whose fields
        # are all priced once -- one dict probe on the metering path.
        # ``_counted``: for the rest, the once-priced base, whether the
        # payload is a tuple of several fields, and, per field priced
        # per entry, (payload position or None for "the payload itself",
        # field name, bytes per entry).
        fixed: Dict[MessageCategory, int] = {}
        counted: Dict[MessageCategory, Tuple[int, bool, tuple]] = {}
        for category in MessageCategory:
            shape = category.shape
            fields = len(shape) > 1
            base = self.header_bytes + sum(
                unit[f.unit] for f in shape if not f.each
            )
            per_entry = tuple(
                (i if fields else None, f.name, unit[f.unit])
                for i, f in enumerate(shape) if f.each
            )
            if per_entry:
                counted[category] = (base, fields, per_entry)
            else:
                fixed[category] = base
        object.__setattr__(self, "_fixed", fixed)
        object.__setattr__(self, "_counted", counted)

    def fixed_bytes(self, category: MessageCategory) -> Optional[int]:
        """Payload-independent size of ``category``, or ``None``.

        ``None`` means the category's size depends on its payload and
        must go through :meth:`bytes_of`.  A fan-out's reply loop looks
        this up once per round, so a fixed-size reply costs no
        :meth:`bytes_of` call.
        """
        return self._fixed.get(category)

    def bytes_of(self, category: MessageCategory, payload: Any) -> int:
        """Size of one transmission of ``category`` carrying ``payload``.

        A payload without its category's declared shape is an error:
        ``len()`` of a field that has no entries raises, and so does a
        map where the shape is a tuple of several fields (its keys would
        otherwise be taken for field positions).
        """
        fixed = self._fixed.get(category)
        if fixed is not None:
            return fixed
        size, fields, per_entry = self._counted[category]
        if fields and type(payload) is dict:
            raise TypeError(
                f"{category.value} payload must be a tuple of its fields"
            )
        for index, _name, unit in per_entry:
            size += len(payload if index is None else payload[index]) * unit
        return size

    def expected_bytes(
        self, category: MessageCategory, entries: Mapping[str, float]
    ) -> float:
        """Size of one ``category`` message whose per-entry fields hold
        ``entries[name]`` entries (missing names hold none).

        The analytic form of :meth:`bytes_of`, for Section 5's models,
        where an entry count is an expectation and need not be whole.
        """
        fixed = self._fixed.get(category)
        if fixed is not None:
            return fixed
        size, _fields, per_entry = self._counted[category]
        for _index, name, unit in per_entry:
            size += entries.get(name, 0) * unit
        return size
