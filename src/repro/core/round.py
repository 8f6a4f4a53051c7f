"""Pooled, pre-sized per-operation quorum round state.

A :class:`QuorumRound` holds the replies of one fan-out as two
parallel lists -- ``ids`` (who replied, in arrival order) and ``values``
(what they replied) -- plus the running maximum ``top`` of integer
replies (version numbers).  Rounds are pooled per protocol instance
(:meth:`repro.core.protocol.ReplicationProtocol._borrow_round`) and
reset by rewinding ``count`` instead of reallocating, so an operation
allocates nothing for its reply table.

Replies are appended in network arrival order and the origin's own
vote is appended last; ``top`` starts at 0, which equals the maximum
over the votes because version numbers are never negative and every
round contains at least the origin's vote.
"""

from __future__ import annotations

from typing import Any, List

from ..types import SiteId

__all__ = ["QuorumRound"]


class QuorumRound:
    """Reusable reply table for one quorum round.

    ``begin(positions)`` resets the round (the backing lists keep their
    high-water capacity) and ``add(site_id, value)`` appends one reply.
    Only the first ``count`` entries of ``ids`` / ``values`` are
    meaningful; older slots hold stale garbage by design.
    """

    __slots__ = ("ids", "values", "count", "top", "request")

    def __init__(self) -> None:
        self.ids: List[SiteId] = []
        self.values: List[Any] = []
        self.count = 0
        self.top = 0
        #: What the round asked, for reading a reply by position: a
        #: batch vote round's blocks, in request order.
        self.request: Any = None

    def begin(self, positions: int) -> None:
        """Start a new round for a group of ``positions`` sites.

        The reply lists are pre-extended to ``positions`` here (a round
        never holds more entries than the group has members), so
        :meth:`add` is a branch-free slot assignment.
        """
        self.count = 0
        self.top = 0
        grow = positions - len(self.ids)
        if grow > 0:
            self.ids.extend([0] * grow)
            self.values.extend([None] * grow)

    def add(self, site_id: SiteId, value: Any) -> None:
        """Append one reply (arrival order).

        ``type(value) is int`` rather than ``isinstance``: version
        numbers are exact ints, and the running maximum is meaningless
        for the non-int reply shapes (acks, batch vote tuples) anyway.
        """
        i = self.count
        self.ids[i] = site_id
        self.values[i] = value
        self.count = i + 1
        if type(value) is int and value > self.top:
            self.top = value
