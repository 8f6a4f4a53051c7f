"""Weighted-voting quorum specifications (Section 3.1).

Majority consensus voting honours an operation only when the sites
gathered hold, together, strictly more weight than the relevant quorum
threshold (the paper's predicate is ``sum(w_i) > quorum``).  Safety
requires that

* any read quorum intersects any write quorum
  (``read_quorum + write_quorum >= total_weight``), and
* any two write quorums intersect (``2 * write_quorum >= total_weight``),

which, with strict-greater gathering, guarantees every quorum contains a
site holding the highest version number.

For replica groups with an **even** number of equal-weight copies the
paper breaks draw conditions by "adjust[ing] by a small quantity the
weight of one of the copies"; :meth:`QuorumSpec.majority` implements
exactly that, which is what makes ``A_V(2k) == A_V(2k-1)`` (equation 1.b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Optional, Sequence, Tuple

from ..errors import QuorumSpecError
from ..types import SiteId

__all__ = [
    "QuorumSpec",
    "QuorumDecider",
    "CountDecider",
    "WeightDecider",
    "JointDecider",
    "TIE_BREAKER_WEIGHT",
]

#: Extra weight granted to site 0 of an even-sized equal-weight group.
#: Exactly representable in binary floating point, so threshold
#: comparisons stay exact.
TIE_BREAKER_WEIGHT = 0.5


@dataclass(frozen=True)
class QuorumSpec:
    """Weights and thresholds for one replica group.

    ``weights[i]`` is the weight of the group's i-th site.  An operation
    gathers the weights of the sites it reached; it may proceed only if
    the gathered weight is *strictly greater* than the corresponding
    threshold.
    """

    weights: Tuple[float, ...]
    read_quorum: float
    write_quorum: float

    #: Derived, cached at construction (not dataclass fields, so they do
    #: not participate in equality/hashing).  When every weight is
    #: exactly 1.0 the strict-greater float predicates collapse to
    #: integer compares: a set of ``n`` distinct unit-weight sites
    #: gathers weight ``float(n)``, and ``n > q`` holds iff
    #: ``n >= floor(q) + 1``.  The integer needs are ``None`` for
    #: genuinely weighted specs, which must stay on the float path.
    unit_weights: bool = field(init=False, repr=False, compare=False)
    read_count_need: Optional[int] = field(
        init=False, repr=False, compare=False
    )
    write_count_need: Optional[int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.weights:
            raise QuorumSpecError("a quorum spec needs at least one site")
        if any(w <= 0 for w in self.weights):
            raise QuorumSpecError(f"weights must be positive: {self.weights}")
        total = self.total_weight
        if self.read_quorum < 0 or self.write_quorum < 0:
            raise QuorumSpecError("quorum thresholds must be non-negative")
        if self.read_quorum + self.write_quorum < total:
            raise QuorumSpecError(
                "read_quorum + write_quorum must reach the total weight "
                f"({self.read_quorum} + {self.write_quorum} < {total})"
            )
        if 2 * self.write_quorum < total:
            raise QuorumSpecError(
                "2 * write_quorum must reach the total weight "
                f"(2 * {self.write_quorum} < {total})"
            )
        unit = all(w == 1.0 for w in self.weights)
        object.__setattr__(self, "unit_weights", unit)
        object.__setattr__(
            self,
            "read_count_need",
            math.floor(self.read_quorum) + 1 if unit else None,
        )
        object.__setattr__(
            self,
            "write_count_need",
            math.floor(self.write_quorum) + 1 if unit else None,
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def majority(cls, num_sites: int) -> "QuorumSpec":
        """Equal-weight majority quorums, tie-broken for even groups.

        Every site gets weight 1; for even ``num_sites`` site 0 receives
        :data:`TIE_BREAKER_WEIGHT` extra, resolving the draw condition in
        favour of the half that contains it.
        """
        if num_sites < 1:
            raise QuorumSpecError(f"need at least one site, got {num_sites}")
        weights = [1.0] * num_sites
        if num_sites % 2 == 0:
            weights[0] += TIE_BREAKER_WEIGHT
        total = sum(weights)
        half = total / 2.0
        return cls(
            weights=tuple(weights), read_quorum=half, write_quorum=half
        )

    @classmethod
    def weighted(
        cls,
        weights: Sequence[float],
        read_quorum: float,
        write_quorum: float,
    ) -> "QuorumSpec":
        """Arbitrary weighted quorums (Gifford-style)."""
        return cls(
            weights=tuple(float(w) for w in weights),
            read_quorum=float(read_quorum),
            write_quorum=float(write_quorum),
        )

    # -- queries -------------------------------------------------------------

    @property
    def num_sites(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return sum(self.weights)

    def weight_of(self, site_index: int) -> float:
        """Weight of the group's ``site_index``-th site."""
        return self.weights[site_index]

    def gathered_weight(self, site_indices: Iterable[int]) -> float:
        """Total weight of a set of sites (by group index).

        Duplicate indices are counted once: a caller that (through a
        bug or a replayed reply) lists the same site twice must not be
        able to fake a quorum by double-counting its weight.
        """
        return sum(self.weights[i] for i in set(site_indices))

    def gathered_count(self, site_indices: Iterable[int]) -> int:
        """Distinct-site count with ``gathered_weight``'s exact contract.

        The integer companion to :meth:`gathered_weight` for unit-weight
        specs: duplicates are deduplicated the same way and an
        out-of-range index raises the same :class:`IndexError`, so for
        ``unit_weights`` specs ``float(gathered_count(s)) ==
        gathered_weight(s)`` holds for every input.
        """
        distinct = set(site_indices)
        for index in distinct:
            _ = self.weights[index]  # same IndexError as gathered_weight
        return len(distinct)

    def meets_read(self, gathered: float) -> bool:
        """Whether ``gathered`` weight forms a read quorum."""
        return gathered > self.read_quorum

    def meets_write(self, gathered: float) -> bool:
        """Whether ``gathered`` weight forms a write quorum."""
        return gathered > self.write_quorum

    def read_available(self, up_indices: Iterable[int]) -> bool:
        """Whether the up sites can form a read quorum."""
        return self.meets_read(self.gathered_weight(up_indices))

    def write_available(self, up_indices: Iterable[int]) -> bool:
        """Whether the up sites can form a write quorum."""
        return self.meets_write(self.gathered_weight(up_indices))


#: ``(gathered, required)`` -- the arguments of
#: :class:`~repro.errors.QuorumNotReachedError`.
Shortfall = Tuple[float, float]


class QuorumDecider:
    """The quorum test of one configuration, compiled once.

    A voting group's membership and thresholds change only at
    construction and at the membership transitions, so the protocol
    compiles the test there and every operation asks the same three
    questions of it.  ``voters`` is a collection of site ids -- in
    practice the ``ids[:count]`` slice of a quorum round; ids outside
    the compiled membership (a joiner adopted ahead of the view commit)
    carry no voice and a repeated id counts once.  A shortfall is the
    ``(gathered, required)`` pair of the threshold that was missed,
    None when the voters form a quorum.

    Subclasses store their read and write thresholds in ``_read`` /
    ``_write`` and implement ``_shortfall(voters, threshold)``.
    """

    __slots__ = ("_read", "_write")

    def read_shortfall(
        self, voters: Collection[SiteId]
    ) -> Optional[Shortfall]:
        return self._shortfall(voters, self._read)

    def write_shortfall(
        self, voters: Collection[SiteId]
    ) -> Optional[Shortfall]:
        return self._shortfall(voters, self._write)

    def read_available(self, up: Collection[SiteId]) -> bool:
        """Whether the ``up`` sites can form a read quorum."""
        return self._shortfall(up, self._read) is None

    def _shortfall(
        self, voters: Collection[SiteId], threshold: Any
    ) -> Optional[Shortfall]:
        raise NotImplementedError

    @staticmethod
    def for_spec(
        sites: Sequence[SiteId], spec: QuorumSpec
    ) -> "QuorumDecider":
        """The decider of ``spec`` with ``sites[i]`` carrying
        ``spec.weights[i]``: a count compare when every weight is 1
        (``n > q`` iff ``n >= floor(q) + 1``), a weight sum otherwise
        (including the even-group tie-breaker weight)."""
        if spec.unit_weights:
            return CountDecider(
                sites,
                (spec.read_count_need, spec.read_quorum),
                (spec.write_count_need, spec.write_quorum),
            )
        return WeightDecider(sites, spec)


class CountDecider(QuorumDecider):
    """``need`` distinct members must be among the voters.

    Each threshold is a ``(need, required)`` pair: the integer compared
    against and the float reported on a shortfall.  An (RF, R, W)
    policy compiles to ``(R, float(R))`` / ``(W, float(W))``, a
    unit-weight spec to ``(floor(q) + 1, q)``.
    """

    __slots__ = ("_members",)

    def __init__(
        self,
        members: Iterable[SiteId],
        read: Tuple[int, float],
        write: Tuple[int, float],
    ) -> None:
        self._members = frozenset(members)
        self._read = read
        self._write = write

    def _shortfall(self, voters, threshold):
        gathered = len(self._members.intersection(voters))
        if gathered < threshold[0]:
            return float(gathered), threshold[1]
        return None


class WeightDecider(QuorumDecider):
    """The gathered weight must strictly exceed the spec's threshold."""

    __slots__ = ("_votes",)

    def __init__(self, sites: Sequence[SiteId], spec: QuorumSpec) -> None:
        #: (site, weight) in member order, so weights are summed in the
        #: order ``QuorumSpec.gathered_weight`` sums them.
        self._votes = tuple(zip(sites, spec.weights))
        self._read = spec.read_quorum
        self._write = spec.write_quorum

    def _shortfall(self, voters, threshold):
        heard = set(voters)
        gathered = sum(w for s, w in self._votes if s in heard)
        return None if gathered > threshold else (gathered, threshold)


class JointDecider(QuorumDecider):
    """Both views of a transition window must be satisfied.

    The voters must form a quorum under the old AND the new view, so
    an operation intersects the write quorum of the latest write no
    matter which side of the epoch boundary that write landed on.  The
    shortfall reported is that of the first view missed.
    """

    __slots__ = ("_old", "_new")

    def __init__(self, old: QuorumDecider, new: QuorumDecider) -> None:
        self._old = old
        self._new = new
        self._read = (old._read, new._read)
        self._write = (old._write, new._write)

    def _shortfall(self, voters, threshold):
        return (self._old._shortfall(voters, threshold[0])
                or self._new._shortfall(voters, threshold[1]))
