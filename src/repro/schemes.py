"""The paper's three schemes, each declared once.

A scheme is a protocol (Figures 3-6), an availability chain (Section 4,
Figures 7-10) and a message cost (Section 5).  :data:`SCHEMES` holds one
frozen :class:`Scheme` record per :class:`~repro.types.SchemeName`, and
every layer that used to branch on the name reads the record instead:
the cluster, chaos and the studies build their groups through
:func:`build_group`, the membership manager picks its catch-up from
:attr:`Scheme.sweep`, and the analysis layer takes the availability,
participation, Markov chain and message script from here.

Comparing a :class:`SchemeName` member outside this module is what lint
rule RL010 reports.

>>> from repro.net.network import Network
>>> protocol = build_group(SchemeName.VOTING, 4, 8, 16, Network())
>>> [s.weight for s in protocol.sites] == list(
...     SCHEMES[SchemeName.VOTING].spec(4).weights)
True
>>> SCHEMES[SchemeName.AVAILABLE_COPY].participation(3, 0.0)
3.0
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Tuple, Type

from .analysis import availability, chains, participation
from .analysis.markov import MarkovChain, State
from .analysis.traffic import Script, available_copy_script, voting_script
from .core.available_copy import AvailableCopyProtocol
from .core.naive import NaiveAvailableCopyProtocol
from .core.policy import QuorumPolicy
from .core.protocol import ReplicationProtocol
from .core.quorum import QuorumSpec
from .core.voting import VotingProtocol
from .device.site import Site
from .net.network import Network
from .types import AddressingMode, SchemeName

__all__ = ["Scheme", "SCHEMES", "scheme_record", "build_group"]

#: A scheme's Markov model: the chain, its up-predicate and the state
#: with every copy up.
Markov = Tuple[MarkovChain, Callable[[State], bool], State]


@dataclass(frozen=True)
class Scheme:
    """Everything the reproduction knows about one scheme."""

    name: SchemeName
    protocol: Type[ReplicationProtocol]
    #: The constructor keywords the protocol takes after its sites and
    #: network; :func:`build_group` passes it these and no others.
    options: Tuple[str, ...]
    #: Site weights of an n-site group: a majority quorum spec, or None
    #: for unit weights.  Only a scheme that votes may have vote-only
    #: witness sites stand in for data copies.
    spec: Optional[Callable[[int], QuorumSpec]]
    #: Section 4's availability A(n, rho).
    availability: Callable[[int, float], float]
    #: Section 5's mean participation U(n, rho).
    participation: Callable[[int, float], float]
    #: Figures 7-10's chain for (n, rho), its up-predicate and the
    #: all-copies-up start state.
    markov: Callable[[int, float], Markov]
    #: What a failure-free operation sends: ``script(op, n, mode,
    #: stale, vector)``.
    script: Callable[[str, int, AddressingMode, float, float], Script]
    #: Membership catch-up.  True: a coordinator sweeps the block space
    #: until synced members carry a new-view write quorum.  False: the
    #: joiner waits COMATOSE while state transfer drains its staleness.
    sweep: bool

    def sites(
        self, num_sites: int, num_blocks: int, block_size: int,
        witnesses: int = 0,
    ) -> Tuple[List[Site], Optional[QuorumSpec]]:
        """The group's sites (the last ``witnesses`` vote-only) and its
        quorum spec, None for a scheme without one."""
        if witnesses and self.spec is None:
            raise ValueError(f"{self.name.value} has no witness sites")
        spec = self.spec(num_sites) if self.spec is not None else None
        weights = spec.weights if spec is not None else (1.0,) * num_sites
        sites = [
            Site(i, num_blocks, block_size, weight=weights[i],
                 is_witness=i >= num_sites - witnesses)
            for i in range(num_sites)
        ]
        return sites, spec


def _voting_markov(n: int, rho: float) -> Markov:
    chain = chains.voting_chain(n, rho)
    return chain, chains.is_voting_available(n), ("V", 1, n - 1)


def _available_copy_markov(n: int, rho: float) -> Markov:
    chain = chains.available_copy_chain(n, rho)
    return chain, chains.is_available_state, ("S", n)


def _naive_markov(n: int, rho: float) -> Markov:
    chain = chains.naive_available_copy_chain(n, rho)
    return chain, chains.is_available_state, ("S", n)


SCHEMES: Mapping[SchemeName, Scheme] = MappingProxyType({
    SchemeName.VOTING: Scheme(
        name=SchemeName.VOTING,
        protocol=VotingProtocol,
        options=("spec", "eager_repair", "policy"),
        spec=QuorumSpec.majority,
        availability=availability.voting_availability,
        participation=participation.voting_participation,
        markov=_voting_markov,
        script=voting_script,
        sweep=True,
    ),
    SchemeName.AVAILABLE_COPY: Scheme(
        name=SchemeName.AVAILABLE_COPY,
        protocol=AvailableCopyProtocol,
        options=("track_failures", "policy"),
        spec=None,
        availability=availability.available_copy_availability,
        participation=participation.available_copy_participation,
        markov=_available_copy_markov,
        script=available_copy_script,
        sweep=False,
    ),
    SchemeName.NAIVE_AVAILABLE_COPY: Scheme(
        name=SchemeName.NAIVE_AVAILABLE_COPY,
        protocol=NaiveAvailableCopyProtocol,
        options=("policy",),
        spec=None,
        availability=availability.naive_availability,
        participation=participation.naive_participation,
        markov=_naive_markov,
        script=partial(available_copy_script, acked=False),
        sweep=False,
    ),
})


def scheme_record(name: SchemeName) -> Scheme:
    """``SCHEMES[name]``; ValueError for anything that is not a scheme."""
    record = SCHEMES.get(name)
    if record is None:
        raise ValueError(f"unknown scheme {name!r}")
    return record


def build_group(
    scheme: SchemeName, num_sites: int, num_blocks: int, block_size: int,
    network: Network, *, witnesses: int = 0,
    policy: Optional[QuorumPolicy] = None, track_failures: bool = True,
    eager_repair: bool = False,
) -> ReplicationProtocol:
    """A ``num_sites`` group of ``scheme`` on ``network``.

    The protocol is given only the keywords it takes: ``policy`` reaches
    every scheme, ``eager_repair`` only voting and ``track_failures``
    only available copy.
    """
    record = scheme_record(scheme)
    sites, spec = record.sites(num_sites, num_blocks, block_size, witnesses)
    given = dict(spec=spec, policy=policy, track_failures=track_failures,
                 eager_repair=eager_repair)
    return record.protocol(
        sites, network, **{key: given[key] for key in record.options}
    )
