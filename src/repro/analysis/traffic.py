"""Network-traffic cost models (Section 5).

The unit is the *high-level transmission*.  For each scheme the model
gives the expected transmissions for a successful write, a read, and a
site recovery, on either network type.  With ``U`` the scheme's average
participation (:mod:`repro.analysis.participation`) and ``n`` the number
of sites, the paper's table reads:

===================  ======================  =========================
operation            multicast (S 5.1)        unique addressing (S 5.2)
===================  ======================  =========================
voting write         ``1 + U_V``             ``n + 2 U_V - 3``
voting read          ``U_V`` (+1 if stale)   ``n + U_V - 2`` (+1)
voting recovery      0                       0
avail.-copy write    ``U_A``                 ``n + U_A - 2``
avail.-copy read     0                       0
avail.-copy recov.   ``U_A + 2``             ``n + U_A``
naive write          1                       ``n - 1``
naive read           0                       0
naive recovery       ``U_N + 2``             ``n + U_N``
===================  ======================  =========================

The table is kept here for reference; the numbers come from one place,
:func:`message_script`, which lists what a failure-free operation sends:
its rounds, each a list of message categories with their expected
counts and the entries their payloads carry.  :func:`traffic_model` is
the script's transmission projection (the counts summed) and
:mod:`repro.analysis.byte_traffic` its byte projection (the counts
priced by a :class:`~repro.net.sizes.SizeModel`).  A count is a linear
form in ``n`` and ``U`` plus the expected stale sends (:class:`Count`), so a
script's counts add up to exactly the closed form above, evaluated term
by term as it is written.

:func:`access_cost` composes these into the quantity Figures 11 and 12
plot: the traffic generated by one write plus ``x`` reads (``x`` being
the workload's read-to-write ratio; the paper cites 2.5:1 as typical,
after Ousterhout et al. [9]).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, List, Mapping, NamedTuple, Type, TypeVar

from ..errors import AnalysisError
from ..net.message import MessageCategory as M
from ..net.traffic import READ, RECOVERY, WRITE
from ..types import AddressingMode, SchemeName

__all__ = [
    "OperationCosts",
    "traffic_model",
    "access_cost",
    "OUSTERHOUT_READ_WRITE_RATIO",
    "Count",
    "Send",
    "message_script",
    "voting_script",
    "available_copy_script",
    "script_transmissions",
]

#: Read-to-write ratio observed in the BSD trace study the paper cites.
OUSTERHOUT_READ_WRITE_RATIO = 2.5


class Count(NamedTuple):
    """Expected sends: ``sites * n + voters * U + fixed + stale``.

    ``stale`` is the expected number of sends made only when a copy is
    out of date (a read's stale fraction, so it need not be whole); the
    other coefficients are integers, so the counts of a script add up
    exactly, and the sum evaluates in the order Section 5's closed forms
    are written.
    """

    sites: int = 0
    voters: int = 0
    fixed: int = 0
    stale: float = 0

    def at(self, n: int, u: float) -> float:
        """The count for ``n`` sites and participation ``u``."""
        return self.sites * n + self.voters * u + self.fixed + self.stale


class Send(NamedTuple):
    """``count`` messages of ``category``; each message's per-entry
    payload fields hold ``entries[field name]`` entries."""

    category: M
    count: Count
    entries: Mapping[str, float] = MappingProxyType({})


#: What an operation sends: its rounds, each the list of its sends.
Script = List[List[Send]]

_ONCE = Count(fixed=1)
#: One reply from every other participant.
_REPLIES = Count(voters=1, fixed=-1)


def message_script(
    scheme: SchemeName,
    op: str,
    n: int,
    mode: AddressingMode = AddressingMode.MULTICAST,
    stale: float = 0.0,
    vector: float = 0.0,
) -> Script:
    """What a failure-free ``op`` (read, write or recovery) sends.

    ``stale`` is the expected number of stale blocks the operation
    ships: for a read, the chance that the local copy is out of date;
    for a recovery, the blocks modified while the site was down.  A
    recovery's two version vectors carry ``vector`` entries each, and
    every probe reply names all ``n`` sites in its was-available set.
    The script itself is the scheme record's
    (:attr:`repro.schemes.Scheme.script`).
    """
    # repro.schemes imports this module, so the record is looked up at
    # call time.
    from ..schemes import SCHEMES

    if op not in (READ, WRITE, RECOVERY):
        raise AnalysisError(f"unknown operation {op!r}")
    return SCHEMES[scheme].script(op, n, mode, stale, vector)


def _fanout(mode: AddressingMode) -> Count:
    """One send to every other site: a multicast, or ``n - 1`` unicasts."""
    if mode is AddressingMode.MULTICAST:
        return _ONCE
    return Count(sites=1, fixed=-1)


def voting_script(
    op: str, n: int, mode: AddressingMode, stale: float, vector: float
) -> Script:
    """Figures 3-4: collect votes; a stale read pulls one block, a write
    pushes the update to the voters.  Repair is lazy: it sends nothing."""
    votes = [Send(M.VOTE_REQUEST, _fanout(mode)), Send(M.VOTE_REPLY, _REPLIES)]
    if op == READ:
        return [votes, [Send(M.BLOCK_TRANSFER, Count(stale=stale))]]
    if op == WRITE:
        update = _ONCE if mode is AddressingMode.MULTICAST else _REPLIES
        return [votes, [Send(M.WRITE_UPDATE, update)]]
    return []


def available_copy_script(
    op: str, n: int, mode: AddressingMode, stale: float, vector: float,
    acked: bool = True,
) -> Script:
    """An available copy is current, so a read is local; a write goes to
    every available copy, acknowledged unless the scheme is naive; a
    recovery (Figures 5-6) probes for a repair source, then exchanges
    version vectors."""
    if op == READ:
        return []
    if op == WRITE:
        update = Send(M.WRITE_UPDATE, _fanout(mode))
        return [[update, Send(M.WRITE_ACK, _REPLIES)] if acked else [update]]
    return [
        [
            Send(M.RECOVERY_PROBE, _fanout(mode)),
            Send(M.RECOVERY_PROBE_REPLY, _REPLIES, {"was_available": n}),
        ],
        [
            Send(M.VERSION_VECTOR_REQUEST, _ONCE, {"vector": vector}),
            Send(M.VERSION_VECTOR_REPLY, _ONCE,
                 {"vector": vector, "blocks": stale}),
        ],
    ]


def script_transmissions(script: Script, n: int, u: float) -> float:
    """Messages ``script`` sends: its counts summed, then evaluated."""
    counts = (send.count for sends in script for send in sends)
    return Count(*map(sum, zip(*counts))).at(n, u)


def check(n: int, stale_read_fraction: float) -> None:
    """Reject a group without sites or a stale fraction outside [0, 1]."""
    if n < 1:
        raise AnalysisError(f"need at least one site, got n={n}")
    if not 0.0 <= stale_read_fraction <= 1.0:
        raise AnalysisError(
            f"stale_read_fraction must be in [0, 1], got {stale_read_fraction}"
        )


@dataclass(frozen=True)
class OperationCosts:
    """Expected transmissions per operation for one scheme/network."""

    scheme: SchemeName
    mode: AddressingMode
    num_sites: int
    rho: float
    write: float
    read: float
    recovery: float

    def per_access_group(self, reads_per_write: float) -> float:
        """Traffic for one write plus ``reads_per_write`` reads."""
        if reads_per_write < 0:
            raise AnalysisError(
                f"reads_per_write must be >= 0, got {reads_per_write}"
            )
        return self.write + reads_per_write * self.read


C = TypeVar("C", bound=OperationCosts)


def script_costs(
    costs: Type[C], scheme: SchemeName, n: int, rho: float,
    mode: AddressingMode, price: Callable[[Script, int, float], float],
    read_stale: float, recovery_stale: float = 0.0, vector: float = 0.0,
) -> C:
    """The scheme's read, write and recovery scripts, each priced by
    ``price(script, n, U)``: the one projection that both the
    transmission and the byte model are."""
    from ..schemes import SCHEMES  # see message_script

    check(n, read_stale)
    record = SCHEMES[scheme]
    u = record.participation(n, rho)

    def cost(op: str, stale: float) -> float:
        return price(record.script(op, n, mode, stale, vector), n, u)

    return costs(
        scheme=scheme, mode=mode, num_sites=n, rho=rho,
        write=cost(WRITE, 0.0),
        read=cost(READ, read_stale),
        recovery=cost(RECOVERY, recovery_stale),
    )


def traffic_model(
    scheme: SchemeName,
    n: int,
    rho: float,
    mode: AddressingMode = AddressingMode.MULTICAST,
    stale_read_fraction: float = 0.0,
) -> OperationCosts:
    """Expected per-operation transmissions for a scheme.

    ``stale_read_fraction`` is the probability a voting read finds its
    local copy out of date and needs the extra block transfer; the
    paper's figures use the lower bound (0).
    """
    return script_costs(
        OperationCosts, scheme, n, rho, mode, script_transmissions,
        stale_read_fraction,
    )


def access_cost(
    scheme: SchemeName,
    n: int,
    rho: float,
    reads_per_write: float,
    mode: AddressingMode = AddressingMode.MULTICAST,
) -> float:
    """Transmissions for one write plus ``reads_per_write`` reads.

    The dependent variable of Figures 11 (multicast) and 12 (unique
    addressing).
    """
    model = traffic_model(scheme, n, rho, mode=mode)
    return model.per_access_group(reads_per_write)
