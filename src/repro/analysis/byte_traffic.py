"""Byte-level traffic models (Section 5's message-size remark).

"While it is possible to instead focus on the sizes of the messages by
estimating the total number of actual blocks transferred by each scheme,
the differences are similar to the results obtained below, though
slightly less pronounced."

This module prices the Section 5 message scripts
(:func:`~repro.analysis.traffic.message_script`) in **bytes** with a
:class:`~repro.net.sizes.SizeModel`: the same list of sends the
transmission model counts, each multiplied by the size its category
declares.  The intuition for "less pronounced": the naive scheme's
single write message carries a whole data block, whereas many of
voting's extra messages are tiny votes -- so measured in bytes, voting's
multiplier over naive shrinks (but never inverts: the ordering claims
survive, which the tests pin).

For reference, the per-operation byte costs the scripts work out to
(multicast; ``h`` header, ``v`` vote payload, ``e`` version-vector
entry, ``B`` block, ``U`` participation):

===========  =====================================================
operation    bytes
===========  =====================================================
MCV write    ``(h+v) + (U-1)(h+v) + (h+e+B)``
MCV read     ``(h+v) + (U-1)(h+v)``  (+ ``h+e+B`` if stale)
AC write     ``(h+e+B) + (U-1) h``
NAC write    ``h+e+B``
AC/NAC read  0
===========  =====================================================

With unique addressing each broadcast is repeated per destination.
Recovery is workload-dependent (the version-vector reply carries one
block per stale entry); :func:`byte_traffic_model` exposes the expected
number of stale blocks as a parameter, defaulting to zero as the paper's
read/write comparison does.
"""

from __future__ import annotations

from typing import Optional

from ..net.sizes import SizeModel
from ..net.traffic import READ, RECOVERY, WRITE
from ..types import AddressingMode, SchemeName
from .participation import participation
from .traffic import OperationCosts, Script, check, message_script

__all__ = [
    "ByteCosts", "byte_traffic_model", "byte_access_cost", "script_bytes",
]


class ByteCosts(OperationCosts):
    """Expected bytes per operation for one scheme/network: the fields
    of :class:`~repro.analysis.traffic.OperationCosts`, in bytes."""


def script_bytes(
    script: Script,
    n: int,
    u: float,
    size_model: Optional[SizeModel] = None,
) -> float:
    """Bytes ``script`` sends: each send's count times its size, summed
    per round and then over the rounds."""
    sizes = size_model if size_model is not None else SizeModel()
    total = 0.0
    for sends in script:
        spent = 0.0
        for send in sends:
            size = sizes.expected_bytes(send.category, send.entries)
            spent += send.count.at(n, u) * size
        total += spent
    return total


def byte_traffic_model(
    scheme: SchemeName,
    n: int,
    rho: float,
    mode: AddressingMode = AddressingMode.MULTICAST,
    size_model: Optional[SizeModel] = None,
    stale_read_fraction: float = 0.0,
    expected_stale_blocks: float = 0.0,
    expected_vv_entries: float = 0.0,
) -> ByteCosts:
    """Expected per-operation bytes for a scheme.

    ``expected_stale_blocks`` / ``expected_vv_entries`` parameterise the
    recovery exchange (blocks modified while the site was down, entries
    in the version vectors); both default to zero, yielding the
    *minimum* recovery byte cost.
    """
    check(n, stale_read_fraction)
    u = participation(scheme, n, rho)

    def cost(op: str, stale: float) -> float:
        script = message_script(
            scheme, op, n, mode, stale, vector=expected_vv_entries
        )
        return script_bytes(script, n, u, size_model)

    return ByteCosts(
        scheme=scheme,
        mode=mode,
        num_sites=n,
        rho=rho,
        write=cost(WRITE, 0.0),
        read=cost(READ, stale_read_fraction),
        recovery=cost(RECOVERY, expected_stale_blocks),
    )


def byte_access_cost(
    scheme: SchemeName,
    n: int,
    rho: float,
    reads_per_write: float,
    mode: AddressingMode = AddressingMode.MULTICAST,
    size_model: Optional[SizeModel] = None,
) -> float:
    """Bytes for one write plus ``reads_per_write`` reads."""
    model = byte_traffic_model(scheme, n, rho, mode=mode,
                               size_model=size_model)
    return model.per_access_group(reads_per_write)
