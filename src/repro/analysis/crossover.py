"""The Section 5.1 crossover claim, made quantitative.

Voting pays for every *access* (quorum rounds on reads and writes) but
nothing on recovery; the available-copy schemes read for free but pay
``U + 2`` transmissions per site recovery.  So the comparison between
them depends on how frequent site failures are relative to disk
accesses.  The paper:

    "it is interesting to note that site failures would have to be more
    frequent than disk accesses in order for the voting schemes to
    begin to compare favorably to the available copy schemes."

Let ``phi`` be the expected number of site recoveries per device access
(an access being one read or one write).  Long-run transmissions per
access:

* voting:     ``(w_V + x r_V) / (1 + x)``
* avail copy: ``(w_A + x * 0) / (1 + x) + phi * (U_A + 2)``

:func:`crossover_failures_per_access` solves for the ``phi`` at which
they break even; the paper's claim is ``phi* > 1`` for realistic
parameters, which the tests sweep.
"""

from __future__ import annotations

from ..errors import AnalysisError
from ..types import AddressingMode, SchemeName
from .traffic import traffic_model

__all__ = [
    "traffic_rate_per_access",
    "crossover_failures_per_access",
]


def traffic_rate_per_access(
    scheme: SchemeName,
    n: int,
    rho: float,
    reads_per_write: float,
    failures_per_access: float,
    mode: AddressingMode = AddressingMode.MULTICAST,
) -> float:
    """Expected transmissions per device access, recovery included.

    ``failures_per_access`` is ``phi``: expected site recoveries per
    read-or-write access.
    """
    if reads_per_write < 0:
        raise AnalysisError(
            f"reads_per_write must be >= 0, got {reads_per_write}"
        )
    if failures_per_access < 0:
        raise AnalysisError(
            f"failures_per_access must be >= 0, got {failures_per_access}"
        )
    model = traffic_model(scheme, n, rho, mode=mode)
    x = reads_per_write
    access_cost = (model.write + x * model.read) / (1.0 + x)
    return access_cost + failures_per_access * model.recovery


def crossover_failures_per_access(
    n: int,
    rho: float,
    reads_per_write: float,
    against: SchemeName = SchemeName.AVAILABLE_COPY,
    mode: AddressingMode = AddressingMode.MULTICAST,
) -> float:
    """The ``phi`` at which voting's traffic equals an AC scheme's.

    Returns ``inf`` if voting never catches up (its per-access cost is
    below the AC scheme's, which cannot happen for these models) --
    callers can rely on a finite positive answer.
    """
    # repro.schemes imports this package, so the record is looked up at
    # call time.
    from ..schemes import SCHEMES

    if SCHEMES[against].spec is not None:
        raise AnalysisError("compare voting against an available-copy scheme")
    voting = traffic_model(SchemeName.VOTING, n, rho, mode=mode)
    other = traffic_model(against, n, rho, mode=mode)
    x = reads_per_write
    voting_access = (voting.write + x * voting.read) / (1.0 + x)
    other_access = (other.write + x * other.read) / (1.0 + x)
    if other.recovery == 0:
        raise AnalysisError(
            f"{against.value} has no recovery cost; no crossover exists"
        )
    gap = voting_access - other_access
    if gap <= 0:  # pragma: no cover - voting never cheaper per access
        return 0.0
    return gap / other.recovery
