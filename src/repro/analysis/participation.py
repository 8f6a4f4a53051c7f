"""Average participation counts (Section 5).

"The number of messages generated by a given operation often depends on
the average number of sites participating in the operation" -- the number
of *operational* sites for voting, the number of *available* sites for
the available-copy schemes, in both cases conditioned on the local site
itself participating:

    U = sum(i * p_i, i=1..n) / sum(p_i, i=1..n)

The paper gives the voting case in closed form,

    U_V^n = n (1+rho)^(n-1) / ((1+rho)^n - rho^n),

notes ``U_V^n = n (1 - rho) + O(rho^2)``, and observes that ``U_A`` and
``U_N`` agree with ``U_V`` to within ``O(rho^2)``.  Here all three are
computed exactly -- the available-copy participations from their chains'
stationary distributions -- and the asymptotic agreement is a test.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import AnalysisError
from .chains import (
    available_copies,
    available_copy_chain,
    is_available_state,
    naive_available_copy_chain,
    operational_copies,
    voting_chain,
)

__all__ = [
    "voting_participation",
    "available_copy_participation",
    "naive_participation",
    "participation_asymptote",
]


def _check(n: int, rho: float) -> None:
    if n < 1:
        raise AnalysisError(f"need at least one copy, got n={n}")
    if rho < 0:
        raise AnalysisError(f"rho must be non-negative, got {rho}")


def voting_participation(n: int, rho: float) -> float:
    """``U_V^n``: mean operational sites given at least one is up."""
    _check(n, rho)
    numerator = n * (1.0 + rho) ** (n - 1)
    denominator = (1.0 + rho) ** n - rho**n
    return numerator / denominator


@lru_cache(maxsize=None)
def voting_participation_from_chain(n: int, rho: float) -> float:
    """``U_V^n`` computed from the voting chain (cross-check)."""
    _check(n, rho)
    chain = voting_chain(n, rho)
    return chain.expected_value(
        operational_copies, condition=lambda s: operational_copies(s) >= 1
    )


@lru_cache(maxsize=None)
def available_copy_participation(n: int, rho: float) -> float:
    """``U_A^n``: mean available copies given the block is available."""
    _check(n, rho)
    if rho == 0:
        return float(n)
    chain = available_copy_chain(n, rho)
    return chain.expected_value(available_copies, condition=is_available_state)


@lru_cache(maxsize=None)
def naive_participation(n: int, rho: float) -> float:
    """``U_N^n``: mean available copies under the naive scheme."""
    _check(n, rho)
    if rho == 0:
        return float(n)
    chain = naive_available_copy_chain(n, rho)
    return chain.expected_value(available_copies, condition=is_available_state)


def participation_asymptote(n: int, rho: float) -> float:
    """The paper's small-rho approximation ``n (1 - rho)``."""
    _check(n, rho)
    return n * (1.0 - rho)
