"""Closed-form availability expressions from Section 4.

All formulas are parameterised by ``rho = lambda / mu``, the
failure-to-repair rate ratio, and by ``n``, the number of copies.

* :func:`voting_availability` -- equations (1.a) and (1.b): the block is
  available while a (tie-broken) majority of copies is up.
* :func:`available_copy_availability` -- Section 4.2: the closed forms
  (2)-(4) for ``n = 2..4``; larger groups are solved exactly from the
  Figure 7 chain.
* :func:`naive_availability` -- Section 4.3's ``B(n; rho)`` formula.
* :func:`site_availability` -- a single copy, ``1 / (1 + rho)``.

Two paper identities fall out of these and are pinned by tests:
``A_V(2k) == A_V(2k-1)`` and ``A_NA(2) == A_V(3)``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from ..errors import AnalysisError
from ..types import SchemeName
from .chains import (
    available_copy_chain,
    is_available_state,
    naive_available_copy_chain,
)

__all__ = [
    "site_availability",
    "voting_availability",
    "available_copy_availability",
    "available_copy_closed_form",
    "naive_availability",
    "naive_b_polynomial",
    "scheme_availability",
]


def _check(n: int, rho: float) -> None:
    if n < 1:
        raise AnalysisError(f"need at least one copy, got n={n}")
    if rho < 0:
        raise AnalysisError(f"rho must be non-negative, got {rho}")


def site_availability(rho: float) -> float:
    """Steady-state availability of a single site, ``1/(1+rho)``."""
    _check(1, rho)
    return 1.0 / (1.0 + rho)


# ---------------------------------------------------------------------------
# Majority consensus voting: equations (1.a) / (1.b)
# ---------------------------------------------------------------------------


def voting_availability(n: int, rho: float) -> float:
    """Availability of ``n`` equal copies under majority voting.

    ``P[k copies up] = C(n, k) * rho^(n-k) / (1+rho)^n``; the block is
    available when more than half the copies are up, and -- for even
    ``n`` -- in half of the exact-tie configurations (the half containing
    the copy that carries the tie-breaking extra weight).
    """
    _check(n, rho)
    denominator = (1.0 + rho) ** n
    total = sum(
        comb(n, k) * rho ** (n - k) for k in range(n // 2 + 1, n + 1)
    )
    if n % 2 == 0:
        total += comb(n, n // 2) * rho ** (n // 2) / 2.0
    return total / denominator


# ---------------------------------------------------------------------------
# Available copy: equations (2), (3), (4) and the Figure 7 chain
# ---------------------------------------------------------------------------


def available_copy_closed_form(n: int, rho: float) -> float:
    """The paper's explicit rational functions for ``n = 2, 3, 4``."""
    _check(n, rho)
    p = rho
    if n == 1:
        return site_availability(rho)
    if n == 2:
        return (1 + 3 * p + p**2) / (1 + p) ** 3
    if n == 3:
        return (2 + 9 * p + 17 * p**2 + 11 * p**3 + 2 * p**4) / (
            (1 + p) ** 3 * (2 + 3 * p + 2 * p**2)
        )
    if n == 4:
        numerator = (
            6
            + 37 * p
            + 99 * p**2
            + 152 * p**3
            + 124 * p**4
            + 47 * p**5
            + 6 * p**6
        )
        return numerator / ((1 + p) ** 4 * (6 + 13 * p + 11 * p**2 + 6 * p**3))
    raise AnalysisError(
        f"the paper gives closed forms only for n <= 4 (got n={n}); "
        "use available_copy_availability, which solves the chain"
    )


@lru_cache(maxsize=None)
def available_copy_availability(n: int, rho: float) -> float:
    """Availability under the (tracked) available-copy scheme.

    Exact for every ``n``: solves Figure 7's chain.  Coincides with the
    closed forms (2)-(4) for ``n = 2..4`` (verified by tests to machine
    precision).
    """
    _check(n, rho)
    if rho == 0:
        return 1.0
    chain = available_copy_chain(n, rho)
    return chain.probability_of(is_available_state)


# ---------------------------------------------------------------------------
# Naive available copy: Section 4.3
# ---------------------------------------------------------------------------


def naive_b_polynomial(n: int, rho: float) -> float:
    """The paper's ``B(n; rho)`` double sum."""
    _check(n, rho)
    total = 0.0
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            coefficient = (
                factorial(n - j)
                * factorial(j - 1)
                / (factorial(n - k) * factorial(k))
            )
            total += coefficient * rho ** (j - k)
    return total


def naive_availability(n: int, rho: float) -> float:
    """Availability under naive available copy.

    ``A_NA(n) = B(n; rho) / (B(n; rho) + rho * B(n; 1/rho))``.  At
    ``rho = 0`` the copies never fail and availability is 1.
    """
    _check(n, rho)
    if rho == 0:
        return 1.0
    b = naive_b_polynomial(n, rho)
    b_inverse = naive_b_polynomial(n, 1.0 / rho)
    return b / (b + rho * b_inverse)


@lru_cache(maxsize=None)
def naive_availability_from_chain(n: int, rho: float) -> float:
    """Availability from Figure 8's chain (cross-check of the formula)."""
    _check(n, rho)
    if rho == 0:
        return 1.0
    chain = naive_available_copy_chain(n, rho)
    return chain.probability_of(is_available_state)


# ---------------------------------------------------------------------------
# Scheme level: the record's availability
# ---------------------------------------------------------------------------


def scheme_availability(scheme: SchemeName, n: int, rho: float) -> float:
    """Availability of ``n`` copies under any of the three schemes."""
    # repro.schemes imports this module, so the record is looked up at
    # call time.
    from ..schemes import SCHEMES

    return SCHEMES[scheme].availability(n, rho)
