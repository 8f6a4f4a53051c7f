"""Reliability analysis: mean time to failure and survival curves.

The paper's introduction motivates replication with both *availability*
(the steady-state fraction of time the block is accessible -- Section 4)
and *reliability* (the probability the block stays continuously
accessible over a mission time).  The paper quantifies only the former;
this module completes the picture from the same Markov models:

* :func:`mean_time_to_failure` -- expected time until the replica group
  first becomes unavailable, starting from all copies up, computed by
  making the unavailable states absorbing and solving the fundamental
  linear system ``(-Q_AA) m = 1``;
* :func:`survival_probability` -- ``R(t) = P[no unavailability in
  [0, t]]`` via the matrix exponential of the absorbing generator;
* :func:`mean_outage_duration` -- expected length of one unavailability
  episode, from the renewal identity ``A = MTTF / (MTTF + MTTD)``.

A pleasant corollary (pinned by tests): the tracked and naive
available-copy schemes have **identical MTTF** -- they differ only in how
fast they *return* from a total failure, which is invisible before the
first one happens.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Hashable

import numpy as np

from ..errors import AnalysisError
from ..types import SchemeName
from .availability import scheme_availability
from .chains import (
    available_copy_chain,
    is_available_state,
    is_voting_available,
    naive_available_copy_chain,
    voting_chain,
)
from .markov import MarkovChain

__all__ = [
    "mean_time_to_failure",
    "survival_probability",
    "mean_outage_duration",
    "scheme_mttf",
    "scheme_survival",
    "scheme_mean_outage",
]

State = Hashable


def _partition(
    chain: MarkovChain, is_up: Callable[[State], bool], start: State
):
    """Index the up states and validate the start state."""
    up_states = [s for s in chain.states if is_up(s)]
    if not up_states:
        raise AnalysisError("no state satisfies the availability predicate")
    if start not in up_states:
        raise AnalysisError(f"start state {start!r} is not an up state")
    index = {s: i for i, s in enumerate(up_states)}
    q = chain.generator_matrix()
    full_index = {s: i for i, s in enumerate(chain.states)}
    rows = [full_index[s] for s in up_states]
    q_uu = q[np.ix_(rows, rows)]
    return up_states, index, q_uu


def mean_time_to_failure(
    chain: MarkovChain, is_up: Callable[[State], bool], start: State
) -> float:
    """Expected time to first leave the up states, from ``start``.

    Solves ``(-Q_UU) m = 1`` where ``Q_UU`` is the generator restricted
    to the up states (the standard absorbing-chain fundamental system).
    """
    _states, index, q_uu = _partition(chain, is_up, start)
    ones = np.ones(q_uu.shape[0])
    try:
        m = np.linalg.solve(-q_uu, ones)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(f"no escape from the up states: {exc}") from exc
    return float(m[index[start]])


def survival_probability(
    chain: MarkovChain,
    is_up: Callable[[State], bool],
    start: State,
    t: float,
) -> float:
    """``R(t)``: probability of staying in the up states through ``[0, t]``."""
    if t < 0:
        raise AnalysisError(f"time must be non-negative, got {t}")
    _states, index, q_uu = _partition(chain, is_up, start)
    from scipy import linalg  # imported on use, like repro.sim.stats

    transient = linalg.expm(q_uu * t)
    row = transient[index[start], :]
    return float(min(1.0, max(0.0, row.sum())))


def mean_outage_duration(
    chain: MarkovChain,
    is_up: Callable[[State], bool],
    start: State,
    availability: float,
) -> float:
    """Expected length of one unavailability episode.

    From the renewal-reward identity ``A = E[up] / (E[up] + E[down])``
    applied to the alternating up/down episodes, with ``E[up]`` taken as
    the MTTF from ``start`` (exact when, as in these chains, every
    repair returns the system to the same up-entry behaviour).
    """
    if not 0 < availability <= 1:
        raise AnalysisError(
            f"availability must be in (0, 1], got {availability}"
        )
    mttf = mean_time_to_failure(chain, is_up, start)
    if availability >= 1.0:
        # Validated to (0, 1] above; at the boundary there are no
        # outages at all (>= rather than == keeps the branch robust to
        # values that round to 1 from below).
        return 0.0
    return mttf * (1.0 - availability) / availability


# ---------------------------------------------------------------------------
# Scheme-level dispatch (all copies up at t = 0, mu = 1)
# ---------------------------------------------------------------------------


def _chain_and_start(scheme: SchemeName, n: int, rho: float):
    if scheme is SchemeName.VOTING:
        return voting_chain(n, rho), is_voting_available(n), ("V", 1, n - 1)
    if scheme is SchemeName.AVAILABLE_COPY:
        return available_copy_chain(n, rho), is_available_state, ("S", n)
    if scheme is SchemeName.NAIVE_AVAILABLE_COPY:
        return (
            naive_available_copy_chain(n, rho),
            is_available_state,
            ("S", n),
        )
    raise AnalysisError(f"unknown scheme {scheme!r}")


@lru_cache(maxsize=None)
def scheme_mttf(scheme: SchemeName, n: int, rho: float) -> float:
    """Mean time to first unavailability, all copies up at t = 0.

    Time unit: mean site repair times (mu = 1), so lambda = rho.
    Cached: survival/MTTF grids revisit the same (scheme, n, rho)
    points once per mission time.
    """
    if rho <= 0:
        raise AnalysisError("rho must be positive for a finite MTTF")
    chain, is_up, start = _chain_and_start(scheme, n, rho)
    return mean_time_to_failure(chain, is_up, start)


@lru_cache(maxsize=None)
def scheme_survival(
    scheme: SchemeName, n: int, rho: float, t: float
) -> float:
    """``R(t)`` for a replica group starting with all copies up.

    Cached: each call costs a matrix exponential, and survival-curve
    grids re-request the same (scheme, n, rho, t) cells.
    """
    if rho <= 0:
        raise AnalysisError("rho must be positive")
    chain, is_up, start = _chain_and_start(scheme, n, rho)
    return survival_probability(chain, is_up, start, t)


@lru_cache(maxsize=None)
def scheme_mean_outage(scheme: SchemeName, n: int, rho: float) -> float:
    """Expected duration of one unavailability episode.  Cached."""
    chain, is_up, start = _chain_and_start(scheme, n, rho)
    availability = scheme_availability(scheme, n, rho)
    return mean_outage_duration(chain, is_up, start, availability)
