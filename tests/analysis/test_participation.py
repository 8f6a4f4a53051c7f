"""Participation counts U_V, U_A, U_N (Section 5)."""

import pytest

from repro.analysis import (
    available_copy_participation,
    naive_participation,
    participation_asymptote,
    voting_participation,
    voting_participation_from_chain,
)
from repro.errors import AnalysisError
from repro.schemes import SCHEMES


def test_voting_closed_form_small_case():
    # n=2: U = 2(1+rho) / ((1+rho)^2 - rho^2) = 2(1+rho)/(1+2rho)
    rho = 0.1
    expected = 2 * 1.1 / (1.1**2 - 0.01)
    assert voting_participation(2, rho) == pytest.approx(expected)


def test_voting_closed_form_equals_chain():
    for n in (2, 3, 4, 5):
        for rho in (0.02, 0.1, 0.5):
            assert voting_participation(n, rho) == pytest.approx(
                voting_participation_from_chain(n, rho), abs=1e-10
            )


def test_perfect_sites_participate_fully():
    assert voting_participation(4, 0.0) == pytest.approx(4.0)
    assert available_copy_participation(4, 0.0) == 4.0
    assert naive_participation(4, 0.0) == 4.0


def test_all_three_agree_to_order_rho_squared():
    """Section 5: U_V, U_A, U_N agree within O(rho^2)."""
    n = 5
    for rho in (0.01, 0.02, 0.05):
        u_v = voting_participation(n, rho)
        u_a = available_copy_participation(n, rho)
        u_n = naive_participation(n, rho)
        bound = 10 * n * rho**2  # generous constant for the O(.)
        assert abs(u_v - u_a) < bound
        assert abs(u_v - u_n) < bound
        assert abs(u_a - u_n) < bound


def test_asymptote_n_times_one_minus_rho():
    n = 6
    for rho in (0.01, 0.02):
        approx = participation_asymptote(n, rho)
        assert voting_participation(n, rho) == pytest.approx(
            approx, abs=10 * n * rho**2
        )


def test_participation_bounded_by_n_and_positive():
    for record in SCHEMES.values():
        for n in (1, 2, 4):
            for rho in (0.05, 0.3, 1.0):
                u = record.participation(n, rho)
                assert 0.0 < u <= n


def test_participation_decreasing_in_rho():
    for record in SCHEMES.values():
        values = [record.participation(4, rho) for rho in (0.01, 0.1, 0.5)]
        assert values == sorted(values, reverse=True)


def test_bad_parameters_rejected():
    with pytest.raises(AnalysisError):
        voting_participation(0, 0.1)
    with pytest.raises(AnalysisError):
        naive_participation(3, -1.0)
