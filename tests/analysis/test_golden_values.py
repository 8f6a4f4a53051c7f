"""Golden values: literal expected numbers for the analytic layer.

These constants were computed by this implementation and cross-checked
against the paper's closed forms (and, where applicable, independent
hand derivations recorded in the test comments).  They pin the analytic
layer against accidental regressions -- any change to these numbers is
a correctness event, not noise.
"""

import pytest

from repro.analysis import (
    access_cost,
    available_copy_availability,
    available_copy_participation,
    naive_availability,
    scheme_mean_outage,
    scheme_mttf,
    serial_availability,
    voting_availability,
    voting_participation,
    witness_voting_availability,
)
from repro.types import AddressingMode, SchemeName

ABS = 1e-9


class TestAvailabilityGoldens:
    def test_voting(self):
        # A_V(3) = (1+3p)/(1+p)^3 at p=0.05: 1.15/1.157625
        assert voting_availability(3, 0.05) == pytest.approx(
            0.9934132383111975, abs=ABS
        )
        assert voting_availability(5, 0.1) == pytest.approx(
            0.993474116894648, abs=ABS
        )
        # the rho=0.20 endpoint recorded for Figure 9 in EXPERIMENTS.md
        assert voting_availability(6, 0.2) == pytest.approx(
            0.9645061728395065, abs=ABS
        )

    def test_available_copy(self):
        # equation (2) at p=0.1: (1+0.3+0.01)/1.331
        assert available_copy_availability(2, 0.1) == pytest.approx(
            1.31 / 1.331, abs=ABS
        )
        assert available_copy_availability(3, 0.05) == pytest.approx(
            0.9996815726253675, abs=ABS
        )
        assert available_copy_availability(4, 0.2) == pytest.approx(
            0.9970786330638151, abs=ABS
        )

    def test_naive(self):
        # A_NA(2) = A_V(3) identity gives the p=0.05 value above
        assert naive_availability(2, 0.05) == pytest.approx(
            0.9934132383111975, abs=ABS
        )
        assert naive_availability(3, 0.1) == pytest.approx(
            0.9958465049686007, abs=1e-6
        )

    def test_witnesses(self):
        # 2 copies + 1 witness == 3 copies (identity)
        assert witness_voting_availability(2, 1, 0.1) == pytest.approx(
            voting_availability(3, 0.1), abs=ABS
        )

    def test_serial(self):
        assert serial_availability("nac", 3, 0.3) == pytest.approx(
            0.8283648752518853, abs=1e-6
        )


class TestParticipationGoldens:
    def test_voting_closed_form(self):
        # U_V^2 at p=0.1: 2*1.1/(1.21-0.01) = 2.2/1.2
        assert voting_participation(2, 0.1) == pytest.approx(
            2.2 / 1.2, abs=ABS
        )
        assert voting_participation(5, 0.05) == pytest.approx(
            4.761905927866605, abs=1e-6
        )

    def test_available_copy(self):
        assert available_copy_participation(4, 0.05) == pytest.approx(
            3.809571450520279, abs=1e-6
        )


class TestTrafficGoldens:
    def test_figure11_n4_row(self):
        # the row recorded in EXPERIMENTS.md
        assert access_cost(SchemeName.VOTING, 4, 0.05, 1.0) == \
            pytest.approx(8.619, abs=1e-3)
        assert access_cost(SchemeName.VOTING, 4, 0.05, 2.0) == \
            pytest.approx(12.429, abs=1e-3)
        assert access_cost(SchemeName.VOTING, 4, 0.05, 4.0) == \
            pytest.approx(20.048, abs=1e-3)
        assert access_cost(
            SchemeName.AVAILABLE_COPY, 4, 0.05, 9.9
        ) == pytest.approx(3.810, abs=1e-3)
        assert access_cost(
            SchemeName.NAIVE_AVAILABLE_COPY, 4, 0.05, 9.9
        ) == 1.0

    def test_unique_addressing(self):
        assert access_cost(
            SchemeName.NAIVE_AVAILABLE_COPY, 6, 0.05, 3.0,
            mode=AddressingMode.UNIQUE,
        ) == 5.0


class TestReliabilityGoldens:
    def test_mttf(self):
        # two-unit parallel system: (3*lam + mu)/(2 lam^2), lam=0.2
        assert scheme_mttf(
            SchemeName.AVAILABLE_COPY, 2, 0.2
        ) == pytest.approx(20.0, abs=1e-9)
        assert scheme_mttf(SchemeName.VOTING, 3, 0.2) == pytest.approx(
            25.0 / 3.0, abs=1e-9
        )
        assert scheme_mttf(
            SchemeName.NAIVE_AVAILABLE_COPY, 3, 0.2
        ) == pytest.approx(80.0, abs=1e-9)

    def test_outages(self):
        # voting outage at n=3: a lost quorum is one repair away
        assert scheme_mean_outage(
            SchemeName.VOTING, 3, 0.2
        ) == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert scheme_mean_outage(
            SchemeName.NAIVE_AVAILABLE_COPY, 3, 0.2
        ) == pytest.approx(2.0799999999999, abs=1e-3)
