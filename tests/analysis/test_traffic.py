"""Traffic cost models (Section 5)."""

import pytest

from repro.analysis import (
    OUSTERHOUT_READ_WRITE_RATIO,
    access_cost,
    participation,
    traffic_model,
)
from repro.analysis.traffic import Count, message_script
from repro.errors import AnalysisError
from repro.types import AddressingMode, SchemeName

N = 5
RHO = 0.05


def u(scheme):
    return participation(scheme, N, RHO)


class TestMulticastFormulas:
    def test_voting(self):
        model = traffic_model(SchemeName.VOTING, N, RHO)
        assert model.write == pytest.approx(1 + u(SchemeName.VOTING))
        assert model.read == pytest.approx(u(SchemeName.VOTING))
        assert model.recovery == 0.0

    def test_voting_stale_read_adds_a_transfer(self):
        base = traffic_model(SchemeName.VOTING, N, RHO)
        stale = traffic_model(
            SchemeName.VOTING, N, RHO, stale_read_fraction=1.0
        )
        assert stale.read == pytest.approx(base.read + 1.0)

    def test_available_copy(self):
        model = traffic_model(SchemeName.AVAILABLE_COPY, N, RHO)
        u_a = u(SchemeName.AVAILABLE_COPY)
        assert model.write == pytest.approx(u_a)
        assert model.read == 0.0
        assert model.recovery == pytest.approx(u_a + 2)

    def test_naive(self):
        model = traffic_model(SchemeName.NAIVE_AVAILABLE_COPY, N, RHO)
        assert model.write == 1.0
        assert model.read == 0.0
        assert model.recovery == pytest.approx(
            u(SchemeName.NAIVE_AVAILABLE_COPY) + 2
        )


class TestUniqueAddressingFormulas:
    def test_voting(self):
        model = traffic_model(
            SchemeName.VOTING, N, RHO, mode=AddressingMode.UNIQUE
        )
        u_v = u(SchemeName.VOTING)
        assert model.write == pytest.approx(N + 2 * u_v - 3)
        assert model.read == pytest.approx(N + u_v - 2)
        assert model.recovery == 0.0

    def test_available_copy(self):
        model = traffic_model(
            SchemeName.AVAILABLE_COPY, N, RHO, mode=AddressingMode.UNIQUE
        )
        u_a = u(SchemeName.AVAILABLE_COPY)
        assert model.write == pytest.approx(N + u_a - 2)
        assert model.recovery == pytest.approx(N + u_a)

    def test_naive(self):
        model = traffic_model(
            SchemeName.NAIVE_AVAILABLE_COPY, N, RHO,
            mode=AddressingMode.UNIQUE,
        )
        assert model.write == N - 1
        assert model.recovery == pytest.approx(
            N + u(SchemeName.NAIVE_AVAILABLE_COPY)
        )


class TestOrderingClaims:
    """Section 5's qualitative conclusions, across both network types."""

    @pytest.mark.parametrize("mode", list(AddressingMode))
    def test_naive_writes_cheapest_then_ac_then_voting(self, mode):
        for n in (2, 3, 5, 8):
            naive = traffic_model(
                SchemeName.NAIVE_AVAILABLE_COPY, n, RHO, mode=mode
            ).write
            ac = traffic_model(
                SchemeName.AVAILABLE_COPY, n, RHO, mode=mode
            ).write
            voting = traffic_model(SchemeName.VOTING, n, RHO, mode=mode).write
            assert naive <= ac <= voting
            if n > 2:
                assert naive < ac < voting

    @pytest.mark.parametrize("mode", list(AddressingMode))
    def test_reads_free_only_for_available_copy(self, mode):
        for scheme in (
            SchemeName.AVAILABLE_COPY,
            SchemeName.NAIVE_AVAILABLE_COPY,
        ):
            assert traffic_model(scheme, N, RHO, mode=mode).read == 0.0
        assert traffic_model(SchemeName.VOTING, N, RHO, mode=mode).read > 0

    @pytest.mark.parametrize("mode", list(AddressingMode))
    def test_recovery_free_only_for_voting(self, mode):
        assert traffic_model(SchemeName.VOTING, N, RHO,
                             mode=mode).recovery == 0.0
        for scheme in (
            SchemeName.AVAILABLE_COPY,
            SchemeName.NAIVE_AVAILABLE_COPY,
        ):
            assert traffic_model(scheme, N, RHO, mode=mode).recovery > 0

    def test_voting_cost_grows_with_read_ratio(self):
        costs = [
            access_cost(SchemeName.VOTING, N, RHO, x) for x in (1, 2, 4)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_available_copy_cost_independent_of_read_ratio(self):
        for scheme in (
            SchemeName.AVAILABLE_COPY,
            SchemeName.NAIVE_AVAILABLE_COPY,
        ):
            costs = {
                access_cost(scheme, N, RHO, x) for x in (0, 1, 2, 4, 10)
            }
            assert len(costs) == 1

    def test_unique_addressing_amplifies_the_differences(self):
        """Section 5's remark: differences are amplified without
        multicast."""
        for x in (1.0, 2.0):
            gap_multicast = access_cost(
                SchemeName.VOTING, N, RHO, x
            ) - access_cost(SchemeName.NAIVE_AVAILABLE_COPY, N, RHO, x)
            gap_unique = access_cost(
                SchemeName.VOTING, N, RHO, x, mode=AddressingMode.UNIQUE
            ) - access_cost(
                SchemeName.NAIVE_AVAILABLE_COPY, N, RHO, x,
                mode=AddressingMode.UNIQUE,
            )
            assert gap_unique > gap_multicast


class TestPerAccessGroup:
    def test_composition(self):
        model = traffic_model(SchemeName.VOTING, N, RHO)
        assert model.per_access_group(2.5) == pytest.approx(
            model.write + 2.5 * model.read
        )

    def test_ousterhout_constant(self):
        assert OUSTERHOUT_READ_WRITE_RATIO == 2.5

    def test_negative_ratio_rejected(self):
        model = traffic_model(SchemeName.VOTING, N, RHO)
        with pytest.raises(AnalysisError):
            model.per_access_group(-1.0)


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(AnalysisError):
            traffic_model(SchemeName.VOTING, 0, RHO)
        with pytest.raises(AnalysisError):
            traffic_model(SchemeName.VOTING, N, RHO, stale_read_fraction=1.5)


#: Section 5's table as linear forms (sites, voters, fixed, stale):
#: ``n + 2U - 3`` is ``Count(1, 2, -3)``.
PAPER_TABLE = {
    (SchemeName.VOTING, "write"): ((0, 1, 1), (1, 2, -3)),
    (SchemeName.VOTING, "read"): ((0, 1, 0, 1), (1, 1, -2, 1)),
    (SchemeName.VOTING, "recovery"): ((), ()),
    (SchemeName.AVAILABLE_COPY, "write"): ((0, 1, 0), (1, 1, -2)),
    (SchemeName.AVAILABLE_COPY, "read"): ((), ()),
    (SchemeName.AVAILABLE_COPY, "recovery"): ((0, 1, 2), (1, 1, 0)),
    (SchemeName.NAIVE_AVAILABLE_COPY, "write"): ((0, 0, 1), (1, 0, -1)),
    (SchemeName.NAIVE_AVAILABLE_COPY, "read"): ((), ()),
    (SchemeName.NAIVE_AVAILABLE_COPY, "recovery"): ((0, 1, 2), (1, 1, 0)),
}


@pytest.mark.parametrize(("scheme", "op"), sorted(
    PAPER_TABLE, key=lambda key: (key[0].value, key[1])
))
def test_script_counts_sum_to_the_paper_table(scheme, op):
    """The script's counts, added as forms, are the closed forms (a
    voting read that certainly finds its copy stale pulls one block)."""
    for mode, form in zip(AddressingMode, PAPER_TABLE[scheme, op]):
        script = message_script(scheme, op, N, mode, stale=1)
        counts = [send.count for sends in script for send in sends]
        assert Count(*map(sum, zip(*counts))) == Count(*form), mode


def test_unknown_operation_has_no_script():
    with pytest.raises(AnalysisError):
        message_script(SchemeName.VOTING, "scrub", N)
