"""Unit tests for the online membership manager (all three schemes)."""

import pytest

from repro.core.available_copy import AvailableCopyProtocol
from repro.core.naive import NaiveAvailableCopyProtocol
from repro.core.quorum import QuorumSpec
from repro.core.voting import VotingProtocol
from repro.device.site import Site
from repro.errors import MembershipError, SiteDownError
from repro.membership import MembershipManager
from repro.net.network import Network
from repro.types import SiteState

NUM_BLOCKS = 6
BLOCK_SIZE = 16


def fill(value: int) -> bytes:
    return bytes([value]) * BLOCK_SIZE


def make_voting(n=4):
    spec = QuorumSpec.majority(n)
    sites = [
        Site(i, NUM_BLOCKS, BLOCK_SIZE, weight=spec.weight_of(i))
        for i in range(n)
    ]
    return VotingProtocol(sites, Network(), spec=spec)


def make_ac(n=4):
    sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE) for i in range(n)]
    return AvailableCopyProtocol(sites, Network())


def make_nac(n=4):
    sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE) for i in range(n)]
    return NaiveAvailableCopyProtocol(sites, Network())


def spare(site_id: int) -> Site:
    return Site(site_id, NUM_BLOCKS, BLOCK_SIZE)


ALL_BUILDERS = [make_voting, make_ac, make_nac]


class TestOpenWindow:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_open_add_enters_transition(self, build):
        manager = MembershipManager(build())
        view = manager.open_add(spare(9))
        assert manager.in_transition
        assert manager.pending_view == view
        assert view.epoch == 1
        assert 9 in view.members

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_only_one_window_at_a_time(self, build):
        manager = MembershipManager(build())
        manager.open_add(spare(9))
        with pytest.raises(MembershipError):
            manager.open_remove(0)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_geometry_mismatch_refused_without_side_effects(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        wrong = Site(9, NUM_BLOCKS + 1, BLOCK_SIZE)
        with pytest.raises(MembershipError):
            manager.open_add(wrong)
        # The refused open left no half-opened window behind.
        assert not manager.in_transition
        assert manager.open_add(spare(9)).epoch == 1

    def test_force_commit_needs_a_window(self):
        manager = MembershipManager(make_voting())
        with pytest.raises(MembershipError):
            manager.force_commit()


class TestCommitAllSchemes:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_add_commits_and_joiner_serves_reads(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        protocol.write(0, 2, fill(0xAB))
        manager.open_add(spare(9))
        assert manager.finalize()
        assert not manager.in_transition
        assert manager.view.epoch == 1
        assert manager.reconfigurations["add"] == 1
        # The joiner is a first-class member holding the write.
        assert protocol.site(9).is_available
        assert protocol.read(9, 2) == fill(0xAB)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_remove_expels_the_site(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        manager.open_remove(3)
        assert manager.finalize()
        assert 3 not in protocol.site_ids
        with pytest.raises(SiteDownError):
            protocol.site(3)
        assert manager.reconfigurations["remove"] == 1

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_replace_swaps_in_one_epoch(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        protocol.write(1, 0, fill(0x11))
        manager.open_replace(2, spare(9))
        assert manager.finalize()
        assert manager.view.epoch == 1
        assert 2 not in protocol.site_ids
        assert protocol.read(9, 0) == fill(0x11)
        assert manager.reconfigurations["replace"] == 1

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_epochs_are_durable_on_every_member(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        manager.open_add(spare(9))
        assert manager.finalize()
        for site in protocol.sites:
            assert site.epoch == 1

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_mid_window_write_is_carried_into_the_new_epoch(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        manager.open_add(spare(9))
        protocol.write(0, 4, fill(0x77))  # written during the window
        assert manager.finalize()
        assert protocol.read(9, 4) == fill(0x77)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_history_records_every_committed_view(self, build):
        manager = MembershipManager(build())
        manager.open_add(spare(9))
        assert manager.finalize()
        manager.open_remove(9)
        assert manager.finalize()
        assert [v.epoch for v in manager.history] == [0, 1, 2]


class TestVotingSpecifics:
    def test_commit_reweights_the_group(self):
        protocol = make_voting(4)  # even: site 0 holds the tie-breaker
        manager = MembershipManager(protocol)
        manager.open_add(spare(9))
        assert manager.finalize()
        # Five members now: equal votes, no tie-breaker.
        assert [s.weight for s in protocol.sites] == [1.0] * 5
        assert protocol.is_available()

    def test_witness_groups_are_refused(self):
        spec = QuorumSpec.majority(4)
        sites = [
            Site(i, NUM_BLOCKS, BLOCK_SIZE, weight=spec.weight_of(i),
                 is_witness=(i == 3))
            for i in range(4)
        ]
        protocol = VotingProtocol(sites, Network(), spec=spec)
        with pytest.raises(MembershipError):
            MembershipManager(protocol)

    def test_commit_waits_for_synced_write_quorum(self):
        protocol = make_voting(4)
        manager = MembershipManager(protocol)
        manager.open_add(spare(9))
        for site_id in (1, 2, 3, 9):
            protocol.on_site_failed(site_id)
        # Only site 0 is up: no new-view write quorum can be certified.
        assert not manager.finalize(max_steps=8)
        assert manager.in_transition
        for site_id in (1, 2, 3, 9):
            protocol.on_site_repaired(site_id)
        assert manager.finalize()

    def test_joiner_crash_mid_sweep_invalidates_its_sync(self):
        protocol = make_voting(5)
        for block in range(NUM_BLOCKS):
            protocol.write(0, block, fill(block + 1))
        manager = MembershipManager(protocol, catchup_blocks=2)
        joiner = spare(9)
        manager.open_add(joiner)
        manager.step()  # first chunk pushed
        protocol.on_site_failed(9)
        protocol.on_site_repaired(9)
        assert manager.finalize()
        # The post-crash pass still brought the joiner fully current.
        assert protocol.read(9, 0) == fill(1)
        assert protocol.site(9).epoch == 1


    def _sweep_setup(self):
        protocol = make_voting(5)
        for block in range(NUM_BLOCKS):
            protocol.write(0, block, fill(block + 1))
        manager = MembershipManager(protocol)
        manager.open_add(spare(9))
        return protocol, manager.view.meets_read

    def test_sweep_chunk_brings_voting_targets_current(self):
        protocol, old_read = self._sweep_setup()
        protocol.on_site_failed(3)
        current = protocol.sweep_chunk(0, range(NUM_BLOCKS), [3, 4, 9],
                                       old_read)
        assert current == [4, 9]  # 3 did not vote
        assert [protocol.site(9).block_version(b)
                for b in range(NUM_BLOCKS)] == [1] * NUM_BLOCKS
        assert protocol.site(9).read_block(2) == fill(3)

    def test_sweep_chunk_pushes_nothing_without_an_old_read_quorum(self):
        protocol, old_read = self._sweep_setup()
        for site_id in (1, 2, 3):
            protocol.on_site_failed(site_id)
        assert protocol.sweep_chunk(0, range(NUM_BLOCKS), [4, 9],
                                    old_read) is None
        assert protocol.site(9).block_version(0) == 0

    def test_sweep_chunk_abandons_a_target_on_a_corrupt_source(self):
        """A read's batch refresh falls back block by block; the sweep
        drops the target for this pass, after quarantining the copy."""
        protocol, old_read = self._sweep_setup()
        protocol.site(0).store.inject_corruption(1, fill(0xEE))
        assert protocol.sweep_chunk(0, range(NUM_BLOCKS), [9],
                                    old_read) == []
        assert protocol.site(0).store.is_quarantined(1)
        assert protocol.corruptions_detected == 1
        assert protocol.site(9).block_version(0) == 0


class TestAvailableCopySpecifics:
    @pytest.mark.parametrize("build", [make_ac, make_nac])
    def test_joiner_is_comatose_until_caught_up(self, build):
        protocol = build()
        for block in range(NUM_BLOCKS):
            protocol.write(0, block, fill(block + 1))
        manager = MembershipManager(protocol, catchup_blocks=2)
        joiner = spare(9)
        manager.open_add(joiner)
        assert joiner.state is SiteState.COMATOSE
        assert not manager.step()  # 2 of 6 blocks moved: not yet
        assert joiner.state is SiteState.COMATOSE
        assert manager.finalize()
        assert joiner.is_available
        protocol.check_invariants()  # raises on violation

    @pytest.mark.parametrize("build", [make_ac, make_nac])
    def test_catchup_traffic_is_attributed_to_membership(self, build):
        protocol = build()
        for block in range(NUM_BLOCKS):
            protocol.write(0, block, fill(1 + block))
        manager = MembershipManager(protocol, catchup_blocks=2)
        manager.open_add(spare(9))
        assert manager.finalize()
        stat = protocol.meter.messages_for("membership")
        assert stat.count > 0

    def test_ac_commit_prunes_was_available_to_members(self):
        protocol = make_ac(4)
        manager = MembershipManager(protocol)
        manager.open_remove(3)
        assert manager.finalize()
        for site in protocol.operational_sites():
            assert 3 not in site.was_available

    @pytest.mark.parametrize("build", [make_ac, make_nac])
    def test_commit_requires_surviving_old_member(self, build):
        protocol = build()
        manager = MembershipManager(protocol)
        manager.open_add(spare(9))
        for site_id in (0, 1, 2, 3):
            protocol.on_site_failed(site_id)
        # The joiner alone cannot commit: no old-view continuity.
        assert not manager.finalize(max_steps=8)
        assert manager.in_transition
