"""The seeded chaos harness and its acceptance criteria."""

import pytest

from repro.cli import main
from repro.device.reliable import RetryPolicy
from repro.core import QuorumPolicy
from repro.faults import ChaosConfig, run_chaos
from repro.types import SchemeName


class TestSeed42Acceptance:
    """The issue's acceptance run: ``chaos --seed 42`` must inject at
    least 100 faults covering all three families, with zero consistency
    violations and every injected corruption healed or reported."""

    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_seed_42_is_consistent_under_heavy_faults(self, scheme):
        result = run_chaos(ChaosConfig(scheme=scheme, seed=42))
        assert result.injected.total_faults >= 100
        # every fault family actually fired
        assert result.injected.corruptions > 0
        assert result.injected.crashes > 0
        assert result.injected.mid_write_crashes > 0
        assert result.injected.drops > 0
        # the one guarantee: no read ever violated read-latest-write
        assert result.violations == []
        # and every corruption was healed, quarantined, or overwritten
        assert result.unaccounted_corruptions == []
        assert result.ok
        assert "OK" in result.summary()

    def test_seed_42_detects_and_heals_corruptions(self):
        result = run_chaos(ChaosConfig(seed=42))
        assert result.injected.corruptions > 0
        assert result.corruptions_detected > 0
        assert result.blocks_healed > 0


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = run_chaos(ChaosConfig(seed=7))
        second = run_chaos(ChaosConfig(seed=7))
        assert first.injected.snapshot() == second.injected.snapshot()
        assert first.history == second.history
        assert first.messages == second.messages

    def test_different_seeds_diverge(self):
        first = run_chaos(ChaosConfig(seed=7, operations=100))
        second = run_chaos(ChaosConfig(seed=8, operations=100))
        assert (first.injected.snapshot() != second.injected.snapshot()
                or first.history != second.history)


@pytest.mark.parametrize("scheme", list(SchemeName))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_short_runs_stay_consistent(scheme, seed):
    result = run_chaos(ChaosConfig(
        scheme=scheme, seed=seed, operations=120,
    ))
    assert result.ok, result.summary()


def test_fault_rate_zero_injects_nothing():
    result = run_chaos(ChaosConfig(seed=3, fault_rate=0.0))
    assert result.injected.total_faults == 0
    assert result.violations == []
    assert result.writes_failed == 0
    assert result.reads_failed == 0
    assert result.retries == 0


class TestBatchedChaos:
    """Torn *batch* writes and batched schedules stay consistent."""

    def test_mid_batch_crash_leaves_each_block_consistent(self):
        """A deterministic torn batch: the origin crashes mid-fan-out
        of a batched write, and the checker's per-block admissible-set
        logic must absorb every block of the batch individually."""
        from repro.core.voting import VotingProtocol
        from repro.core.quorum import QuorumSpec
        from repro.device.reliable import ReliableDevice
        from repro.device.site import Site
        from repro.errors import DeviceError
        from repro.faults import FaultInjector, HistoryRecorder
        from repro.net.network import Network

        spec = QuorumSpec.majority(5)
        sites = [Site(i, 8, 16, weight=spec.weight_of(i))
                 for i in range(5)]
        protocol = VotingProtocol(sites, Network(), spec=spec)
        recorder = HistoryRecorder()
        protocol.recorder = recorder
        injector = FaultInjector(protocol, recorder=recorder).attach()
        device = ReliableDevice(protocol, failover=True, retry=None)

        committed = {b: bytes([b + 1]) * 16 for b in range(4)}
        device.write_blocks(committed)
        recorder.batch_write_ok(committed, device.last_write_versions)

        injector.arm_mid_write_crash(0, survivors=2)
        torn = {b: bytes([0xB0 + b]) * 16 for b in range(4)}
        with pytest.raises(DeviceError):
            device.write_blocks(torn)
        assert recorder.count("torn_write") == 4

        # every block is individually consistent: reads (from a
        # surviving origin) return either the committed or the torn
        # value, and the checker signs off on the whole history
        injector.detach()
        for block in range(4):
            data = device.read_block(block)
            assert data in (committed[block], torn[block])
            recorder.read_ok(block, data)
        injector.repair_site(0)
        readback = device.read_blocks(list(range(4)))
        recorder.batch_read_ok(readback)
        assert recorder.check() == []

    @pytest.mark.parametrize("scheme", list(SchemeName))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_schedules_stay_consistent(self, scheme, seed):
        result = run_chaos(ChaosConfig(
            scheme=scheme, seed=seed, operations=200,
            batch_rate=0.5, max_batch=6,
        ))
        assert result.ok, result.summary()
        assert result.history.get("read_ok", 0) > 0

    def test_batch_rate_zero_replays_legacy_schedules(self):
        """The rng draw sequence must be byte-identical with batching
        disabled, so historical seeds keep their exact schedules."""
        legacy = run_chaos(ChaosConfig(seed=7))
        gated = run_chaos(ChaosConfig(seed=7, batch_rate=0.0,
                                      max_batch=16))
        assert legacy.history == gated.history
        assert legacy.injected.snapshot() == gated.injected.snapshot()
        assert legacy.messages == gated.messages

    def test_batched_runs_are_seed_deterministic(self):
        config = ChaosConfig(seed=13, operations=150, batch_rate=0.4)
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.history == second.history
        assert first.messages == second.messages


def test_retry_policy_masks_some_failures():
    patient = run_chaos(ChaosConfig(
        seed=11, retry=RetryPolicy(max_attempts=4, initial_delay=0.0),
    ))
    assert patient.ok
    assert patient.retries > 0


class TestChaosCli:
    def test_seed_42_smoke(self, capsys):
        assert main(["chaos", "--seed", "42"]) == 0
        captured = capsys.readouterr().out
        assert "chaos: all checks passed" in captured
        for scheme in SchemeName:
            assert f"chaos[{scheme.value}, seed=42]" in captured

    def test_single_scheme_and_verbose(self, capsys):
        code = main([
            "chaos", "--scheme", "mcv", "--seed", "1",
            "--operations", "120", "--verbose",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert f"chaos[{SchemeName.VOTING.value}, seed=1]" in captured
        assert "write_ok" in captured  # verbose history counts


class TestQuorumPolicies:
    """Chaos under an (RF, R, W) policy: strict stays clean, sloppy is
    witnessed, and the mitigations measurably shrink the staleness."""

    def _run(self, policy, scheme=SchemeName.VOTING, **overrides):
        config = ChaosConfig(
            scheme=scheme,
            seed=7,
            num_sites=policy.rf,
            operations=300,
            scrub_every=0,
            policy=policy,
            **overrides,
        )
        return run_chaos(config)

    @pytest.mark.parametrize("spec", ["5:1:5", "5:2:4", "5:3:3"])
    def test_strict_policies_stay_violation_free(self, spec):
        result = self._run(QuorumPolicy.parse(spec))
        assert result.ok
        assert result.violations == []
        assert result.staleness_witnesses == []
        assert result.policy.endswith("(strict)")

    def test_sloppy_policy_witnesses_but_never_violates(self):
        policy = QuorumPolicy(5, 1, 1, allow_sloppy=True)
        result = self._run(policy)
        assert result.ok
        assert result.violations == []
        assert result.policy == "5:1:1 (sloppy)"
        assert result.hints_parked > 0
        assert result.hints_replayed > 0
        for witness in result.staleness_witnesses:
            # ``==`` is a tie between sibling writes (lag 0).
            assert witness.observed_version <= witness.latest_version

    def test_hinted_handoff_reduces_staleness(self):
        on = self._run(QuorumPolicy(5, 1, 1, allow_sloppy=True))
        off = self._run(QuorumPolicy(
            5, 1, 1, allow_sloppy=True, hinted_handoff=False
        ))
        assert off.hints_parked == 0
        assert (len(on.staleness_witnesses)
                < len(off.staleness_witnesses))

    def test_policy_summary_line(self):
        result = self._run(QuorumPolicy(5, 1, 1, allow_sloppy=True))
        summary = result.summary()
        assert "policy 5:1:1 (sloppy)" in summary
        assert "stale reads" in summary
        assert "hints parked" in summary

    def test_available_copy_policy_gates_availability(self):
        for scheme in (SchemeName.AVAILABLE_COPY, SchemeName.NAIVE_AVAILABLE_COPY):
            result = self._run(QuorumPolicy(5, 3, 3), scheme=scheme)
            assert result.ok

    def test_policy_rf_must_match_group(self):
        config = ChaosConfig(
            scheme=SchemeName.VOTING,
            num_sites=3,
            policy=QuorumPolicy(5, 3, 3),
        )
        with pytest.raises(ValueError):
            run_chaos(config)

    def test_bytes_total_accounts_mitigation_traffic(self):
        result = self._run(QuorumPolicy(5, 1, 1, allow_sloppy=True))
        assert result.bytes_total > 0

    def test_policy_runs_are_seed_deterministic(self):
        policy = QuorumPolicy(5, 2, 1, allow_sloppy=True)
        a = self._run(policy)
        b = self._run(policy)
        assert a.history == b.history
        assert len(a.staleness_witnesses) == len(b.staleness_witnesses)
        assert a.hints_parked == b.hints_parked


class TestPolicyCli:
    def test_policy_flag_smoke(self, capsys):
        code = main([
            "chaos", "--scheme", "mcv", "--policy", "5:3:3",
            "--seed", "7", "--operations", "150",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "policy 5:3:3 (strict)" in captured

    def test_sloppy_policy_flag_and_ablations(self, capsys):
        code = main([
            "chaos", "--scheme", "mcv", "--policy", "5:1:1",
            "--no-hinted-handoff", "--no-read-repair",
            "--seed", "7", "--operations", "150",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "policy 5:1:1 (sloppy)" in captured
        assert "0 hints parked" in captured

    def test_bad_policy_string_exits_2(self, capsys):
        assert main(["chaos", "--policy", "nope"]) == 2
        assert "RF:R:W" in capsys.readouterr().err

    def test_ablation_flags_require_policy(self, capsys):
        assert main(["chaos", "--no-read-repair"]) == 2
        assert "--policy" in capsys.readouterr().err
