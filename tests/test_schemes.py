"""One record per scheme: every group builder builds the same group.

``ReplicatedCluster``, the chaos harness and :func:`build_group` must
give the same protocol class, site ids, weights, witness flags and
policy for each scheme.  Chaos names its three classes itself (the
stack benchmark swaps them by name), so this is what keeps it from
drifting away from the record.
"""

import pytest

import repro.faults.chaos as chaos_module
from repro.core import QuorumPolicy
from repro.device import ClusterConfig, ReplicatedCluster
from repro.faults import ChaosConfig
from repro.net import Network
from repro.schemes import SCHEMES, build_group
from repro.types import SchemeName

N, BLOCKS, BLOCK_SIZE = 5, 24, 64
POLICIES = [None, QuorumPolicy(5, 3, 3)]


def shape(protocol):
    return (
        type(protocol),
        protocol.site_ids,
        [site.weight for site in protocol.sites],
        [site.is_witness for site in protocol.sites],
        protocol.policy,
        (protocol.num_blocks, protocol.block_size),
        getattr(protocol, "track_failures", None),
    )


@pytest.mark.parametrize("scheme", list(SchemeName))
@pytest.mark.parametrize("policy", POLICIES, ids=["paper", "5:3:3"])
def test_chaos_builds_the_record_group(scheme, policy):
    chaos = chaos_module._build_protocol(ChaosConfig(
        scheme=scheme, num_sites=N, num_blocks=BLOCKS,
        block_size=BLOCK_SIZE, policy=policy,
    ))
    built = build_group(scheme, N, BLOCKS, BLOCK_SIZE, Network(),
                        policy=policy)
    assert type(built) is SCHEMES[scheme].protocol
    assert shape(chaos) == shape(built)


@pytest.mark.parametrize("scheme", list(SchemeName))
def test_cluster_builds_the_record_group(scheme):
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=scheme, num_sites=N, num_blocks=BLOCKS,
        block_size=BLOCK_SIZE,
    ))
    built = build_group(scheme, N, BLOCKS, BLOCK_SIZE, Network())
    assert shape(cluster.protocol) == shape(built)
    assert cluster.sites == cluster.protocol.sites


def test_each_scheme_gets_only_its_own_options():
    voting = build_group(SchemeName.VOTING, 4, 8, 16, Network(),
                         track_failures=False, eager_repair=True)
    assert voting._eager_repair
    assert [s.weight for s in voting.sites] == list(
        SCHEMES[SchemeName.VOTING].spec(4).weights
    )
    ac = build_group(SchemeName.AVAILABLE_COPY, 4, 8, 16, Network(),
                     track_failures=False, eager_repair=True)
    assert ac.track_failures is False
    naive = build_group(SchemeName.NAIVE_AVAILABLE_COPY, 4, 8, 16,
                        Network(), track_failures=False, eager_repair=True)
    assert type(naive) is SCHEMES[SchemeName.NAIVE_AVAILABLE_COPY].protocol


def test_witnesses_are_the_last_sites_and_voting_only():
    group = build_group(SchemeName.VOTING, 5, 8, 16, Network(), witnesses=2)
    assert [s.is_witness for s in group.sites] == [False] * 3 + [True] * 2
    for scheme in (SchemeName.AVAILABLE_COPY,
                   SchemeName.NAIVE_AVAILABLE_COPY):
        with pytest.raises(ValueError, match="witness"):
            build_group(scheme, 3, 8, 16, Network(), witnesses=1)


def test_a_policy_that_does_not_fit_the_group_is_refused():
    for scheme in SchemeName:
        with pytest.raises(ValueError, match="replication factor"):
            chaos_module._build_protocol(ChaosConfig(
                scheme=scheme, num_sites=4, policy=QuorumPolicy(5, 3, 3),
            ))


def test_every_scheme_name_has_a_record():
    assert set(SCHEMES) == set(SchemeName)
    for name, record in SCHEMES.items():
        assert record.name is name
        assert build_group(name, 3, 4, 8, Network()).scheme is name
