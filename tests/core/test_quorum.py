"""Unit tests for quorum specifications."""

import pytest

from repro.core import QuorumSpec, TIE_BREAKER_WEIGHT
from repro.errors import QuorumSpecError


class TestMajority:
    def test_odd_group_majority(self):
        spec = QuorumSpec.majority(5)
        assert spec.weights == (1.0,) * 5
        assert spec.read_available([0, 1, 2])        # 3 of 5
        assert not spec.read_available([0, 1])       # 2 of 5
        assert spec.write_available([1, 2, 3])
        assert not spec.write_available([3, 4])

    def test_even_group_tie_break(self):
        spec = QuorumSpec.majority(4)
        assert spec.weights[0] == 1.0 + TIE_BREAKER_WEIGHT
        # a 2-2 split containing the weighted site wins...
        assert spec.read_available([0, 1])
        # ...a 2-2 split without it loses
        assert not spec.read_available([2, 3])
        # 3 of 4 always wins
        assert spec.read_available([1, 2, 3])

    def test_single_site(self):
        spec = QuorumSpec.majority(1)
        assert spec.read_available([0])
        assert not spec.read_available([])

    def test_two_sites(self):
        spec = QuorumSpec.majority(2)
        assert spec.read_available([0])      # the weighted site alone
        assert not spec.read_available([1])  # the other alone

    def test_invalid_size(self):
        with pytest.raises(QuorumSpecError):
            QuorumSpec.majority(0)


class TestWeighted:
    def test_gifford_style_weights(self):
        # 3 sites with weights 2,1,1; r=1, w=3 (read-one, write-all-ish)
        spec = QuorumSpec.weighted([2, 1, 1], read_quorum=1, write_quorum=3)
        assert spec.read_available([0])            # weight 2 > 1
        assert not spec.read_available([1])        # weight 1 not > 1
        assert spec.write_available([0, 1, 2])     # 4 > 3
        assert not spec.write_available([0, 1])    # 3 not > 3

    def test_safety_constraints_enforced(self):
        # r + w < total: reads could miss writes
        with pytest.raises(QuorumSpecError):
            QuorumSpec.weighted([1, 1, 1], read_quorum=0.5, write_quorum=1)
        # 2w < total: two writes could be disjoint
        with pytest.raises(QuorumSpecError):
            QuorumSpec.weighted([1, 1, 1, 1], read_quorum=3, write_quorum=1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(QuorumSpecError):
            QuorumSpec.weighted([1, 0], read_quorum=1, write_quorum=1)

    def test_negative_quorum_rejected(self):
        with pytest.raises(QuorumSpecError):
            QuorumSpec.weighted([1, 1], read_quorum=-1, write_quorum=2)

    def test_empty_group_rejected(self):
        with pytest.raises(QuorumSpecError):
            QuorumSpec.weighted([], read_quorum=0, write_quorum=0)


class TestQueries:
    def test_gathered_weight(self):
        spec = QuorumSpec.majority(4)
        assert spec.gathered_weight([0, 2]) == pytest.approx(2.5)
        assert spec.total_weight == pytest.approx(4.5)
        assert spec.weight_of(0) == pytest.approx(1.5)
        assert spec.num_sites == 4

    def test_quorum_predicate_is_strict(self):
        spec = QuorumSpec.majority(5)  # thresholds 2.5
        assert not spec.meets_read(2.5)
        assert spec.meets_read(3.0)

    def test_gathered_weight_counts_duplicates_once(self):
        # Regression: a replayed reply (or a buggy caller) listing the
        # same site twice must not double-count its weight into a
        # quorum.  Site 0 alone in a 5-group has weight 1 < 2.5.
        spec = QuorumSpec.majority(5)
        assert spec.gathered_weight([0, 0, 0]) == pytest.approx(1.0)
        assert not spec.read_available([0, 0, 0])
        assert not spec.write_available([1, 1, 2, 2])
        assert spec.read_available([0, 0, 1, 2])  # 3 distinct sites


class TestIntersectionProperty:
    """Any read quorum must intersect any write quorum (exhaustively)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_majority_quorums_intersect(self, n):
        import itertools

        spec = QuorumSpec.majority(n)
        sites = range(n)
        read_quorums = [
            set(c)
            for r in range(n + 1)
            for c in itertools.combinations(sites, r)
            if spec.read_available(c)
        ]
        write_quorums = [
            set(c)
            for r in range(n + 1)
            for c in itertools.combinations(sites, r)
            if spec.write_available(c)
        ]
        for read_q in read_quorums:
            for write_q in write_quorums:
                assert read_q & write_q, (read_q, write_q)
        for w1 in write_quorums:
            for w2 in write_quorums:
                assert w1 & w2


class TestIntegerFastPath:
    """The integer companion path must be indistinguishable from the
    float path on every unit-weight spec (the protocol fast path relies
    on exactly this equivalence)."""

    def test_gathered_count_counts_duplicates_once(self):
        # Regression companion to the PR-8 dedup fix on
        # gathered_weight: replayed replies must not fake a quorum on
        # the integer path either.
        spec = QuorumSpec.majority(5)
        assert spec.gathered_count([0, 0, 0]) == 1
        assert spec.gathered_count([1, 2, 2, 1]) == 2
        assert spec.gathered_count([]) == 0
        assert float(spec.gathered_count([3, 3, 4])) == \
            spec.gathered_weight([3, 3, 4])

    def test_gathered_count_raises_same_index_error(self):
        spec = QuorumSpec.majority(3)
        with pytest.raises(IndexError):
            spec.gathered_weight([0, 7])
        with pytest.raises(IndexError):
            spec.gathered_count([0, 7])

    def test_unit_weight_specs_expose_integer_thresholds(self):
        odd = QuorumSpec.majority(5)
        assert odd.unit_weights
        assert odd.read_count_need == 3
        assert odd.write_count_need == 3
        custom = QuorumSpec.weighted([1.0] * 5, 2.0, 3.0)
        assert custom.read_count_need == 3
        assert custom.write_count_need == 4
        # The even-group tie-breaker makes weights non-unit: no
        # integer shortcut may be advertised there.
        even = QuorumSpec.majority(4)
        assert not even.unit_weights
        assert even.read_count_need is None
        weighted = QuorumSpec.weighted([2.0, 1.0, 1.0], 2.0, 2.0)
        assert weighted.read_count_need is None

    def test_integer_threshold_matches_float_path_exhaustively(self):
        # Property check, exhaustive over every subset of every
        # unit-weight group up to n=7 and every strict (R, W) pair:
        # count >= need  <=>  meets_read/meets_write(gathered weight).
        from itertools import combinations

        for n in range(1, 8):
            pairs = [
                (r / 2.0, w / 2.0)
                for r in range(0, 2 * n + 1)
                for w in range(0, 2 * n + 1)
                if r / 2.0 + w / 2.0 >= n and 2 * (w / 2.0) >= n
            ]
            for read_q, write_q in pairs:
                spec = QuorumSpec.weighted([1.0] * n, read_q, write_q)
                assert spec.unit_weights
                for k in range(n + 1):
                    for subset in combinations(range(n), k):
                        gathered = spec.gathered_weight(subset)
                        count = spec.gathered_count(subset)
                        assert float(count) == gathered
                        assert (count >= spec.read_count_need) == \
                            spec.meets_read(gathered)
                        assert (count >= spec.write_count_need) == \
                            spec.meets_write(gathered)

    def test_integer_threshold_matches_float_path_with_duplicates(self):
        import random

        rng = random.Random(1009)
        for _ in range(300):
            n = rng.randint(1, 9)
            read_q = rng.choice([n / 2.0, n / 2.0 + 0.5, float(n) - 0.5,
                                 float(n)])
            write_q = max(read_q, n - read_q, n / 2.0)
            try:
                spec = QuorumSpec.weighted([1.0] * n, read_q, write_q)
            except QuorumSpecError:
                continue
            draw = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
            gathered = spec.gathered_weight(draw)
            count = spec.gathered_count(draw)
            assert float(count) == gathered
            assert (count >= spec.read_count_need) == \
                spec.meets_read(gathered)
            assert (count >= spec.write_count_need) == \
                spec.meets_write(gathered)

    # -- the compiled deciders (what the protocol hot path asks) -------------

    @staticmethod
    def _subsets_with_noise(sites, stranger):
        """Every subset of ``sites`` as a voter list, each also with its
        first voter repeated and with a non-member's id mixed in."""
        from itertools import combinations

        for k in range(len(sites) + 1):
            for subset in combinations(sites, k):
                yield subset, list(subset)
                yield subset, list(subset) + list(subset[:1]) + [stranger]

    def test_spec_deciders_match_float_reference_exhaustively(self):
        from repro.core.quorum import (
            CountDecider, QuorumDecider, WeightDecider,
        )

        specs = [QuorumSpec.majority(n) for n in range(1, 8)]
        specs.append(QuorumSpec.weighted([2.0, 1.0, 1.0], 2.0, 2.0))
        specs.append(QuorumSpec.weighted([0.1, 0.2, 0.3, 0.7], 0.65, 0.7))
        for n in range(1, 8):
            specs.extend(
                QuorumSpec.weighted([1.0] * n, r / 2.0, w / 2.0)
                for r in range(0, 2 * n + 1)
                for w in range(0, 2 * n + 1)
                if r / 2.0 + w / 2.0 >= n and 2 * (w / 2.0) >= n
            )
        for spec in specs:
            # Ids deliberately differ from group indices.
            sites = [10 + 3 * i for i in range(spec.num_sites)]
            decider = QuorumDecider.for_spec(sites, spec)
            assert type(decider) is (
                CountDecider if spec.unit_weights else WeightDecider
            )
            for subset, voters in self._subsets_with_noise(sites, 999):
                indices = [sites.index(s) for s in subset]
                gathered = spec.gathered_weight(indices)
                assert decider.read_shortfall(voters) == (
                    None if spec.meets_read(gathered)
                    else (gathered, spec.read_quorum)
                )
                assert decider.write_shortfall(voters) == (
                    None if spec.meets_write(gathered)
                    else (gathered, spec.write_quorum)
                )
                assert decider.read_available(voters) == \
                    spec.read_available(indices)

    def test_policy_deciders_count_distinct_members(self):
        from repro.core import QuorumPolicy, VotingProtocol
        from repro.device import Site
        from repro.net import Network

        for rf in range(1, 6):
            for r in range(1, rf + 1):
                for w in range(1, rf + 1):
                    policy = QuorumPolicy(rf, r, w, allow_sloppy=True)
                    group = [Site(i, 2, 8) for i in range(rf)]
                    decider = VotingProtocol(
                        group, Network(), policy=policy,
                        spec=QuorumSpec.weighted(
                            [1.0] * rf, rf / 2.0, rf / 2.0
                        ),
                    )._decider
                    for subset, voters in self._subsets_with_noise(
                        range(rf), 999
                    ):
                        count = float(len(subset))
                        assert decider.read_shortfall(voters) == (
                            None if count >= r else (count, float(r))
                        )
                        assert decider.write_shortfall(voters) == (
                            None if count >= w else (count, float(w))
                        )
                        assert decider.read_available(voters) == \
                            (count >= r)

    def test_view_deciders_match_the_views_at_every_transition(self):
        # install -> begin (+ adopt: the joiner is a member of the group
        # before the commit) -> expel -> commit: after each step the
        # decider must agree with the view(s) then in force, jointly
        # while the window is open.
        from repro.core import VotingProtocol
        from repro.device import Site
        from repro.membership.view import View
        from repro.net import Network

        def shortfall(views, voters, read):
            for view in views:
                quorum = view.read_quorum if read else view.write_quorum
                gathered = view.gathered_weight(set(voters))
                if not gathered > quorum:
                    return gathered, quorum
            return None

        def check(protocol, views):
            union = sorted(set().union(*(v.sites for v in views)))
            for _, voters in self._subsets_with_noise(union, 999):
                decider = protocol._decider
                assert decider.read_shortfall(voters) == \
                    shortfall(views, voters, read=True)
                assert decider.write_shortfall(voters) == \
                    shortfall(views, voters, read=False)
                assert decider.read_available(voters) == all(
                    v.meets_read(set(voters)) for v in views
                )

        for n in range(1, 6):
            old = View.majority(0, range(n))
            successors = [(old.with_added(n), n)]
            if n > 1:
                successors += [(old.with_removed(s), None) for s in old.sites]
            successors += [
                (old.with_replaced(s, n), n) for s in old.sites
            ]
            for new, joiner in successors:
                group = [
                    Site(s, 2, 8, weight=old.vote_of(s)) for s in old.sites
                ]
                protocol = VotingProtocol(
                    group, Network(), spec=old.quorum_spec()
                )
                check(protocol, [old])
                protocol.install_view(old)
                check(protocol, [old])
                protocol.begin_view_change(new)
                check(protocol, [old, new])
                if joiner is not None:
                    protocol.adopt_site(Site(joiner, 2, 8))
                    check(protocol, [old, new])
                for removed in sorted(old.members - new.members):
                    protocol.expel_site(removed)
                    check(protocol, [old, new])
                protocol.commit_view_change(new)
                check(protocol, [new])
