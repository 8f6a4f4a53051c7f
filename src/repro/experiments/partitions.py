"""Partition demonstration: why available copy needs a partition-free net.

Sections 3.2 and 6 of the paper: "the available copy algorithm does not
operate correctly in the presence of partitions", while "the voting
schemes obviate the concern for network partitions".  This experiment
makes both halves executable:

1. partition a 3-site group into {0} | {1, 2};
2. issue writes on *both* sides;
3. observe that under available copy both sides accept the writes
   (split brain -- two "available" copies of the same block diverge),
   while under voting the minority side refuses every operation and the
   block stays single-valued;
4. heal the partition and report the damage.

The divergence detector is the protocol's own
``consistency_report`` / version comparison.
"""

from __future__ import annotations

from typing import List

from ..errors import DeviceUnavailableError
from ..net.network import Network
from ..schemes import build_group
from ..types import SchemeName
from .report import ExperimentReport, Table

__all__ = ["partition_demo", "run_partition_scenario"]

_BLOCK = 0
_BLOCK_SIZE = 32
_NUM_BLOCKS = 4


def run_partition_scenario(scheme: SchemeName) -> dict:
    """Run the split-brain scenario; returns what happened."""
    network = Network()
    protocol = build_group(scheme, 3, _NUM_BLOCKS, _BLOCK_SIZE, network)

    def fill(value: int) -> bytes:
        return bytes([value]) * _BLOCK_SIZE

    protocol.write(0, _BLOCK, fill(1))  # agreed value before the split
    network.partition([0], [1, 2])

    def attempt(origin: int, value: int) -> bool:
        try:
            protocol.write(origin, _BLOCK, fill(value))
            return True
        except DeviceUnavailableError:
            return False

    side_a_wrote = attempt(0, 2)   # minority side (site 0)
    side_b_wrote = attempt(1, 3)   # majority side (sites 1, 2)

    network.heal()
    versions = [s.block_version(_BLOCK) for s in protocol.sites]
    contents = [s.read_block(_BLOCK)[0] for s in protocol.sites]
    # True divergence (split brain): two sites that both consider
    # themselves available hold the SAME version number with DIFFERENT
    # contents -- irreconcilable by version comparison.  A merely
    # *stale* copy (lower version, as voting's minority site ends up
    # with) is benign: the next quorum operation repairs it.
    by_version = {}
    for site in protocol.sites:
        if not site.is_available:
            continue
        by_version.setdefault(
            site.block_version(_BLOCK), set()
        ).add(site.read_block(_BLOCK))
    diverged = any(len(values) > 1 for values in by_version.values())
    # post-heal reads: a quorum read must return one agreed value under
    # voting (and repairs the stale copy on the way)
    post_heal_reads = set()
    for origin in protocol.site_ids:
        try:
            post_heal_reads.add(protocol.read(origin, _BLOCK))
        except DeviceUnavailableError:  # pragma: no cover
            pass
    return {
        "post_heal_reads_agree": len(post_heal_reads) == 1,
        "scheme": scheme,
        "side_a_wrote": side_a_wrote,
        "side_b_wrote": side_b_wrote,
        "versions": versions,
        "contents": contents,
        "diverged": diverged,
    }


def partition_demo() -> ExperimentReport:
    """The split-brain table for all three schemes."""
    report = ExperimentReport(
        experiment_id="partition-demo",
        title="Network partition: voting is safe, available copy is not",
    )
    table = Table(
        title="partition {0} | {1,2}; concurrent writes on both sides",
        columns=(
            "scheme",
            "minority write accepted",
            "majority write accepted",
            "split brain",
            "post-heal reads agree",
        ),
    )
    outcomes: List[dict] = []
    for scheme in SchemeName:
        outcome = run_partition_scenario(scheme)
        outcomes.append(outcome)
        table.add_row(
            scheme.short,
            outcome["side_a_wrote"],
            outcome["side_b_wrote"],
            outcome["diverged"],
            outcome["post_heal_reads_agree"],
        )
    report.add_table(table)
    report.note(
        "voting refuses the minority side's write (no quorum), so the "
        "block never diverges; both available-copy schemes accept "
        "writes on each side and split brain -- exactly why the paper "
        "assumes a partition-free network for them"
    )
    return report
