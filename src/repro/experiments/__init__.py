"""Experiment harness: one module per paper figure/claim.

See DESIGN.md's experiment index for the mapping from the paper's
figures and theorem to these modules.  Every experiment returns a
plain-text-renderable :class:`~repro.experiments.report.ExperimentReport`
so results can be diffed across runs.
"""

from .ablations import (
    ablation_repair_regularity,
    ablation_voting_repair,
    ablation_was_available_freshness,
)
from .figures import (
    availability_comparison,
    figure9,
    figure10,
    figure11,
    figure12,
    traffic_comparison,
)
from .batching_study import batching_study
from .byte_study import byte_traffic_study
from .witness_study import witness_study, simulate_witness_group
from .heterogeneity_study import heterogeneity_study, simulate_heterogeneous
from .membership_study import membership_study
from .partitions import partition_demo, run_partition_scenario
from .registry import EXPERIMENTS, run_all, run_experiment
from .reliability_study import (
    MttfEstimate,
    reliability_study,
    simulated_mttf,
    simulated_mttf_estimate,
)
from .serial_repair_study import serial_repair_study
from .report import ExperimentReport, Table
from .state_diagrams import figure7_8_diagrams, transition_table
from .summary import conclusions_summary
from .theorem import theorem41
from .validation import (
    ValidationSettings,
    validate_availability,
    validate_traffic,
)

__all__ = [
    "ExperimentReport",
    "Table",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "availability_comparison",
    "traffic_comparison",
    "theorem41",
    "figure7_8_diagrams",
    "conclusions_summary",
    "transition_table",
    "reliability_study",
    "batching_study",
    "byte_traffic_study",
    "witness_study",
    "partition_demo",
    "serial_repair_study",
    "heterogeneity_study",
    "membership_study",
    "simulate_heterogeneous",
    "run_partition_scenario",
    "simulate_witness_group",
    "simulated_mttf",
    "simulated_mttf_estimate",
    "MttfEstimate",
    "validate_availability",
    "validate_traffic",
    "ValidationSettings",
    "ablation_voting_repair",
    "ablation_was_available_freshness",
    "ablation_repair_regularity",
    "EXPERIMENTS",
    "run_experiment",
    "run_all",
]
