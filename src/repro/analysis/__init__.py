"""Analytic models: Section 4 (availability) and Section 5 (traffic).

Everything here is exact and deterministic: Markov chains mirroring the
paper's state diagrams (:mod:`~repro.analysis.chains`), the paper's
closed forms (:mod:`~repro.analysis.availability`), participation counts
(:mod:`~repro.analysis.participation`), traffic cost models in messages
(:mod:`~repro.analysis.traffic`) and bytes
(:mod:`~repro.analysis.byte_traffic`), and the bounds behind Theorem 4.1
(:mod:`~repro.analysis.bounds`).

Extensions built on the same machinery: reliability/MTTF
(:mod:`~repro.analysis.reliability`), the Section 5.1 traffic crossover
(:mod:`~repro.analysis.crossover`), voting with witnesses
(:mod:`~repro.analysis.witnesses`), a single repair facility
(:mod:`~repro.analysis.serial_repair`), per-site failure rates
(:mod:`~repro.analysis.heterogeneous`) and replication sizing
(:mod:`~repro.analysis.sizing`).
"""

from .availability import (
    available_copy_availability,
    available_copy_closed_form,
    naive_availability,
    naive_availability_from_chain,
    naive_b_polynomial,
    scheme_availability,
    site_availability,
    voting_availability,
)
from .byte_traffic import ByteCosts, byte_access_cost, byte_traffic_model
from .bounds import (
    available_copy_lower_bound,
    sufficient_condition_holds,
    theorem_4_1_holds,
    theorem_4_1_margin,
    verify_theorem_4_1,
    voting_upper_bound,
)
from .crossover import crossover_failures_per_access, traffic_rate_per_access
from .chains import (
    available_copy_chain,
    is_available_state,
    is_voting_available,
    naive_available_copy_chain,
    voting_chain,
)
from .heterogeneous import (
    heterogeneous_available_copy_availability,
    heterogeneous_naive_availability,
    heterogeneous_voting_availability,
)
from .markov import MarkovChain
from .sizing import SizingResult, copies_needed, size_all_schemes
from .serial_repair import (
    available_copy_chain_serial,
    naive_chain_serial,
    serial_availability,
    voting_chain_serial,
)
from .reliability import (
    mean_outage_duration,
    mean_time_to_failure,
    scheme_mean_outage,
    scheme_mttf,
    scheme_survival,
    survival_probability,
)
from .participation import (
    available_copy_participation,
    naive_participation,
    participation_asymptote,
    voting_participation,
    voting_participation_from_chain,
)
from .witnesses import witness_configurations, witness_voting_availability
from .traffic import (
    OUSTERHOUT_READ_WRITE_RATIO,
    OperationCosts,
    access_cost,
    traffic_model,
)

__all__ = [
    "MarkovChain",
    "voting_chain",
    "available_copy_chain",
    "naive_available_copy_chain",
    "is_available_state",
    "is_voting_available",
    "site_availability",
    "voting_availability",
    "available_copy_availability",
    "available_copy_closed_form",
    "naive_availability",
    "naive_availability_from_chain",
    "naive_b_polynomial",
    "scheme_availability",
    "voting_participation",
    "voting_participation_from_chain",
    "available_copy_participation",
    "naive_participation",
    "participation_asymptote",
    "available_copy_lower_bound",
    "voting_upper_bound",
    "sufficient_condition_holds",
    "theorem_4_1_holds",
    "theorem_4_1_margin",
    "verify_theorem_4_1",
    "mean_time_to_failure",
    "survival_probability",
    "mean_outage_duration",
    "scheme_mttf",
    "scheme_survival",
    "scheme_mean_outage",
    "OperationCosts",
    "ByteCosts",
    "byte_traffic_model",
    "byte_access_cost",
    "witness_voting_availability",
    "witness_configurations",
    "crossover_failures_per_access",
    "traffic_rate_per_access",
    "serial_availability",
    "available_copy_chain_serial",
    "naive_chain_serial",
    "voting_chain_serial",
    "heterogeneous_voting_availability",
    "heterogeneous_naive_availability",
    "heterogeneous_available_copy_availability",
    "copies_needed",
    "size_all_schemes",
    "SizingResult",
    "traffic_model",
    "access_cost",
    "OUSTERHOUT_READ_WRITE_RATIO",
]
