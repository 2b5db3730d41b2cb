"""rdslab: a simulation laboratory for respondent-driven sampling.

Modules
-------
netgen
    Synthetic two-group networked populations from moment-level specs.
sampler
    The coupon-based referral process with controllable respondent behavior.
estimators
    Five population-proportion estimators computed from a sample alone.
harness
    Replicated experiments, summaries, paired comparisons, CSV export.
cli
    Config-driven command line front end.
"""

from .errors import ConfigError, EstimationError, RdslabError, SamplingError
from .netgen import (
    BlockProbabilities,
    Network,
    NetworkSpec,
    NetworkStats,
    generate_network,
    load_network,
    network_summary,
    save_network,
    solve_block_probabilities,
)
from .sampler import (
    BehaviorConfig,
    EventCounts,
    RespondentRecord,
    Sample,
    SamplingConfig,
    SeedRule,
    load_sample,
    recruitment_weight,
    run_rds,
    save_sample,
    select_seeds,
)
from .estimators import (
    CrossGroupCounts,
    DegreeGroups,
    EstimateSet,
    SsOptions,
    adjusted_degree,
    cross_group_counts,
    degree_group_transition_matrix,
    equilibrium_distribution,
    estimate_all,
    h_estimate,
    harmonic_mean_degree,
    naive_estimate,
    partition_degree_groups,
    rcd_values,
    sh_estimate,
    ss_estimate,
    ss_probabilities,
    vh_estimate,
)
from .harness import (
    Condition,
    ConditionSummary,
    PairedTestResult,
    ReplicationRow,
    ReplicationTable,
    SummaryRow,
    csv_lines,
    derive_rep_seeds,
    export_csv,
    load_replication_csv,
    paired_difference_test,
    run_condition,
    run_replication,
    summarize,
)

__version__ = "0.1.0"
