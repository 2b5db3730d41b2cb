"""The benchmark's workloads: one fixed `Condition` each, seeded by the caller.

Each workload is one researcher's batch run of a single condition.  Why each
exists, and which layer it stresses, is in README.md and BENCHMARK.json.
This module is also what the set-up probe imports in a fresh process, so
importing it must cost no more than importing `rdslab` itself.
"""

from __future__ import annotations

from rdslab import BehaviorConfig, Condition, NetworkSpec, SamplingConfig, SeedRule

# Replication count a full experiment of the condition would run; the
# benchmark itself runs as many replications as fit in its time budget.
REPLICATIONS = 300


def build_condition(name: str, base_seed: int) -> Condition:
    """The workload's condition with replication seeds derived from ``base_seed``."""
    if name == "desk_da18":
        network = NetworkSpec(differential_activity=1.8)
        sampling = SamplingConfig(n_seeds=10, seed_rule=SeedRule.pps_degree(), target_n=200)
    elif name == "desk_behavior500":
        network = NetworkSpec(differential_activity=1.0)
        sampling = SamplingConfig(
            n_seeds=10,
            seed_rule=SeedRule.pps_degree(),
            target_n=500,
            behavior=BehaviorConfig(
                pass_prob_uninfected=0.6,
                pass_prob_infected=0.9,
                response_prob_uninfected=0.8,
                response_prob_infected=0.7,
                similar_degree_width=4.0,
                candidate_degree_ramp=(0.5, 2.0),
            ),
        )
    elif name == "large_pop":
        network = NetworkSpec(n_nodes=10000, n_infected=2000, differential_activity=1.8)
        sampling = SamplingConfig(n_seeds=10, seed_rule=SeedRule.pps_degree(), target_n=500)
    else:
        raise KeyError(f"unknown workload {name!r}")
    return Condition(
        label=name,
        network=network,
        sampling=sampling,
        replications=REPLICATIONS,
        base_seed=base_seed,
    )
