"""Exact outcome distribution of `run_rds` on a tiny network, for oracle tests.

Written from the process that the `rdslab.sampler` and `SeedRule` docstrings
specify, not from `run_rds`: seeds are drawn under the configured seed rule,
respondents spend their coupons in enrolment order, a coupon resolves in the
docstring's five steps, and a run whose coupons are all spent draws one
reseed from the never-offered nodes if reseeding is on, else ends short.
Only `recruitment_weight` and `_degree_ramp` are taken from the sampler, as
the definitions of a weight and a ramp.
Every branch is enumerated with its exact probability, so the cost grows
with the number of paths; keep networks to a handful of nodes.

An outcome is the node order of a sample and each respondent's recruiter
position (-1 for a seed or reseed), as `Sample.node_id` and
`Sample.recruiter_pos` give them.
"""

from __future__ import annotations

from collections import defaultdict

from rdslab import Network, SamplingConfig, recruitment_weight
from rdslab.sampler import _degree_ramp

Outcome = tuple[tuple[int, ...], tuple[int, ...]]


def referral_outcomes(net: Network, config: SamplingConfig) -> dict[Outcome, float]:
    """Every outcome of ``run_rds(net, config)`` with its exact probability."""
    b, rule = config.behavior, config.seed_rule
    degree = net.degrees.tolist()
    infected = net.infected.tolist()
    neighbors = net.neighbors

    def pass_prob(v: int) -> float:
        group = b.pass_prob_infected if infected[v] else b.pass_prob_uninfected
        return group * _degree_ramp(degree[v], *b.pass_degree_ramp)

    def response_prob(v: int) -> float:
        group = b.response_prob_infected if infected[v] else b.response_prob_uninfected
        return group * _degree_ramp(degree[v], *b.response_degree_ramp)

    def seed_picks(touched, drawn=()) -> list[tuple[int, float]]:
        """Each node a seed pick may take, with its probability.

        The pool is built from the nodes outside ``touched``: isolates are
        never in it, nor under ``infected_only_pps`` uninfected nodes, and
        under a uniform-k rule only the k lowest (highest) in degree, ties
        broken by id, are.  The pick is without replacement from the pool,
        ``drawn`` holding the seeds this draw has taken: in proportion to
        degree under a PPS rule, uniform under a uniform-k rule.
        """
        pool = [v for v in range(net.n_nodes) if v not in touched and degree[v] > 0]
        if rule.variant == "infected_only_pps":
            pool = [v for v in pool if infected[v]]
        uniform = rule.variant in ("uniform_lowest_k", "uniform_highest_k")
        if uniform:
            sign = 1 if rule.variant == "uniform_lowest_k" else -1
            pool = sorted(pool, key=lambda v: (sign * degree[v], v))[: rule.k]
        left = [v for v in pool if v not in drawn]
        weight = [1 if uniform else degree[v] for v in left]
        total = sum(weight)
        return [(v, w / total) for v, w in zip(left, weight)]

    outcomes: dict[Outcome, float] = defaultdict(float)

    def seeds(prob, nodes):
        if len(nodes) == config.n_seeds:
            coupons(prob, nodes, (-1,) * len(nodes), frozenset(), 0, config.coupons_per_respondent)
            return
        for v, p in seed_picks(frozenset(), nodes):
            seeds(prob * p, nodes + (v,))

    def coupons(prob, nodes, recruiters, refused, position, left):
        """Resolve the next coupon of the holder at ``position``, which holds ``left`` more."""
        if len(nodes) >= config.target_n:
            outcomes[nodes, recruiters] += prob
            return
        if position == len(nodes):  # every coupon is spent
            picks = seed_picks({*nodes, *refused}) if config.reseed_on_die_out else []
            if not picks:
                outcomes[nodes, recruiters] += prob
            for v, p in picks:
                coupons(prob * p, nodes + (v,), recruiters + (-1,), refused, position,
                        config.coupons_per_respondent)
            return
        if left == 0:
            coupons(prob, nodes, recruiters, refused, position + 1, config.coupons_per_respondent)
            return
        holder = nodes[position]
        # 1. Candidates are the neighbours never sampled and never offered a coupon.
        candidates = [v for v in neighbors[holder] if v not in nodes and v not in refused]
        if not candidates:
            coupons(prob, nodes, recruiters, refused, position, left - 1)
            return
        # 2. The holder passes the coupon or lets it expire.
        p_pass = pass_prob(holder)
        if p_pass < 1:
            coupons(prob * (1 - p_pass), nodes, recruiters, refused, position, left - 1)
        if p_pass == 0:
            return
        # 3. One candidate is chosen in proportion to its recruitment weight.
        weights = [recruitment_weight(net, b, holder, v) for v in candidates]
        total = sum(weights)
        if total == 0:
            coupons(prob * p_pass, nodes, recruiters, refused, position, left - 1)
            return
        for v, w in zip(candidates, weights):
            if w == 0:
                continue
            chosen = prob * p_pass * w / total
            # 4. and 5. The candidate responds and joins, or is refused for good.
            p_response = response_prob(v)
            if p_response > 0:
                coupons(chosen * p_response, nodes + (v,), recruiters + (position,), refused,
                        position, left - 1)
            if p_response < 1:
                coupons(chosen * (1 - p_response), nodes, recruiters, refused | {v}, position,
                        left - 1)

    seeds(1.0, ())
    return dict(outcomes)
