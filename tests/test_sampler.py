"""Tests for seed selection and the coupon-driven referral process."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from rdslab import (
    BehaviorConfig,
    ConfigError,
    EventCounts,
    Network,
    RespondentRecord,
    NetworkSpec,
    Sample,
    SamplingConfig,
    SamplingError,
    SeedRule,
    generate_network,
    load_sample,
    recruitment_weight,
    run_rds,
    save_sample,
    select_seeds,
)
from rdslab.sampler import _degree_ramp, _seed_pool


def star_network(leaves: int = 9) -> Network:
    edges = np.array([[0, i] for i in range(1, leaves + 1)])
    infected = np.zeros(leaves + 1, dtype=bool)
    infected[0] = True
    return Network(infected, edges)


def path_network(n: int = 5) -> Network:
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return Network(np.ones(n, dtype=bool), edges)


class TestSeedRules:
    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            SeedRule("bogus")
        with pytest.raises(ConfigError):
            SeedRule.uniform_lowest(0)

    def test_pps_star_center_half(self):
        # Center holds half the total degree, so it should appear as the
        # first pick about half the time.
        net = star_network()
        rng = np.random.default_rng(0)
        draws = 4000
        hits = sum(
            select_seeds(net, SeedRule.pps_degree(), 1, rng)[0] == 0
            for _ in range(draws)
        )
        assert abs(hits / draws - 0.5) < 0.03

    def test_uniform_pools_exact(self):
        net = path_network(5)  # degrees 1 2 2 2 1
        allowed = np.ones(5, dtype=bool)
        assert _seed_pool(net, SeedRule.uniform_lowest(2), allowed).tolist() == [0, 4]
        assert _seed_pool(net, SeedRule.uniform_lowest(3), allowed).tolist() == [0, 4, 1]
        assert _seed_pool(net, SeedRule.uniform_highest(3), allowed).tolist() == [1, 2, 3]

    def test_uniform_pool_ties_break_by_id(self):
        net = Network(
            np.ones(4, dtype=bool), np.array([[0, 1], [0, 2], [1, 3]])
        )  # degrees 2 2 1 1
        allowed = np.ones(4, dtype=bool)
        assert _seed_pool(net, SeedRule.uniform_lowest(2), allowed).tolist() == [2, 3]
        assert _seed_pool(net, SeedRule.uniform_highest(2), allowed).tolist() == [0, 1]

    def test_infected_only_pool_skips_uninfected_and_isolates(self):
        infected = np.array([True, True, False, True])
        net = Network(infected, np.array([[0, 2], [2, 3]]))  # node 1 is isolated
        pool = _seed_pool(net, SeedRule.infected_only_pps(), np.ones(4, dtype=bool))
        assert pool.tolist() == [0, 3]

    def test_insufficient_pool_raises(self):
        net = star_network(3)
        with pytest.raises(SamplingError, match="eligible seed"):
            select_seeds(net, SeedRule.infected_only_pps(), 2, np.random.default_rng(0))

    def test_seeds_distinct(self):
        net = path_network(6)
        for seed in range(20):
            picks = select_seeds(
                net, SeedRule.pps_degree(), 4, np.random.default_rng(seed)
            )
            assert len(set(picks)) == 4


class TestRecruitmentWeight:
    # one edge set reused below: degrees are 3, 2, 2, 1
    NET = Network(
        np.array([True, False, True, False]),
        np.array([[0, 1], [0, 2], [0, 3], [1, 2]]),
    )

    def test_group_factors_multiply(self):
        b = BehaviorConfig(own_group_weight_infected=0.6, infected_candidate_weight=2.0)
        # infected recruiter, infected candidate: 0.6 * 2.0
        assert recruitment_weight(self.NET, b, 0, 2) == pytest.approx(1.2)
        # infected recruiter, uninfected candidate: neither factor applies
        assert recruitment_weight(self.NET, b, 0, 1) == pytest.approx(1.0)

    def test_uninfected_own_group_factor(self):
        b = BehaviorConfig(own_group_weight_uninfected=0.3)
        assert recruitment_weight(self.NET, b, 1, 3) == pytest.approx(0.3)
        assert recruitment_weight(self.NET, b, 1, 0) == pytest.approx(1.0)

    def test_similar_degree_kernel(self):
        b = BehaviorConfig(similar_degree_width=10)
        assert recruitment_weight(self.NET, b, 0, 2) == pytest.approx(0.9)
        b = BehaviorConfig(similar_degree_width=2)
        assert recruitment_weight(self.NET, b, 0, 2) == pytest.approx(0.5)
        # gap of 2 at width 2 would hit zero; the floor keeps it positive
        assert recruitment_weight(self.NET, b, 0, 3) == pytest.approx(0.05)

    def test_degree_ramp_shape(self):
        assert _degree_ramp(5, 0.5, 1.0) == pytest.approx(0.5)
        assert _degree_ramp(6, 0.5, 1.0) == pytest.approx(0.6)
        assert _degree_ramp(8, 0.5, 1.0) == pytest.approx(0.8)
        assert _degree_ramp(10, 0.5, 1.0) == pytest.approx(1.0)
        assert _degree_ramp(11, 0.5, 1.0) == pytest.approx(1.0)
        b = BehaviorConfig(candidate_degree_ramp=(0.5, 1.0))
        assert recruitment_weight(self.NET, b, 0, 2) == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BehaviorConfig(response_prob_infected=1.5)
        with pytest.raises(ConfigError):
            BehaviorConfig(own_group_weight_infected=-0.1)
        with pytest.raises(ConfigError):
            BehaviorConfig(similar_degree_width=0)
        with pytest.raises(ConfigError):
            SamplingConfig(n_seeds=10, target_n=5)
        with pytest.raises(ConfigError):
            SamplingConfig(coupons_per_respondent=-1)


class TestRunRds:
    def test_two_node_chain(self):
        net = Network(np.array([True, False]), np.array([[0, 1]]))
        cfg = SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.infected_only_pps(),
            coupons_per_respondent=2,
            target_n=2,
            rng_seed=1,
        )
        s = run_rds(net, cfg)
        assert [(r.node_id, r.wave, r.recruiter_id) for r in s.records] == [
            (0, 0, None),
            (1, 1, 0),
        ]
        assert s.counts.coupons_issued == 4
        assert s.counts.coupons_used == 1
        assert s.counts.coupons_expired == 0
        assert not s.exhausted

    def test_refusal_burns_candidate(self):
        # Path 0-1-2 where node 1 is the only bridge and never responds:
        # the refusal consumes the coupon and leaves 1 permanently
        # untouchable, so the other side is reachable only by reseed.
        net = Network(np.array([True, False, True]), np.array([[0, 1], [1, 2]]))
        cfg = SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.infected_only_pps(),
            coupons_per_respondent=2,
            target_n=3,
            behavior=BehaviorConfig(response_prob_uninfected=0.0),
            rng_seed=5,
        )
        s = run_rds(net, cfg)
        assert {r.node_id for r in s.records} == {0, 2}
        assert all(r.wave == 0 for r in s.records)
        assert s.records[1].reseed
        assert s.counts.nonresponses == 1
        assert s.counts.coupons_used == 0
        assert s.counts.coupons_expired == 3
        assert s.exhausted

    def test_die_out_reseeds_and_resets_wave(self):
        edges = np.array([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])
        net = Network(np.ones(10, dtype=bool), edges)
        cfg = SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.pps_degree(),
            coupons_per_respondent=1,
            target_n=6,
            rng_seed=9,
        )
        s = run_rds(net, cfg)
        assert s.size == 6
        assert s.reseed_count == 2
        for rec in s.records:
            if rec.reseed:
                assert rec.wave == 0
                assert rec.recruiter_id is None
        assert not s.exhausted

    def test_no_reseed_stops_short(self):
        edges = np.array([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])
        net = Network(np.ones(10, dtype=bool), edges)
        cfg = SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.pps_degree(),
            coupons_per_respondent=1,
            target_n=6,
            reseed_on_die_out=False,
            rng_seed=9,
        )
        s = run_rds(net, cfg)
        assert s.size == 2
        assert s.exhausted

    def test_zero_pass_probability_never_recruits(self):
        net = Network(np.ones(4, dtype=bool), np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
        cfg = SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.pps_degree(),
            coupons_per_respondent=2,
            target_n=4,
            behavior=BehaviorConfig(pass_prob_infected=0.0),
            rng_seed=2,
        )
        s = run_rds(net, cfg)
        assert s.size == 4
        assert s.counts.coupons_used == 0
        assert all(r.recruiter_id is None for r in s.records)

    def test_zero_response_group_absent_from_sample(self):
        net = generate_network(NetworkSpec(rng_seed=4))
        cfg = SamplingConfig(
            seed_rule=SeedRule.infected_only_pps(),
            target_n=60,
            behavior=BehaviorConfig(response_prob_uninfected=0.0),
            rng_seed=4,
        )
        s = run_rds(net, cfg)
        assert all(net.infected[r.node_id] for r in s.records)
        assert s.counts.nonresponses > 0

    def test_structural_invariants(self):
        net = generate_network(NetworkSpec(rng_seed=1))
        cfg = SamplingConfig(seed_rule=SeedRule.pps_degree(), target_n=200, rng_seed=1)
        s = run_rds(net, cfg)
        ids = [r.node_id for r in s.records]
        assert len(ids) == len(set(ids)) == 200
        position = s.index_of()
        for order, rec in enumerate(s.records):
            assert rec.degree == net.degrees[rec.node_id]
            assert rec.infected == bool(net.infected[rec.node_id])
            if rec.recruiter_id is None:
                assert rec.wave == 0
            else:
                assert position[rec.recruiter_id] < order
                assert rec.wave == s.records[position[rec.recruiter_id]].wave + 1
                assert rec.node_id in net.neighbors[rec.recruiter_id]
        c = s.counts
        assert c.coupons_issued == s.size * cfg.coupons_per_respondent
        assert c.coupons_used == sum(1 for r in s.records if r.recruiter_id is not None)
        assert c.coupons_resolved <= c.coupons_issued

    def test_deterministic_given_seed(self):
        net = generate_network(NetworkSpec(rng_seed=2))
        cfg = SamplingConfig(seed_rule=SeedRule.pps_degree(), target_n=150, rng_seed=37)
        a = run_rds(net, cfg)
        b = run_rds(net, cfg)
        assert a.records == b.records
        assert a.counts == b.counts
        other = run_rds(net, SamplingConfig(
            seed_rule=SeedRule.pps_degree(), target_n=150, rng_seed=38))
        assert a.records != other.records

    def test_single_recruitment_uniform_over_leaves(self):
        # With the center pinned as the seed, the first recruit must be
        # uniform over the nine leaves; chi-square on 10000 runs.
        net = star_network(9)
        cfg = SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.uniform_highest(1),
            coupons_per_respondent=2,
            target_n=2,
            rng_seed=0,
        )
        counts = np.zeros(10, dtype=int)
        for seed in range(10000):
            s = run_rds(net, SamplingConfig(
                n_seeds=1,
                seed_rule=SeedRule.uniform_highest(1),
                coupons_per_respondent=2,
                target_n=2,
                rng_seed=seed,
            ))
            assert s.records[0].node_id == 0
            counts[s.records[1].node_id] += 1
        result = stats.chisquare(counts[1:])
        assert result.pvalue > 0.001

    def test_infected_preference_raises_infected_share(self):
        # Doubling the infected-candidate weight must raise the infected
        # share of the sample on the same network.
        net = generate_network(NetworkSpec(rng_seed=6))
        totals = {}
        for weight in (1.0, 2.0):
            infected = 0
            for seed in range(500):
                s = run_rds(net, SamplingConfig(
                    seed_rule=SeedRule.pps_degree(),
                    target_n=100,
                    behavior=BehaviorConfig(infected_candidate_weight=weight),
                    rng_seed=seed,
                ))
                infected += s.n_infected
            totals[weight] = infected
        assert totals[2.0] > totals[1.0]


class TestSampleSerialization:
    def test_round_trip(self, tmp_path):
        net = generate_network(NetworkSpec(rng_seed=5))
        s = run_rds(net, SamplingConfig(
            seed_rule=SeedRule.pps_degree(), target_n=80, rng_seed=5))
        path = tmp_path / "sample.txt"
        save_sample(s, path)
        back = load_sample(path)
        assert back.records == s.records
        assert back.counts == s.counts
        assert back.exhausted == s.exhausted

    def test_round_trip_exhausted_flag(self, tmp_path):
        net = Network(np.array([True, False]), np.array([[0, 1]]))
        s = run_rds(net, SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.infected_only_pps(),
            target_n=2,
            behavior=BehaviorConfig(response_prob_uninfected=0.0),
            reseed_on_die_out=False,
            rng_seed=0,
        ))
        assert s.exhausted
        path = tmp_path / "sample.txt"
        save_sample(s, path)
        assert load_sample(path).exhausted

    @given(
        records=st.lists(st.builds(
            RespondentRecord,
            node_id=st.integers(0, 10**6),
            degree=st.integers(0, 100),
            infected=st.booleans(),
            recruiter_id=st.none() | st.integers(0, 10**6),
            wave=st.integers(0, 50),
            reseed=st.booleans(),
        ), max_size=20),
        counts=st.builds(EventCounts, *[st.integers(0, 10**4)] * 4),
        exhausted=st.booleans(),
    )
    def test_round_trip_any_sample(self, tmp_path_factory, records, counts, exhausted):
        path = tmp_path_factory.mktemp("sample") / "sample.txt"
        save_sample(Sample(records, counts, exhausted), path)
        back = load_sample(path)
        assert (back.records, back.counts, back.exhausted) == (records, counts, exhausted)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("order node_id degree\n0 1 2\n")
        with pytest.raises(ConfigError):
            load_sample(path)
        path.write_text("not a header at all\n")
        with pytest.raises(ConfigError):
            load_sample(path)
