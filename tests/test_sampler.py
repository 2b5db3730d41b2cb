"""Tests for seed selection and the coupon-driven referral process."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy import stats

from rdslab import (
    ESTIMATOR_NAMES,
    BehaviorConfig,
    Condition,
    ConfigError,
    EventCounts,
    Network,
    RespondentRecord,
    NetworkSpec,
    Sample,
    SamplingConfig,
    SamplingError,
    SeedRule,
    SsOptions,
    csv_lines,
    estimate_all,
    export_csv,
    generate_network,
    load_sample,
    recruitment_weight,
    run_condition,
    run_rds,
    save_sample,
    select_seeds,
    summarize,
)
from rdslab.estimators import ENUMERATION_LIMIT
import rdslab.sampler as sampler_module
from rdslab.sampler import (
    UNIFORM_HIGHEST_K, UNIFORM_LOWEST_K,
    _REFUSED, _SAMPLED, _UNTOUCHED, _degree_ramp, _draw_seeds, _Tables, _uniforms,
)

from exact_rds import outcome_sample, referral_outcomes


def star_network(leaves: int = 9) -> Network:
    edges = np.array([[0, i] for i in range(1, leaves + 1)])
    infected = np.zeros(leaves + 1, dtype=bool)
    infected[0] = True
    return Network(infected, edges)


def path_network(n: int = 5) -> Network:
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return Network(np.ones(n, dtype=bool), edges)


def _pool(net: Network, rule: SeedRule, count: int) -> list[int]:
    # With every uniform 0 a uniform-k draw swaps nothing and a PPS pick takes
    # the first eligible node left, so the draw lists the pool in order.
    return _draw_seeds(net, rule, count, lambda: 0.0, np.ones(net.n_nodes, dtype=bool))


class TestSeedRules:
    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            SeedRule("bogus")
        with pytest.raises(ConfigError):
            SeedRule.uniform_lowest(0)
        with pytest.raises(ConfigError, match="seed rule pps_degree takes no k, got 3"):
            SeedRule("pps_degree", k=3)

    def test_zero_seed_count_rejected(self):
        with pytest.raises(ConfigError, match="seed count must be >= 1, got 0"):
            select_seeds(path_network(4), SeedRule.pps_degree(), 0, np.random.default_rng(0))

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
        assert _pool(net, SeedRule.uniform_lowest(2), 2) == [0, 4]
        assert _pool(net, SeedRule.uniform_lowest(3), 3) == [0, 4, 1]
        assert _pool(net, SeedRule.uniform_highest(3), 3) == [1, 2, 3]

    def test_uniform_pool_ties_break_by_id(self):
        net = Network(
            np.ones(4, dtype=bool), np.array([[0, 1], [0, 2], [1, 3]])
        )  # degrees 2 2 1 1
        assert _pool(net, SeedRule.uniform_lowest(2), 2) == [2, 3]
        assert _pool(net, SeedRule.uniform_highest(2), 2) == [0, 1]

    def test_infected_only_pool_skips_uninfected_and_isolates(self):
        infected = np.array([True, True, False, True])
        net = Network(infected, np.array([[0, 2], [2, 3]]))  # node 1 is isolated
        assert _pool(net, SeedRule.infected_only_pps(), 2) == [0, 3]

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


_PPS_RULES = [SeedRule.pps_degree(), SeedRule.infected_only_pps()]


@st.composite
def seed_populations(draw) -> tuple[SimpleNamespace, np.ndarray]:
    # Integer degrees with zeros (isolates), an infected flag and an
    # `allowed` mask per node; `_draw_seeds` reads nothing else of a network.
    n = draw(st.integers(1, 200))
    degree = st.integers(0, 40) | st.sampled_from([0, 1, 10**6])
    net = SimpleNamespace(
        degrees=np.array(draw(st.lists(degree, min_size=n, max_size=n)), dtype=np.int64),
        infected=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        n_nodes=n,
    )
    return net, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


def _eligible_weights(net, rule: SeedRule, allowed: np.ndarray) -> np.ndarray:
    eligible = allowed & (net.degrees > 0)
    if rule == SeedRule.infected_only_pps():
        eligible &= net.infected
    return np.where(eligible, net.degrees, 0)


def _exact_pps_reference(weights: np.ndarray, uniforms: list[float]) -> list[int]:
    # Each pick recomputes the integer CDF of the weights left and takes the
    # first index whose cumulative weight exceeds u times their total, in
    # exact rationals.
    w = weights.tolist()
    picks = []
    for u in uniforms:
        target = Fraction(u) * sum(w)
        cumulative = list(accumulate(w))
        picks.append(next(i for i, c in enumerate(cumulative) if c > target))
        w[picks[-1]] = 0
    return picks


class TestCertifiedPpsPick:
    """PPS seeds are exact integer inverse-CDF picks, one double each."""

    @given(case=seed_populations(), rule=st.sampled_from(_PPS_RULES), count=st.integers(1, 12),
           seed=st.integers(0, 2**32))
    def test_draws_equal_zero_as_you_go_choice(self, case, rule, count, seed):
        # The float CDF of ``rng.choice(p=...)`` lies within (2N+8) * 2**-53
        # of the exact one, so both pick the same node unless a uniform falls
        # that close to a step: PPS samples are those of successive `choice`
        # calls, each picked weight zeroed.
        net, allowed = case
        w = _eligible_weights(net, rule, allowed).astype(float)
        count = min(count, int(np.count_nonzero(w)))
        assume(count >= 1)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        for _ in range(count):
            expected.append(int(ref.choice(len(w), p=w / w.sum())))
            w[expected[-1]] = 0.0
        assert _draw_seeds(net, rule, count, rng.random, allowed) == expected
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(case=seed_populations(), rule=st.sampled_from(_PPS_RULES),
           uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True)
                             | st.sampled_from([0.0, 0.5, float(np.nextafter(1.0, 0.0))]),
                             min_size=1, max_size=12))
    def test_draws_equal_exact_reference(self, case, rule, uniforms):
        net, allowed = case
        w = _eligible_weights(net, rule, allowed)
        uniforms = uniforms[: int(np.count_nonzero(w))]
        assume(uniforms)
        expected = _exact_pps_reference(w, uniforms)
        assert _draw_seeds(net, rule, len(uniforms), iter(uniforms).__next__, allowed) == expected

    @given(case=seed_populations(), lowest=st.booleans(), k=st.integers(1, 20),
           uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True)
                             | st.sampled_from([0.0, 0.5, float(np.nextafter(1.0, 0.0))]),
                             min_size=1, max_size=20))
    def test_uniform_k_draws_equal_reference(self, case, lowest, k, uniforms):
        # Reference: the eligible ids sorted by (degree, id) or (-degree, id),
        # cut at k, then a Fisher-Yates shuffle over the given uniforms.
        net, allowed = case
        rule = SeedRule.uniform_lowest(k) if lowest else SeedRule.uniform_highest(k)
        sign = 1 if lowest else -1
        eligible = [v for v in range(net.n_nodes) if allowed[v] and net.degrees[v] > 0]
        pool = sorted(eligible, key=lambda v: (sign * int(net.degrees[v]), v))[:k]
        uniforms = uniforms[: len(pool)]
        assume(uniforms)
        for i, u in enumerate(uniforms):
            j = i + int(u * (len(pool) - i))
            pool[i], pool[j] = pool[j], pool[i]
        expected = pool[: len(uniforms)]
        assert _draw_seeds(net, rule, len(uniforms), iter(uniforms).__next__, allowed) == expected

    @pytest.mark.parametrize("rule", _PPS_RULES)
    def test_uniform_on_a_step_picks_the_next_index(self, rule):
        # Weights 2, 8, 2, 4 sum to 16, and to 8 once node 1 is picked, so
        # each step W'_k / S' is a double exactly.  A uniform on the step
        # after index k picks the next index whose weight is left; one just
        # below it picks k.
        net = SimpleNamespace(degrees=np.array([2, 8, 2, 4]), infected=np.ones(4, dtype=bool),
                              n_nodes=4)
        allowed = np.ones(4, dtype=bool)
        below = float(np.nextafter(2 / 16, 0.0))
        cases = [
            ([0.0], [0]), ([below], [0]), ([2 / 16], [1]), ([10 / 16], [2]), ([12 / 16], [3]),
            # With node 1 picked the steps are W' = 2, 2, 4 of 8: the step
            # after node 0 is also the one after node 1, so it picks node 2.
            ([2 / 16, 0.0], [1, 0]), ([2 / 16, 2 / 8], [1, 2]), ([2 / 16, 4 / 8], [1, 3]),
        ]
        for uniforms, expected in cases:
            assert _exact_pps_reference(net.degrees, uniforms) == expected
            assert _draw_seeds(net, rule, len(uniforms), iter(uniforms).__next__,
                               allowed) == expected

    def test_pick_frequencies_follow_degree(self):
        # First picks at a pinned seed against degree / sum, by chi-square.
        degrees = np.array([0, 1, 2, 3, 5, 8, 13, 0, 21])
        net = SimpleNamespace(degrees=degrees, infected=np.ones(9, dtype=bool), n_nodes=9)
        rng = np.random.default_rng(2024)
        draws = 20000
        counts = np.bincount([select_seeds(net, SeedRule.pps_degree(), 1, rng)[0]
                              for _ in range(draws)], minlength=9)
        positive = degrees > 0
        assert not counts[~positive].any()
        expected = draws * degrees[positive] / degrees.sum()
        assert stats.chisquare(counts[positive], expected).pvalue > 0.001

    @pytest.mark.parametrize("rule", [SeedRule.uniform_lowest(7), SeedRule.uniform_highest(7)])
    def test_uniform_k_frequencies_are_uniform(self, rule):
        # Each of three picks without replacement, at a pinned seed, is
        # uniform over the 7-node pool, by chi-square.
        net = generate_network(NetworkSpec(n_nodes=60, n_infected=12, rng_seed=4))
        pool = _pool(net, rule, 7)
        rng = np.random.default_rng(2025)
        counts = np.zeros((3, net.n_nodes), dtype=int)
        for _ in range(7000):
            picks = select_seeds(net, rule, 3, rng)
            assert len(set(picks)) == 3 and set(picks) <= set(pool)
            counts[[0, 1, 2], picks] += 1
        for slot in counts:
            assert stats.chisquare(slot[pool]).pvalue > 0.001

    @pytest.mark.parametrize("rule", [*_PPS_RULES, SeedRule.uniform_lowest(15),
                                      SeedRule.uniform_highest(8)])
    def test_select_seeds_leaves_rng_at_scalar_calls(self, rule):
        net = generate_network(NetworkSpec(n_nodes=120, n_infected=30, rng_seed=8))
        for count in (1, 4):
            rng, ref = np.random.default_rng(count), np.random.default_rng(count)
            select_seeds(net, rule, count, rng)
            for _ in range(count):
                ref.random()
            assert rng.bit_generator.state == ref.bit_generator.state


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
        for bad in (float("inf"), float("nan")):
            for name in ("own_group_weight_uninfected", "own_group_weight_infected",
                         "infected_candidate_weight"):
                with pytest.raises(ConfigError, match=f"{name} must be finite"):
                    BehaviorConfig(**{name: bad})
            with pytest.raises(ConfigError, match="candidate_degree_ramp"):
                BehaviorConfig(candidate_degree_ramp=(1.0, bad))
            with pytest.raises(ConfigError, match="candidate_degree_ramp"):
                BehaviorConfig(candidate_degree_ramp=(bad, 1.0))
        with pytest.raises(ConfigError):
            BehaviorConfig(similar_degree_width=float("nan"))
        assert BehaviorConfig(similar_degree_width=float("inf")).similar_degree_width > 1e308
        with pytest.raises(ConfigError):
            SamplingConfig(n_seeds=10, target_n=5)
        with pytest.raises(ConfigError):
            SamplingConfig(coupons_per_respondent=-1)
        with pytest.raises(ConfigError, match="n_seeds must be >= 1, got 0"):
            SamplingConfig(n_seeds=0)
        for name in ("pass_degree_ramp", "response_degree_ramp"):
            for ramp in ((0.5, 1.5), (-0.1, 1.0)):
                with pytest.raises(ConfigError, match=f"{name} values must be in"):
                    BehaviorConfig(**{name: ramp})


def _star_picks(infected: bool, behavior: BehaviorConfig, runs: int = 3000) -> list[int]:
    """How often each of a 3-leaf star's leaves is the hub's one recruit, over ``runs`` seeds."""
    net = Network(np.full(4, infected), np.array([[0, 1], [0, 2], [0, 3]]))
    counts = [0] * 4
    for seed in range(runs):
        s = run_rds(net, SamplingConfig(n_seeds=1, seed_rule=SeedRule.uniform_highest(1),
                                        coupons_per_respondent=1, target_n=2,
                                        behavior=behavior, rng_seed=seed))
        if s.size == 2:
            counts[int(s.node_id[1])] += 1
    return counts[1:]


def _largest_accepted(behavior_of) -> float:
    """The largest weight ``w`` with ``behavior_of(w)`` accepted, bisected over the doubles."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, math.inf))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            behavior_of(float(np.int64(mid).view(np.float64)))
            lo = mid
        except ConfigError:
            hi = mid
    return float(np.int64(lo).view(np.float64))


class TestWeightProducts:
    """Weights whose products round to 0 or whose running sums overflow are refused."""

    # Each of these used to skew or stop the picks on the 3-leaf star: the
    # last leaf always, or no recruit at all.
    @pytest.mark.parametrize("fields,message", [
        ({"own_group_weight_uninfected": 1e308}, "times MAX_NODES overflows"),
        ({"own_group_weight_infected": 1e200, "infected_candidate_weight": 1e200},
         "times MAX_NODES overflows"),
        ({"own_group_weight_infected": 1e-200, "infected_candidate_weight": 1e-200},
         "can multiply to 0.0"),
    ], ids=["overflow_sum", "overflow_product", "underflow"])
    def test_star_configs_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message) as info:
            BehaviorConfig(**fields)
        assert all(name in str(info.value) for name in fields)

    def test_tiny_factors(self):
        # One subnormal factor stays valid; the kernel's floor of 0.05 takes it to 0.
        BehaviorConfig(candidate_degree_ramp=(5e-324, 5e-324))
        BehaviorConfig(candidate_degree_ramp=(5e-324, 5e-324), similar_degree_width=math.inf)
        with pytest.raises(ConfigError, match="similar_degree_width, candidate_degree_ramp"):
            BehaviorConfig(candidate_degree_ramp=(5e-324, 5e-324), similar_degree_width=3.0)
        # From 0 to one subnormal, degree 6's ramp value of 5e-324 / 5 rounds to 0.
        with pytest.raises(ConfigError, match="rounds to 0 between its ends"):
            BehaviorConfig(candidate_degree_ramp=(0.0, 5e-324))
        # A zero factor is no product: the weight is meant to be 0.
        BehaviorConfig(own_group_weight_infected=0.0, infected_candidate_weight=1e-300,
                       similar_degree_width=2.0)

    @pytest.mark.parametrize("infected,names", [
        (False, ["own_group_weight_uninfected"]),
        (True, ["own_group_weight_infected", "infected_candidate_weight"]),
    ], ids=["uninfected", "infected"])
    def test_largest_accepted_weights_pick_uniformly(self, infected, names):
        def behavior(w: float) -> BehaviorConfig:
            return BehaviorConfig(**dict.fromkeys(names, w))

        w = _largest_accepted(behavior)
        assert w > 1e150
        counts = _star_picks(infected, behavior(w))
        assert sum(counts) == 3000
        assert stats.chisquare(counts).pvalue >= 1e-3


_weights = st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0, 3.7]) | st.floats(0.0, 10.0)
_probs = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def behaviors(draw) -> BehaviorConfig:
    # Weights that can multiply to 0 or overflow, such as two tiny ones, make
    # a rejected config (`TestWeightProducts`); such draws are skipped.
    try:
        return BehaviorConfig(
            own_group_weight_uninfected=draw(_weights),
            own_group_weight_infected=draw(_weights),
            infected_candidate_weight=draw(_weights),
            similar_degree_width=draw(
                st.none() | st.sampled_from([float("inf"), 1e-3, 4.0]) | st.floats(0.01, 50.0)
            ),
            candidate_degree_ramp=draw(st.none() | st.tuples(_weights, _weights)),
            pass_prob_uninfected=draw(_probs),
            pass_prob_infected=draw(_probs),
            pass_degree_ramp=draw(st.tuples(_probs, _probs)),
            response_prob_uninfected=draw(_probs),
            response_prob_infected=draw(_probs),
            response_degree_ramp=draw(st.tuples(_probs, _probs)),
        )
    except ConfigError:
        reject()


def _pass_prob(b: BehaviorConfig, infected: bool, degree: int) -> float:
    p = b.pass_prob_infected if infected else b.pass_prob_uninfected
    return p * _degree_ramp(degree, *b.pass_degree_ramp)


def _response_prob(b: BehaviorConfig, infected: bool, degree: int) -> float:
    p = b.response_prob_infected if infected else b.response_prob_uninfected
    return p * _degree_ramp(degree, *b.response_degree_ramp)


class TestBehaviorTables:
    """The type tables `run_rds` draws from against the per-call definitions."""

    @given(
        b=behaviors(),
        net_seed=st.integers(0, 2**16),
        mean_degree=st.sampled_from([2.0, 7.0, 15.0]),
    )
    def test_weights_equal_recruitment_weight(self, b, net_seed, mean_degree):
        net = generate_network(NetworkSpec(
            n_nodes=120, n_infected=30, mean_degree=mean_degree,
            differential_activity=1.5, rng_seed=net_seed))
        tables = _Tables(net, b)
        nodes = range(net.n_nodes)
        groups, degrees = net.infected.tolist(), net.degrees.tolist()
        # A node's code is a function of its (group, degree), one per pair present.
        types = set(zip(groups, degrees))
        assert len(set(zip(groups, degrees, tables.code))) == len(set(tables.code)) == len(types)
        for v in nodes:
            t = tables.code[v]
            assert tables.pass_prob[t] == _pass_prob(b, groups[v], degrees[v])
            assert tables.response_prob[t] == _response_prob(b, groups[v], degrees[v])
        expected = [[recruitment_weight(net, b, h, v) for v in nodes] for h in nodes]
        if tables.weight is None:
            assert all(w == 1.0 for row in expected for w in row)
        else:
            assert len(tables.weight) == 2 * len(set(degrees))
            code, weight = tables.code, tables.weight
            assert [[weight[code[h]][code[v]] for v in nodes] for h in nodes] == expected

    def test_identity_behavior_is_uniform(self):
        net = generate_network(NetworkSpec(rng_seed=3))
        assert _Tables(net, BehaviorConfig()).weight is None
        assert _Tables(net, BehaviorConfig(
            similar_degree_width=float("inf"), candidate_degree_ramp=(1.0, 1.0))).weight is None
        assert _Tables(net, BehaviorConfig(infected_candidate_weight=0.999)).weight is not None
        assert _Tables(net, BehaviorConfig(similar_degree_width=1e6)).weight is not None

    @staticmethod
    def _walk(u: float, k: int) -> int:
        # The cumulative walk `run_rds` makes over k weights of 1.0.
        weights = [1.0] * k
        r = u * sum(weights)
        acc = 0.0
        for j, w in enumerate(weights):
            acc += w
            if r < acc:
                return j
        return k - 1

    @given(
        u=st.floats(0.0, 1.0, exclude_max=True)
        | st.sampled_from([0.0, float(np.nextafter(1.0, 0.0)), 1.0 - 2**-52, 1.0 - 2**-40]),
        k=st.integers(1, 5000) | st.sampled_from([1, 2, 3, 1024, 1025]),
    )
    def test_identity_pick_equals_walk(self, u, k):
        assert int(u * k) == self._walk(u, k)

    def test_identity_pick_next_to_one(self):
        # u * k never rounds up to k for u < 1, so the pick is always a
        # valid index: the last one, as the walk's fallback would give.
        u = float(np.nextafter(1.0, 0.0))
        for k in range(1, 2000):
            assert int(u * k) == self._walk(u, k) == k - 1
        for k in (2**20, 2**20 + 1, 10**6, 2**40 + 3, 2**52 - 1):
            assert int(u * k) == k - 1


class TestUniforms:
    @given(seed=st.integers(0, 2**32), steps=st.lists(st.integers(0, 300), max_size=8))
    def test_same_stream_as_scalar_calls(self, seed, steps):
        # Blocks of draws give the values scalar calls on one generator give.
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        random = _uniforms(rng)
        for count in steps:
            assert [random() for _ in range(count)] == [ref.random() for _ in range(count)]
        assert random() == ref.random()


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
        position = {node: i for i, node in enumerate(ids)}
        # The positions run_rds hands over are those a records-built sample resolves.
        rebuilt = Sample(s.records, s.counts)
        assert s.recruiter_pos.tolist() == rebuilt.recruiter_pos.tolist() == [
            -1 if r.recruiter_id is None else position[r.recruiter_id] for r in s.records
        ]
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

    def test_strided_infected_view_samples_as_a_copy(self):
        # `run_rds` reads the network's arrays in place; a group column cut
        # from a wider table is a strided view, not a contiguous array.
        base = generate_network(NetworkSpec(rng_seed=4))
        table = np.zeros((base.n_nodes, 3), dtype=bool)
        table[:, 1] = base.infected
        strided = Network(table[:, 1], base.edges)
        assert not strided.infected.flags.c_contiguous
        behavior = BehaviorConfig(own_group_weight_infected=3.0, infected_candidate_weight=0.5,
                                  similar_degree_width=4.0, response_prob_uninfected=0.7)
        cfg = SamplingConfig(seed_rule=SeedRule.infected_only_pps(), target_n=300,
                             behavior=behavior, rng_seed=8)
        a, b = run_rds(strided, cfg), run_rds(Network(base.infected.copy(), base.edges), cfg)
        assert a.records == b.records
        assert a.counts == b.counts

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

    @staticmethod
    def _first_recruit(monkeypatch, weight: float, pick: float) -> int:
        # The centre of a ten-leaf star recruits with one coupon; every leaf
        # weighs ``weight`` and the pick's uniform is ``pick``.
        script = iter([0.0, 0.0, pick, 0.0])  # seed, pass, pick, response
        monkeypatch.setattr(sampler_module, "_uniforms", lambda rng: script.__next__)
        s = run_rds(star_network(10), SamplingConfig(
            n_seeds=1,
            seed_rule=SeedRule.uniform_highest(1),
            coupons_per_respondent=1,
            target_n=2,
            behavior=BehaviorConfig(candidate_degree_ramp=(weight, weight)),
        ))
        assert next(script, None) is None
        assert s.node_id[0] == 0
        return int(s.node_id[1])

    def test_weighted_pick_total_is_the_running_sum(self, monkeypatch):
        # Ten weights of 0.1 run up to 0.9999999999999999, while a compensated
        # sum (Python 3.12's sum(), or fsum) gives 1.0.  The fifth running sum
        # is exactly 0.5, so a pick uniform of 0.5 stops at the fifth leaf
        # against the running total and would stop at the sixth against 1.0.
        weights = [0.1] * 10
        assert list(accumulate(weights))[4] == 0.5
        assert list(accumulate(weights))[-1] < math.fsum(weights) == 1.0
        assert self._first_recruit(monkeypatch, 0.1, 0.5) == 5

    def test_weighted_pick_at_the_total_takes_the_last(self, monkeypatch):
        # Doubles near a subnormal total are spaced so coarsely that the
        # largest uniform times the total rounds back to the total, which no
        # running sum exceeds: the walk ends on the last candidate.
        u = float(np.nextafter(1.0, 0.0))
        assert u * (10 * 5e-324) == 10 * 5e-324
        assert self._first_recruit(monkeypatch, 5e-324, u) == 10
        assert self._first_recruit(monkeypatch, 5e-324, 0.0) == 1

    @pytest.mark.parametrize("reseed", [False, True])
    def test_many_coupons_cost_no_memory(self, reseed):
        # A path of four nodes and a separate edge, identity behaviour: each
        # holder recruits its eligible neighbours and its other coupons
        # expire at once, so a million coupons per respondent allocate
        # nothing per coupon.
        net = Network(np.ones(6, dtype=bool), np.array([[0, 1], [1, 2], [2, 3], [4, 5]]))
        coupons = 10**6
        cfg = SamplingConfig(n_seeds=1, coupons_per_respondent=coupons, target_n=6,
                             reseed_on_die_out=reseed, rng_seed=3)
        run_rds(net, cfg)  # the first call in a process may still import numpy.random
        tracemalloc.start()
        try:
            s = run_rds(net, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = s.counts
        assert c.coupons_issued == s.size * coupons
        assert c.coupons_used == s.size - 1 - s.reseed_count
        assert c.coupons_resolved <= c.coupons_issued
        # A run that dies out has spent every coupon; one that reaches
        # target_n leaves the last holder's later coupons unspent.
        assert (c.coupons_resolved == c.coupons_issued) == s.exhausted == (not reseed)
        assert peak < 2**16

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
        # Only a row with no recruiter may be a reseed (`load_sample` refuses the rest).
        ).map(lambda r: dataclasses.replace(r, reseed=r.reseed and r.recruiter_id is None)),
            max_size=20),
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
        header = "order node_id degree infected recruiter_id wave reseed\n"
        for rows, message in [
            ("0 5 3 1 -1 0 0\n2 6 3 1 5 1 0\n", "bad.txt:3: order column out of sequence"),
            ("0 5 3 1 -1 0 0\n1 6 3 1 -7 1 0\n", "bad.txt:3: recruiter_id must be -1"),
            ("0 5 3 1 -1 0 0\n# coupons_lost 2\n", "bad.txt:3: unknown comment key"),
            ("0 5 3 1 -1 0 0\n# coupons_issued 2\n# coupons_issued 3\n",
             "bad.txt:4: repeated comment key 'coupons_issued'"),
            ("0 -5 -3 1 -1 0 0\n", "bad.txt:2: node_id must be >= 0, got -5"),
            ("0 5 3 1 -1 0 0\n1 6 -2 0 -1 0 0\n", "bad.txt:3: degree must be >= 0, got -2"),
            ("0 5 3 1 -1 0 0\n1 7 2 1 5 -4 0\n", "bad.txt:3: wave must be >= 0, got -4"),
            ("0 1 3 1 -1 0 0\n1 2 2 0 1 1 1\n", "bad.txt:3: reseed must be 0 on a row with "
             "recruiter_id 1"),
        ]:
            path.write_text(header + rows)
            with pytest.raises(ConfigError, match=message):
                load_sample(path)
        path.write_text(header + "0 5 0 1 -1 0 0\n")  # an isolated respondent
        assert load_sample(path).degree.tolist() == [0]


def _sample_sha256(net: Network, cfg: SamplingConfig, path) -> tuple[str, Sample]:
    s = run_rds(net, cfg)
    save_sample(s, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), s


# Each case: network spec, sampling config, and the sha256 of `save_sample`
# output for that run.  The digests were recorded from the straightforward
# per-candidate loop (one `recruitment_weight` call per eligible neighbour,
# cumulative walk over every weight); any rewrite of `run_rds` must keep
# every digest, which pins the RNG draw order and count as well as the picks.
# The two uniform-k cases, `lowest_k_with_ramps` and `highest_k_candidate_ramp`,
# are recorded from the Fisher-Yates seed draw over the sampler's doubles;
# the others are as first recorded.
_DESK_BEHAVIOR = BehaviorConfig(
    pass_prob_uninfected=0.6,
    pass_prob_infected=0.9,
    response_prob_uninfected=0.8,
    response_prob_infected=0.7,
    similar_degree_width=4.0,
    candidate_degree_ramp=(0.5, 2.0),
)
PINNED_SAMPLES = {
    "identity_pps": (
        NetworkSpec(differential_activity=1.8, rng_seed=21),
        SamplingConfig(target_n=200, rng_seed=3),
        "ecf1be2a1dc4ba3112b64db65b9d4fc1fe352ca7eba54b1e250809d7262be64b",
    ),
    "identity_pps_large": (
        NetworkSpec(n_nodes=10000, n_infected=2000, differential_activity=1.8, rng_seed=22),
        SamplingConfig(target_n=500, rng_seed=4),
        "d689d8fd5f79c7c10c593f38dd4a80ba75db17600bdae38911c9f416c187d9ab",
    ),
    "desk_behavior": (
        NetworkSpec(rng_seed=23),
        SamplingConfig(target_n=500, behavior=_DESK_BEHAVIOR, rng_seed=5),
        "c257dcc9f16c569da42d2f23a697ab4d51e689af1e570f2f896bb478b150220b",
    ),
    "desk_behavior_other_seed": (
        NetworkSpec(rng_seed=24),
        SamplingConfig(target_n=500, behavior=_DESK_BEHAVIOR, rng_seed=6),
        "1ff50bd06c44741f3163021a883ad994ac4728c63784352277dddae659c2bb40",
    ),
    "group_weights": (
        NetworkSpec(differential_activity=1.4, rng_seed=25),
        SamplingConfig(target_n=300, rng_seed=7, behavior=BehaviorConfig(
            own_group_weight_uninfected=0.4,
            own_group_weight_infected=2.5,
            infected_candidate_weight=1.7,
        )),
        "d0f7a80a7f53b52ba31a5023fe1c446f4c537c13abf0aa1401bc29777099c785",
    ),
    "zero_infected_weight": (
        NetworkSpec(rng_seed=26),
        SamplingConfig(target_n=300, rng_seed=8, behavior=BehaviorConfig(
            infected_candidate_weight=0.0,
        )),
        "c04c60ac43757674d9662d2ddc3105bac30cc1f4ad1494cd0359cd5f3d87a9da",
    ),
    "zero_own_group_weights": (
        NetworkSpec(rng_seed=27),
        SamplingConfig(target_n=300, rng_seed=9, behavior=BehaviorConfig(
            own_group_weight_uninfected=0.0,
            own_group_weight_infected=0.0,
            similar_degree_width=3.0,
        )),
        "08952c827e657daa0186f1c74f46311b8499d5f61f5d44eebb0b4017082f3244",
    ),
    "infinite_width_kernel": (
        NetworkSpec(rng_seed=28),
        SamplingConfig(target_n=250, rng_seed=10, behavior=BehaviorConfig(
            similar_degree_width=float("inf"),
            candidate_degree_ramp=(0.0, 3.0),
        )),
        "a5ac08fbdce0538a6f8a1d7e8eec6bcc256786a66a1e79cab1502931b92c35e0",
    ),
    "lowest_k_with_ramps": (
        NetworkSpec(differential_activity=0.7, rng_seed=29),
        SamplingConfig(
            n_seeds=5,
            seed_rule=SeedRule.uniform_lowest(40),
            target_n=250,
            rng_seed=11,
            behavior=BehaviorConfig(
                pass_degree_ramp=(0.4, 1.0),
                response_degree_ramp=(1.0, 0.5),
                pass_prob_infected=0.8,
            ),
        ),
        "b671745702426ba414ba1d82174af17b99c1d707a5444ed6ad1e7c0a792e93c5",
    ),
    "highest_k_candidate_ramp": (
        NetworkSpec(rng_seed=30),
        SamplingConfig(
            n_seeds=4,
            seed_rule=SeedRule.uniform_highest(30),
            target_n=200,
            rng_seed=12,
            behavior=BehaviorConfig(candidate_degree_ramp=(2.0, 0.25)),
        ),
        "62e637ac823c8c8f7cbe3296d555850f10af21361b1dd07a03e150cf5d7ebe47",
    ),
    "no_reseed_exhausted": (
        NetworkSpec(rng_seed=31),
        SamplingConfig(
            n_seeds=3,
            coupons_per_respondent=1,
            target_n=400,
            reseed_on_die_out=False,
            rng_seed=13,
            behavior=BehaviorConfig(pass_prob_uninfected=0.85, pass_prob_infected=0.85),
        ),
        "2e9e4d9aafa26f867025379a5a541b5f42fe0f99937e828ee486ae27454295ca",
    ),
    "no_coupons_infected_only": (
        NetworkSpec(rng_seed=32),
        SamplingConfig(
            n_seeds=5,
            seed_rule=SeedRule.infected_only_pps(),
            coupons_per_respondent=0,
            target_n=250,
            rng_seed=14,
        ),
        "2e765ee06c64b6f37a9e6d85b5690d9d88daafecfe880c707729cae40df59ba2",
    ),
    "three_coupons_infected_only": (
        NetworkSpec(rng_seed=33),
        SamplingConfig(
            n_seeds=5,
            seed_rule=SeedRule.infected_only_pps(),
            coupons_per_respondent=3,
            target_n=400,
            rng_seed=15,
            behavior=BehaviorConfig(
                response_prob_uninfected=0.5,
                own_group_weight_infected=3.0,
            ),
        ),
        "3298d877f586291eeb68d232cffa6b7362baee2eedd25e492876a55d59c59f7e",
    ),
    # Half the coupons expire, so the chains die out and reseed over and
    # over, each reseed a PPS draw among 10k nodes.
    "infected_only_reseeds_large": (
        NetworkSpec(n_nodes=10000, n_infected=2000, differential_activity=1.8, rng_seed=34),
        SamplingConfig(
            n_seeds=3,
            seed_rule=SeedRule.infected_only_pps(),
            target_n=300,
            rng_seed=16,
            behavior=BehaviorConfig(pass_prob_uninfected=0.5, pass_prob_infected=0.5),
        ),
        "e78b09bf0108b4386b3f3e95364356aecdf7e85c4ae96d8c97dad98643be968a",
    ),
}


class TestPinnedSampleBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
    def test_sample_bytes_unchanged(self, tmp_path, case):
        spec, cfg, digest = PINNED_SAMPLES[case]
        got, _ = _sample_sha256(generate_network(spec), cfg, tmp_path / "sample.txt")
        assert got == digest

    def test_cases_cover_their_paths(self, tmp_path):
        # The digests only guard the paths the cases actually take.
        for case in ("no_reseed_exhausted", "no_coupons_infected_only"):
            spec, cfg, _ = PINNED_SAMPLES[case]
            _, s = _sample_sha256(generate_network(spec), cfg, tmp_path / "s.txt")
            assert s.exhausted and s.size < cfg.target_n, case
        spec, cfg, _ = PINNED_SAMPLES["desk_behavior_other_seed"]
        _, s = _sample_sha256(generate_network(spec), cfg, tmp_path / "s.txt")
        assert s.reseed_count > 0 and s.counts.nonresponses > 0
        spec, cfg, _ = PINNED_SAMPLES["infected_only_reseeds_large"]
        _, s = _sample_sha256(generate_network(spec), cfg, tmp_path / "s.txt")
        assert s.reseed_count >= 10 and not s.exhausted


# Each case: a small condition, one per SS inclusion path, and the sha256 of
# its replication and summary CSV lines as `run_condition` and `summarize`
# produced them before the SS method dispatch was folded into one function.
PINNED_EXPERIMENTS = {
    "asymptotic": (
        Condition(
            "asymptotic",
            network=NetworkSpec(differential_activity=1.8),
            sampling=SamplingConfig(target_n=150),
            replications=4,
            base_seed=101,
        ),
        # Re-recorded when the large-population fixed point became one root
        # in t: every ss cell moved by at most 3e-10 (was cea712a2..., cf4378a6...).
        "692500c73e0ac8ac1813d2b24312e579116b0cf26f477a34b7a0a5b286f9fb45",
        "01f766c6a622a57224d19c721e5fc54b4de3168815fe3a394bd3bd5a6fb9520f",
    ),
    "enumerate": (
        Condition(
            "enumerate",
            network=NetworkSpec(n_nodes=12, n_infected=3, mean_degree=3.0),
            sampling=SamplingConfig(n_seeds=2, target_n=6),
            mean_cell_size=2,
            replications=20,
            base_seed=5,
        ),
        "0d9b4f92af3f3b565c040053110949f71226edfa1c1213d57c6052882fe8819d",
        "474e3a0332159e8328da247c7e74ae8d1b684b2bce5f343577009d317cb0c6f4",
    ),
    "monte_carlo": (
        Condition(
            "monte_carlo",
            network=NetworkSpec(n_nodes=300, n_infected=60),
            sampling=SamplingConfig(target_n=60),
            ss_options=SsOptions(method="monte_carlo", mc_replications=200),
            replications=3,
            base_seed=7,
        ),
        "7761069d3b1410e1e3a82606d36f27fc5c31b5395488277fc97de54cc71ddbc3",
        "0559fe1bbf77f6af9b09267d3fe17de6faf2b076fdea080a1189b0f3c41a87a5",
    ),
    "weighted": (
        Condition(
            "weighted",
            sampling=SamplingConfig(target_n=250, behavior=_DESK_BEHAVIOR),
            replications=3,
            base_seed=13,
        ),
        "7c9d2a38488c7e7b763bf4250e530ed41b08e976771d96b358814537371f4597",
        "b32262e4be37e4b63630fbeef462c5fdd3357f8e90e8b103ca0209aacbcd9386",
    ),
}


def _lines_sha256(table) -> str:
    return hashlib.sha256(("\n".join(csv_lines(table)) + "\n").encode()).hexdigest()


class TestPinnedExperimentBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_EXPERIMENTS))
    def test_experiment_bytes_unchanged(self, case, tmp_path):
        condition, replications_digest, summary_digest = PINNED_EXPERIMENTS[case]
        table = run_condition(condition)
        for exported, digest in ((table, replications_digest),
                                 (summarize(table), summary_digest)):
            assert _lines_sha256(exported) == digest
            export_csv(exported, tmp_path / "table.csv")
            assert hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest() == digest

    def test_cases_cover_their_paths(self):
        # `auto` enumerates up to ENUMERATION_LIMIT units and takes the
        # closed form above it; the small case must also record failures.
        assert PINNED_EXPERIMENTS["enumerate"][0].network.n_nodes <= ENUMERATION_LIMIT
        assert PINNED_EXPERIMENTS["asymptotic"][0].network.n_nodes > ENUMERATION_LIMIT
        table = run_condition(PINNED_EXPERIMENTS["enumerate"][0])
        assert any(row.estimates.failures for row in table.rows)


# --------------------------------------------------------------------------
# Coupon-major loop reference: `run_rds` as it was written before it queued
# respondents and before it tabulated behaviour.  Each enrolment pushes one
# queue entry per coupon, and every entry re-slices, re-filters and re-weighs
# its holder's candidates with `recruitment_weight` and the per-call pass and
# response formulas.  Every pick walks the weights left to right, unit
# weights included (the walk equals `int(u * k)` there, see
# `test_identity_pick_equals_walk`), and the total is a plain running sum as
# `sum()` gave it before Python 3.12.  The respondent-major loop must give the
# same sample bytes and tallies; the reference also reports which paths its
# run took.

def _reference_run_rds(net: Network, config: SamplingConfig) -> tuple[Sample, set[str]]:
    rng = np.random.default_rng(config.rng_seed)
    random = rng.random
    b = config.behavior
    degrees, infected = net.degrees.tolist(), net.infected.tolist()
    indptr, indices = net.indptr, net.indices
    coupons, target_n = config.coupons_per_respondent, config.target_n
    state = bytearray(net.n_nodes)
    nodes, recruiters, waves = [], [], []
    queue: deque[int] = deque()
    expired = nonresp = 0
    paths: set[str] = set()

    def enroll(node: int, recruiter: int, wave: int) -> None:
        state[node] = _SAMPLED
        queue.extend([len(nodes)] * coupons)
        nodes.append(node)
        recruiters.append(recruiter)
        waves.append(wave)

    exhausted = False
    for node in select_seeds(net, config.seed_rule, config.n_seeds, rng):
        enroll(node, -1, 0)
        if len(nodes) >= target_n:
            break
    n_seeds = len(nodes)

    while len(nodes) < target_n:
        if not queue:
            if not config.reseed_on_die_out:
                exhausted = True
                break
            untouched = np.frombuffer(state, dtype=np.uint8) == _UNTOUCHED
            try:
                node = _draw_seeds(net, config.seed_rule, 1, random, untouched)[0]
            except SamplingError:
                exhausted = True
                break
            paths.add("reseed")
            if "zero_pass" in paths and config.seed_rule.variant in (UNIFORM_LOWEST_K,
                                                                     UNIFORM_HIGHEST_K):
                paths.add("zero_pass_then_uniform_reseed")
            enroll(node, -1, 0)
            continue
        position = queue.popleft()
        holder = nodes[position]
        eligible = [
            v for v in indices[indptr[holder] : indptr[holder + 1]].tolist() if not state[v]
        ]
        if not eligible:
            expired += 1
            continue
        p_pass = _pass_prob(b, infected[holder], degrees[holder])
        if random() >= p_pass:
            if p_pass <= 0.0:
                paths.add("zero_pass")
            expired += 1
            continue
        weights = [recruitment_weight(net, b, holder, v) for v in eligible]
        total = 0.0
        for w in weights:
            total += w
        if total <= 0.0:
            paths.add("zero_total")
            expired += 1
            continue
        r = random() * total
        acc = 0.0
        chosen = eligible[-1]
        for v, w in zip(eligible, weights):
            acc += w
            if r < acc:
                chosen = v
                break
        if random() < _response_prob(b, infected[chosen], degrees[chosen]):
            enroll(chosen, position, waves[position] + 1)
            if len(nodes) >= target_n and queue and queue[0] == position:
                paths.add("target_between_coupons")
        else:
            state[chosen] = _REFUSED
            nonresp += 1

    if exhausted:
        paths.add("exhausted")
    records = [
        RespondentRecord(node, degrees[node], infected[node],
                         None if rec < 0 else nodes[rec], wave, rec < 0 and i >= n_seeds)
        for i, (node, rec, wave) in enumerate(zip(nodes, recruiters, waves))
    ]
    used = sum(rec >= 0 for rec in recruiters)
    counts = EventCounts(len(nodes) * coupons, used, expired, nonresp)
    return Sample(records, counts, exhausted), paths


_SEED_RULES = [SeedRule.pps_degree(), SeedRule.infected_only_pps(), SeedRule.uniform_lowest(15),
               SeedRule.uniform_highest(8)]
# Every weight 0 (the ramp) or every weight of one recruiter group 0.
_ZERO_WEIGHTS = [
    BehaviorConfig(candidate_degree_ramp=(0.0, 0.0), pass_prob_uninfected=0.7),
    BehaviorConfig(own_group_weight_uninfected=0.0, infected_candidate_weight=0.0,
                   response_prob_infected=0.6),
]


@st.composite
def referral_cases(draw) -> tuple[Network, SamplingConfig]:
    # Random graphs from sparse (many isolates and small components) to
    # dense, with a random infected share.
    n_nodes = draw(st.integers(12, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    mean_degree = draw(st.sampled_from([0.8, 2.0, 5.0, 12.0]))
    edges = np.argwhere(np.triu(rng.random((n_nodes, n_nodes)) < mean_degree / n_nodes, 1))
    net = Network(rng.random(n_nodes) < draw(st.sampled_from([0.2, 0.5])), edges)
    n_seeds = draw(st.integers(1, 5))
    config = SamplingConfig(
        n_seeds=n_seeds,
        seed_rule=draw(st.sampled_from(_SEED_RULES)),
        coupons_per_respondent=draw(st.integers(0, 3)),
        target_n=draw(st.integers(n_seeds, n_nodes + 5)),
        behavior=draw(st.just(BehaviorConfig()) | st.sampled_from(_ZERO_WEIGHTS) | behaviors()),
        reseed_on_die_out=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**32)),
    )
    return net, config


def _sample_bytes(run, net: Network, config: SamplingConfig, path):
    """``save_sample`` bytes and tallies of one run, or the error it raised."""
    try:
        s = run(net, config)
    except SamplingError as err:
        return "SamplingError", str(err)
    save_sample(s, path)
    return path.read_bytes(), s.counts


def _reference_sample(net: Network, config: SamplingConfig) -> Sample:
    return _reference_run_rds(net, config)[0]


# Fixed cases, each taking the path it is named after.
_PATH_CASES = {
    "reseed": (NetworkSpec(n_nodes=200, n_infected=40, mean_degree=1.5, rng_seed=1),
               SamplingConfig(n_seeds=2, coupons_per_respondent=2, target_n=120, rng_seed=2,
                              behavior=BehaviorConfig(pass_prob_uninfected=0.5))),
    "exhausted": (NetworkSpec(n_nodes=200, n_infected=40, mean_degree=2.0, rng_seed=3),
                  SamplingConfig(n_seeds=3, coupons_per_respondent=1, target_n=150, rng_seed=4,
                                 reseed_on_die_out=False, behavior=_DESK_BEHAVIOR)),
    # Both cases spend more coupons per holder than one block of uniforms.
    "zero_pass": (NetworkSpec(n_nodes=120, n_infected=30, rng_seed=9),
                  SamplingConfig(n_seeds=3, coupons_per_respondent=300, target_n=60, rng_seed=10,
                                 behavior=BehaviorConfig(pass_prob_infected=0.0))),
    # A dead holder's coupons are jumped over; the uniform-k reseed after
    # them must read the double that comes next.
    "zero_pass_then_uniform_reseed": (
        NetworkSpec(n_nodes=120, n_infected=30, rng_seed=11),
        SamplingConfig(n_seeds=1, seed_rule=SeedRule.uniform_lowest(15),
                       coupons_per_respondent=1, target_n=20, rng_seed=12,
                       behavior=BehaviorConfig(pass_prob_uninfected=0.0,
                                               pass_prob_infected=0.0))),
    "zero_total": (NetworkSpec(n_nodes=120, n_infected=30, rng_seed=5),
                   SamplingConfig(n_seeds=4, coupons_per_respondent=200, target_n=60, rng_seed=6,
                                  behavior=_ZERO_WEIGHTS[1])),
    "target_between_coupons": (NetworkSpec(n_nodes=150, n_infected=30, mean_degree=9.0,
                                           rng_seed=7),
                               SamplingConfig(n_seeds=2, coupons_per_respondent=3, target_n=40,
                                              rng_seed=8, behavior=_DESK_BEHAVIOR)),
}


class TestRespondentMajorLoopMatchesReference:
    @settings(max_examples=120)
    @given(case=referral_cases())
    def test_same_sample_bytes_and_counts(self, tmp_path_factory, case):
        net, config = case
        path = tmp_path_factory.mktemp("sample") / "sample.txt"
        expected = _sample_bytes(_reference_sample, net, config, path)
        assert _sample_bytes(run_rds, net, config, path) == expected

    @pytest.mark.parametrize("name", sorted(_PATH_CASES))
    def test_path_cases(self, tmp_path, name):
        spec, config = _PATH_CASES[name]
        net = generate_network(spec)
        assert name in _reference_run_rds(net, config)[1]
        expected = _sample_bytes(_reference_sample, net, config, tmp_path / "sample.txt")
        assert _sample_bytes(run_rds, net, config, tmp_path / "sample.txt") == expected

    def test_hub_tables_stay_small(self, tmp_path):
        # Types index the tables, not degrees: a hub of degree 20,000 and its
        # leaves make 2 degrees, so the pair table holds 16 weights, where
        # one over every degree up to the hub's would hold 1.6e9.
        leaves = 20_000
        infected = np.arange(leaves + 1) % 7 == 0  # the hub and every 7th leaf
        net = Network(infected, np.column_stack((np.zeros(leaves, dtype=np.int64),
                                                 np.arange(1, leaves + 1))))
        config = SamplingConfig(n_seeds=1, seed_rule=SeedRule.uniform_highest(1),
                                coupons_per_respondent=12, target_n=10, rng_seed=5,
                                behavior=dataclasses.replace(_DESK_BEHAVIOR,
                                                             infected_candidate_weight=3.0))
        expected = _sample_bytes(_reference_sample, net, config, tmp_path / "sample.txt")
        assert _sample_bytes(run_rds, net, config, tmp_path / "sample.txt") == expected
        assert len(_Tables(net, config.behavior).weight) == 4
        tracemalloc.start()
        try:
            run_rds(net, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
    def test_reference_gives_pinned_bytes(self, tmp_path, case):
        # The reference itself reproduces the recorded digests.
        spec, cfg, digest = PINNED_SAMPLES[case]
        reference, _ = _reference_run_rds(generate_network(spec), cfg)
        save_sample(reference, tmp_path / "reference.txt")
        assert hashlib.sha256((tmp_path / "reference.txt").read_bytes()).hexdigest() == digest


# Seven nodes and ten edges, nodes 0, 1 and 4 infected: small enough to enumerate.
_ORACLE_NET = Network(np.isin(np.arange(7), [0, 1, 4]), np.array(
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6), (0, 6)]))
# A hub of degree 7, inside every ramp's 5..10 band, over leaves of degree
# 2 and 3 on the ramps' flat low part; nodes 0, 3 and 6 infected.
_ORACLE_HUB = Network(np.isin(np.arange(8), [0, 3, 6]), np.array(
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (3, 4), (5, 6), (6, 7)]))
_ORACLE_BASE = SamplingConfig(n_seeds=1, coupons_per_respondent=2, target_n=5)
# Coupons that are often not passed make reseeds, and exhaustion, common.
_ORACLE_LEAKY = BehaviorConfig(pass_prob_uninfected=0.3, pass_prob_infected=0.5)
_ORACLE_CASES = {
    "identity": (_ORACLE_NET, _ORACLE_BASE),
    "weighted": (_ORACLE_NET, dataclasses.replace(_ORACLE_BASE, behavior=BehaviorConfig(
        pass_prob_infected=0.6, infected_candidate_weight=2.5,
        own_group_weight_uninfected=0.5, response_prob_uninfected=0.7))),
    # Only three nodes are infected, so the reseeds run out.
    "infected_only_pps": (_ORACLE_NET, dataclasses.replace(
        _ORACLE_BASE, seed_rule=SeedRule.infected_only_pps(), behavior=_ORACLE_LEAKY)),
    # Every degree but node 5's is 3, so the pools turn on the tie-break by id.
    "uniform_lowest_k": (_ORACLE_NET, dataclasses.replace(
        _ORACLE_BASE, n_seeds=2, seed_rule=SeedRule.uniform_lowest(3), behavior=_ORACLE_LEAKY)),
    "uniform_highest_k": (_ORACLE_NET, dataclasses.replace(
        _ORACLE_BASE, n_seeds=2, seed_rule=SeedRule.uniform_highest(3), behavior=_ORACLE_LEAKY)),
    "no_reseed": (_ORACLE_NET, dataclasses.replace(
        _ORACLE_BASE, reseed_on_die_out=False, behavior=_ORACLE_LEAKY)),
    # The hub passes with 0.76, responds with 0.8 and weighs 1.1 as a
    # candidate; the kernel weighs hub-leaf gaps of 4 and 5 at 0.5 and 0.375.
    "degree_ramps": (_ORACLE_HUB, dataclasses.replace(_ORACLE_BASE, behavior=BehaviorConfig(
        pass_degree_ramp=(1.0, 0.4), response_degree_ramp=(1.0, 0.5),
        candidate_degree_ramp=(0.5, 2.0), similar_degree_width=8.0))),
}
_ORACLE_RUNS = 20_000


@functools.cache
def _oracle_draws(name: str) -> tuple[dict, Counter]:
    """A case's exact outcome probabilities and its outcome counts over `_ORACLE_RUNS` seeds."""
    net, config = _ORACLE_CASES[name]
    counts = Counter()
    for seed in range(_ORACLE_RUNS):
        sample = run_rds(net, dataclasses.replace(config, rng_seed=seed))
        counts[tuple(sample.node_id.tolist()), tuple(sample.recruiter_pos.tolist())] += 1
    return referral_outcomes(net, config), counts


class TestExactReferralOracle:
    """`run_rds` against `exact_rds`, written from the process the sampler docstring specifies."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_outcome_frequencies_match_exact_probabilities(self, name):
        exact, counts = _oracle_draws(name)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(counts) <= set(exact)
        # Outcomes expected fewer than 5 times are pooled into one cell.
        expected = _ORACLE_RUNS * np.array(list(exact.values()))
        observed = np.array([counts[outcome] for outcome in exact])
        rare = expected < 5
        if rare.any():
            expected = np.append(expected[~rare], expected[rare].sum())
            observed = np.append(observed[~rare], observed[rare].sum())
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, len(expected) - 1) >= 1e-3

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_estimator_risk_matches_exact_risk(self, name):
        # Every estimator's exact failure probability, and its mean and
        # variance where it succeeds, summed over the enumerated outcomes;
        # N <= 12, so ss enumerates, and cells of 2 give h more than one
        # degree group, so it departs from sh.  The draws must agree within 4 SEs.
        net, config = _ORACLE_CASES[name]
        exact, counts = _oracle_draws(name)
        by_columns, estimates = {}, {}
        for outcome in exact:
            sample = outcome_sample(net, outcome, config.n_seeds)
            # The estimates read only degrees, groups and recruiter positions.
            key = (tuple(sample.degree.tolist()), tuple(sample.infected.tolist()), outcome[1])
            if key not in by_columns:
                by_columns[key] = estimate_all(sample, net.n_nodes, mean_cell_size=2)
            estimates[outcome] = by_columns[key]
        for estimator in ESTIMATOR_NAMES:
            value = {o: estimates[o].value_of(estimator) for o in exact}
            ok = [o for o in exact if value[o] is not None]
            p_fail = math.fsum(p for o, p in exact.items() if value[o] is None)
            failed = _ORACLE_RUNS - sum(counts[o] for o in ok)
            assert abs(failed / _ORACLE_RUNS - p_fail) <= (
                4 * math.sqrt(p_fail * (1 - p_fail) / _ORACLE_RUNS) + 1e-12), estimator
            if not ok:
                continue
            mass = math.fsum(exact[o] for o in ok)
            mean = math.fsum(exact[o] * value[o] for o in ok) / mass
            variance = math.fsum(exact[o] * (value[o] - mean) ** 2 for o in ok) / mass
            drawn = _ORACLE_RUNS - failed
            simulated = math.fsum(counts[o] * value[o] for o in ok) / drawn
            assert abs(simulated - mean) <= 4 * math.sqrt(variance / drawn) + 1e-12, estimator
