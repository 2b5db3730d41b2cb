"""Tests for the five prevalence estimators and their building blocks."""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rdslab import (
    ESTIMATOR_NAMES,
    ConfigError,
    CrossGroupCounts,
    DegreeGroups,
    EstimationError,
    EventCounts,
    NetworkSpec,
    RespondentRecord,
    Sample,
    SamplingConfig,
    SeedRule,
    SsOptions,
    estimate_all,
    generate_network,
    h_estimate,
    naive_estimate,
    run_rds,
    sh_estimate,
    ss_estimate,
    ss_probabilities,
    vh_estimate,
)
from rdslab.estimators import (
    EMPTY_GROUP,
    EMPTY_SAMPLE,
    ENUMERATION_LIMIT,
    NO_CROSS_GROUP_RECRUITMENTS,
    NO_RECRUITMENT_EVENTS,
    NO_RECRUITMENTS_FROM_GROUP,
    SS_NONCONVERGENCE,
    ZERO_DEGREE,
    ZERO_RCD_SUM,
    _asymptotic_inclusion,
    _balance_ratio,
    _ss_fixed_point,
    adjusted_degree,
    cross_group_counts,
    degree_group_transition_matrix,
    equilibrium_distribution,
    harmonic_mean_degree,
    partition_degree_groups,
    rcd_values,
)


def rec(node, degree, infected, recruiter=None, wave=0):
    return RespondentRecord(node, degree, infected, recruiter, wave)


def make_sample(records):
    used = sum(1 for r in records if r.recruiter_id is not None)
    return Sample(list(records), EventCounts(2 * len(records), used, 0, 0))


@pytest.fixture
def golden():
    # Six respondents, two seeds, hand-checked against every estimator.
    return make_sample([
        rec(10, 2, True),
        rec(11, 4, False),
        rec(12, 4, True, recruiter=10, wave=1),
        rec(14, 2, True, recruiter=11, wave=1),
        rec(13, 4, False, recruiter=12, wave=2),
        rec(15, 4, False, recruiter=12, wave=2),
    ])


def unit_inclusion_oracle(degrees, draws):
    """Exact inclusion by brute-force recursion over unit draw orders."""
    fracs = [Fraction(d) for d in degrees]
    incl = [Fraction(0)] * len(fracs)

    def explore(remaining, prob, depth):
        if depth == draws:
            return
        total = sum(fracs[i] for i in remaining)
        for i in list(remaining):
            p = prob * fracs[i] / total
            incl[i] += p
            explore(remaining - {i}, p, depth + 1)

    explore(frozenset(range(len(fracs))), Fraction(1), 0)
    return incl


class TestSimpleEstimators:
    def test_naive(self, golden):
        assert naive_estimate(golden) == pytest.approx(0.5)

    def test_vh_hand_value(self):
        s = make_sample([rec(0, 2, True), rec(1, 4, True), rec(2, 4, False)])
        # (1/2 + 1/4) / (1/2 + 1/4 + 1/4)
        assert vh_estimate(s) == pytest.approx(0.75, abs=1e-15)
        assert naive_estimate(s) == pytest.approx(2 / 3)

    def test_vh_golden(self, golden):
        assert vh_estimate(golden) == pytest.approx(0.625, abs=1e-15)

    def test_empty_sample_rejected(self):
        empty = Sample([], EventCounts())
        with pytest.raises(EstimationError):
            naive_estimate(empty)
        with pytest.raises(EstimationError):
            vh_estimate(empty)

    def test_zero_degree_rejected(self):
        s = make_sample([rec(0, 0, True)])
        with pytest.raises(EstimationError):
            vh_estimate(s)


class TestInclusionProbabilities:
    def test_three_unit_oracle(self):
        # Two units of degree 1, one of degree 2, two draws.
        oracle = unit_inclusion_oracle([1, 1, 2], 2)
        assert oracle == [Fraction(7, 12), Fraction(7, 12), Fraction(5, 6)]
        pi = ss_probabilities({1: 2, 2: 1}, 2, SsOptions(method="enumerate"))
        assert pi[1] == pytest.approx(7 / 12, abs=1e-12)
        assert pi[2] == pytest.approx(5 / 6, abs=1e-12)

    @pytest.mark.parametrize(
        "counts,draws",
        [({1: 3, 2: 2}, 2), ({1: 1, 3: 2, 5: 1}, 3), ({2: 4}, 2), ({1: 2, 7: 3}, 4)],
    )
    def test_enumeration_matches_unit_oracle(self, counts, draws):
        degrees = [d for d, c in sorted(counts.items()) for _ in range(c)]
        oracle = unit_inclusion_oracle(degrees, draws)
        by_degree = {}
        for d, p in zip(degrees, oracle):
            by_degree.setdefault(d, []).append(p)
        pi = ss_probabilities(counts, draws, SsOptions(method="enumerate"))
        for d, probs in by_degree.items():
            assert probs == [probs[0]] * len(probs)  # symmetry within a class
            assert pi[d] == pytest.approx(float(probs[0]), abs=1e-12)

    def test_census_is_certain(self):
        pi = ss_probabilities({3: 2, 7: 2}, 4, SsOptions(method="enumerate"))
        assert pi == {3: 1.0, 7: 1.0}

    def test_equal_degrees_give_uniform_inclusion(self):
        for opts in (SsOptions(method="enumerate"),
                     SsOptions(method="monte_carlo", mc_replications=5000)):
            pi = ss_probabilities({5: 10}, 4, opts)
            assert pi[5] == pytest.approx(0.4, abs=1e-12)
        closed_form = _asymptotic_inclusion(np.array([5]), np.array([10]), 4)
        assert closed_form[0] == pytest.approx(0.4, abs=1e-12)

    def test_monte_carlo_within_three_standard_errors(self):
        reps = 100000
        pi = ss_probabilities(
            {1: 2, 2: 1}, 2,
            SsOptions(method="monte_carlo", mc_replications=reps, rng_seed=3),
        )
        for degree, truth, c in ((1, 7 / 12, 2), (2, 5 / 6, 1)):
            se = np.sqrt(truth * (1 - truth) / (reps * c))
            assert abs(pi[degree] - truth) < 3 * se

    def test_monte_carlo_mass_and_monotonicity(self):
        counts = {1: 40, 3: 30, 5: 20, 9: 10}  # too many classes to enumerate? no: units
        draws = 30
        pi = ss_probabilities(
            counts, draws, SsOptions(method="monte_carlo", mc_replications=4000, rng_seed=1)
        )
        mass = sum(c * pi[d] for d, c in counts.items())
        assert mass == pytest.approx(draws, abs=1e-9)
        ordered = [pi[d] for d in sorted(counts)]
        assert all(a <= b + 1e-15 for a, b in zip(ordered, ordered[1:]))

    def test_asymptotic_mass_monotonicity_and_census(self):
        counts = {1: 40, 3: 30, 5: 20, 9: 10}  # 100 units: auto is the closed form
        for draws in (1, 30, 99):
            pi = ss_probabilities(counts, draws, SsOptions())
            mass = sum(c * pi[d] for d, c in counts.items())
            assert mass == pytest.approx(draws, abs=1e-9)
            ordered = [pi[d] for d in sorted(counts)]
            assert all(a < b for a, b in zip(ordered, ordered[1:]))
        census = ss_probabilities(counts, 100, SsOptions())
        assert census == {1: 1.0, 3: 1.0, 5: 1.0, 9: 1.0}

    def test_asymptotic_within_three_monte_carlo_standard_errors(self):
        counts = {1: 400, 3: 300, 5: 200, 9: 100}
        reps = 4000
        asym = ss_probabilities(counts, 200, SsOptions())
        mc = ss_probabilities(
            counts, 200, SsOptions(method="monte_carlo", mc_replications=reps, rng_seed=1)
        )
        for degree, c in counts.items():
            se = np.sqrt(mc[degree] * (1 - mc[degree]) / (reps * c))
            assert abs(asym[degree] - mc[degree]) < 3 * se

    def test_asymptotic_approaches_enumeration_as_population_grows(self):
        gaps = []
        for m in (4, 16, 64):
            counts = {1: 2 * m, 2: m}
            exact = ss_probabilities(counts, m, SsOptions(method="enumerate"))
            asym = _asymptotic_inclusion(np.array([1, 2]), np.array([2 * m, m]), m)
            gaps.append(max(abs(exact[1] - asym[0]), abs(exact[2] - asym[1])))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-4

    def test_auto_switches_to_asymptotic_above_enumeration_limit(self):
        def pi(counts, method="auto"):
            return ss_probabilities(counts, 4, SsOptions(method=method))

        def closed_form(counts):
            degrees = sorted(counts)
            values = _asymptotic_inclusion(
                np.array(degrees), np.array([counts[d] for d in degrees]), 4
            )
            return dict(zip(degrees, values.tolist()))

        twelve, thirteen = {1: 8, 2: 4}, {1: 9, 2: 4}
        assert pi(twelve) == pi(twelve, "enumerate") != closed_form(twelve)
        assert pi(thirteen) == closed_form(thirteen) != pi(thirteen, "enumerate")

    def test_enumerate_refuses_an_infeasible_composition(self):
        # 1050 draws would recurse past Python's stack limit.
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="enumerate"):
            ss_probabilities({1: 1100, 2: 5}, 1050, SsOptions(method="enumerate"))
        assert time.perf_counter() - start < 0.5
        # A 200-respondent sample of 1000 nodes spreads over many degree
        # classes, so its estimated population has astronomically many states.
        net = generate_network(NetworkSpec(rng_seed=3))
        s = run_rds(net, SamplingConfig(target_n=200, rng_seed=3))
        assert np.unique(s.degree).size > 10
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="enumerate"):
            ss_estimate(s, 1000, SsOptions(method="enumerate"))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("max_iterations", 0, "max_iterations must be >= 1"),
            ("mc_replications", 0, "mc_replications must be >= 1"),
            ("rng_seed", -1, "rng_seed must be >= 0"),
        ],
    )
    def test_options_out_of_bounds_rejected(self, name, value, message):
        with pytest.raises(ConfigError, match=message):
            SsOptions(**{name: value})

    @pytest.mark.parametrize(
        "counts,draws,message",
        [
            ({}, 0, "population composition is empty"),
            ({0: 2, 3: 1}, 1, "population degrees must be >= 1"),
            ({2: 0, 3: 1}, 1, "population degree counts must be >= 1"),
            ({2: 3}, -1, r"draws must lie in \[0, population size\], got -1 of 3"),
            ({2: 3}, 4, r"draws must lie in \[0, population size\], got 4 of 3"),
        ],
    )
    def test_bad_composition_rejected(self, counts, draws, message):
        with pytest.raises(ConfigError, match=message):
            ss_probabilities(counts, draws)

    def test_monte_carlo_deterministic_in_seed(self):
        opts = SsOptions(method="monte_carlo", mc_replications=2000, rng_seed=11)
        a = ss_probabilities({2: 50, 6: 25}, 20, opts)
        b = ss_probabilities({2: 50, 6: 25}, 20, opts)
        assert a == b


class TestSsEstimate:
    def test_golden_fixed_point(self, golden):
        opts = SsOptions(method="enumerate")
        assert ss_estimate(golden, 9, opts) == pytest.approx(
            0.569461878513344, abs=1e-12
        )

    def test_census_population_matches_naive(self, golden):
        # When the sample is the whole population the weights are all one.
        assert ss_estimate(golden, 6, SsOptions(method="enumerate")) == pytest.approx(
            naive_estimate(golden), abs=1e-12
        )

    def test_nonconvergence_error_carries_partial(self, golden):
        # auto on 50 units runs the closed form
        for method, population in (("enumerate", 9), ("monte_carlo", 9), ("auto", 50)):
            opts = SsOptions(method=method, max_iterations=1)
            with pytest.raises(EstimationError) as info:
                ss_estimate(golden, population, opts)
            assert info.value.code == SS_NONCONVERGENCE
            assert isinstance(info.value.partial, dict)

    def test_discrete_cycle_returns_its_average(self):
        # One unit each of degrees 1 and 2, N = 4: the rounding alternates
        # between {1: 2, 2: 2} and {1: 3, 2: 1}, so the fixed point is the
        # mean of those two passes, bit for bit.
        opts = SsOptions(method="enumerate")
        passes = [ss_probabilities(c, 2, opts) for c in ({1: 2, 2: 2}, {1: 3, 2: 1})]
        expected = [(passes[0][d] + passes[1][d]) / 2 for d in (1, 2)]
        assert expected == pytest.approx([0.4, 2 / 3], abs=1e-15)
        for options in (opts, SsOptions()):  # auto enumerates at N <= 12
            pi = _ss_fixed_point(np.array([1, 2]), np.array([1, 1]), 4, 2, options)
            assert pi.tolist() == expected

    def test_population_smaller_than_sample_rejected(self, golden):
        with pytest.raises(ConfigError):
            ss_estimate(golden, 5, SsOptions())

    def test_live_sample_estimate_in_range(self):
        net = generate_network(NetworkSpec(rng_seed=12))
        s = run_rds(net, SamplingConfig(
            seed_rule=SeedRule.pps_degree(), target_n=200, rng_seed=12))
        value = ss_estimate(s, 1000, SsOptions(rng_seed=0))
        assert 0.0 < value < 1.0

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(60, 400),
           share=st.floats(0.02, 0.6), da=st.sampled_from([1.0, 1.8]),
           population=st.sampled_from([10**4, 10**5, 10**6]))
    def test_tends_to_vh_as_population_grows(self, seed, n_nodes, share, da, population):
        # SS reduces to VH as n / N -> 0 (Gile 2011): on a live sample the
        # gap is at most n / N and falls in proportion to 1 / N.
        net = generate_network(NetworkSpec(n_nodes=n_nodes, n_infected=n_nodes // 4,
                                           differential_activity=da, rng_seed=seed))
        s = run_rds(net, SamplingConfig(n_seeds=3, target_n=max(3, int(share * n_nodes)),
                                        rng_seed=seed))
        vh = vh_estimate(s)
        try:
            gaps = [abs(ss_estimate(s, size) - vh) for size in (population, 100 * population)]
        except EstimationError:
            assume(False)
        assert gaps[0] <= s.size / population
        # The slack covers the rounding of two estimates in [0, 1].
        assert gaps[1] <= gaps[0] / 50 + 1e-12


def _iterated_asymptotic_map(degrees, counts, population, draws, passes=5000):
    """Limit of the large-population map iterated on the real-valued
    composition until successive values move by less than 1e-14, or None
    when it finds none in ``passes`` passes (the map can settle into a
    2-cycle around its fixed point)."""
    estimated = counts * (population / counts.sum())
    previous = None
    for _ in range(passes):
        pi = _asymptotic_inclusion(degrees, estimated, draws)
        if previous is not None and np.max(np.abs(pi - previous)) < 1e-14:
            return pi
        previous = pi
        raw = counts / pi
        estimated = raw * (population / raw.sum())
    return None


class TestAsymptoticFixedPoint:
    @given(classes=st.dictionaries(st.integers(1, 60), st.integers(1, 50),
                                   min_size=1, max_size=20),
           log_fraction=st.floats(-7.0, 0.0))
    def test_root_in_t_is_the_limit_of_the_map(self, classes, log_fraction):
        degrees = np.array(sorted(classes), dtype=np.int64)
        counts = np.array([classes[d] for d in degrees.tolist()], dtype=np.float64)
        n = int(counts.sum())
        # n / N spans [1e-7, 1 - 1/N] with N above the enumeration limit.
        population = max(ENUMERATION_LIMIT + 1, n + 1, math.ceil(n / 10.0**log_fraction))
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise",
                                                    over="raise"):
            warnings.simplefilter("error", RuntimeWarning)
            # A zero slope would raise ZeroDivisionError: Newton divides by a float.
            pi = _ss_fixed_point(degrees, counts, population, n, SsOptions())
        assert abs(math.fsum(counts / pi) - population) <= 1e-12 * population
        assert ((pi > 0.0) & (pi <= 1.0)).all()
        assert (np.diff(pi) >= 0.0).all()
        # A fixed point of the map on the composition it implies ...
        implied = counts / pi * (population / math.fsum(counts / pi))
        assert np.abs(_asymptotic_inclusion(degrees, implied, n) - pi).max() <= 1e-10
        # ... and the map's limit wherever iterating it converges.
        limit = _iterated_asymptotic_map(degrees, counts, population, n)
        if limit is not None:
            assert np.abs(limit - pi).max() <= 1e-10

    def test_root_found_where_the_map_cycles(self):
        degrees = np.array([1, 16, 18, 25, 26, 31, 38, 43, 52, 58])
        counts = np.array([14, 7, 2, 4, 6, 17, 6, 16, 6, 13], dtype=np.float64)
        assert _iterated_asymptotic_map(degrees, counts, 178, 91) is None
        pi = _ss_fixed_point(degrees, counts, 178, 91, SsOptions())
        assert math.fsum(counts / pi) == pytest.approx(178, rel=1e-12)
        implied = counts / pi * (178 / math.fsum(counts / pi))
        assert np.abs(_asymptotic_inclusion(degrees, implied, 91) - pi).max() <= 1e-10

    def test_tolerance_unused_and_step_cap_kept(self):
        net = generate_network(NetworkSpec(differential_activity=1.8, rng_seed=4))
        s = run_rds(net, SamplingConfig(n_seeds=10, seed_rule=SeedRule.pps_degree(),
                                        target_n=200, rng_seed=4))
        with pytest.raises(EstimationError) as info:
            ss_estimate(s, 1000, SsOptions(max_iterations=1))
        assert info.value.code == SS_NONCONVERGENCE
        assert sorted(info.value.partial) == np.unique(s.degree).tolist()

    def test_reported_degree_far_above_the_population(self):
        # A loaded sample may report any degree; none may cost memory in proportion.
        s = make_sample([rec(0, 10**15, True), rec(1, 3, False, recruiter=0, wave=1),
                         rec(2, 3, True, recruiter=0, wave=1)])
        # pi is 1 at the huge degree, so 1 + 2 / pi_3 = 100 and the two degree-3
        # respondents weigh 99 / 2 each: (1 + 49.5) / 100.
        assert ss_estimate(s, 100) == pytest.approx(0.505, abs=1e-12)

    def test_census_is_certain(self):
        pi = _ss_fixed_point(np.array([2, 5]), np.array([10.0, 10.0]), 20, 20, SsOptions())
        assert pi.tolist() == [1.0, 1.0]


class TestCrossGroupMachinery:
    def test_counts_and_proportions(self):
        # Infected members recruit one infected and one uninfected;
        # uninfected members recruit three uninfected and one infected.
        s = make_sample([
            rec(0, 3, True),
            rec(1, 3, False),
            rec(2, 3, True, recruiter=0, wave=1),
            rec(3, 3, False, recruiter=0, wave=1),
            rec(4, 3, False, recruiter=1, wave=1),
            rec(5, 3, False, recruiter=1, wave=1),
            rec(6, 3, False, recruiter=4, wave=2),
            rec(7, 3, True, recruiter=4, wave=2),
        ])
        c = cross_group_counts(s)
        assert (c.infected_to_infected, c.infected_to_uninfected) == (1, 1)
        assert (c.uninfected_to_infected, c.uninfected_to_uninfected) == (1, 3)
        assert c.proportion_infected_to_uninfected() == pytest.approx(0.5)
        assert c.proportion_uninfected_to_infected() == pytest.approx(0.25)

    def test_no_recruitments_from_group(self):
        s = make_sample([rec(0, 3, True), rec(1, 3, False), rec(2, 3, True, recruiter=0, wave=1)])
        c = cross_group_counts(s)
        with pytest.raises(EstimationError) as info:
            c.proportion_uninfected_to_infected()
        assert info.value.code == NO_RECRUITMENTS_FROM_GROUP

    def test_recruiter_must_precede_recruit(self):
        bad = make_sample([rec(0, 3, True, recruiter=1, wave=1), rec(1, 3, False)])
        with pytest.raises(ConfigError):
            cross_group_counts(bad)
        for recruiter in (1, 7):  # itself, and a node not in the sample
            bad = make_sample([rec(0, 3, True), rec(1, 3, False, recruiter=recruiter, wave=1)])
            with pytest.raises(ConfigError, match="does not appear earlier"):
                cross_group_counts(bad)

    def test_harmonic_mean_degree(self):
        s = make_sample([rec(0, 2, True), rec(1, 4, True), rec(2, 9, False)])
        assert harmonic_mean_degree(s, True) == pytest.approx(8 / 3, abs=1e-12)
        assert harmonic_mean_degree(s, False) == pytest.approx(9.0)
        with pytest.raises(EstimationError):
            harmonic_mean_degree(make_sample([rec(0, 3, True)]), False)


class TestShEstimator:
    def test_balance_ratio_hand_value(self):
        # Recruitment balance: infected tie mass 4 * 0.5 = 2, uninfected
        # tie mass 2 * 0.25 = 0.5, so the infected share is 0.5 / 2.5.
        assert _balance_ratio(0.5, 0.25, 4.0, 2.0) == pytest.approx(0.2, abs=1e-15)

    def test_golden(self, golden):
        assert sh_estimate(golden) == pytest.approx(5 / 7, abs=1e-15)

    def test_value_one_when_infected_keep_recruiting_infected(self):
        s = make_sample([
            rec(0, 2, True),
            rec(1, 2, False),
            rec(2, 2, True, recruiter=0, wave=1),
            rec(3, 2, True, recruiter=1, wave=1),
        ])
        assert sh_estimate(s) == 1.0

    def test_value_zero_mirror_case(self):
        s = make_sample([
            rec(0, 2, True),
            rec(1, 2, False),
            rec(2, 2, False, recruiter=0, wave=1),
            rec(3, 2, False, recruiter=1, wave=1),
        ])
        assert sh_estimate(s) == 0.0

    def test_no_cross_group_recruitments(self):
        s = make_sample([
            rec(0, 2, True),
            rec(1, 2, False),
            rec(2, 2, True, recruiter=0, wave=1),
            rec(3, 2, False, recruiter=1, wave=1),
        ])
        with pytest.raises(EstimationError) as info:
            sh_estimate(s)
        assert info.value.code == NO_CROSS_GROUP_RECRUITMENTS

    def test_seeds_only_fails(self):
        s = make_sample([rec(0, 2, True), rec(1, 2, False)])
        with pytest.raises(EstimationError) as info:
            sh_estimate(s)
        assert info.value.code == NO_RECRUITMENTS_FROM_GROUP


class TestDegreeGroups:
    def test_group_count_follows_sample_size(self):
        degrees = list(range(1, 201))
        s = make_sample([rec(i, d, i % 3 == 0) for i, d in enumerate(degrees)])
        groups = partition_degree_groups(s, mean_cell_size=12)
        # floor(sqrt(200 / 12) + 0.5) = 4
        assert groups.aggregation_level == 4
        assert groups.n_groups == 4
        assert sum(groups.group_sizes) == 200

    def test_even_split_on_distinct_degrees(self):
        s = make_sample([rec(i, i + 1, False) for i in range(48)])
        groups = partition_degree_groups(s, mean_cell_size=12)
        assert groups.aggregation_level == 2
        assert groups.boundaries == (24,)
        assert groups.group_sizes == (24, 24)

    def test_single_degree_single_group(self):
        s = make_sample([rec(i, 7, False) for i in range(30)])
        groups = partition_degree_groups(s, mean_cell_size=12)
        assert groups.n_groups == 1
        assert groups.group_sizes == (30,)

    def test_never_splits_a_degree_value(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            degrees = rng.integers(1, 10, size=60)
            s = make_sample([rec(i, int(d), False) for i, d in enumerate(degrees)])
            groups = partition_degree_groups(s, mean_cell_size=6)
            for d in np.unique(degrees):
                idx = groups.group_index[degrees == d]
                assert len(set(idx.tolist())) == 1
            # groups are contiguous in degree
            order = np.argsort(degrees, kind="stable")
            assert np.all(np.diff(groups.group_index[order]) >= 0)

    def test_edge_never_repeats(self):
        # Cumulative counts 1, 29, 30: the second target (12) is nearest the
        # first edge again, so the next edge up is taken, and then none is left.
        s = make_sample([rec(i, d, False) for i, d in enumerate([1] + [2] * 28 + [3])])
        groups = partition_degree_groups(s, mean_cell_size=1)
        assert groups.aggregation_level == 5
        assert groups.boundaries == (1, 2)
        assert groups.group_sizes == (1, 28, 1)

    def test_golden_partition(self, golden):
        groups = partition_degree_groups(golden, mean_cell_size=2)
        assert groups.boundaries == (2,)
        assert groups.group_sizes == (2, 4)


class TestTransitionAndEquilibrium:
    def test_golden_transition(self, golden):
        groups = partition_degree_groups(golden, mean_cell_size=2)
        matrix, patched = degree_group_transition_matrix(golden, groups)
        assert matrix.tolist() == [[0.0, 1.0], [1 / 3, 2 / 3]]
        assert not patched

    def test_silent_group_row_patched_with_marginal(self):
        # Group of degree 9 never recruits anyone, so its row is filled
        # with the overall recruit distribution (one landed in the low
        # group, two in the high group).
        s = make_sample([
            rec(0, 1, True),
            rec(1, 9, False, recruiter=0, wave=1),
            rec(2, 1, True, recruiter=0, wave=1),
            rec(3, 9, False, recruiter=2, wave=2),
        ])
        groups = partition_degree_groups(s, mean_cell_size=1)
        assert groups.n_groups == 2
        matrix, patched = degree_group_transition_matrix(s, groups)
        assert patched
        assert matrix[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
        assert matrix[1] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_equilibrium_two_state(self):
        dist, unstable = equilibrium_distribution(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert not unstable
        assert dist == pytest.approx([1 / 3, 2 / 3], abs=1e-10)
        assert dist @ np.array([[0.5, 0.5], [0.25, 0.75]]) == pytest.approx(dist, abs=1e-10)

    def test_equilibrium_absorbing_state_flagged(self):
        dist, unstable = equilibrium_distribution(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert unstable
        assert dist == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_equilibrium_identity_flagged(self):
        _, unstable = equilibrium_distribution(np.eye(2))
        assert unstable

    def test_equilibrium_single_state_exact(self):
        dist, unstable = equilibrium_distribution(np.array([[1.0]]))
        assert dist[0] == 1.0
        assert not unstable

    def test_equilibrium_random_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            matrix = rng.random((k, k)) + 0.05
            matrix /= matrix.sum(axis=1, keepdims=True)
            dist, unstable = equilibrium_distribution(matrix)
            assert not unstable
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(dist @ matrix - dist)) < 1e-10

    @pytest.mark.parametrize("matrix,message", [
        (np.full((2, 3), 1 / 3), "must be square"),
        (np.array([[1.5, -0.5], [0.5, 0.5]]), "negative or NaN"),
        (np.array([[0.5, 0.6], [0.5, 0.5]]), "rows must sum to 1"),
        (np.array([[np.nan, 0.5], [0.5, 0.5]]), "negative or NaN"),
    ], ids=["non_square", "negative", "row_sum", "nan"])
    def test_equilibrium_bad_matrix_rejected(self, matrix, message):
        with pytest.raises(ConfigError, match=message):
            equilibrium_distribution(matrix)

    def test_chain_bundles_all_pieces(self, golden):
        groups = partition_degree_groups(golden, mean_cell_size=2)
        transition, patched = degree_group_transition_matrix(golden, groups)
        equilibrium, unstable = equilibrium_distribution(transition)
        rcd = rcd_values(golden, groups, equilibrium)
        assert transition.tolist() == [[0.0, 1.0], [1 / 3, 2 / 3]]
        assert equilibrium == pytest.approx([0.25, 0.75], abs=1e-10)
        assert rcd == pytest.approx(
            [0.75, 1.125, 1.125, 0.75, 1.125, 1.125], abs=1e-10
        )
        assert not patched
        assert not unstable

    def test_chain_invariants_on_live_sample(self):
        net = generate_network(NetworkSpec(rng_seed=14))
        s = run_rds(net, SamplingConfig(
            seed_rule=SeedRule.pps_degree(), target_n=200, rng_seed=14))
        groups = partition_degree_groups(s, mean_cell_size=12)
        transition, _ = degree_group_transition_matrix(s, groups)
        equilibrium, _ = equilibrium_distribution(transition)
        rcd = rcd_values(s, groups, equilibrium)
        assert np.allclose(transition.sum(axis=1), 1.0)
        assert equilibrium.sum() == pytest.approx(1.0, abs=1e-12)
        assert (equilibrium >= 0).all()
        residual = equilibrium @ transition - equilibrium
        assert np.max(np.abs(residual)) < 1e-9
        assert (rcd > 0).all()


class TestHEstimator:
    def test_rcd_spec_example(self):
        s = make_sample(
            [rec(i, 1, False) for i in range(3)] + [rec(i, 8, False) for i in range(3, 6)]
        )
        groups = partition_degree_groups(s, mean_cell_size=2)
        assert groups.n_groups == 2
        rcd = rcd_values(s, groups, np.array([1 / 3, 2 / 3]))
        assert rcd[:3] == pytest.approx([2 / 3] * 3, abs=1e-12)
        assert rcd[3:] == pytest.approx([4 / 3] * 3, abs=1e-12)

    def test_adjusted_degree_hand_value(self):
        s = make_sample([rec(0, 2, True), rec(1, 4, True)])
        ad = adjusted_degree(s, np.array([2.0, 1.0]), True)
        assert ad == pytest.approx(2.4, abs=1e-12)

    def test_golden(self, golden):
        assert h_estimate(golden, mean_cell_size=2) == pytest.approx(33 / 47, abs=1e-9)

    def test_equals_sh_exactly_with_uniform_recruitment(self):
        # One degree group forces every relative cell density to one, and
        # then the two estimators must agree bit for bit.
        s = make_sample([
            rec(0, 5, True),
            rec(1, 5, False),
            rec(2, 5, True, recruiter=0, wave=1),
            rec(3, 5, False, recruiter=1, wave=1),
            rec(4, 5, False, recruiter=2, wave=2),
            rec(5, 5, True, recruiter=3, wave=2),
        ])
        assert h_estimate(s) - sh_estimate(s) == 0.0

    def test_seeds_only_fails(self):
        s = make_sample([rec(0, 2, True), rec(1, 2, False)])
        with pytest.raises(EstimationError):
            h_estimate(s)


class TestEstimateAll:
    def test_golden_values_and_flags(self, golden):
        full = estimate_all(
            golden, 9, mean_cell_size=2, ss_options=SsOptions(method="enumerate")
        )
        assert full.naive == pytest.approx(0.5)
        assert full.vh == pytest.approx(0.625)
        assert full.ss == pytest.approx(0.569461878513344, abs=1e-12)
        assert full.sh == pytest.approx(5 / 7)
        assert full.h == pytest.approx(33 / 47, abs=1e-9)
        assert not full.sh_equal_one
        assert not full.h_equal_one
        assert full.failures == {}

    def test_value_one_flags(self):
        s = make_sample([
            rec(0, 2, True),
            rec(1, 2, False),
            rec(2, 2, True, recruiter=0, wave=1),
            rec(3, 2, True, recruiter=1, wave=1),
        ])
        full = estimate_all(s, 8, ss_options=SsOptions(method="enumerate"))
        assert full.sh == 1.0 and full.sh_equal_one
        assert full.h == 1.0 and full.h_equal_one

    def test_failures_recorded_not_raised(self):
        seeds_only = make_sample([rec(0, 3, True), rec(1, 5, False)])
        full = estimate_all(seeds_only, 9, ss_options=SsOptions(method="enumerate"))
        assert full.sh is None
        assert full.h is None
        assert full.failures["sh"] == NO_RECRUITMENTS_FROM_GROUP
        assert full.failures["h"] == NO_RECRUITMENTS_FROM_GROUP
        assert full.naive is not None
        assert full.vh is not None
        assert full.ss is not None

    def test_empty_sample_fails_alike_everywhere(self):
        empty = Sample([], EventCounts())
        full = estimate_all(empty, 100)
        assert full.failures == dict.fromkeys(("naive", "vh", "ss", "sh", "h"), EMPTY_SAMPLE)
        with pytest.raises(EstimationError) as info:
            h_estimate(empty)
        assert info.value.code == EMPTY_SAMPLE

    def test_weighted_estimator_failures_recorded(self, golden):
        zero = make_sample([rec(0, 0, True), rec(1, 2, False), rec(2, 2, True, 1, 1)])
        full = estimate_all(zero, 9, ss_options=SsOptions(method="enumerate"))
        assert (full.vh, full.ss) == (None, None)
        assert full.failures["vh"] == full.failures["ss"] == ZERO_DEGREE
        assert full.naive == pytest.approx(2 / 3)
        capped = SsOptions(method="enumerate", max_iterations=1)
        full = estimate_all(golden, 9, ss_options=capped)
        assert full.ss is None
        assert full.failures == {"ss": SS_NONCONVERGENCE}

    def test_live_sample_all_defined(self):
        net = generate_network(NetworkSpec(rng_seed=21))
        s = run_rds(net, SamplingConfig(
            seed_rule=SeedRule.pps_degree(), target_n=200, rng_seed=21))
        full = estimate_all(s, 1000)
        for name in ("naive", "vh", "ss", "sh", "h"):
            value = full.value_of(name)
            assert value is not None
            assert 0.0 <= value <= 1.0

    def test_estimates_take_no_svd(self, monkeypatch):
        # Reducibility is `equilibrium_distribution`'s to report; h solves for
        # the equilibrium vector alone, so no estimate needs an SVD.
        samples = [run_rds(generate_network(NetworkSpec(rng_seed=seed)),
                           SamplingConfig(target_n=200, rng_seed=seed)) for seed in (21, 22, 23)]

        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for s in samples:
            full = estimate_all(s, 1000)
            assert full.failures == {}
            assert all(0.0 <= full.value_of(name) <= 1.0 for name in ESTIMATOR_NAMES)

    def test_zero_rcd_sum_is_coded(self):
        # The equilibrium puts no mass on the degree group of the one
        # infected respondent, so the infected RCDs sum to 0.
        degrees, recruiters = [1, 4, 2, 5, 1, 2, 1, 2], [None, 0, 1, None, 0, None, 4, 4]
        s = make_sample([rec(i, d, i == 0, r)
                         for i, (d, r) in enumerate(zip(degrees, recruiters))])
        full = estimate_all(s, 100, mean_cell_size=3)
        assert full.h is None
        assert full.failures == {"h": ZERO_RCD_SUM}
        with pytest.raises(EstimationError) as info:
            h_estimate(s, mean_cell_size=3)
        assert info.value.code == ZERO_RCD_SUM


class TestInvariances:
    def test_degree_scale_invariance(self):
        net = generate_network(NetworkSpec(rng_seed=30))
        s = run_rds(net, SamplingConfig(
            seed_rule=SeedRule.pps_degree(), target_n=150, rng_seed=30))
        scaled = Sample(
            [RespondentRecord(r.node_id, r.degree * 3, r.infected, r.recruiter_id,
                              r.wave, r.reseed) for r in s.records],
            s.counts,
        )
        assert vh_estimate(scaled) == pytest.approx(vh_estimate(s), abs=1e-12)
        assert sh_estimate(scaled) == pytest.approx(sh_estimate(s), abs=1e-12)
        assert h_estimate(scaled) == pytest.approx(h_estimate(s), abs=1e-12)

    def test_vh_recovers_share_under_weighted_draws(self):
        # Ten units drawn with replacement proportional to degree: the
        # naive share matches the degree-weighted share and the
        # inverse-degree correction recovers the unweighted share.
        rng = np.random.default_rng(2)
        degrees = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        infected = np.array([True, False, True, False, False,
                             True, False, False, False, False])
        probs = degrees / degrees.sum()
        reps = 100000
        draws = rng.choice(10, size=reps, p=probs)
        s = Sample(
            [RespondentRecord(i, int(degrees[u]), bool(infected[u]), None, 0)
             for i, u in enumerate(draws.tolist())],
            EventCounts(),
        )
        weighted_share = probs[infected].sum()
        se = np.sqrt(weighted_share * (1 - weighted_share) / reps)
        assert abs(naive_estimate(s) - weighted_share) < 3 * se
        assert abs(vh_estimate(s) - 0.3) < 0.01


# --------------------------------------------------------------------------
# Per-record loop reference: the estimators as they were written before the
# sample became columnar.  The array estimators must give the same values,
# bit for bit, and fail with the same exceptions and codes.

def _ref_require_nonempty(sample):
    if not sample.records:
        raise EstimationError("sample is empty", code=EMPTY_SAMPLE)


def _ref_inverse_weight_ratio(sample, weight_of):
    num = 0.0
    den = 0.0
    for r in sample.records:
        w = 1.0 / weight_of[r.degree]
        den += w
        if r.infected:
            num += w
    return num / den


def _ref_naive(sample):
    _ref_require_nonempty(sample)
    return sum(1 for r in sample.records if r.infected) / len(sample.records)


def _ref_vh(sample):
    _ref_require_nonempty(sample)
    for r in sample.records:
        if r.degree < 1:
            raise EstimationError("zero degree", code=ZERO_DEGREE)
    return _ref_inverse_weight_ratio(sample, {r.degree: float(r.degree) for r in sample.records})


def _ref_ss(sample, population_size, options):
    _ref_require_nonempty(sample)
    for r in sample.records:
        if r.degree < 1:
            raise EstimationError("zero degree", code=ZERO_DEGREE)
    counts = Counter(r.degree for r in sample.records)
    degrees = np.array(sorted(counts), dtype=np.int64)
    sizes = np.array([counts[d] for d in degrees.tolist()], dtype=np.float64)
    pi = _ss_fixed_point(degrees, sizes, population_size, len(sample.records), options)
    return _ref_inverse_weight_ratio(sample, dict(zip(degrees.tolist(), pi.tolist())))


def _ref_recruitment_pairs(sample):
    records = sample.records
    position = {r.node_id: i for i, r in enumerate(records)}
    pairs = []
    for i, r in enumerate(records):
        if r.recruiter_id is None:
            continue
        j = position.get(r.recruiter_id)
        if j is None or j >= i:
            raise ConfigError(f"respondent {r.node_id} names recruiter {r.recruiter_id}")
        pairs.append((j, i))
    return pairs


def _ref_cross_group_counts(sample):
    tallies = [[0, 0], [0, 0]]
    for j, i in _ref_recruitment_pairs(sample):
        tallies[int(sample.records[j].infected)][int(sample.records[i].infected)] += 1
    return CrossGroupCounts(tallies[1][1], tallies[1][0], tallies[0][1], tallies[0][0])


def _ref_harmonic(sample, infected):
    n_g = 0
    acc = 0.0
    for r in sample.records:
        if r.infected != infected:
            continue
        if r.degree < 1:
            raise EstimationError("zero degree", code=ZERO_DEGREE)
        n_g += 1
        acc += 1.0 / r.degree
    if n_g == 0:
        raise EstimationError("empty group", code=EMPTY_GROUP)
    return n_g / acc


def _ref_sh(sample):
    _ref_require_nonempty(sample)
    counts = _ref_cross_group_counts(sample)
    c_iu = counts.proportion_infected_to_uninfected()
    c_ui = counts.proportion_uninfected_to_infected()
    return _balance_ratio(c_iu, c_ui, _ref_harmonic(sample, True), _ref_harmonic(sample, False))


def _ref_partition(sample, mean_cell_size):
    _ref_require_nonempty(sample)
    records = sample.records
    n = len(records)
    level = max(1, math.floor(math.sqrt(n / mean_cell_size) + 0.5))
    degree_counts = Counter(r.degree for r in records)
    distinct = sorted(degree_counts)
    cumulative = np.cumsum([degree_counts[d] for d in distinct])
    boundaries = []
    prev_edge = 0
    for j in range(1, level):
        target = j * n / level
        best = None
        for idx, edge in enumerate(cumulative.tolist()):
            if edge <= prev_edge or edge >= n:
                continue
            distance = abs(edge - target)
            if best is None or distance < best[0] or (distance == best[0] and edge < best[1]):
                best = (distance, edge, idx)
        if best is None:
            break
        boundaries.append(distinct[best[2]])
        prev_edge = best[1]
    edges = np.array(boundaries, dtype=np.int64)
    group_index = np.searchsorted(edges, [r.degree for r in records], side="left")
    sizes = np.bincount(group_index, minlength=len(boundaries) + 1)
    return DegreeGroups(mean_cell_size, level, tuple(boundaries),
                        group_index.astype(np.int64), tuple(int(s) for s in sizes))


def _ref_transition(sample, groups):
    pairs = _ref_recruitment_pairs(sample)
    if not pairs:
        raise EstimationError("no recruitments", code=NO_RECRUITMENT_EVENTS)
    k = groups.n_groups
    recruiter, recruit = groups.group_index[np.array(pairs).T]
    counts = np.bincount(recruiter * k + recruit, minlength=k * k).reshape(k, k).astype(np.float64)
    marginal = counts.sum(axis=0) / counts.sum()
    patched = False
    matrix = np.empty_like(counts)
    for g in range(k):
        row_total = counts[g].sum()
        if row_total == 0.0:
            matrix[g] = marginal
            patched = True
        else:
            matrix[g] = counts[g] / row_total
    return matrix, patched


def _ref_adjusted(sample, rcd, infected):
    num = 0.0
    den = 0.0
    n_g = 0
    for i, r in enumerate(sample.records):
        if r.infected != infected:
            continue
        if r.degree < 1:
            raise EstimationError("zero degree", code=ZERO_DEGREE)
        num += rcd[i]
        den += rcd[i] / r.degree
        n_g += 1
    if n_g == 0:
        raise EstimationError("empty group", code=EMPTY_GROUP)
    if num == 0.0:
        raise EstimationError("zero rcd sum", code=ZERO_RCD_SUM)
    return num / den


def _ref_h(sample, mean_cell_size):
    _ref_require_nonempty(sample)
    counts = _ref_cross_group_counts(sample)
    c_iu = counts.proportion_infected_to_uninfected()
    c_ui = counts.proportion_uninfected_to_infected()
    groups = _ref_partition(sample, mean_cell_size)
    matrix, _ = _ref_transition(sample, groups)
    equilibrium, _ = equilibrium_distribution(matrix)
    rcd = rcd_values(sample, groups, equilibrium)
    adj = [_ref_adjusted(sample, rcd, infected) for infected in (True, False)]
    return float(_balance_ratio(c_iu, c_ui, *adj))


def _outcome(call):
    """A value as exact, comparable data, or the exception's type and code."""
    try:
        value = call()
    except (EstimationError, ConfigError) as err:
        return ("raised", type(err), getattr(err, "code", None))
    if isinstance(value, DegreeGroups):
        return (value.aggregation_level, value.boundaries, value.group_sizes,
                value.group_index.tolist())
    if isinstance(value, tuple):  # transition matrix and patched flag
        return (value[0].tolist(), value[1])
    if isinstance(value, float):
        return repr(value)  # bit-exact, and nan equals nan
    return value


@st.composite
def loop_samples(draw):
    """Samples with zero degrees, mixed groups and arbitrary recruiter links.

    ``tree`` samples name an earlier respondent as each recruiter, as
    `run_rds` does; the others read like hand-written files, with repeated
    node ids and recruiters that come later or do not appear at all.
    """
    n = draw(st.integers(0, 70))
    tree = draw(st.booleans())
    if tree:
        ids = draw(st.permutations(range(n)))
    else:
        ids = draw(st.lists(st.integers(0, n + 3), min_size=n, max_size=n))
    degrees = draw(st.lists(
        st.sampled_from([0, 1, 1, 2, 3, 5, 8]) | st.integers(1, 40), min_size=n, max_size=n))
    infected = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    records = []
    for i in range(n):
        if tree:
            j = draw(st.none() | st.integers(0, max(i - 1, 0)))
            recruiter = None if j is None or i == 0 else ids[j]
        else:
            recruiter = draw(st.none() | st.integers(0, n + 3))
        records.append(RespondentRecord(ids[i], degrees[i], infected[i], recruiter, 0))
    return Sample(records, EventCounts())


def _assert_coded_or_unit(full):
    for name in ESTIMATOR_NAMES:
        value = full.value_of(name)
        if value is None:
            assert full.failures[name]
        else:
            assert name not in full.failures
            assert math.isfinite(value) and 0.0 <= value <= 1.0, (name, value)


class TestEstimateAllIsCodedOrInUnitInterval:
    """Each estimate is a coded failure or a finite share, with no numpy warning."""

    @given(sample=loop_samples(), extra=st.integers(0, 40), cell=st.integers(1, 8))
    def test_loop_samples(self, sample, extra, cell):
        try:
            full = estimate_all(sample, sample.size + extra, mean_cell_size=cell)
        except ConfigError:
            # Recruiter links that do not resolve are refused, not estimated.
            with pytest.raises(ConfigError):
                sample.recruiter_pos
            return
        _assert_coded_or_unit(full)

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(20, 80),
           target_n=st.integers(4, 15), cell=st.integers(1, 4))
    @example(seed=0, n_nodes=40, target_n=15, cell=1)  # zero RCD sum
    def test_live_samples(self, seed, n_nodes, target_n, cell):
        net = generate_network(NetworkSpec(
            n_nodes=n_nodes, n_infected=n_nodes // 3, mean_degree=3.0, rng_seed=seed))
        s = run_rds(net, SamplingConfig(n_seeds=2, target_n=target_n, rng_seed=seed))
        _assert_coded_or_unit(estimate_all(s, n_nodes, mean_cell_size=cell))


class TestArrayEstimatorsMatchLoopReference:
    @given(sample=loop_samples(), extra=st.integers(-2, 40), cell=st.integers(1, 8))
    def test_same_values_and_failures(self, sample, extra, cell):
        fresh = Sample(sample.records, sample.counts)  # recruiters not yet resolved
        opts = SsOptions()
        rcd = np.linspace(0.0, 2.0, sample.size)
        pairs = [
            (lambda: naive_estimate(sample), lambda: _ref_naive(sample)),
            (lambda: vh_estimate(sample), lambda: _ref_vh(sample)),
            (lambda: ss_estimate(sample, sample.size + extra, opts),
             lambda: _ref_ss(sample, sample.size + extra, opts)),
            (lambda: cross_group_counts(fresh), lambda: _ref_cross_group_counts(sample)),
            (lambda: harmonic_mean_degree(sample, True), lambda: _ref_harmonic(sample, True)),
            (lambda: harmonic_mean_degree(sample, False), lambda: _ref_harmonic(sample, False)),
            (lambda: adjusted_degree(sample, rcd, True), lambda: _ref_adjusted(sample, rcd, True)),
            (lambda: adjusted_degree(sample, rcd, False),
             lambda: _ref_adjusted(sample, rcd, False)),
            (lambda: sh_estimate(sample), lambda: _ref_sh(sample)),
            (lambda: partition_degree_groups(sample, cell), lambda: _ref_partition(sample, cell)),
            (lambda: h_estimate(sample, cell), lambda: _ref_h(sample, cell)),
        ]
        if sample.size:
            groups = _ref_partition(sample, cell)
            pairs.append((lambda: degree_group_transition_matrix(sample, groups),
                          lambda: _ref_transition(sample, groups)))
        with np.errstate(all="ignore"):
            for array_call, loop_call in pairs:
                assert _outcome(array_call) == _outcome(loop_call)

    @given(sample=loop_samples())
    def test_recruiter_positions_match_pairs(self, sample):
        try:
            expected = [-1] * sample.size
            for j, i in _ref_recruitment_pairs(sample):
                expected[i] = j
        except ConfigError:
            with pytest.raises(ConfigError, match="does not appear earlier"):
                sample.recruiter_pos
        else:
            assert sample.recruiter_pos.tolist() == expected

    def test_live_samples_match_reference(self):
        for seed in range(6):
            net = generate_network(NetworkSpec(differential_activity=1.8, rng_seed=40 + seed))
            s = run_rds(net, SamplingConfig(target_n=200, rng_seed=seed))
            for array_call, loop_call in (
                (lambda: vh_estimate(s), lambda: _ref_vh(s)),
                (lambda: ss_estimate(s, 1000), lambda: _ref_ss(s, 1000, SsOptions())),
                (lambda: sh_estimate(s), lambda: _ref_sh(s)),
                (lambda: h_estimate(s), lambda: _ref_h(s, 12)),
            ):
                assert _outcome(array_call) == _outcome(loop_call)
