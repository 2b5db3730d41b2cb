"""Tests for the moment-driven network generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdslab import (
    ConfigError,
    Network,
    NetworkSpec,
    generate_network,
    load_network,
    network_summary,
    save_network,
    solve_block_probabilities,
)
from rdslab.netgen import expected_group_degrees

DEFAULT = NetworkSpec()


@st.composite
def networks(draw):
    n = draw(st.integers(0, 25))
    infected = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=60))
    return Network(np.array(infected, dtype=bool), np.array(pairs, dtype=np.int64))


class TestSolveBlockProbabilities:
    def test_default_spec_values(self):
        # Frozen from the analytic solve of the moment system.
        p = solve_block_probabilities(DEFAULT)
        assert p.cross == pytest.approx(0.003899721448, abs=1e-12)
        assert p.infected_infected == pytest.approx(0.019498607242, abs=1e-12)
        assert p.uninfected_uninfected == pytest.approx(0.007784800639, abs=1e-12)
        # The uninfected-uninfected block sits at about twice the cross block.
        assert p.uninfected_uninfected / p.cross == pytest.approx(2.0, rel=0.01)

    def test_differential_activity_shifts_group_degrees(self):
        spec = NetworkSpec(differential_activity=1.8)
        d_inf, d_uninf = expected_group_degrees(spec)
        assert d_inf == pytest.approx(10.862069, abs=1e-6)
        assert d_uninf == pytest.approx(6.034483, abs=1e-6)
        p = solve_block_probabilities(spec)
        assert p.cross == pytest.approx(0.006051291903, abs=1e-12)

    def test_two_node_population_saturates(self):
        spec = NetworkSpec(
            n_nodes=2, n_infected=1, mean_degree=1.0, homophily_ratio=1.0
        )
        p = solve_block_probabilities(spec)
        assert p.infected_infected == 1.0
        assert p.cross == 1.0
        assert p.uninfected_uninfected == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            NetworkSpec(),
            NetworkSpec(differential_activity=1.8),
            NetworkSpec(differential_activity=0.5),
            NetworkSpec(n_nodes=500, n_infected=50, mean_degree=3.5, homophily_ratio=2.0),
            NetworkSpec(n_nodes=100, n_infected=30, mean_degree=9.0, homophily_ratio=1.0),
            NetworkSpec(n_nodes=64, n_infected=16, mean_degree=2.0, homophily_ratio=7.0,
                        differential_activity=1.3),
        ],
    )
    def test_moment_equations_round_trip(self, spec):
        # Plugging the solved blocks back into the moment system must
        # reproduce the requested moments almost exactly.
        p = solve_block_probabilities(spec)
        n_a = spec.n_infected
        n_b = spec.n_nodes - n_a
        d_a = p.infected_infected * (n_a - 1) + p.cross * n_b
        d_b = p.cross * n_a + p.uninfected_uninfected * (n_b - 1)
        mean = (n_a * d_a + n_b * d_b) / spec.n_nodes
        assert mean == pytest.approx(spec.mean_degree, abs=1e-12)
        assert d_a / d_b == pytest.approx(spec.differential_activity, abs=1e-12)
        assert p.infected_infected == pytest.approx(
            spec.homophily_ratio * p.cross, abs=1e-15
        )

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            solve_block_probabilities(
                NetworkSpec(n_nodes=100, n_infected=20, mean_degree=95.0)
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": 1},
            {"n_infected": 0},
            {"n_infected": 1000},
            {"mean_degree": 0.0},
            {"homophily_ratio": -1.0},
            {"differential_activity": 0.0},
        ],
    )
    def test_invalid_spec_fields(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkSpec(**kwargs)


class TestGenerateNetwork:
    def test_deterministic_given_seed(self):
        a = generate_network(NetworkSpec(rng_seed=7))
        b = generate_network(NetworkSpec(rng_seed=7))
        c = generate_network(NetworkSpec(rng_seed=8))
        assert a == b
        assert a != c

    def test_block_edge_counts_unbiased(self):
        # Aggregate block edge counts over 200 networks stay within three
        # standard errors of the binomial expectation, and the grand mean
        # degree lands close to the requested 7.
        p = solve_block_probabilities(DEFAULT)
        n_a = DEFAULT.n_infected
        n_b = DEFAULT.n_nodes - n_a
        pairs = {
            "ii": n_a * (n_a - 1) // 2,
            "cross": n_a * n_b,
            "uu": n_b * (n_b - 1) // 2,
        }
        probs = {
            "ii": p.infected_infected,
            "cross": p.cross,
            "uu": p.uninfected_uninfected,
        }
        reps = 200
        totals = {"ii": 0, "cross": 0, "uu": 0}
        degree_sum = 0.0
        for seed in range(reps):
            stats = network_summary(generate_network(NetworkSpec(rng_seed=seed)))
            totals["ii"] += stats.edges_infected_infected
            totals["cross"] += stats.edges_cross
            totals["uu"] += stats.edges_uninfected_uninfected
            degree_sum += stats.mean_degree
        for block in totals:
            trials = reps * pairs[block]
            expect = trials * probs[block]
            spread = np.sqrt(trials * probs[block] * (1 - probs[block]))
            assert abs(totals[block] - expect) < 3 * spread, block
        assert abs(degree_sum / reps - 7.0) < 0.2

    def test_realized_differential_activity_near_spec(self):
        stats = network_summary(generate_network(NetworkSpec(rng_seed=11)))
        assert stats.differential_activity == pytest.approx(1.0, rel=0.15)
        skewed = network_summary(
            generate_network(NetworkSpec(differential_activity=1.8, rng_seed=11))
        )
        assert skewed.differential_activity == pytest.approx(1.8, rel=0.15)


class TestNetworkType:
    def test_rejects_self_loops_and_bad_endpoints(self):
        infected = np.array([True, False, False])
        with pytest.raises(ConfigError):
            Network(infected, np.array([[0, 0]]))
        with pytest.raises(ConfigError):
            Network(infected, np.array([[0, 3]]))

    def test_canonicalizes_edges(self):
        net = Network(np.array([True, False, False]), np.array([[2, 0], [0, 2], [1, 0]]))
        assert net.edges.tolist() == [[0, 1], [0, 2]]
        assert net.degrees.tolist() == [2, 1, 1]
        assert net.neighbors[0] == [1, 2]

    def test_summary_flags_undefined_differential_activity(self):
        # All edges among the infected: uninfected mean degree is zero.
        net = Network(np.array([True, True, False]), np.array([[0, 1]]))
        stats = network_summary(net)
        assert stats.differential_activity is None
        assert stats.n_isolates == 1


class TestSerialization:
    def test_round_trip_generated(self, tmp_path):
        net = generate_network(NetworkSpec(rng_seed=3))
        path = tmp_path / "net.txt"
        save_network(net, path)
        assert load_network(path) == net

    def test_round_trip_preserves_isolates(self, tmp_path):
        infected = np.zeros(5, dtype=bool)
        infected[4] = True
        net = Network(infected, np.array([[0, 1]]))  # nodes 2, 3, 4 isolated
        path = tmp_path / "net.txt"
        save_network(net, path)
        back = load_network(path)
        assert back == net
        assert back.n_nodes == 5
        assert back.degrees.tolist() == [1, 1, 0, 0, 0]

    @given(net=networks())
    def test_round_trip_any_network(self, tmp_path_factory, net):
        path = tmp_path_factory.mktemp("net") / "net.txt"
        save_network(net, path)
        back = load_network(path)
        assert back == net
        assert back.degrees.tolist() == net.degrees.tolist()

    def test_malformed_files_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5\n\n0 1\n")
        with pytest.raises(ConfigError, match="header"):
            load_network(path)
        path.write_text("5 1\n0\n0 1 2\n")
        with pytest.raises(ConfigError, match="expected"):
            load_network(path)
        path.write_text("5 2\n0\n0 1\n")
        with pytest.raises(ConfigError, match="infected"):
            load_network(path)

    @pytest.mark.parametrize(
        "text,lineno",
        [("5 x\n0\n0 1\n", 1), ("5 1\nx\n0 1\n", 2), ("5 1\n0\n0 1\n\n0 x\n", 5)],
    )
    def test_non_integer_tokens_name_the_line(self, tmp_path, text, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"bad.txt:{lineno} must be an integer"):
            load_network(path)

    def test_negative_node_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 0\n\n")
        with pytest.raises(ConfigError, match="node count"):
            load_network(path)
