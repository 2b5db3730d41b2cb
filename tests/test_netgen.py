"""Tests for the moment-driven network generator."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rdslab import (
    ConfigError,
    Network,
    NetworkSpec,
    SamplingConfig,
    generate_network,
    load_network,
    network_summary,
    run_rds,
    save_network,
    solve_block_probabilities,
)
from rdslab import netgen
from rdslab.netgen import MAX_NODES, _geometric_gaps, _triangle_pairs, expected_group_degrees

DEFAULT = NetworkSpec()
# The benchmark workloads' network specs: desk_da18, desk_behavior500 and large_pop.
WORKLOAD_SPECS = [
    NetworkSpec(differential_activity=1.8),
    NetworkSpec(),
    NetworkSpec(n_nodes=10_000, n_infected=2_000, differential_activity=1.8),
]


def reference_network(spec: NetworkSpec) -> Network:
    """The generator drawn the plain way: ``rng.geometric`` gaps, one edge array, `Network`."""
    p = solve_block_probabilities(spec)
    rng = np.random.default_rng(spec.rng_seed)

    def skip_sample(m, prob):
        parts, last = [np.zeros(0)], -1.0
        while prob > 0.0 and last < m - 1:
            mean = (m - 1 - last) * prob
            gaps = rng.geometric(prob, size=int(mean + 4.0 * np.sqrt(mean)) + 16)
            parts.append(last + np.cumsum(gaps, dtype=np.float64))
            last = parts[-1][-1]
        kept = np.concatenate(parts)
        return kept[: np.searchsorted(kept, m)].astype(np.int64)

    n, n_a = spec.n_nodes, spec.n_infected
    n_b = n - n_a
    ii = skip_sample(n_a * (n_a - 1) // 2, p.infected_infected)
    cross = skip_sample(n_a * n_b, p.cross)
    uu = skip_sample(n_b * (n_b - 1) // 2, p.uninfected_uninfected)
    edges = np.concatenate([
        np.column_stack(_triangle_pairs(ii, n_a)),
        np.column_stack([cross // n_b, n_a + cross % n_b]),
        n_a + np.column_stack(_triangle_pairs(uu, n_b)),
    ])
    return Network(np.arange(n) < n_a, edges)


@st.composite
def edge_lists(draw):
    """``(infected, edges)`` as a caller may pass them: pairs repeated, reversed and shuffled."""
    n = draw(st.integers(0, 25))
    infected = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=60))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=20))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = draw(st.permutations([(v, u) if f else (u, v) for (u, v), f in zip(pairs, flips)]))
    return np.array(infected, dtype=bool), np.array(pairs, dtype=np.int64).reshape(-1, 2)


def networks():
    return edge_lists().map(lambda case: Network(*case))


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

    def test_node_count_bounded(self):
        NetworkSpec(n_nodes=MAX_NODES)
        with pytest.raises(ConfigError, match="n_nodes"):
            NetworkSpec(n_nodes=MAX_NODES + 1)


class TestPairMapping:
    @pytest.mark.parametrize("s", range(2, 61))
    def test_matches_triu_indices(self, s):
        rows, cols = _triangle_pairs(np.arange(s * (s - 1) // 2), s)
        want_rows, want_cols = np.triu_indices(s, k=1)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    def test_row_ends_exact_at_large_block(self):
        # The first and last pair of each of the last 2000 rows, where the
        # float inverse works on the largest indices.
        s = 2**20 + 3
        rows = np.arange(s - 2001, s - 1, dtype=np.int64)
        first = rows * (2 * s - 1 - rows) // 2
        last = first + (s - 2 - rows)
        assert int(last[-1]) == s * (s - 1) // 2 - 1
        for k, want_cols in [(first, rows + 1), (last, np.full_like(rows, s - 1))]:
            got_rows, got_cols = _triangle_pairs(k, s)
            assert got_rows.tolist() == rows.tolist()
            assert got_cols.tolist() == want_cols.tolist()


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

    def test_per_pair_marginals(self):
        # Every one of the 15 pairs, the first and last of each block
        # included, carries an edge at its block probability (2/3, 1/3, 4/9).
        spec = NetworkSpec(n_nodes=6, n_infected=2, mean_degree=2.0, homophily_ratio=2.0)
        p = solve_block_probabilities(spec)
        assert (p.infected_infected, p.cross, p.uninfected_uninfected) == pytest.approx(
            (2 / 3, 1 / 3, 4 / 9)
        )
        block = {2: p.infected_infected, 1: p.cross, 0: p.uninfected_uninfected}
        reps = 4000
        counts = np.zeros((6, 6))
        for seed in range(reps):
            edges = generate_network(dataclasses.replace(spec, rng_seed=seed)).edges
            counts[edges[:, 0], edges[:, 1]] += 1
        for u in range(6):
            for v in range(u + 1, 6):
                prob = block[int(u < 2) + int(v < 2)]
                spread = np.sqrt(prob * (1 - prob) / reps)
                assert abs(counts[u, v] / reps - prob) < 4 * spread, (u, v)
        assert counts[np.tril_indices(6)].sum() == 0

    @pytest.mark.parametrize("spec", WORKLOAD_SPECS)
    @pytest.mark.parametrize("seed", [0, 1, 17, 1001])
    def test_workload_specs_equal_reference(self, spec, seed):
        self._assert_equals_reference(dataclasses.replace(spec, rng_seed=seed))

    @given(data=st.data())
    @example(data=None)
    def test_small_specs_equal_reference(self, data):
        self._assert_equals_reference(self._small_spec(data))

    @pytest.mark.parametrize("width", [1, 2, 3])
    @given(data=st.data())
    def test_sliced_decoding_equals_reference(self, width, data):
        # Slices of 1, 2 and 3 pair indices put a slice edge at every
        # position of every block.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netgen, "_DECODE_SLICE", width)
            self._assert_equals_reference(self._small_spec(data))

    @staticmethod
    def _small_spec(data) -> NetworkSpec:
        """A feasible spec of at most 60 nodes; two saturated nodes for ``data=None``."""
        if data is None:  # two nodes, every block probability 1
            return NetworkSpec(n_nodes=2, n_infected=1, mean_degree=1.0, homophily_ratio=1.0)
        n = data.draw(st.integers(2, 60))
        spec = NetworkSpec(
            n_nodes=n,
            n_infected=data.draw(st.integers(1, n - 1)),
            mean_degree=data.draw(st.floats(0.01, 1.0)) * (n - 1),
            homophily_ratio=data.draw(st.floats(0.2, 8.0)),
            differential_activity=data.draw(st.floats(0.3, 3.0)),
            rng_seed=data.draw(st.integers(0, 2**32)),
        )
        try:
            solve_block_probabilities(spec)
        except ConfigError:
            assume(False)
        return spec

    def test_blocks_at_and_above_a_third_equal_reference(self):
        # Blocks of 2/3, 1/3 and 4/9, where numpy's `geometric` searches.
        spec = NetworkSpec(n_nodes=6, n_infected=2, mean_degree=2.0, homophily_ratio=2.0)
        for seed in range(40):
            self._assert_equals_reference(dataclasses.replace(spec, rng_seed=seed))

    def test_int64_keys_equal_reference(self):
        # Above 2**15 nodes two node ids no longer fit a 32-bit key.
        self._assert_equals_reference(NetworkSpec(n_nodes=40_000, n_infected=8_000, rng_seed=3))

    @staticmethod
    def _assert_equals_reference(spec):
        net, want = generate_network(spec), reference_network(spec)
        assert net == want
        assert net.degrees.tolist() == want.degrees.tolist()
        for name in ("degrees", "indptr", "indices"):
            assert getattr(net, name).dtype == np.int64, name

    @pytest.mark.parametrize(
        "p",
        [1e-9, 1e-4, 0.0039, 0.0195, 0.1, 0.3, np.nextafter(1 / 3, 0), 1 / 3,
         np.nextafter(1 / 3, 1), 0.5, 1.0],
    )
    def test_gaps_are_numpys_geometric(self, p):
        # numpy inverts an exponential below p = 1/3 and searches above; a
        # numpy release that draws `geometric` otherwise must fail here.
        for seed in range(5):
            mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            gaps = _geometric_gaps(mine, p, 1000)
            assert gaps.tolist() == numpys.geometric(p, size=1000).tolist()
            assert mine.bit_generator.state == numpys.bit_generator.state

    def test_memory_linear_in_edges(self):
        # N = 100k has 5e9 node pairs; generation must stay O(N + E).
        spec = NetworkSpec(n_nodes=100_000, n_infected=20_000, rng_seed=5)
        tracemalloc.start()
        try:
            net = generate_network(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert abs(network_summary(net).mean_degree - 7.0) < 0.1
        sample = run_rds(net, SamplingConfig(target_n=20_000, rng_seed=5))
        assert sample.size == 20_000

    @pytest.mark.parametrize("seed", [0, 1])
    def test_peak_memory_near_network_size(self, seed):
        # The large_pop benchmark spec: ~35k edges, whose CSR holds ~0.6 MB.
        # Generation may hold little more than the 32-bit keys and the CSR:
        # 1.01 MB measured, plus 15%.  An (E, 2) int64 edge array handed to
        # `Network` instead reads 1.50 MB.
        spec = NetworkSpec(n_nodes=10_000, n_infected=2_000, differential_activity=1.8,
                           rng_seed=seed)
        tracemalloc.start()
        try:
            generate_network(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.16 * 2**20

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

    @given(case=edge_lists())
    def test_csr_matches_reference_adjacency(self, case):
        # Reference: one Python set per node, filled pair by pair from the
        # raw edge list.
        infected, pairs = case
        net = Network(infected, pairs)
        reference = [set() for _ in range(len(infected))]
        for u, v in pairs.tolist():
            reference[u].add(v)
            reference[v].add(u)
        rows = [sorted(row) for row in reference]
        assert list(net.neighbors) == rows
        assert net.degrees.tolist() == [len(row) for row in rows]
        assert net.indptr.tolist() == [0, *np.cumsum([len(row) for row in rows]).tolist()]
        assert net.indices.tolist() == [v for row in rows for v in row]
        canonical = sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist()})
        assert net.edges.tolist() == [list(edge) for edge in canonical]
        for name in ("degrees", "indptr", "indices", "edges"):
            assert getattr(net, name).dtype == np.int64, name
        assert net.edges.shape == (net.indices.shape[0] // 2, 2)
        assert Network(net.infected, net.edges) == net

    @pytest.mark.parametrize("n", [0, 1])
    def test_edgeless_sizes(self, n):
        net = Network(np.ones(n, dtype=bool), np.zeros((0, 2), dtype=np.int64))
        assert net.indptr.tolist() == [0] * (n + 1)
        assert net.indices.tolist() == []
        assert net.degrees.tolist() == [0] * n
        assert net.edges.shape == (0, 2)
        assert list(net.neighbors) == [[]] * n
        assert Network(net.infected, net.edges) == net

    def test_largest_node_ids(self):
        # Either side of the 32-bit key limit, then the largest network: ~170 MB
        # (int64 degrees and indptr), so the CSR is read directly, since
        # `edges` would add an n-sized temporary.
        for n in (2**15, 2**15 + 1, MAX_NODES):
            net = Network(np.zeros(n, dtype=bool), np.array([[n - 1, n - 2], [0, n - 1]]))
            assert net.indices.tolist() == [n - 1, n - 1, 0, n - 2]
            assert net.neighbors[n - 1] == [0, n - 2]
            assert net.neighbors[0] == [n - 1]
            assert net.degrees[[0, 1, n - 2, n - 1]].tolist() == [1, 0, 1, 2]
            assert net.indptr[-1] == 4

    def test_rejects_too_many_nodes(self):
        # No ``MAX_NODES + 1``-node array is needed to see the check: a
        # broadcast view has the length and no memory.
        infected = np.broadcast_to(np.False_, (MAX_NODES + 1,))
        with pytest.raises(ConfigError, match="infected"):
            Network(infected, np.zeros((0, 2), dtype=np.int64))

    def test_neighbors_view_indexing(self):
        net = Network(np.zeros(4, dtype=bool), np.array([[3, 1], [1, 0]]))
        assert len(net.neighbors) == 4
        assert net.neighbors[np.int64(1)] == [0, 3]
        assert net.neighbors[-1] == [1]
        assert 3 in net.neighbors[1]
        with pytest.raises(IndexError):
            net.neighbors[4]
        with pytest.raises(TypeError):
            net.neighbors[0] = [2]
        net.neighbors[1].append(2)  # a fresh list; the network is unchanged
        assert net.neighbors[1] == [0, 3]

    def test_summary_flags_undefined_differential_activity(self):
        # All edges among the infected: uninfected mean degree is zero.
        net = Network(np.array([True, True, False]), np.array([[0, 1]]))
        stats = network_summary(net)
        assert stats.differential_activity is None
        assert stats.n_isolates == 1

    @staticmethod
    def _block_counts(infected, pairs):
        """(infected-infected, cross, uninfected-uninfected) over distinct edges."""
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        both = [int(infected[u]) + int(infected[v]) for u, v in edges]
        return both.count(2), both.count(1), both.count(0)

    def _assert_block_counts(self, net, expected):
        stats = network_summary(net)
        counts = (stats.edges_infected_infected, stats.edges_cross,
                  stats.edges_uninfected_uninfected)
        assert counts == expected
        assert all(type(count) is int for count in counts)

    @given(case=edge_lists())
    def test_summary_block_counts_match_edge_list(self, case):
        infected, pairs = case
        self._assert_block_counts(Network(infected, pairs),
                                  self._block_counts(infected, pairs.tolist()))

    @pytest.mark.parametrize("spec", [DEFAULT, NetworkSpec(rng_seed=5, differential_activity=1.8)])
    def test_summary_block_counts_of_generated_networks(self, spec):
        net = generate_network(spec)
        self._assert_block_counts(net, self._block_counts(net.infected, net.edges.tolist()))


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
        for text, message in [
            ("5 2\n3 3\n0 1\n", "bad.txt:2: repeated infected id"),
            ("5 1\n5\n0 1\n", "bad.txt:2: infected id 5 out of range"),
            ("5 1\n0\n0 1\n1 5\n", "bad.txt:4: edge endpoint out of range"),
            ("5 1\n0\n0 1\n2 2\n", "bad.txt:4: self loop at node 2"),
            ("3 0\n\n0 1\n1 0\n0 1\n", "bad.txt:4: edge 1 0 repeats the edge of line 3"),
            ("5 1\n0\n0 1\n2 3\n\n0 1\n", "bad.txt:6: edge 0 1 repeats the edge of line 3"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=message):
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

    def test_oversized_node_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{MAX_NODES + 1} 1\n0\n")
        with pytest.raises(ConfigError, match=f"bad.txt:1: node count"):
            load_network(path)
