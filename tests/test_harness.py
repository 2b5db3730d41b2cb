"""Tests for replication orchestration, summaries, and CSV export."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from rdslab import (
    Condition,
    ConfigError,
    EstimateSet,
    EstimationError,
    NetworkSpec,
    ReplicationRow,
    ReplicationTable,
    SamplingConfig,
    SeedRule,
    SsOptions,
    export_csv,
    generate_network,
    load_replication_csv,
    paired_difference_test,
    run_condition,
    run_replication,
    summarize,
)
from rdslab.estimators import ESTIMATOR_NAMES
from rdslab.harness import derive_rep_seeds

SMALL = Condition(
    label="small",
    network=NetworkSpec(n_nodes=300, n_infected=60),
    sampling=SamplingConfig(
        n_seeds=4, seed_rule=SeedRule.pps_degree(), target_n=60
    ),
    replications=6,
    base_seed=104,
)


def single_column_table(label, values, realized=10):
    rows = [
        ReplicationRow(
            i, EstimateSet(naive=v, vh=None, ss=None, sh=None, h=None), realized, 0
        )
        for i, v in enumerate(values)
    ]
    return ReplicationTable(label, 0, rows)


@st.composite
def estimate_sets(draw):
    estimates = EstimateSet(sh_equal_one=draw(st.booleans()), h_equal_one=draw(st.booleans()))
    for name in ESTIMATOR_NAMES:
        # Ten significant digits round values next to the largest double up
        # past it, so they would read back as infinity; estimates are shares.
        value = draw(st.none() | st.floats(-1e308, 1e308))
        if value is None:
            estimates.failures[name] = draw(st.text("abcdefghij_", min_size=1, max_size=8))
        else:
            setattr(estimates, name, value)
    return estimates


replication_tables = st.builds(
    ReplicationTable,
    label=st.text("abcXYZ019_-. ", min_size=1, max_size=8),
    base_seed=st.just(0),
    rows=st.lists(st.builds(
        ReplicationRow,
        replication=st.integers(0, 10**6),
        estimates=estimate_sets(),
        realized_n=st.integers(0, 10**4),
        reseeds=st.integers(0, 100),
    ), min_size=1, max_size=8),
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_rep_seeds(42, 3) == derive_rep_seeds(42, 3)

    def test_streams_distinct(self):
        seen = set()
        for base in (0, 1, 42):
            for rep in range(50):
                triple = derive_rep_seeds(base, rep)
                assert len(set(triple)) == 3
                seen.update(triple)
        assert len(seen) == 3 * 3 * 50

    def test_same_base_seed_shares_networks_across_conditions(self):
        # Conditions that differ only in sampling behavior must see the
        # same generated network at each replication index.
        other = dataclasses.replace(SMALL, label="other", sampling=SamplingConfig(
            n_seeds=4, seed_rule=SeedRule.uniform_lowest(30), target_n=60))
        for rep in range(3):
            net_seed_a = derive_rep_seeds(SMALL.base_seed, rep)[0]
            net_seed_b = derive_rep_seeds(other.base_seed, rep)[0]
            assert net_seed_a == net_seed_b
            spec = dataclasses.replace(SMALL.network, rng_seed=net_seed_a)
            assert generate_network(spec) == generate_network(spec)


class TestRunCondition:
    def test_rows_complete_and_ordered(self):
        table = run_condition(SMALL)
        assert table.label == "small"
        assert [r.replication for r in table.rows] == list(range(6))
        for row in table.rows:
            assert row.realized_n == 60
            assert row.estimates.naive is not None

    def test_deterministic(self, tmp_path):
        a, b = run_condition(SMALL), run_condition(SMALL)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(a, pa)
        export_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_single_replication_matches_condition_row(self):
        row = run_replication(SMALL, 2)
        table = run_condition(SMALL)
        assert row == table.rows[2]

    @pytest.mark.parametrize("field,value", [
        ("mean_cell_size", 0),
        ("replications", 0),
        ("base_seed", -1),
    ])
    def test_invalid_condition_rejected_when_constructed(self, field, value):
        with pytest.raises(ConfigError, match=field):
            Condition(**{"label": "x", field: value})


class TestSummarize:
    def test_hand_example(self):
        summary = summarize(single_column_table("demo", [0.1, 0.3]))
        naive = summary.rows[0]
        assert naive.estimator == "naive"
        assert naive.mean == pytest.approx(0.2)
        assert naive.variance == pytest.approx(0.02)
        assert naive.n_reps == 2
        assert naive.count_one == 0

    def test_counts_ones_and_failures(self):
        rows = [
            ReplicationRow(0, EstimateSet(naive=1.0, vh=None, ss=None, sh=None, h=None), 5, 0),
            ReplicationRow(1, EstimateSet(naive=0.4, vh=None, ss=None, sh=None, h=None), 5, 0),
            ReplicationRow(2, EstimateSet(naive=None, vh=None, ss=None, sh=None, h=None,
                                          failures={"naive": "empty_sample"}), 5, 0),
        ]
        summary = summarize(ReplicationTable("demo", 0, rows))
        naive = summary.rows[0]
        assert naive.count_one == 1
        assert naive.count_fail == 1
        assert naive.mean == pytest.approx(0.7)

    def test_empty_column_is_nan(self):
        rows = [ReplicationRow(0, EstimateSet(naive=0.2, vh=None, ss=None, sh=None, h=None,
                                              failures={"vh": "x"}), 5, 0)]
        summary = summarize(ReplicationTable("demo", 0, rows))
        vh = summary.rows[1]
        assert vh.estimator == "vh"
        assert np.isnan(vh.variance)


class TestPairedDifferenceTest:
    def test_hand_example(self):
        base = [0.2, 0.21, 0.19, 0.2]
        diffs = [0.02, 0.0, 0.01, 0.03]
        first = single_column_table("a", [b + d for b, d in zip(base, diffs)])
        second = single_column_table("b", base)
        result = paired_difference_test(first, second, "naive", comparisons=3)
        assert result.n_pairs == 4
        assert result.mean_difference == pytest.approx(0.015)
        assert result.t_statistic == pytest.approx(2.32379000772445, abs=1e-10)
        expected_p = 2 * stats.t.sf(result.t_statistic, 3)
        assert result.p_value == pytest.approx(expected_p, abs=1e-12)
        assert result.p_adjusted == pytest.approx(3 * expected_p, abs=1e-12)
        assert not result.degenerate

    def test_identical_columns(self):
        result = paired_difference_test(
            single_column_table("a", [0.2, 0.3]),
            single_column_table("b", [0.2, 0.3]),
            "naive",
        )
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert not result.degenerate

    def test_exact_constant_shift_degenerate(self):
        # Differences are exactly representable, so the sample deviation
        # is exactly zero and the statistic degenerates.
        result = paired_difference_test(
            single_column_table("a", [0.375, 0.5]),
            single_column_table("b", [0.25, 0.375]),
            "naive",
        )
        assert np.isinf(result.t_statistic)
        assert result.p_value == 0.0
        assert result.degenerate

    def test_adjustment_caps_at_one(self):
        result = paired_difference_test(
            single_column_table("a", [0.21, 0.2, 0.22, 0.19]),
            single_column_table("b", [0.2, 0.21, 0.21, 0.2]),
            "naive",
            comparisons=50,
        )
        assert result.p_adjusted <= 1.0

    def test_missing_value_drops_pair(self):
        first = single_column_table("a", [0.22, 0.2, 0.21, 0.23])
        rows = [
            ReplicationRow(i, EstimateSet(naive=(None if i == 1 else 0.2),
                                          vh=None, ss=None, sh=None, h=None), 10, 0)
            for i in range(4)
        ]
        second = ReplicationTable("b", 0, rows)
        assert paired_difference_test(first, second, "naive").n_pairs == 3

    def test_bad_arguments_rejected(self):
        table = single_column_table("a", [0.2, 0.3])
        with pytest.raises(ConfigError, match="unknown estimator 'rds2'"):
            paired_difference_test(table, table, "rds2")
        with pytest.raises(ConfigError, match="comparisons must be >= 1, got 0"):
            paired_difference_test(table, table, "naive", comparisons=0)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(EstimationError):
            paired_difference_test(
                single_column_table("a", [0.2]),
                single_column_table("b", [0.3]),
                "naive",
            )


class TestCsvExport:
    @pytest.fixture
    def demo_table(self):
        rows = [
            ReplicationRow(0, EstimateSet(
                naive=0.5, vh=0.625, ss=0.569461878513344, sh=5 / 7, h=33 / 47),
                200, 0),
            ReplicationRow(1, EstimateSet(
                naive=0.55, vh=None, ss=0.5, sh=1.0, h=1.0,
                sh_equal_one=True, h_equal_one=True,
                failures={"vh": "zero_degree"}), 180, 2),
        ]
        return ReplicationTable("demo", 7, rows)

    def test_replication_golden_bytes(self, tmp_path, demo_table):
        path = tmp_path / "rep.csv"
        export_csv(demo_table, path)
        assert path.read_text() == (
            "condition_label,replication,naive,vh,ss,sh,h,"
            "sh_flag_one,h_flag_one,failure_code,realized_n,reseeds\n"
            "demo,0,0.5,0.625,0.5694618785,0.7142857143,0.7021276596,0,0,,200,0\n"
            "demo,1,0.55,NA,0.5,1,1,1,1,zero_degree,180,2\n"
        )

    def test_summary_golden_bytes(self, tmp_path, demo_table):
        path = tmp_path / "sum.csv"
        export_csv(summarize(demo_table), path)
        assert path.read_text() == (
            "condition_label,estimator,mean,variance,count_one,count_fail,n_reps\n"
            "demo,naive,0.525,0.00125,0,0,2\n"
            "demo,vh,0.625,NA,0,1,2\n"
            "demo,ss,0.5347309393,0.002412476283,0,0,2\n"
            "demo,sh,0.8571428571,0.04081632653,1,0,2\n"
            "demo,h,0.8510638298,0.0443639656,1,0,2\n"
        )

    def test_row_order_normalized(self, tmp_path, demo_table):
        shuffled = ReplicationTable("demo", 7, list(reversed(demo_table.rows)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(demo_table, a)
        export_csv(shuffled, b)
        assert a.read_bytes() == b.read_bytes()

    @given(table=replication_tables)
    def test_load_is_inverse_of_export(self, tmp_path_factory, table):
        folder = tmp_path_factory.mktemp("csv")
        export_csv(table, folder / "a.csv")
        export_csv(load_replication_csv(folder / "a.csv"), folder / "b.csv")
        assert (folder / "a.csv").read_bytes() == (folder / "b.csv").read_bytes()

    def test_unknown_object_rejected(self, tmp_path):
        for table in ({"not": "a table"}, object()):
            with pytest.raises(ConfigError, match="cannot export"):
                export_csv(table, tmp_path / "x.csv")
            assert not (tmp_path / "x.csv").exists()

    def test_export_memory_does_not_grow_with_rows(self, tmp_path):
        # Lines are written as they are formatted: what is left is the
        # sorted list of row references, about 160 KB for 20,000 rows.
        real = run_condition(dataclasses.replace(SMALL, replications=3)).rows
        rows = [dataclasses.replace(real[i % 3], replication=i) for i in range(20_000)]
        table = ReplicationTable("big", 0, rows[::-1])
        tracemalloc.start()
        try:
            export_csv(table, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        lines = (tmp_path / "big.csv").read_text().splitlines()
        assert len(lines) == 20_001 and lines[-1].startswith("big,19999,")


class TestPopulationIdentity:
    def test_response_scaled_composition_recovers_share(self):
        # If each group's respondent count is its size times its response
        # rate, rescaling by the response rates recovers the infected
        # share exactly. Checked over random populations.
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_inf = int(rng.integers(1, 500))
            n_uninf = int(rng.integers(1, 500))
            resp_inf = int(rng.integers(1, n_inf + 1))
            resp_uninf = int(rng.integers(1, n_uninf + 1))
            rate_inf = resp_inf / n_inf
            rate_uninf = resp_uninf / n_uninf
            recovered = resp_inf / (resp_inf + resp_uninf * rate_inf / rate_uninf)
            truth = n_inf / (n_inf + n_uninf)
            assert recovered == pytest.approx(truth, abs=1e-12)
