"""Tests for the command line interface and YAML configuration."""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdslab
from rdslab import (
    Condition,
    ConfigError,
    NetworkSpec,
    SamplingConfig,
    SeedRule,
    export_csv,
    generate_network,
    load_network,
    load_replication_csv,
    load_sample,
    run_condition,
    run_rds,
    save_network,
    save_sample,
)
from rdslab.cli import RunConfig, dispatch, parse_config, read_config
from rdslab.harness import REPLICATION_COLUMNS

BASE_YAML = """\
label: demo
network:
  n_nodes: 300
  n_infected: 60
sampling:
  n_seeds: 4
  target_n: 50
estimation:
  population_size: 300
experiment:
  replications: 3
  base_seed: 9
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(BASE_YAML)
    return str(path)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config(None)
        assert cfg.label == "experiment"
        assert cfg.network == NetworkSpec()
        assert cfg.sampling == SamplingConfig()
        assert cfg.population_size is None
        assert cfg.mean_cell_size == 12
        assert cfg.replications == 300
        assert cfg.base_seed == 0

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^```yaml\n(.*?)^```$", readme, re.M | re.S).group(1)
        (tmp_path / "readme.yaml").write_text(block)
        assert read_config(str(tmp_path / "readme.yaml")) == RunConfig()

    def test_full_document(self):
        cfg = parse_config({
            "label": "skewed",
            "network": {
                "n_nodes": 500,
                "n_infected": 100,
                "mean_degree": 6.5,
                "homophily_ratio": 4.0,
                "differential_activity": 1.8,
            },
            "sampling": {
                "n_seeds": 8,
                "seed_rule": {"variant": "uniform_lowest_k", "k": 20},
                "coupons_per_respondent": 3,
                "target_n": 120,
                "behavior": {
                    "infected_candidate_weight": 2.0,
                    "pass_prob_uninfected": 0.6,
                    "pass_prob_infected": 0.9,
                    "similar_degree_width": 10,
                },
                "reseed_on_die_out": False,
            },
            "estimation": {
                "population_size": 500,
                "mean_cell_size": 10,
                "ss": {"mc_replications": 500, "method": "monte_carlo"},
            },
            "experiment": {"replications": 25, "base_seed": 77},
        })
        assert cfg.label == "skewed"
        assert cfg.network.differential_activity == 1.8
        assert cfg.sampling.seed_rule == SeedRule.uniform_lowest(20)
        assert cfg.sampling.behavior.infected_candidate_weight == 2.0
        assert not cfg.sampling.reseed_on_die_out
        assert cfg.population_size == 500
        assert cfg.mean_cell_size == 10
        assert cfg.ss_options.method == "monte_carlo"
        assert cfg.replications == 25
        assert cfg.base_seed == 77

    @pytest.mark.parametrize(
        "document,needle",
        [
            ({"network": {"n_nodez": 5}}, "network.n_nodez"),
            ({"sampling": {"behavior": {"charm": 1}}}, "sampling.behavior.charm"),
            ({"estimation": {"ss": {"bogus": 1}}}, "estimation.ss.bogus"),
            ({"experiment": {"reps": 5}}, "experiment.reps"),
            ({"stray": 1}, "stray"),
            # SS loops stop at one constant cap; no key sets it.
            ({"estimation": {"ss": {"max_iterations": 50}}}, "estimation.ss.max_iterations"),
        ],
    )
    def test_unknown_keys_named(self, document, needle):
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_config(document)

    @pytest.mark.parametrize(
        "document,needle",
        [
            ({"sampling": {"reseed_on_die_out": "false"}}, "sampling.reseed_on_die_out"),
            ({"sampling": {"reseed_on_die_out": 0}}, "sampling.reseed_on_die_out"),
            ({"network": {"n_nodes": 1000.9}}, "network.n_nodes"),
            ({"network": {"n_nodes": "abc"}}, "network.n_nodes"),
            ({"network": {"rng_seed": True}}, "network.rng_seed"),
            ({"network": {"mean_degree": "high"}}, "network.mean_degree"),
            ({"sampling": {"behavior": {"pass_degree_ramp": [1, "x"]}}},
             "sampling.behavior.pass_degree_ramp"),
            ({"estimation": {"ss": {"mc_replications": 2.5}}}, "estimation.ss.mc_replications"),
            ({"estimation": {"population_size": [1000]}}, "estimation.population_size"),
            ({"experiment": {"replications": "many"}}, "experiment.replications"),
            ({"label": None}, "label"),
            ({"label": 2024}, "label"),
            ({"sampling": {"behavior": {"own_group_weight_infected": None}}},
             "sampling.behavior.own_group_weight_infected"),
            ({"sampling": {"behavior": {"pass_degree_ramp": None}}},
             "sampling.behavior.pass_degree_ramp"),
            ({"estimation": {"ss": {"method": 3}}}, "estimation.ss.method"),
        ],
    )
    def test_bad_scalars_named(self, document, needle):
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_config(document)

    def test_exact_scalars_accepted(self):
        cfg = parse_config({
            # YAML 1.1 reads an exponent without a dot as text
            "network": {"n_nodes": 1000.0, "mean_degree": 7, "homophily_ratio": "4e0"},
            "sampling": {
                "seed_rule": {"k": None},
                "behavior": {"similar_degree_width": None, "candidate_degree_ramp": None},
            },
            "estimation": {"population_size": None},
        })
        assert cfg.network.n_nodes == 1000
        assert isinstance(cfg.network.n_nodes, int)
        assert cfg.network.mean_degree == 7.0
        assert cfg.network.homophily_ratio == 4.0
        assert cfg.sampling == SamplingConfig()
        assert cfg.population_size is None

    @pytest.mark.parametrize(
        "document",
        [
            {"experiment": {"replications": 0}},
            {"estimation": {"mean_cell_size": 0}},
            {"estimation": {"ss": {"method": "guess"}}},
            {"sampling": {"seed_rule": {"variant": "uniform_lowest_k"}}},
            {"network": {"n_infected": 0}},
            "not a mapping",
        ],
    )
    def test_invalid_values_rejected(self, document):
        with pytest.raises(ConfigError):
            parse_config(document)


@pytest.mark.parametrize("imports, unloaded", [
    # Only paired_difference_test needs scipy.stats, and it imports it itself.
    pytest.param("rdslab, rdslab.cli", ("scipy.stats",), id="cli"),
    # The benchmark's setup_s times a bare `import rdslab`; only the CLI reads YAML,
    # and numpy.random (10–20 ms) loads with the first generator a run makes.
    pytest.param("rdslab", ("yaml", "scipy", "numpy.random"), id="library"),
])
def test_import_leaves_scipy_stats_unloaded(imports, unloaded):
    probe = f"import sys, {imports}; print([m for m in {unloaded!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_public_surface_is_listed():
    # Every name a module lists in __all__ exists, and the package root
    # exports exactly the names its library modules list: none missing, none
    # unlisted.  The command line front end is not re-exported.
    listed = set()
    for info in pkgutil.iter_modules(rdslab.__path__):
        module = importlib.import_module(f"rdslab.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"
        if info.name != "cli":
            listed.update(module.__all__)
    assert {"RdslabError", "MAX_NODES", "run_rds", "estimate_all", "ESTIMATOR_NAMES",
            "run_condition"} <= listed
    exported = {
        name for name, value in vars(rdslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert not listed - exported, f"rdslab does not re-export {sorted(listed - exported)}"
    assert not exported - listed, f"rdslab re-exports unlisted names {sorted(exported - listed)}"


def _echoed_config(capsys) -> dict:
    """The ``effective_config`` a command printed as its first stderr line."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[0])["effective_config"]


class TestExitCodes:
    def test_pipeline_returns_zero(self, tmp_path, config_path):
        net = tmp_path / "net.txt"
        smp = tmp_path / "s.txt"
        est = tmp_path / "est.csv"
        assert dispatch(["gen", "--config", config_path, "--out", str(net)]) == 0
        assert dispatch(["sample", "--config", config_path,
                         "--network", str(net), "--out", str(smp)]) == 0
        assert dispatch(["estimate", "--config", config_path,
                         "--sample", str(smp), "--out", str(est)]) == 0
        assert est.read_text().startswith("condition_label,replication,naive")

    def test_config_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("network:\n  n_nodez: 5\n")
        assert dispatch(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    def test_missing_population_size_is_one(self, tmp_path, config_path):
        net = tmp_path / "net.txt"
        smp = tmp_path / "s.txt"
        dispatch(["gen", "--config", config_path, "--out", str(net)])
        dispatch(["sample", "--config", config_path, "--network", str(net),
                  "--out", str(smp)])
        assert dispatch(["estimate", "--sample", str(smp)]) == 1

    @pytest.mark.parametrize("pop_size", ["-5", "0", "100"])
    def test_bad_population_size_is_one_json_line(self, tmp_path, capsys, pop_size):
        # Two hundred seeds, so 100 is smaller than the sample.
        smp = tmp_path / "s.txt"
        smp.write_text("order node_id degree infected recruiter_id wave reseed\n"
                       + "".join(f"{i} {i} 1 0 -1 0 0\n" for i in range(200)))
        assert dispatch(["estimate", "--sample", str(smp), "--pop-size", pop_size]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "config"
        assert "estimation.population_size (--pop-size)" in payload["message"]

    def test_missing_input_file_is_two(self, tmp_path):
        assert dispatch(["sample", "--network", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "y.txt")]) == 2

    def test_bad_config_value_is_one_json_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("network:\n  n_nodes: abc\n")
        assert dispatch(["experiment", "--config", str(bad),
                         "--out", str(tmp_path / "x")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert "network.n_nodes" in payload["message"]

    def test_removed_ss_tolerance_is_one_json_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BASE_YAML.replace(
            "  population_size: 300\n", "  population_size: 300\n  ss: {tolerance: 1.0e-6}\n"))
        assert dispatch(["experiment", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "config"
        assert "unknown config key estimation.ss.tolerance" in payload["message"]

    def test_bad_network_token_is_one_json_line(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        net.write_text("3 1\n0\n0 x\n")
        assert dispatch(["sample", "--network", str(net),
                         "--out", str(tmp_path / "s.txt")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert f"{net}:3" in payload["message"]

    def test_oversized_network_header_is_one_json_line(self, tmp_path, capsys):
        # A 15-byte file declaring a billion nodes is refused before any
        # per-node array is allocated.
        net = tmp_path / "net.txt"
        net.write_text("1000000000 1\n0\n")
        argv = ["sample", "--network", str(net), "--out", str(tmp_path / "s.txt")]
        assert dispatch(argv) == 1  # warm up imports outside the traced call
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = dispatch(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 2**20
        err = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(err[-1])
        assert payload["error"] == "config"
        assert f"{net}:1" in payload["message"]
        assert not any("Traceback" in line for line in err)

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "a\rb", "a\nb", ""])
    def test_csv_unsafe_label_is_one_json_line(self, tmp_path, capsys, label):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"label: {json.dumps(label)}\n" + BASE_YAML.split("\n", 1)[1])
        for argv in (["experiment", "--config", str(cfg), "--out", str(tmp_path / "x")],
                     ["gen", "--config", str(cfg), "--out", str(tmp_path / "n.txt")]):
            assert dispatch(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            payload = json.loads(err[0])
            assert payload["error"] == "config"
            assert "label" in payload["message"]
        assert not (tmp_path / "x_replications.csv").exists()
        with pytest.raises(ConfigError, match="label"):
            Condition(label=label)

    @pytest.mark.parametrize("command,yaml_line,flags,named", [
        ("gen", "", ["--seed", "-1"], "rng_seed"),
        ("sample", "", ["--seed", "-1"], "rng_seed"),
        ("experiment", "", ["--seed", "-1"], "base_seed"),
        ("gen", "network: {rng_seed: -3}", [], "network: rng_seed"),
        ("sample", "sampling: {n_seeds: 4, target_n: 50, rng_seed: -3}", [],
         "sampling: rng_seed"),
        ("experiment", "estimation: {ss: {rng_seed: -3}}", [], "estimation.ss: rng_seed"),
        ("experiment", "experiment: {base_seed: -3}", [], "base_seed"),
    ], ids=["gen-flag", "sample-flag", "experiment-flag", "network-yaml", "sampling-yaml",
            "ss-yaml", "experiment-yaml"])
    def test_negative_seed_is_one_config_error(
        self, tmp_path, capsys, command, yaml_line, flags, named
    ):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{yaml_line}\n")
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--out", str(out)],
            "sample": ["sample", "--network", str(tmp_path / "net.txt"), "--out", str(out)],
            "experiment": ["experiment", "--out", str(out)],
        }[command]
        assert dispatch(argv + ["--config", str(cfg)] + flags) == 1
        err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
        errors = [payload for payload in err if "error" in payload]
        assert len(errors) == 1 and errors[0]["error"] == "config"
        assert named in errors[0]["message"] and ">= 0" in errors[0]["message"]
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("field,value", [
        ("own_group_weight_uninfected", ".inf"),
        ("own_group_weight_infected", ".inf"),
        ("infected_candidate_weight", ".inf"),
        ("infected_candidate_weight", ".nan"),
        ("candidate_degree_ramp", "[.nan, 1.0]"),
        ("candidate_degree_ramp", "[1.0, .inf]"),
    ])
    def test_non_finite_weight_is_one_json_line(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BASE_YAML.replace(
            "  target_n: 50\n", f"  target_n: 50\n  behavior:\n    {field}: {value}\n"))
        assert dispatch(["experiment", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "config"
        assert field in payload["message"] and "finite" in payload["message"]

    def test_infinite_degree_width_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BASE_YAML.replace(
            "  target_n: 50\n", "  target_n: 50\n  behavior:\n    similar_degree_width: .inf\n"))
        assert read_config(str(cfg)).sampling.behavior.similar_degree_width == float("inf")

    @pytest.mark.parametrize(
        "rows,lineno", [
            ("0 5 x 1 -1 0 0\n", 2),
            ("0 5 3 1 -1 0 0\n# exhausted yes\n", 3),
            ("0 5 3 1 -1 0 0\n1 99999999999999999999 3 1 5 1 0\n", 3),  # past 64 bits
            ("0 -5 -3 1 -1 0 0\n", 2),
            ("0 5 3 1 -1 0 0\n1 6 2 0 -1 0 0\n2 7 2 1 6 -4 0\n", 4),
        ]
    )
    def test_bad_sample_token_is_one_json_line(self, tmp_path, capsys, rows, lineno):
        smp = tmp_path / "s.txt"
        smp.write_text("order node_id degree infected recruiter_id wave reseed\n" + rows)
        assert dispatch(["estimate", "--sample", str(smp), "--pop-size", "100"]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert f"{smp}:{lineno}" in payload["message"]

    @pytest.mark.parametrize(
        "rows,lineno", [
            ("0 5 3 1 -1 0 0\n1 6 2 0 7 1 0\n", 3),  # recruiter 7 is nowhere
            ("0 5 3 1 6 1 0\n1 6 2 0 -1 0 0\n", 2),  # recruiter 6 comes later
            ("0 5 3 1 -1 0 0\n1 6 2 0 5 1 0\n2 5 3 1 -1 0 0\n", 4),  # 5 is named, then repeated
        ]
    )
    def test_unresolved_recruiter_is_one_json_line(self, tmp_path, capsys, rows, lineno):
        # Refused while loading, before the effective config is echoed.
        smp = tmp_path / "s.txt"
        smp.write_text("order node_id degree infected recruiter_id wave reseed\n" + rows)
        assert dispatch(["estimate", "--sample", str(smp), "--pop-size", "100"]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "config"
        assert payload["message"].startswith(f"{smp}:{lineno}: ")

    @pytest.mark.parametrize(
        "text,needle",
        [
            (b"sampling:\n  behavior:\n    pass_degree_ramp: [1.0]\n",
             "sampling.behavior.pass_degree_ramp must be a 2-element list"),
            (b"mean_cell_size: 5\n", "unknown config key mean_cell_size"),
            (b"network: [1, 2\n", "not valid YAML"),
            (b"label: caf\xe9\n", "not UTF-8 text (byte 10)"),
            (b"network:\n  n_nodes: 300\n  n_nodes: 50\n  n_infected: 20\n",
             "repeated config key 'n_nodes' on line 3"),
            (b"network:\n  n_nodes: 300\n  n_infected: 20\nnetwork:\n  n_infected: 10\n",
             "repeated config key 'network' on line 4"),
        ],
    )
    def test_unreadable_config_is_one_json_line(self, tmp_path, capsys, text, needle):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(text)
        assert dispatch(["gen", "--config", str(cfg), "--out", str(tmp_path / "n.txt")]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "config"
        assert needle in payload["message"]

    def test_bad_flags_are_one(self, tmp_path):
        assert dispatch(["gen"]) == 1
        assert dispatch(["frobnicate"]) == 1

    def test_error_reported_as_json_line(self, tmp_path, capsys):
        dispatch(["sample", "--network", str(tmp_path / "nope.txt"),
                  "--out", str(tmp_path / "y.txt")])
        err_lines = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(err_lines[-1])
        assert payload["error"]
        assert "message" in payload

    def test_effective_config_echoed(self, tmp_path, config_path, capsys):
        dispatch(["gen", "--config", config_path, "--out", str(tmp_path / "n.txt")])
        err_lines = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(err_lines[0])
        assert payload["effective_config"]["label"] == "demo"
        assert payload["effective_config"]["network"]["n_nodes"] == 300

    def test_experiment_echoes_reps_flag(self, tmp_path, config_path, capsys):
        # The YAML asks for 3 replications at base seed 9; the flags win.
        assert dispatch(["experiment", "--config", config_path, "--out", str(tmp_path / "e"),
                         "--reps", "1", "--seed", "4"]) == 0
        echoed = _echoed_config(capsys)
        assert (echoed["replications"], echoed["base_seed"]) == (1, 4)
        assert len((tmp_path / "e_replications.csv").read_text().splitlines()) == 2

    def test_flags_of_each_command_echoed(self, tmp_path, config_path, capsys):
        net, smp = str(tmp_path / "net.txt"), str(tmp_path / "s.txt")
        assert dispatch(["gen", "--config", config_path, "--out", net, "--seed", "5"]) == 0
        assert _echoed_config(capsys)["network"]["rng_seed"] == 5
        assert dispatch(["sample", "--config", config_path, "--network", net, "--out", smp,
                         "--seed", "6"]) == 0
        assert _echoed_config(capsys)["sampling"]["rng_seed"] == 6
        assert dispatch(["estimate", "--config", config_path, "--sample", smp, "--seed", "7",
                         "--pop-size", "400", "--mean-cell-size", "3"]) == 0
        echoed = _echoed_config(capsys)
        assert echoed["ss_options"]["rng_seed"] == 7
        assert (echoed["population_size"], echoed["mean_cell_size"]) == (400, 3)


class TestGen:
    def test_seed_flag_overrides_config(self, tmp_path, config_path):
        out = tmp_path / "net.txt"
        dispatch(["gen", "--config", config_path, "--out", str(out), "--seed", "5"])
        expected = generate_network(
            NetworkSpec(n_nodes=300, n_infected=60, rng_seed=5)
        )
        assert load_network(out) == expected

    def test_deterministic_output(self, tmp_path, config_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        dispatch(["gen", "--config", config_path, "--out", str(a), "--seed", "3"])
        dispatch(["gen", "--config", config_path, "--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestPipelineEquivalence:
    def test_file_pipeline_matches_in_process_replication(self, tmp_path, config_path):
        # Driving the three file-based commands with the seeds that the
        # experiment runner would derive for replication zero must land on
        # the same CSV row as the in-process run.
        from rdslab.harness import derive_rep_seeds

        condition = Condition(
            label="demo",
            network=NetworkSpec(n_nodes=300, n_infected=60),
            sampling=SamplingConfig(n_seeds=4, target_n=50),
            replications=3,
            base_seed=9,
        )
        table = run_condition(condition)
        expected = tmp_path / "expected.csv"
        export_csv(table, expected)
        first_row = expected.read_text().splitlines()[1]

        net_seed, sample_seed, ss_seed = derive_rep_seeds(9, 0)
        net = tmp_path / "net.txt"
        smp = tmp_path / "s.txt"
        est = tmp_path / "est.csv"
        assert dispatch(["gen", "--config", config_path, "--out", str(net),
                         "--seed", str(net_seed)]) == 0
        assert dispatch(["sample", "--config", config_path, "--network", str(net),
                         "--out", str(smp), "--seed", str(sample_seed)]) == 0
        assert dispatch(["estimate", "--config", config_path, "--sample", str(smp),
                         "--out", str(est), "--seed", str(ss_seed)]) == 0
        assert est.read_text().splitlines()[1] == first_row


class TestExperiment:
    def test_writes_both_tables_deterministically(self, tmp_path, config_path):
        one, two = tmp_path / "one", tmp_path / "two"
        assert dispatch(["experiment", "--config", config_path, "--out", str(one)]) == 0
        assert dispatch(["experiment", "--config", config_path, "--out", str(two)]) == 0
        rep_one = (str(one) + "_replications.csv")
        rep_two = (str(two) + "_replications.csv")
        sum_one = (str(one) + "_summary.csv")
        sum_two = (str(two) + "_summary.csv")
        assert open(rep_one, "rb").read() == open(rep_two, "rb").read()
        assert open(sum_one, "rb").read() == open(sum_two, "rb").read()
        assert len(open(rep_one).read().splitlines()) == 4  # header + 3 reps

    @pytest.mark.parametrize("value", [299, 1000])
    def test_population_size_other_than_n_nodes_is_one_json_line(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BASE_YAML.replace("population_size: 300", f"population_size: {value}"))
        assert dispatch(["experiment", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "config"
        assert "estimation.population_size" in payload["message"]
        assert not (tmp_path / "x_replications.csv").exists()

    def test_population_size_null_or_n_nodes_gives_same_bytes(self, tmp_path, config_path):
        null_cfg = tmp_path / "null.yaml"
        null_cfg.write_text(BASE_YAML.replace("population_size: 300", "population_size: null"))
        outputs = []
        for name, cfg in (("equal", config_path), ("null", str(null_cfg))):
            assert dispatch(["experiment", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append([(tmp_path / f"{name}_{kind}.csv").read_bytes()
                            for kind in ("replications", "summary")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("section,key", [
        ("network", "network.rng_seed"),
        ("sampling", "sampling.rng_seed"),
        ("estimation", "estimation.ss.rng_seed"),
    ])
    def test_fixed_rng_seed_is_one_json_line(self, tmp_path, capsys, section, key):
        # Every replication derives its own seeds, so a fixed one would be ignored.
        line = "  ss: {rng_seed: 5}\n" if section == "estimation" else "  rng_seed: 5\n"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(BASE_YAML.replace(f"{section}:\n", f"{section}:\n{line}"))
        assert dispatch(["experiment", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "config"
        assert key in payload["message"]
        assert not (tmp_path / "x_replications.csv").exists()

    def test_zero_rng_seeds_give_same_bytes_as_absent(self, tmp_path, config_path):
        zeros_cfg = tmp_path / "zeros.yaml"
        zeros_cfg.write_text(BASE_YAML.replace("network:\n", "network:\n  rng_seed: 0\n")
                             .replace("sampling:\n", "sampling:\n  rng_seed: 0\n")
                             .replace("estimation:\n", "estimation:\n  ss: {rng_seed: 0}\n"))
        assert read_config(str(zeros_cfg)) == read_config(config_path)
        outputs = []
        for name, cfg in (("absent", config_path), ("zeros", str(zeros_cfg))):
            assert dispatch(["experiment", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append([(tmp_path / f"{name}_{kind}.csv").read_bytes()
                            for kind in ("replications", "summary")])
        assert outputs[0] == outputs[1]

    def test_reps_flag_overrides(self, tmp_path, config_path):
        out = tmp_path / "exp"
        dispatch(["experiment", "--config", config_path, "--out", str(out),
                  "--reps", "2"])
        lines = (tmp_path / "exp_replications.csv").read_text().splitlines()
        assert len(lines) == 3


class TestSummarize:
    def test_roundtrip_close_to_direct_summary(self, tmp_path, config_path):
        out = tmp_path / "exp"
        dispatch(["experiment", "--config", config_path, "--out", str(out)])
        resum = tmp_path / "resum.csv"
        assert dispatch(["summarize", str(tmp_path / "exp_replications.csv"),
                         "--out", str(resum)]) == 0
        direct = (tmp_path / "exp_summary.csv").read_text().splitlines()
        recomputed = resum.read_text().splitlines()
        assert direct[0] == recomputed[0]
        for line_a, line_b in zip(direct[1:], recomputed[1:]):
            cells_a, cells_b = line_a.split(","), line_b.split(",")
            assert cells_a[:2] == cells_b[:2]
            # means and variances recomputed from rounded values may differ
            # in the last digit only
            for x, y in zip(cells_a[2:4], cells_b[2:4]):
                assert float(x) == pytest.approx(float(y), abs=1e-8)
            assert cells_a[4:] == cells_b[4:]

    def test_rejects_mixed_labels(self, tmp_path):
        path = tmp_path / "mixed.csv"
        header = ("condition_label,replication,naive,vh,ss,sh,h,"
                  "sh_flag_one,h_flag_one,failure_code,realized_n,reseeds")
        path.write_text(header + "\n"
                        "a,0,0.5,0.5,0.5,0.5,0.5,0,0,,10,0\n"
                        "b,1,0.5,0.5,0.5,0.5,0.5,0,0,,10,0\n")
        assert dispatch(["summarize", str(path), "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize(
        "row",
        [
            "a,0,abc,0.5,0.5,0.5,0.5,0,0,,10,0",
            "a,0,0.5,0.5,0.5,0.5,0.5,0,0,,ten,0",
            "a,0,0.5,0.5,0.5,0.5,0.5,yes,0,,10,0",
            "a,0,0.5,0.5,0.5,0.5,0.5,0,0,,10",
            "a,0,nan,0.5,0.5,0.5,0.5,0,0,,10,0",
            "a,0,0.5,inf,0.5,0.5,0.5,0,0,,10,0",
            "a,0,0.5,0.5,0.5,0.5,-inf,0,0,,10,0",
            "a,0,0.5,0.5,0.5,0.5,0.5,0,0,,1e309,0",
            "a,-3,0.3,0.5,0.5,0.5,0.5,0,0,,200,0",
            "a,0,0.3,0.5,0.5,0.5,0.5,0,0,,-200,0",
            "a,0,0.3,0.5,0.5,0.5,0.5,0,0,,200,-1",
            "a,0,0.5,0.5,0.5,0.5,0.5,0,0,foo,10,0",  # a code but no NA
            "a,0,NA,0.5,0.5,0.5,0.5,0,0,,10,0",  # an NA but no code
            "a,0,0.5,0.5,0.5,0.3,0.5,1,0,,10,0",  # sh_flag_one on 0.3
            "a,0,0.5,0.5,0.5,0.5,NA,0,1,empty_group,10,0",  # h_flag_one on NA
        ],
    )
    def test_bad_cell_names_the_line(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(REPLICATION_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2")):
            load_replication_csv(path)
        assert dispatch(["summarize", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert f"{path}:2" in payload["message"]

    def test_repeated_replication_index_rejected(self, tmp_path, capsys):
        # Counted twice, the repeat would enter every mean and n_reps.
        path = tmp_path / "twice.csv"
        rows = ["a,0,0.1,0.5,0.5,0.5,0.5,0,0,,200,1", "a,0,0.3,0.5,0.5,0.5,0.5,0,0,,200,1",
                "a,1,0.2,0.5,0.5,0.5,0.5,0,0,,200,1"]
        path.write_text(",".join(REPLICATION_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: replication 0 repeats "
                                                        "the index of line 2")):
            load_replication_csv(path)
        assert dispatch(["summarize", str(path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert f"{path}:3" in json.loads(line)["message"]

    def test_header_only_table_is_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(REPLICATION_COLUMNS) + "\n")
        assert dispatch(["summarize", str(path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "config", "message": f"{path}: table has no rows"}

    def test_prints_summary_when_no_out(self, tmp_path, config_path, capsys):
        dispatch(["experiment", "--config", config_path, "--out", str(tmp_path / "exp")])
        table, written = str(tmp_path / "exp_replications.csv"), tmp_path / "resum.csv"
        assert dispatch(["summarize", table, "--out", str(written)]) == 0
        capsys.readouterr()
        assert dispatch(["summarize", table]) == 0
        assert capsys.readouterr().out == written.read_text()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("alpha,beta\n1,2\n")
        assert dispatch(["summarize", str(path), "--out", str(tmp_path / "o.csv")]) == 1


class TestEstimateStdout:
    def test_prints_table_when_no_out(self, tmp_path, config_path, capsys):
        net = tmp_path / "net.txt"
        smp = tmp_path / "s.txt"
        dispatch(["gen", "--config", config_path, "--out", str(net)])
        dispatch(["sample", "--config", config_path, "--network", str(net),
                  "--out", str(smp)])
        capsys.readouterr()
        assert dispatch(["estimate", "--config", config_path,
                         "--sample", str(smp)]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0].startswith("condition_label,replication,naive")
        assert len(out_lines) == 2

    def test_header_only_sample_fails_as_empty(self, tmp_path, capsys):
        smp = tmp_path / "s.txt"
        smp.write_text("order node_id degree infected recruiter_id wave reseed\n")
        assert dispatch(["estimate", "--sample", str(smp), "--pop-size", "100"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["failure_code"] == "empty_sample"


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file of each input kind, with its loader."""
    folder = tmp_path_factory.mktemp("valid")
    net = generate_network(NetworkSpec(n_nodes=40, n_infected=8, mean_degree=3, rng_seed=2))
    save_network(net, folder / "net.txt")
    save_sample(run_rds(net, SamplingConfig(n_seeds=2, target_n=8, rng_seed=2)),
                folder / "sample.txt")
    condition = Condition(
        label="m",
        network=NetworkSpec(n_nodes=60, n_infected=12),
        sampling=SamplingConfig(n_seeds=2, target_n=12),
        replications=2,
    )
    export_csv(run_condition(condition), folder / "reps.csv")
    return {
        "network": ((folder / "net.txt").read_text(), load_network),
        "sample": ((folder / "sample.txt").read_text(), load_sample),
        "replications": ((folder / "reps.csv").read_text(), load_replication_csv),
    }


@pytest.mark.parametrize("kind", ["network", "sample", "replications"])
@given(data=st.data())
def test_mutated_file_loads_or_raises_config_error(tmp_path_factory, valid_files, kind, data):
    text, loader = valid_files[kind]
    tokens = list(re.finditer(r"[^\s,]+", text))
    token = tokens[data.draw(st.integers(0, len(tokens) - 1))]
    # Short replacements keep a mutated node count small enough to allocate.
    replacement = data.draw(st.text(max_size=4))
    path = tmp_path_factory.mktemp("mutated") / "file.txt"
    path.write_text(text[: token.start()] + replacement + text[token.end():], encoding="utf-8")
    try:
        loader(path)
    except ConfigError:
        pass
