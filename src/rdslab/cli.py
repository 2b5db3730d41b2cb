"""Config-driven command line front end.

Subcommands: ``gen`` (write a network file), ``sample`` (run one referral
sample over a network file), ``estimate`` (all five estimates for a sample
file), ``experiment`` (replicated experiment, two CSVs), ``summarize``
(summary CSV from a replication CSV).

Configuration is a YAML document; every key is optional and unknown keys are
rejected.  Exit codes: 0 success, 1 configuration error, 2 runtime error;
failures print a single JSON line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .errors import ConfigError, EstimationError, RdslabError, SamplingError
from .estimators import ESTIMATOR_NAMES, EstimateSet, SsOptions
from .harness import (
    Condition,
    REPLICATION_COLUMNS,
    ReplicationRow,
    ReplicationTable,
    export_csv,
    run_condition,
    summarize,
)
from .netgen import NetworkSpec, generate_network, load_network, save_network
from .sampler import BehaviorConfig, SamplingConfig, SeedRule, load_sample, run_rds, save_sample

__all__ = ["RunConfig", "parse_config", "read_config", "dispatch", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Fully defaulted view of a configuration document."""

    label: str = "experiment"
    network: NetworkSpec = field(default_factory=NetworkSpec)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    population_size: Optional[int] = None
    mean_cell_size: int = 12
    ss_options: SsOptions = field(default_factory=SsOptions)
    replications: int = 300
    base_seed: int = 0


def _check_keys(data: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}{key}")


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {path} must be a mapping")
    return value


def _as_int(value, path: str) -> int:
    """Integer field; rejects booleans, fractional numbers and other text."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{path} must be an integer, got {value!r}")


def _as_float(value, path: str) -> float:
    """Real field; YAML reads exponents without a dot (``1e-6``) as text."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{path} must be a number, got {value!r}")


def _as_bool(value, path: str) -> bool:
    """Boolean field; only YAML true/false, never a string such as "false"."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{path} must be true or false, got {value!r}")


def _pair(value, path: str) -> Optional[tuple[float, float]]:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a two-element list")
    return (_as_float(value[0], f"{path}[0]"), _as_float(value[1], f"{path}[1]"))


def _seed_rule(data, path: str) -> SeedRule:
    data = _require_mapping(data, path)
    _check_keys(data, ("variant", "k"), path + ".")
    kwargs = {}
    if "variant" in data:
        kwargs["variant"] = str(data["variant"])
    if "k" in data and data["k"] is not None:
        kwargs["k"] = _as_int(data["k"], path + ".k")
    return SeedRule(**kwargs)


def _behavior(data, path: str) -> BehaviorConfig:
    data = _require_mapping(data, path)
    scalar_fields = (
        "own_group_weight_uninfected",
        "own_group_weight_infected",
        "infected_candidate_weight",
        "similar_degree_width",
        "pass_prob_uninfected",
        "pass_prob_infected",
        "response_prob_uninfected",
        "response_prob_infected",
    )
    pair_fields = ("candidate_degree_ramp", "pass_degree_ramp", "response_degree_ramp")
    _check_keys(data, scalar_fields + pair_fields, path + ".")
    kwargs = {}
    for name in scalar_fields:
        if name in data and data[name] is not None:
            kwargs[name] = _as_float(data[name], f"{path}.{name}")
    for name in pair_fields:
        if name in data:
            pair = _pair(data[name], f"{path}.{name}")
            if pair is not None:
                kwargs[name] = pair
    return BehaviorConfig(**kwargs)


def _network(data, path: str) -> NetworkSpec:
    data = _require_mapping(data, path)
    fields = (
        "n_nodes",
        "n_infected",
        "mean_degree",
        "homophily_ratio",
        "differential_activity",
        "rng_seed",
    )
    _check_keys(data, fields, path + ".")
    kwargs = {}
    for name in ("n_nodes", "n_infected", "rng_seed"):
        if name in data:
            kwargs[name] = _as_int(data[name], f"{path}.{name}")
    for name in ("mean_degree", "homophily_ratio", "differential_activity"):
        if name in data:
            kwargs[name] = _as_float(data[name], f"{path}.{name}")
    return NetworkSpec(**kwargs)


def _sampling(data, path: str) -> SamplingConfig:
    data = _require_mapping(data, path)
    fields = (
        "n_seeds",
        "seed_rule",
        "coupons_per_respondent",
        "target_n",
        "behavior",
        "reseed_on_die_out",
        "rng_seed",
    )
    _check_keys(data, fields, path + ".")
    kwargs = {}
    for name in ("n_seeds", "coupons_per_respondent", "target_n", "rng_seed"):
        if name in data:
            kwargs[name] = _as_int(data[name], f"{path}.{name}")
    if "reseed_on_die_out" in data:
        kwargs["reseed_on_die_out"] = _as_bool(
            data["reseed_on_die_out"], path + ".reseed_on_die_out"
        )
    if "seed_rule" in data:
        kwargs["seed_rule"] = _seed_rule(data["seed_rule"], path + ".seed_rule")
    if "behavior" in data:
        kwargs["behavior"] = _behavior(data["behavior"], path + ".behavior")
    return SamplingConfig(**kwargs)


def _ss_options(data, path: str) -> SsOptions:
    data = _require_mapping(data, path)
    fields = ("tolerance", "max_iterations", "mc_replications", "rng_seed", "method")
    _check_keys(data, fields, path + ".")
    kwargs = {}
    if "tolerance" in data:
        kwargs["tolerance"] = _as_float(data["tolerance"], path + ".tolerance")
    for name in ("max_iterations", "mc_replications", "rng_seed"):
        if name in data:
            kwargs[name] = _as_int(data[name], f"{path}.{name}")
    if "method" in data:
        kwargs["method"] = str(data["method"])
    return SsOptions(**kwargs)


def parse_config(document: Optional[dict]) -> RunConfig:
    """Validate a configuration mapping and fill every default."""
    data = _require_mapping(document, "<root>")
    _check_keys(data, ("label", "network", "sampling", "estimation", "experiment"), "")
    kwargs: dict = {}
    if "label" in data:
        kwargs["label"] = str(data["label"])
    if "network" in data:
        kwargs["network"] = _network(data["network"], "network")
    if "sampling" in data:
        kwargs["sampling"] = _sampling(data["sampling"], "sampling")
    est = _require_mapping(data.get("estimation"), "estimation")
    _check_keys(est, ("population_size", "mean_cell_size", "ss"), "estimation.")
    if est.get("population_size") is not None:
        kwargs["population_size"] = _as_int(
            est["population_size"], "estimation.population_size"
        )
    if "mean_cell_size" in est:
        kwargs["mean_cell_size"] = _as_int(est["mean_cell_size"], "estimation.mean_cell_size")
        if kwargs["mean_cell_size"] < 1:
            raise ConfigError(
                f"estimation.mean_cell_size must be >= 1, got {kwargs['mean_cell_size']}"
            )
    if "ss" in est:
        kwargs["ss_options"] = _ss_options(est["ss"], "estimation.ss")
    exp = _require_mapping(data.get("experiment"), "experiment")
    _check_keys(exp, ("replications", "base_seed"), "experiment.")
    if "replications" in exp:
        kwargs["replications"] = _as_int(exp["replications"], "experiment.replications")
        if kwargs["replications"] < 1:
            raise ConfigError(
                f"experiment.replications must be >= 1, got {kwargs['replications']}"
            )
    if "base_seed" in exp:
        kwargs["base_seed"] = _as_int(exp["base_seed"], "experiment.base_seed")
    return RunConfig(**kwargs)


def read_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ConfigError(f"{path}: not valid YAML: {err}") from err
    return parse_config(document)


def _echo_config(config: RunConfig) -> None:
    payload = dataclasses.asdict(config)
    print(json.dumps({"effective_config": payload}, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # Route argparse's own failures through the config-error exit path.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rdslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a network file")
    gen.add_argument("--config", metavar="PATH")
    gen.add_argument("--out", metavar="PATH", required=True)
    gen.add_argument("--seed", type=int)
    gen.set_defaults(func=_cmd_gen)

    sample = sub.add_parser("sample", help="run one referral sample")
    sample.add_argument("--config", metavar="PATH")
    sample.add_argument("--network", metavar="PATH", required=True)
    sample.add_argument("--out", metavar="PATH", required=True)
    sample.add_argument("--seed", type=int)
    sample.set_defaults(func=_cmd_sample)

    estimate = sub.add_parser("estimate", help="estimate from a sample file")
    estimate.add_argument("--config", metavar="PATH")
    estimate.add_argument("--sample", metavar="PATH", required=True)
    estimate.add_argument("--out", metavar="PATH")
    estimate.add_argument("--seed", type=int)
    estimate.add_argument("--pop-size", type=int)
    estimate.add_argument("--mean-cell-size", type=int)
    estimate.set_defaults(func=_cmd_estimate)

    experiment = sub.add_parser("experiment", help="run a replicated experiment")
    experiment.add_argument("--config", metavar="PATH")
    experiment.add_argument("--out", metavar="PREFIX", required=True)
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--reps", type=int)
    experiment.set_defaults(func=_cmd_experiment)

    summ = sub.add_parser("summarize", help="summary CSV from a replication CSV")
    summ.add_argument("table", metavar="PATH")
    summ.add_argument("--out", metavar="PATH")
    summ.set_defaults(func=_cmd_summarize)
    return parser


def _cmd_gen(args) -> int:
    config = read_config(args.config)
    _echo_config(config)
    spec = config.network
    if args.seed is not None:
        spec = dataclasses.replace(spec, rng_seed=args.seed)
    net = generate_network(spec)
    save_network(net, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_sample(args) -> int:
    config = read_config(args.config)
    _echo_config(config)
    sampling = config.sampling
    if args.seed is not None:
        sampling = dataclasses.replace(sampling, rng_seed=args.seed)
    net = load_network(args.network)
    sample = run_rds(net, sampling)
    save_sample(sample, args.out)
    print(f"wrote {args.out}")
    return 0


def _estimates_as_table(config: RunConfig, sample, estimates: EstimateSet) -> ReplicationTable:
    row = ReplicationRow(
        replication=0,
        estimates=estimates,
        realized_n=sample.size,
        reseeds=sample.reseed_count,
    )
    return ReplicationTable(label=config.label, base_seed=config.base_seed, rows=[row])


def _cmd_estimate(args) -> int:
    from .estimators import estimate_all

    config = read_config(args.config)
    _echo_config(config)
    sample = load_sample(args.sample)
    population = args.pop_size if args.pop_size is not None else config.population_size
    if population is None:
        raise ConfigError(
            "population size required: pass --pop-size or set estimation.population_size"
        )
    cell = args.mean_cell_size if args.mean_cell_size is not None else config.mean_cell_size
    ss_options = config.ss_options
    if args.seed is not None:
        ss_options = dataclasses.replace(ss_options, rng_seed=args.seed)
    estimates = estimate_all(
        sample, population_size=population, mean_cell_size=cell, ss_options=ss_options
    )
    table = _estimates_as_table(config, sample, estimates)
    if args.out:
        export_csv(table, args.out)
        print(f"wrote {args.out}")
    else:
        from .harness import _replication_lines

        for line in _replication_lines(table):
            print(line)
    return 0


def _cmd_experiment(args) -> int:
    config = read_config(args.config)
    _echo_config(config)
    condition = Condition(
        label=config.label,
        network=config.network,
        sampling=config.sampling,
        mean_cell_size=config.mean_cell_size,
        ss_options=config.ss_options,
        replications=args.reps if args.reps is not None else config.replications,
        base_seed=args.seed if args.seed is not None else config.base_seed,
    )
    table = run_condition(condition)
    replications_path = f"{args.out}_replications.csv"
    summary_path = f"{args.out}_summary.csv"
    export_csv(table, replications_path)
    export_csv(summarize(table), summary_path)
    print(f"wrote {replications_path}")
    print(f"wrote {summary_path}")
    return 0


def _parse_replication_csv(path: str) -> ReplicationTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != ",".join(REPLICATION_COLUMNS):
        raise ConfigError(f"{path}: not a replication table (unexpected header)")
    label: Optional[str] = None
    base_seed = 0
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(REPLICATION_COLUMNS):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(REPLICATION_COLUMNS)} cells, got {len(cells)}"
            )
        if label is None:
            label = cells[0]
        elif cells[0] != label:
            raise ConfigError(f"{path}:{lineno}: mixed condition labels in one table")
        estimates = EstimateSet(
            sh_equal_one=cells[7] == "1",
            h_equal_one=cells[8] == "1",
        )
        for name, cell in zip(ESTIMATOR_NAMES, cells[2:7]):
            if cell == "NA":
                estimates.failures[name] = cells[9] or "recorded_failure"
            else:
                setattr(estimates, name, float(cell))
        rows.append(
            ReplicationRow(
                replication=int(cells[1]),
                estimates=estimates,
                realized_n=int(cells[10]),
                reseeds=int(cells[11]),
            )
        )
    if label is None:
        raise ConfigError(f"{path}: table has no rows")
    return ReplicationTable(label=label, base_seed=base_seed, rows=rows)


def _cmd_summarize(args) -> int:
    table = _parse_replication_csv(args.table)
    summary = summarize(table)
    if args.out:
        export_csv(summary, args.out)
        print(f"wrote {args.out}")
    else:
        from .harness import _summary_lines

        for line in _summary_lines(summary):
            print(line)
    return 0


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one CLI invocation and return its exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(json.dumps({"error": "config", "message": str(err)}), file=sys.stderr)
        return 1
    except (SamplingError, EstimationError, OSError) as err:
        print(json.dumps({"error": "runtime", "message": str(err)}), file=sys.stderr)
        return 2
    except RdslabError as err:
        print(json.dumps({"error": "runtime", "message": str(err)}), file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
