"""Config-driven command line front end.

Subcommands: ``gen`` (write a network file), ``sample`` (run one referral
sample over a network file), ``estimate`` (all five estimates for a sample
file), ``experiment`` (replicated experiment, two CSVs), ``summarize``
(summary CSV from a replication CSV).

Configuration is a YAML document; every key is optional, unknown keys are
rejected, and each value is coerced strictly to its field's declared type.
Exit codes: 0 success, 1 configuration error, 2 runtime error; failures
print a single JSON line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Optional

import yaml

from .errors import ConfigError, RdslabError
from .errors import as_bool, as_float, as_int, as_str, read_text
from .estimators import estimate_all
from .harness import (
    Condition,
    ReplicationRow,
    ReplicationTable,
    csv_lines,
    export_csv,
    load_replication_csv,
    run_condition,
    summarize,
)
from .netgen import generate_network, load_network, save_network
from .sampler import load_sample, run_rds, save_sample

__all__ = ["RunConfig", "parse_config", "read_config", "dispatch", "main"]


@dataclass(frozen=True)
class RunConfig(Condition):
    """Fully defaulted view of a configuration document.

    It is the `Condition` that ``experiment`` runs; only ``estimate`` reads
    ``population_size``.
    """

    label: str = "experiment"
    population_size: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.population_size is not None and self.population_size < 1:
            raise ConfigError(f"estimation.population_size (--pop-size) must be >= 1, "
                              f"got {self.population_size}")


# The YAML sections that hold RunConfig's flat fields: section -> {key: field}.
_FLAT_SECTIONS = {
    "estimation": {
        "population_size": "population_size",
        "mean_cell_size": "mean_cell_size",
        "ss": "ss_options",
    },
    "experiment": {"replications": "replications", "base_seed": "base_seed"},
}

_SCALARS = {int: as_int, float: as_float, bool: as_bool, str: as_str}


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {path} must be a mapping")
    return value


def _coerce(declared, value, path: str):
    """Convert one config value strictly to its declared field type.

    A null section takes all its defaults; a null scalar is accepted only
    where the field is ``Optional``.
    """
    if typing.get_origin(declared) is typing.Union:
        if value is None:
            return None
        (declared,) = [arg for arg in typing.get_args(declared) if arg is not type(None)]
    if dataclasses.is_dataclass(declared):
        data = _require_mapping(value, path)
        return _build(declared, {key: (item, f"{path}.{key}") for key, item in data.items()}, path)
    if value is None:
        raise ConfigError(f"{path} must not be null")
    if typing.get_origin(declared) is tuple:
        members = typing.get_args(declared)
        if not isinstance(value, (list, tuple)) or len(value) != len(members):
            raise ConfigError(f"{path} must be a {len(members)}-element list")
        return tuple(
            _coerce(member, item, f"{path}[{i}]")
            for i, (member, item) in enumerate(zip(members, value))
        )
    return _SCALARS[declared](value, path)


def _build(cls, entries: dict, path: str):
    """Instantiate config dataclass ``cls`` from ``{field: (value, dotted path)}``."""
    hints = typing.get_type_hints(cls)
    declared = {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for name, (value, where) in entries.items():
        if name not in declared:
            raise ConfigError(f"unknown config key {where}")
        kwargs[name] = _coerce(declared[name], value, where)
    try:
        return cls(**kwargs)
    except ConfigError as err:
        if path:
            raise ConfigError(f"{path}: {err}") from None
        raise


def parse_config(document: Optional[dict]) -> RunConfig:
    """Validate a configuration mapping and fill every default."""
    flat_fields = {name for keys in _FLAT_SECTIONS.values() for name in keys.values()}
    entries = {}
    for key, value in _require_mapping(document, "<root>").items():
        if key in _FLAT_SECTIONS:
            keys = _FLAT_SECTIONS[key]
            for inner, item in _require_mapping(value, key).items():
                if inner not in keys:
                    raise ConfigError(f"unknown config key {key}.{inner}")
                entries[keys[inner]] = (item, f"{key}.{inner}")
        elif key in flat_fields:
            raise ConfigError(f"unknown config key {key}")
        else:
            entries[key] = (value, key)
    return _build(RunConfig, entries, "")


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that rejects a key repeated within one mapping.

    ``safe_load`` keeps the last value of a repeated key and drops the rest.
    Merge keys (``<<``) are left to PyYAML, so a key given beside them still
    overrides the merged one.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if isinstance(key, Hashable):  # the base class rejects the rest
                if key in seen:
                    raise ConfigError(f"repeated config key {key!r} on line "
                                      f"{key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def read_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        document = yaml.load(read_text(path), Loader=_UniqueKeyLoader)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: not valid YAML: {err}") from err
    return parse_config(document)


def _echo_config(config: RunConfig) -> None:
    payload = dataclasses.asdict(config)
    print(json.dumps({"effective_config": payload}, sort_keys=True), file=sys.stderr)


def _with_flags(obj, **flags):
    """``obj`` with every flag that was given (not None) replacing its field."""
    return dataclasses.replace(obj, **{k: v for k, v in flags.items() if v is not None})


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
    config = _with_flags(config, network=_with_flags(config.network, rng_seed=args.seed))
    _echo_config(config)
    net = generate_network(config.network)
    save_network(net, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_sample(args) -> int:
    config = read_config(args.config)
    config = _with_flags(config, sampling=_with_flags(config.sampling, rng_seed=args.seed))
    _echo_config(config)
    net = load_network(args.network)
    sample = run_rds(net, config.sampling)
    save_sample(sample, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    config = read_config(args.config)
    config = _with_flags(
        config,
        population_size=args.pop_size,
        mean_cell_size=args.mean_cell_size,
        ss_options=_with_flags(config.ss_options, rng_seed=args.seed),
    )
    if config.population_size is None:
        raise ConfigError(
            "population size required: pass --pop-size or set estimation.population_size"
        )
    sample = load_sample(args.sample)
    if config.population_size < sample.size:
        raise ConfigError(f"estimation.population_size (--pop-size) {config.population_size} "
                          f"is smaller than the sample's {sample.size} respondents")
    _echo_config(config)
    estimates = estimate_all(
        sample,
        population_size=config.population_size,
        mean_cell_size=config.mean_cell_size,
        ss_options=config.ss_options,
    )
    row = ReplicationRow(0, estimates, realized_n=sample.size, reseeds=sample.reseed_count)
    table = ReplicationTable(config.label, config.base_seed, [row])
    if args.out:
        export_csv(table, args.out)
        print(f"wrote {args.out}")
    else:
        print("\n".join(csv_lines(table)))
    return 0


def _cmd_experiment(args) -> int:
    config = read_config(args.config)
    # Each replication's SS estimate takes the size of the network it sampled.
    if config.population_size not in (None, config.network.n_nodes):
        raise ConfigError(
            f"estimation.population_size must be null or equal network.n_nodes "
            f"({config.network.n_nodes}) for experiment, got {config.population_size}"
        )
    # `run_replication` derives all three seeds from base_seed and replication.
    for key, seed in (("network.rng_seed", config.network.rng_seed),
                      ("sampling.rng_seed", config.sampling.rng_seed),
                      ("estimation.ss.rng_seed", config.ss_options.rng_seed)):
        if seed:
            raise ConfigError(f"{key} must be 0 or absent for experiment, which derives each "
                              f"replication's seeds from experiment.base_seed, got {seed}")
    config = _with_flags(config, replications=args.reps, base_seed=args.seed)
    _echo_config(config)
    table = run_condition(config)
    replications_path = f"{args.out}_replications.csv"
    summary_path = f"{args.out}_summary.csv"
    export_csv(table, replications_path)
    export_csv(summarize(table), summary_path)
    print(f"wrote {replications_path}")
    print(f"wrote {summary_path}")
    return 0


def _cmd_summarize(args) -> int:
    summary = summarize(load_replication_csv(args.table))
    if args.out:
        export_csv(summary, args.out)
        print(f"wrote {args.out}")
    else:
        print("\n".join(csv_lines(summary)))
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
    except (RdslabError, OSError) as err:
        print(json.dumps({"error": "runtime", "message": str(err)}), file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
