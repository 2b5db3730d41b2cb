"""Replicated experiment harness.

A `Condition` bundles a network spec, a sampling config, and estimator
options.  `run_condition` executes the replications sequentially: each
replication generates a fresh network, runs one referral sample over it, and
computes all five estimates.  Per-replication RNG streams derive from
``(base_seed, replication_index)`` alone, so two conditions sharing a
base_seed see identical networks replication by replication (paired
comparisons), and permuting execution order cannot change any row.

Tables export to CSV with a fixed column order and 10-significant-digit
decimals, so identical inputs produce byte-identical files;
`load_replication_csv` reads a replication CSV back.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, EstimationError, as_flag, as_float, as_int, read_text
from .estimators import ESTIMATOR_NAMES, EstimateSet, SsOptions, estimate_all
from .netgen import NetworkSpec, generate_network
from .sampler import SamplingConfig, run_rds

__all__ = [
    "Condition",
    "ReplicationRow",
    "ReplicationTable",
    "ConditionSummary",
    "SummaryRow",
    "PairedTestResult",
    "derive_rep_seeds",
    "run_replication",
    "run_condition",
    "summarize",
    "paired_difference_test",
    "csv_lines",
    "export_csv",
    "load_replication_csv",
]

REPLICATION_COLUMNS = ("condition_label", "replication", *ESTIMATOR_NAMES,
                       "sh_flag_one", "h_flag_one", "failure_code", "realized_n", "reseeds")

SUMMARY_COLUMNS = (
    "condition_label",
    "estimator",
    "mean",
    "variance",
    "count_one",
    "count_fail",
    "n_reps",
)

MISSING = "NA"


@dataclass(frozen=True)
class Condition:
    """One experimental cell: everything needed to run its replications.

    The label is written as one bare CSV cell, so it must be nonempty and
    free of commas, double quotes, CR and LF.
    """

    label: str
    network: NetworkSpec = field(default_factory=NetworkSpec)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    mean_cell_size: int = 12
    ss_options: SsOptions = field(default_factory=SsOptions)
    replications: int = 300
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigError("condition label must be nonempty")
        if any(c in self.label for c in ',"\r\n'):
            raise ConfigError(
                f"label must not contain a comma, a double quote, CR or LF, got {self.label!r}"
            )
        if self.mean_cell_size < 1:
            raise ConfigError(f"mean_cell_size must be >= 1, got {self.mean_cell_size}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True, slots=True)
class ReplicationRow:
    replication: int
    estimates: EstimateSet
    realized_n: int
    reseeds: int


@dataclass
class ReplicationTable:
    label: str
    base_seed: int
    rows: list[ReplicationRow]


@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    mean: float
    variance: float
    count_one: int
    count_fail: int
    n_reps: int


@dataclass
class ConditionSummary:
    label: str
    rows: list[SummaryRow]


@dataclass(frozen=True)
class PairedTestResult:
    estimator: str
    n_pairs: int
    mean_difference: float
    t_statistic: float
    p_value: float
    p_adjusted: float
    degenerate: bool = False


def derive_rep_seeds(base_seed: int, replication: int) -> tuple[int, int, int]:
    """Disjoint integer seeds (network, sampling, estimation) for one row."""
    words = np.random.SeedSequence([base_seed, replication]).generate_state(3, dtype=np.uint64)
    return int(words[0]), int(words[1]), int(words[2])


def run_replication(condition: Condition, replication: int) -> ReplicationRow:
    """Run one replication; a pure function of (condition, replication)."""
    net_seed, samp_seed, ss_seed = derive_rep_seeds(condition.base_seed, replication)
    spec = dataclasses.replace(condition.network, rng_seed=net_seed)
    config = dataclasses.replace(condition.sampling, rng_seed=samp_seed)
    ss_options = dataclasses.replace(condition.ss_options, rng_seed=ss_seed)
    net = generate_network(spec)
    sample = run_rds(net, config)
    estimates = estimate_all(
        sample,
        population_size=spec.n_nodes,
        mean_cell_size=condition.mean_cell_size,
        ss_options=ss_options,
    )
    return ReplicationRow(
        replication=replication,
        estimates=estimates,
        realized_n=sample.size,
        reseeds=sample.reseed_count,
    )


def run_condition(condition: Condition) -> ReplicationTable:
    """Run all replications of a condition."""
    rows = [run_replication(condition, r) for r in range(condition.replications)]
    return ReplicationTable(label=condition.label, base_seed=condition.base_seed, rows=rows)


def summarize(table: ReplicationTable) -> ConditionSummary:
    """Per-estimator moments over successful rows, plus failure tallies.

    Variance is the sample variance (n-1 denominator).
    """
    out = []
    n_reps = len(table.rows)
    for name in ESTIMATOR_NAMES:
        values = (row.estimates.value_of(name) for row in table.rows)
        arr = np.array([v for v in values if v is not None], dtype=np.float64)
        mean = float(arr.mean()) if arr.size else float("nan")
        variance = float(arr.var(ddof=1)) if arr.size > 1 else float("nan")
        ones = int((arr == 1.0).sum())
        out.append(
            SummaryRow(
                estimator=name,
                mean=mean,
                variance=variance,
                count_one=ones,
                count_fail=n_reps - arr.size,
                n_reps=n_reps,
            )
        )
    return ConditionSummary(label=table.label, rows=out)


def _by_replication(table: ReplicationTable) -> dict[int, ReplicationRow]:
    """The table's rows by replication index, in table order; an index met twice is refused."""
    rows: dict[int, ReplicationRow] = {}
    for row in table.rows:
        if rows.setdefault(row.replication, row) is not row:
            raise ConfigError(f"table {table.label!r} repeats replication {row.replication}")
    return rows


def paired_difference_test(
    first: ReplicationTable,
    second: ReplicationTable,
    estimator: str,
    comparisons: int = 1,
) -> PairedTestResult:
    """Paired t test on within-replication differences (first minus second).

    Pairs use replications where both tables carry a value; a table that
    repeats a replication index cannot be paired and raises `ConfigError`.
    The adjusted p-value is the Bonferroni correction ``min(1, p *
    comparisons)``.  With zero variance the test degenerates: all-zero
    differences give p = 1; identical nonzero differences give an infinite
    statistic with the ``degenerate`` flag set.
    """
    if estimator not in ESTIMATOR_NAMES:
        raise ConfigError(f"unknown estimator {estimator!r}")
    if comparisons < 1:
        raise ConfigError(f"comparisons must be >= 1, got {comparisons}")
    by_rep = _by_replication(second)
    diffs = []
    for row in _by_replication(first).values():
        other = by_rep.get(row.replication)
        if other is None:
            continue
        a = row.estimates.value_of(estimator)
        b = other.estimates.value_of(estimator)
        if a is not None and b is not None:
            diffs.append(a - b)
    k = len(diffs)
    if k < 2:
        raise EstimationError(
            f"need at least 2 complete pairs for {estimator}, found {k}",
            code="insufficient_pairs",
        )
    arr = np.array(diffs)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return PairedTestResult(estimator, k, 0.0, 0.0, 1.0, 1.0, False)
        t_stat = float("inf") if mean > 0 else float("-inf")
        return PairedTestResult(estimator, k, mean, t_stat, 0.0, 0.0, True)
    # Imported here, its only use: scipy.stats takes about a second and 70 MB to load.
    from scipy import stats

    t_stat = mean / (sd / np.sqrt(k))
    p_value = 2.0 * float(stats.t.sf(abs(t_stat), df=k - 1))
    return PairedTestResult(
        estimator=estimator,
        n_pairs=k,
        mean_difference=mean,
        t_statistic=float(t_stat),
        p_value=p_value,
        p_adjusted=min(1.0, p_value * comparisons),
    )


def _format_value(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return MISSING
    return f"{value:.10g}"


def _failure_token(estimates: EstimateSet) -> str:
    codes = []
    for name in ESTIMATOR_NAMES:
        code = estimates.failures.get(name)
        if code is not None and code not in codes:
            codes.append(code)
    return "|".join(codes)


def csv_lines(table) -> Iterator[str]:
    """A replication table or a condition summary as CSV lines, header first.

    The type is checked on the call; each line is then formatted as it is
    read.  Output is byte-stable: fixed header, fixed column order, decimals
    with 10 significant digits, ``NA`` for failed estimates.
    """
    if isinstance(table, ReplicationTable):
        header = REPLICATION_COLUMNS
        rows = (
            [
                str(row.replication),
                *(_format_value(row.estimates.value_of(name)) for name in ESTIMATOR_NAMES),
                str(int(row.estimates.sh_equal_one)),
                str(int(row.estimates.h_equal_one)),
                _failure_token(row.estimates),
                str(row.realized_n),
                str(row.reseeds),
            ]
            for row in sorted(table.rows, key=lambda r: r.replication)
        )
    elif isinstance(table, ConditionSummary):
        header = SUMMARY_COLUMNS
        rows = (
            [
                row.estimator,
                _format_value(row.mean),
                _format_value(row.variance),
                str(row.count_one),
                str(row.count_fail),
                str(row.n_reps),
            ]
            for row in table.rows
        )
    else:
        raise ConfigError(f"cannot export object of type {type(table).__name__}")
    lines = (",".join([table.label, *cells]) for cells in rows)
    return (line for part in ([",".join(header)], lines) for line in part)


def export_csv(table, path) -> None:
    """Write `csv_lines` of a table line by line; another type is refused before opening."""
    lines = csv_lines(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def load_replication_csv(path) -> ReplicationTable:
    """Read a replication table written by `export_csv`.

    Exporting the result writes the same bytes again.  Estimates must be
    finite (a value that ten significant digits round past the largest
    double reads as infinity and is refused) and the replication index,
    ``realized_n`` and ``reseeds`` nonnegative.  The base seed is not in the
    file and reads as 0; a failed estimate takes the row's whole
    ``failure_code`` cell as its code.  Refused with their line: a repeated
    replication index, an ``NA`` beside an empty ``failure_code``, a code
    on a row with no ``NA``, and a ``*_flag_one`` of 1 on a value other
    than 1.  A flag of 0 beside a ``1`` is kept: the writer prints a value
    within 5e-11 of 1 that way.
    """
    numbered = enumerate(read_text(path).split("\n"), start=1)
    lines = [(lineno, line) for lineno, line in numbered if line.strip()]
    if not lines or lines[0][1] != ",".join(REPLICATION_COLUMNS):
        raise ConfigError(f"{path}: not a replication table (unexpected header)")
    label: Optional[str] = None
    rows = []
    first_seen: dict[int, int] = {}
    for lineno, line in lines[1:]:
        where = f"{path}:{lineno}"
        cells = line.split(",")
        if len(cells) != len(REPLICATION_COLUMNS):
            raise ConfigError(
                f"{where}: expected {len(REPLICATION_COLUMNS)} cells, got {len(cells)}"
            )
        cell = dict(zip(REPLICATION_COLUMNS, cells))
        if label is None:
            label = cell["condition_label"]
        elif cell["condition_label"] != label:
            raise ConfigError(f"{where}: mixed condition labels in one table")
        estimates = EstimateSet(
            sh_equal_one=as_flag(cell["sh_flag_one"], where),
            h_equal_one=as_flag(cell["h_flag_one"], where),
        )
        code = cell["failure_code"]
        for name in ESTIMATOR_NAMES:
            if cell[name] == MISSING:
                if not code:
                    raise ConfigError(f"{where}: failure_code is empty, but {name} is NA")
                estimates.failures[name] = code
            else:
                value = as_float(cell[name], where)
                if not math.isfinite(value):
                    raise ConfigError(f"{where}: {name} must be finite, got {cell[name]!r}")
                setattr(estimates, name, value)
        if code and not estimates.failures:
            raise ConfigError(f"{where}: failure_code is {code!r}, but no estimate is NA")
        for name, flag in (("sh", estimates.sh_equal_one), ("h", estimates.h_equal_one)):
            if flag and estimates.value_of(name) != 1.0:
                raise ConfigError(f"{where}: {name}_flag_one is 1, but {name} is {cell[name]}")
        counts = {}
        for column in ("replication", "realized_n", "reseeds"):
            counts[column] = as_int(cell[column], where)
            if counts[column] < 0:
                raise ConfigError(f"{where}: {column} must be >= 0, got {counts[column]}")
        seen = first_seen.setdefault(counts["replication"], lineno)
        if seen != lineno:
            raise ConfigError(f"{where}: replication {counts['replication']} "
                              f"repeats the index of line {seen}")
        rows.append(ReplicationRow(estimates=estimates, **counts))
    if label is None:
        raise ConfigError(f"{path}: table has no rows")
    return ReplicationTable(label=label, base_seed=0, rows=rows)
