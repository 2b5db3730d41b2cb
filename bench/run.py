"""rdslab benchmark: one researcher's batch run of one condition.

Run from the repository root:

    python3 bench/run.py --workload desk_da18 --seed 1 --seconds 30 --trace 0

The run is a closed loop in a fresh process: replication ``r + 1`` starts
when ``r`` has finished, replications ``0, 1, ...`` of the workload's
condition run until ``--seconds`` have passed, and the batch ends with
``summarize`` and ``export_csv``, as ``rdslab experiment`` does.  Before the
loop, ``rdslab.cli.dispatch(["experiment", ...])`` runs a prefix of the same
replications from a YAML config; the loop's export of that prefix must match
it byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced, re-runs the same replications with spans around every call
into the rdslab layers, and prints the per-layer metrics.  Every run prints
one metric per line and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
estimator values (five per replication) and ``failed`` those that are NA or
belong to a replication that failed an output check.  A failed check exits 1;
a checkout without ``src/rdslab`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# One thread per BLAS/OpenMP pool: the only BLAS calls are on k x k degree
# group matrices (k <= 6), and a single thread keeps runs steady on a shared
# two-core box.  Set before numpy is first imported, and inherited by probes.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"

# Seed reserved for confirming a later claim; never used to tune anything.
HOLDOUT_SEED = 7919

ESTIMATORS = ("naive", "vh", "ss", "sh", "h")
# Replications the CLI reference runs; large_pop's take ~2.5 s each.
PREFIX_REPS = {"desk_da18": 3, "desk_behavior500": 3, "large_pop": 1}
SETUP_PROBES = 3
IMPORT_PROBES = 3
ALLOC_PROBES = 1
# The paired test splits the traced table into two halves of >= 2 rows.
MIN_TRACED_REPS = 4

END_TO_END = {
    "reps_per_s": "1/s",
    "rep_ms_p50": "ms",
    "rep_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "netgen.generate_ms": "ms",
    "netgen.pairs_drawn": "count",
    "netgen.peak_alloc_mb": "MB",
    "netgen.network_init_ms": "ms",
    "netgen.edges": "count/rep",
    "sampler.run_rds_ms": "ms",
    "sampler.coupons_issued": "count/rep",
    "sampler.coupons_used": "count/rep",
    "sampler.coupons_expired": "count/rep",
    "sampler.nonresponses": "count/rep",
    "sampler.reseeds": "count/rep",
    "sampler.exhausted": "count",
    "sampler.coupon_use_ratio": "ratio",
    "estimators.naive_ms": "ms",
    "estimators.vh_ms": "ms",
    "estimators.ss_ms": "ms",
    "estimators.sh_ms": "ms",
    "estimators.h_ms": "ms",
    "estimators.ss_mc_draws": "count",
    **{f"estimators.failures.{name}": "count" for name in ESTIMATORS},
    "est_fail_share": "ratio",
    "harness.replication_ms": "ms",
    "harness.self_ms": "ms",
    "harness.summarize_ms": "ms",
    "harness.export_ms": "ms",
    "harness.paired_test_ms": "ms",
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.experiment_overhead_ms": "ms",
    "trace.untraced_reps_per_s": "1/s",
    "trace.traced_reps_per_s": "1/s",
    "trace.overhead_reps_per_s": "1/s",
}

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.build_condition(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""

IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import rdslab.cli
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclasses.dataclass
class Batch:
    """What one pass of the closed loop produced."""

    rows: list
    rep_seconds: list[float]
    elapsed: float
    table_csv: Path


def _span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def load_program() -> None:
    """Import rdslab from this checkout's ``src/`` and nowhere else."""
    package = SRC / "rdslab"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no rdslab sources at {package}")
    sys.path.insert(0, str(SRC))
    import rdslab

    if Path(rdslab.__file__).resolve().parent != package.resolve():
        raise BenchError(f"rdslab imported from {rdslab.__file__}, not from {package}")


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def run_probe(argv: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, cwd=ROOT, env=probe_env(), capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise BenchError(f"probe {argv[1:]} failed: {done.stderr.strip()[-400:]}")
    return done


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-process ``import rdslab`` plus condition construction, repeated."""
    argv = [sys.executable, "-c", SETUP_PROBE, workload, str(seed)]
    return [float(run_probe(argv).stdout.split()[-1]) for _ in range(SETUP_PROBES)]


def _is_scipy_stats(name: str) -> bool:
    return name == "scipy.stats" or name.startswith("scipy.stats.")


def scipy_stats_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost ``scipy.stats`` modules.

    ``-X importtime`` prints each module after its children, one nesting
    level deeper per two spaces; a module's parent is the next line that is
    less deep.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total_us = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        if not _is_scipy_stats(name):
            continue
        parent = next((e[1] for e in entries[i + 1:] if e[0] < depth), None)
        if parent is None or not _is_scipy_stats(parent):
            total_us += cumulative
    return total_us / 1e6


def cli_import_seconds() -> tuple[list[float], list[float]]:
    """Fresh-process ``import rdslab.cli`` times and their scipy.stats shares."""
    totals, stats_shares = [], []
    for _ in range(IMPORT_PROBES):
        done = run_probe([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE])
        totals.append(float(done.stdout.split()[-1]))
        stats_shares.append(scipy_stats_seconds(done.stderr))
    return totals, stats_shares


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_document(condition) -> dict:
    """The YAML config under which ``rdslab experiment`` runs ``condition``."""
    return _plain({
        "label": condition.label,
        "network": dataclasses.asdict(condition.network),
        "sampling": dataclasses.asdict(condition.sampling),
        "estimation": {
            "population_size": condition.network.n_nodes,
            "mean_cell_size": condition.mean_cell_size,
            "ss": dataclasses.asdict(condition.ss_options),
        },
        "experiment": {
            "replications": condition.replications,
            "base_seed": condition.base_seed,
        },
    })


def cli_reference(condition, reps: int, out_dir: Path, tracer=None) -> tuple[Path, Path]:
    """Run the first ``reps`` replications through ``rdslab experiment``."""
    import yaml
    from rdslab import cli

    config = out_dir / "config.yaml"
    config.write_text(yaml.safe_dump(config_document(condition), sort_keys=False))
    prefix = out_dir / "cli"
    argv = ["experiment", "--config", str(config), "--out", str(prefix),
            "--seed", str(condition.base_seed), "--reps", str(reps)]
    traced = (
        tracer.patched([(cli, "run_condition", "harness.run_condition")])
        if tracer else contextlib.nullcontext()
    )
    with open(out_dir / "cli.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
            traced, _span(tracer, "cli.dispatch"):
        code = cli.dispatch(argv)
    if code != 0:
        raise BenchError(f"rdslab experiment exited {code}; see {out_dir / 'cli.log'}")
    return Path(f"{prefix}_replications.csv"), Path(f"{prefix}_summary.csv")


def closed_loop(condition, out_dir: Path, name: str, *, min_reps: int,
                budget: float = 0.0, tracer=None, on_rep=None) -> Batch:
    """Replications back to back until ``budget`` seconds and ``min_reps`` are done.

    Ends with summarize + export of both tables, inside the timed interval.
    ``on_rep(r)`` runs after each replication's span closes, untimed.
    """
    from rdslab import harness

    rows, rep_seconds = [], []
    untimed = 0.0
    start = time.perf_counter()
    while len(rows) < min_reps or time.perf_counter() - start - untimed < budget:
        r = len(rows)
        if tracer:
            tracer.rep = r
        t = time.perf_counter()
        with _span(tracer, "harness.run_replication"):
            rows.append(harness.run_replication(condition, r))
        rep_seconds.append(time.perf_counter() - t)
        if on_rep:
            t = time.perf_counter()
            on_rep(r)
            untimed += time.perf_counter() - t
    if tracer:
        tracer.rep = None
    table = harness.ReplicationTable(condition.label, condition.base_seed, rows)
    with _span(tracer, "harness.summarize"):
        summary = harness.summarize(table)
    table_csv = out_dir / f"{name}_replications.csv"
    with _span(tracer, "harness.export_csv"):
        harness.export_csv(table, table_csv)
    with _span(tracer, "harness.export_csv"):
        harness.export_csv(summary, out_dir / f"{name}_summary.csv")
    elapsed = time.perf_counter() - start - untimed
    return Batch(rows, rep_seconds, elapsed, table_csv)


def check_batch(condition, batch: Batch, reference: tuple[Path, Path], out_dir: Path):
    """Output checks; returns (problems, ids of replications that failed one)."""
    from rdslab import harness
    from rdslab.netgen import generate_network
    from rdslab.sampler import run_rds

    problems, bad = [], set()
    target = condition.sampling.target_n
    for row in batch.rows:
        for name in ESTIMATORS:
            value = row.estimates.value_of(name)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(f"replication {row.replication}: {name} = {value} outside [0, 1]")
                bad.add(row.replication)
        if row.realized_n != target:
            # Allowed only for an exhausted sample; sampling is a pure
            # function of the seeds, so redraw it to see.
            net_seed, samp_seed, _ = harness.derive_rep_seeds(condition.base_seed, row.replication)
            net = generate_network(dataclasses.replace(condition.network, rng_seed=net_seed))
            sample = run_rds(net, dataclasses.replace(condition.sampling, rng_seed=samp_seed))
            if not (sample.exhausted and sample.size == row.realized_n):
                problems.append(
                    f"replication {row.replication}: realized_n {row.realized_n} != "
                    f"target {target} and the sample is not exhausted"
                )
                bad.add(row.replication)
    k = len(reference[0].read_text(encoding="utf-8").splitlines()) - 1
    prefix = harness.ReplicationTable(condition.label, condition.base_seed, batch.rows[:k])
    mine = (out_dir / "prefix_replications.csv", out_dir / "prefix_summary.csv")
    harness.export_csv(prefix, mine[0])
    harness.export_csv(harness.summarize(prefix), mine[1])
    for ours, theirs in zip(mine, reference):
        if ours.read_bytes() != theirs.read_bytes():
            problems.append(f"{ours.name} differs from rdslab experiment's {theirs.name}")
            bad.update(row.replication for row in prefix.rows)
    return problems, bad


def failed_values(rows, bad: set) -> int:
    failed = 0
    for row in rows:
        if row.replication in bad:
            failed += len(ESTIMATORS)
        else:
            failed += sum(row.estimates.value_of(name) is None for name in ESTIMATORS)
    return failed


def end_to_end_metrics(workload: str, seed: int, batch: Batch) -> dict:
    setups = setup_seconds(workload, seed)
    rep_ms = [s * 1000.0 for s in batch.rep_seconds]
    return {
        "reps_per_s": len(batch.rows) / batch.elapsed,
        "rep_ms_p50": percentile(rep_ms, 50),
        "rep_ms_p90": percentile(rep_ms, 90),
        "setup_s": percentile(setups, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(condition, reps: int, out_dir: Path, tracer):
    """Re-run replications ``0..reps-1`` with spans; returns (batch, per-rep facts)."""
    from rdslab import estimators, harness
    from rdslab.netgen import Network, generate_network

    facts = []

    def after_rep(r: int) -> None:
        (spec,), net = tracer.last["netgen.generate_network"]
        _, sample = tracer.last["sampler.run_rds"]
        c = sample.counts
        fact = {
            "edges": int(net.edges.shape[0]),
            "issued": c.coupons_issued,
            "used": c.coupons_used,
            "expired": c.coupons_expired,
            "nonresponses": c.nonresponses,
            "reseeds": sample.reseed_count,
            "exhausted": int(sample.exhausted),
            "peak_alloc_mb": None,
        }
        with tracer.span("netgen.network_init"):
            rebuilt = Network(net.infected, net.edges)
        fact["rebuild_equal"] = rebuilt == net
        if r < ALLOC_PROBES:
            # tracemalloc triples generation time at N=1000, so peak memory
            # comes from an untimed second draw of the same network.
            tracemalloc.start()
            try:
                generate_network(spec)
                fact["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        facts.append(fact)

    targets = [
        (harness, "generate_network", "netgen.generate_network"),
        (harness, "run_rds", "sampler.run_rds"),
        (harness, "estimate_all", "estimators.estimate_all"),
        (estimators, "naive_estimate", "estimators.naive"),
        (estimators, "vh_estimate", "estimators.vh"),
        (estimators, "ss_estimate", "estimators.ss"),
        (estimators, "sh_estimate", "estimators.sh"),
        (estimators, "_h_components", "estimators.h"),
    ]
    with tracer.patched(targets):
        batch = closed_loop(condition, out_dir, "traced", min_reps=reps,
                            tracer=tracer, on_rep=after_rep)
    return batch, facts


def paired_tests(condition, rows, tracer) -> None:
    """Time paired t tests between the even and the odd replications."""
    from rdslab import harness

    def half(parity):
        picked = [dataclasses.replace(row, replication=row.replication // 2)
                  for row in rows if row.replication % 2 == parity]
        return harness.ReplicationTable(condition.label, condition.base_seed, picked)

    even, odd = half(0), half(1)
    for name in ESTIMATORS:
        with tracer.span("harness.paired_difference_test"):
            harness.paired_difference_test(even, odd, name, comparisons=len(ESTIMATORS))


def per_layer_metrics(condition, untraced: Batch, traced: Batch, facts, tracer,
                      failed: int, attempted: int) -> dict:
    import numpy as np

    def p50_ms(name):
        return percentile(tracer.durations(name), 50) * 1000.0

    def mean(key):
        return float(np.mean([f[key] for f in facts]))

    n = condition.network.n_nodes
    own = tracer.self_times()
    rep_self = [t for s, t in zip(tracer.spans, own) if s["name"] == "harness.run_replication"]
    dispatch = tracer.durations("cli.dispatch")[0]
    inner = tracer.durations("harness.run_condition")[0]
    import_totals, import_stats = cli_import_seconds()
    untraced_rate = len(untraced.rows) / untraced.elapsed
    traced_rate = len(traced.rows) / traced.elapsed
    metrics = {
        "netgen.generate_ms": p50_ms("netgen.generate_network"),
        "netgen.pairs_drawn": n * (n - 1) / 2,
        "netgen.peak_alloc_mb": percentile(
            [f["peak_alloc_mb"] for f in facts if f["peak_alloc_mb"] is not None], 50),
        "netgen.network_init_ms": p50_ms("netgen.network_init"),
        "netgen.edges": mean("edges"),
        "sampler.run_rds_ms": p50_ms("sampler.run_rds"),
        "sampler.coupons_issued": mean("issued"),
        "sampler.coupons_used": mean("used"),
        "sampler.coupons_expired": mean("expired"),
        "sampler.nonresponses": mean("nonresponses"),
        "sampler.reseeds": mean("reseeds"),
        "sampler.exhausted": float(sum(f["exhausted"] for f in facts)),
        "sampler.coupon_use_ratio": (
            sum(f["used"] for f in facts) / max(1, sum(f["issued"] for f in facts))),
        "estimators.ss_mc_draws": float(condition.ss_options.mc_replications * n),
        "est_fail_share": failed / attempted,
        "harness.replication_ms": p50_ms("harness.run_replication"),
        "harness.self_ms": percentile(rep_self, 50) * 1000.0,
        "harness.summarize_ms": p50_ms("harness.summarize"),
        "harness.export_ms": sum(tracer.durations("harness.export_csv")) * 1000.0,
        "harness.paired_test_ms": p50_ms("harness.paired_difference_test"),
        "cli.import_s": percentile(import_totals, 50),
        "cli.import_scipy_stats_s": percentile(import_stats, 50),
        "cli.experiment_overhead_ms": (dispatch - inner) * 1000.0,
        "trace.untraced_reps_per_s": untraced_rate,
        "trace.traced_reps_per_s": traced_rate,
        "trace.overhead_reps_per_s": traced_rate - untraced_rate,
    }
    for name in ESTIMATORS:
        metrics[f"estimators.{name}_ms"] = p50_ms(f"estimators.{name}")
        metrics[f"estimators.failures.{name}"] = float(
            sum(name in row.estimates.failures for row in traced.rows))
    return {name: metrics[name] for name in PER_LAYER}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
        "workload": args.workload,
        "base_seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_da18", "desk_behavior500", "large_pop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def run(args) -> int:
    import workloads
    from tracing import Tracer

    condition = workloads.build_condition(args.workload, args.seed)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    # The reference run comes first and doubles as the warm-up.
    reference = cli_reference(condition, PREFIX_REPS[args.workload], out_dir, tracer)
    budget = args.seconds / 2 if args.trace else args.seconds
    min_reps = max(PREFIX_REPS[args.workload], MIN_TRACED_REPS if args.trace else 1)
    batch = closed_loop(condition, out_dir, "bench", min_reps=min_reps, budget=budget)
    problems, bad = check_batch(condition, batch, reference, out_dir)
    attempted = len(ESTIMATORS) * len(batch.rows)
    if args.trace:
        traced, facts = traced_run(condition, len(batch.rows), out_dir, tracer)
        if traced.table_csv.read_bytes() != batch.table_csv.read_bytes():
            problems.append("traced replications differ from untraced ones")
            bad.update(row.replication for row in batch.rows)
        if not all(f["rebuild_equal"] for f in facts):
            problems.append("Network rebuilt from a generated network's edges differs")
        paired_tests(condition, traced.rows, tracer)
        tracer.write(out_dir / "spans.jsonl")
        failed = failed_values(batch.rows, bad)
        metrics = per_layer_metrics(condition, batch, traced, facts, tracer, failed, attempted)
        units = PER_LAYER
    else:
        failed = failed_values(batch.rows, bad)
        metrics = end_to_end_metrics(args.workload, args.seed, batch)
        units = END_TO_END
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"replications {len(batch.rows)} in {batch.elapsed:.3f} s; "
          f"est_fail_share {failed / attempted:.6g} ({failed} of {attempted} estimator values)")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (out_dir / "result.json").write_text(
        json.dumps({**result, "env": env, "problems": problems,
                    "replications": len(batch.rows)}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        load_program()
        return run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
