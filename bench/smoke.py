"""Smoke test of the benchmark itself.

Run from the repository root (about two minutes on a two-core box):

    python3 bench/smoke.py

For every workload in BENCHMARK.json and for ``--trace 0`` and ``--trace 1``
it runs the benchmark with ``--seconds 1`` (a few replications; large_pop
runs the minimum) and checks that the run exits 0, that its last line is the
result object with exactly the keys ``correct``, ``attempted``, ``failed``
and ``metrics``, that the outputs were correct with nothing failed, and that
the metric names and units it printed are exactly those BENCHMARK.json
declares for that mode.  Last, it checks that the benchmark exits non-zero
without a result in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 5
TIMEOUT = 600


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def run_bench(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run_bench(spec, ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{where} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where} result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where} correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        fail(f"{where} metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(reported))}, "
             f"extra {sorted(set(reported) - set(declared))}, "
             f"units {[(n, u, declared[n]) for n, u in reported.items() if declared.get(n, u) != u]}")
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    if printed != declared:
        fail(f"{where} printed metric lines differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{where} {name} is not a number: {m['value']!r}")
    print(f"smoke: ok {where} ({result['attempted'] // 5} replications)")


def check_bare_directory(spec: dict) -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(spec, bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[-200:]!r}")
    print(f"smoke: ok bare directory refused (exit {done.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_bare_directory(spec)
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
