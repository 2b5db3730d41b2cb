"""Short traced benchmark runs pass their own output checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(workload: str, seed: int) -> dict:
    # The run checks the loop's CSV bytes against `rdslab experiment`'s
    # prefix, the traced replications against the untraced ones, and each
    # generated network against one rebuilt from its edge list.
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


def test_traced_desk_behavior_run_is_correct():
    _traced_run("desk_behavior500", 5)


def test_traced_large_pop_run_is_correct():
    result = _traced_run("large_pop", 5)
    assert result["metrics"]["netgen.peak_alloc_mb"]["value"] <= 2.0
