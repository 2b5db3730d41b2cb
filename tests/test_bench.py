"""One short traced benchmark run passes its own output checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_desk_behavior_run_is_correct():
    # The run checks the loop's CSV bytes against `rdslab experiment`'s
    # prefix and the traced replications against the untraced ones.
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_behavior500", "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
