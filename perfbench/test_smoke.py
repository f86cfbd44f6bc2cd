"""The benchmark's own test: run it in smoke mode and check the result shape.

    python3 -m pytest perfbench

Smoke mode runs every workload briefly in both the timed and the traced
mode and checks metric names, units and the JSON shape against
BENCHMARK.json, never timings.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_mode_prints_the_result_shape():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
