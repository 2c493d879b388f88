"""The traced benchmark round still finds every layer it wraps.

``bench/tracing.py`` rebinds layer functions by name (for example
``phase_sim.simulate_phase`` and ``phase_sim.enumerate_block_runs``), so a
renamed or deleted function breaks the traced run, not the library.  One
short traced round on ``story_branchy`` must check out and count the
block checks it made.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_bench_round_is_correct_and_counts_block_checks():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "story_branchy",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["block_check.calls"]["value"] > 0
