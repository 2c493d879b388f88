"""``tools/answer_digest.py`` gives the same digest for the same answers.

The digest is how two checkouts are shown to answer a workload's
questions byte for byte alike, so it must not depend on anything but the
answers: not on the temporary directory the machine files go to, nor on
the run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(workload: str, seed: int) -> str:
    proc = subprocess.run([sys.executable, "tools/answer_digest.py", workload, str(seed)],
                          env=dict(os.environ, PYTHONPATH=""), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_two_runs_print_one_digest():
    first = digest("story_branchy", 1)
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert digest("story_branchy", 1) == first
