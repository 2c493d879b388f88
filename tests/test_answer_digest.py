"""``tools/answer_digest.py`` gives the same digest for the same answers.

The digest is how two checkouts are shown to answer a workload's
questions byte for byte alike, so it must not depend on anything but the
answers: not on the temporary directory the machine files go to, nor on
the run.  Every workload's seed-1 digest is pinned, so a change that
alters an answer fails here; such a change updates the pin and says why.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "direct_deep": "53dd04a5764d73d4be7ffb4ae1089276447e48be3bc55c7565883fecb00e7066",
    "story_branchy": "e2fafce04ab10d48beae7b42434ce6485a5bf3b26d0f7036e8eb188b81692c9b",
    "reject_stream": "3a8cca558cadf6414096d7b68fedb8ed2eabb5d4f39efdb478fa10f20eb896b1",
}


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


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_answers_match_the_pinned_digest(workload):
    assert digest(workload, 1) == PINNED[workload]
