"""One set-up, timed in a fresh interpreter; prints its seconds.

Usage (from the repository root)::

    python3 bench/setup_probe.py WORKLOAD SEED DIRECTORY

Set-up is what a user pays before the first question: importing ``tmlab``
and ``tmlab.cli``, writing the workload's machine files to DIRECTORY and
parsing each of them once.  Drawing the workload is not timed.  The
seconds are at reference host speed (see ``hostspeed.py``).
"""

import sys
from pathlib import Path

import hostspeed
import workloads


def set_up(workload, directory: Path):
    import tmlab
    import tmlab.cli  # noqa: F401

    for path in workloads.write_machines(workload, directory).values():
        tmlab.parse_machine(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    workload = workloads.build(name, seed)
    _, seconds = hostspeed.Meter().measure(set_up, workload, directory)
    print(seconds)
