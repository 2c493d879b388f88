"""One SHA-256 over every answer a benchmark workload's questions get.

Usage (from the root of the checkout whose answers are wanted)::

    python3 tools/answer_digest.py WORKLOAD SEED

It builds the workload with ``bench/workloads.py``, writes its machine
files to a temporary directory, and asks every case's questions through
``tmlab.cli.main`` with the argvs ``bench/run.py`` builds: ``run``,
``crossings``, ``mstar`` and, when ``crossings`` printed a story, ``mstar
--story`` on that story; each with and without ``--json``.  The digest
covers each question's argv, exit code, stdout and stderr, with the
temporary directory masked, so two checkouts that answer alike print the
same digest.  ``tmlab`` and the workloads are imported from the current
directory's ``src/`` and ``bench/``, so the script can be pointed at
another checkout by running it from there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

MASK = "<tmp>"


def ask(main, argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or the crash), stdout and stderr of one question."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an answer too
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(workload_name: str, seed: int) -> tuple[str, int]:
    """The digest of one workload's answers, and how many questions it covers."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import run
    import workloads
    from tmlab.cli import main

    workload = workloads.build(workload_name, seed)
    sha = hashlib.sha256()
    asked = 0
    with tempfile.TemporaryDirectory() as tmp:
        asker = SimpleNamespace(  # what run.Asker.argv reads
            paths=workloads.write_machines(workload, Path(tmp) / "machines"),
            cap=[] if workload.node_cap is None else ["--node-cap", str(workload.node_cap)])
        for index, case in enumerate(workload.cases):
            story = None
            for mode in run.MODES:
                if mode == "verify" and story is None:
                    continue
                json_argv = run.Asker.argv(asker, mode, case, story)
                for argv in (json_argv, [a for a in json_argv if a != "--json"]):
                    code, out, err = ask(main, argv)
                    record = [[a.replace(tmp, MASK) for a in argv], code,
                              out.replace(tmp, MASK), err.replace(tmp, MASK)]
                    sha.update(json.dumps(record).encode("utf-8") + b"\n")
                    asked += 1
                    if mode == "crossings" and argv is json_argv and code == 0:
                        story = Path(tmp) / f"story-{index}.json"
                        story.write_text(json.dumps(json.loads(out)["story"]), encoding="utf-8")
    return sha.hexdigest(), asked


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 64
    hexdigest, asked = digest(sys.argv[1], int(sys.argv[2]))
    print(hexdigest)
    print(f"answer_digest: {asked} questions", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
