"""Benchmark of tmlab's four question modes.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process asks the workload's questions as a closed loop, one at a time,
each through ``tmlab.cli.main([..., "--json"])`` with stdout captured, so a
question pays for argument parsing, file reading, machine parsing, the
search and the JSON report as a user does.  It repeats whole rounds of the
same questions until S seconds have passed, and checks every answer
against ``reference.py`` and the properties the method must have.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones: set-up time, questions per second in each mode, and the
``tracemalloc`` peaks of an untimed pass.  With ``--trace 1`` the layers
are wrapped with spans (see ``tracing.py``) and the metrics are per-layer
totals per round; the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import hostspeed
import reference
import workloads

MODES = ("run", "crossings", "mstar", "verify")
SETUP_REPEATS = 9
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent


class Asker:
    """Asks one workload's questions and checks the answers."""

    def __init__(self, workload, cli_main, meter=None):
        from tmlab import parse_machine

        self.workload = workload
        self.cli_main = cli_main
        self.tracer = None  # set once the layers are wrapped, after preparation
        self.meter = meter
        out = OUT / workload.name
        self.paths = workloads.write_machines(workload, out / "machines")
        self.stories = out / "stories"
        self.stories.mkdir(parents=True, exist_ok=True)
        self.machines = {k: parse_machine(p.read_text(encoding="utf-8"))
                         for k, p in self.paths.items()}
        self.refs = {c: reference.solve(self.machines[c.machine], c.w, c.n * c.n)
                     for c in workload.cases}
        self.cap = [] if workload.node_cap is None else ["--node-cap", str(workload.node_cap)]
        # seconds of each question in every round, keyed by (case index, mode)
        self.times: dict[tuple[int, str], list[float]] = {}
        self.asked = dict.fromkeys(MODES, 0)
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, mode: str, case, story: Path | None = None) -> list[str]:
        head = [str(self.paths[case.machine]), "--input", case.w]
        if mode == "run":
            args = ["run", *head, "--max-steps", str(case.n * case.n)]
        elif mode == "verify":
            args = ["mstar", *head, "-n", str(case.n), "--story", str(story)]
        else:
            args = [mode, *head, "-n", str(case.n)]
        return args + self.cap + ["--json"]

    def ask(self, argv: list[str]) -> tuple[object, float, str]:
        """Exit code (or crash), seconds and stdout of one question.

        With a meter the seconds are at reference host speed, else wall time.
        """
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if self.meter is not None:
                code, seconds = self.meter.measure(self._main, argv)
            else:
                start = perf_counter()
                code = self._main(argv)
                seconds = perf_counter() - start
        return code, seconds, out.getvalue()

    def _main(self, argv: list[str]):
        try:
            if self.tracer is None:
                return self.cli_main(argv)
            self.tracer.question += 1
            self.tracer.counts["cli_calls"] += 1
            return self.tracer.call("cli", self.cli_main, argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is an answer the benchmark must report
            return f"{type(exc).__name__}: {exc}"

    def round(self):
        for index, case in enumerate(self.workload.cases):
            self._case(index, case)

    def qps(self, mode: str) -> float:
        """Questions per second in ``mode``, from each question's median time.

        The median over rounds leaves out a round in which a burst of load
        on the host, or a pause, slowed one question.
        """
        medians = [statistics.median(t) for (_i, m), t in self.times.items() if m == mode]
        return len(medians) / sum(medians)

    def _case(self, index, case):
        ref = self.refs[case]
        witness = None
        story = None
        for mode in MODES:
            if mode == "verify" and story is None:
                continue
            code, seconds, out = self.ask(self.argv(mode, case, story))
            self.times.setdefault((index, mode), []).append(seconds)
            self.asked[mode] += 1
            key = (case.machine, case.w, case.n, mode)
            try:
                report = json.loads(out)
            except ValueError:
                report = {}
            if code == 2 and report.get("verdict") == "resource-cap":
                self.failed += 1
                if key not in workloads.KNOWN_CAPS:
                    self._problem(key, "exceeded the node cap")
                continue
            if mode == "run" and report.get("verdict") == "accepted":
                witness = reference.replay(self.machines[case.machine], case.w,
                                           report["resources"].get("choices", ()), case.n ** 2)
            problem = self._check(mode, case, ref, code, report, witness)
            if problem:
                self.failed += 1
                self._problem(key, problem)
                continue
            if mode == "crossings" and ref.accepted:
                story = self.stories / f"{case.machine}-{case.w or 'empty'}-{case.n}.json"
                story.write_text(json.dumps(report["story"]), encoding="utf-8")

    def _problem(self, key, text: str):
        self.problems.append(f"{key}: {text}")

    @staticmethod
    def _check(mode, case, ref, code, report, witness) -> str | None:
        """What is wrong with one answer, or None."""
        want = "accepted" if ref.accepted or mode == "verify" else "rejected"
        if report.get("verdict") != want or code != (0 if want == "accepted" else 1):
            return f"answered {report.get('verdict')!r} with exit {code!r}, expected {want!r}"
        if want == "rejected":
            return None
        res = report["resources"]
        n = case.n
        if mode == "run":
            if res["time"] != ref.time:
                return f"time {res['time']} is not the minimum {ref.time}"
            if not (witness.accepted and witness.time == res["time"]
                    and witness.space == res["space"]):
                return f"witness replays to {witness}, reported time {res['time']} space {res['space']}"
        elif mode == "crossings":
            ks = [k for _P, k in report["k_table"]]
            if witness is None:
                return "no replayed witness from the run question"
            if len(ks) != n or sum(ks) != witness.moves + 2 * n or min(ks) > n + 1:
                return f"k_table {ks} breaks the phase-count identity (moves {witness.moves})"
        elif mode == "mstar":
            c = report["constants"]["descriptor_constant"]
            k = report["story"]["k"]
            if res["phase_steps"] > n * n or res["sim_space"] > max(n + 2, 2 * c * k):
                return f"phase_steps {res['phase_steps']} or sim_space {res['sim_space']} too large"
        elif res["phase_steps"] > ref.time:
            return f"story phase_steps {res['phase_steps']} exceed the witness time {ref.time}"
        return None


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
             str(OUT / name / "setup")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_kib(asker: Asker, mode: str, cases) -> float:
    """Largest tracemalloc peak over ``cases`` asked in ``mode``, in KiB."""
    tracemalloc.start()
    try:
        peak = 0
        for case in cases:
            gc.collect()  # else when garbage cycles are freed depends on earlier questions
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            asker.ask(asker.argv(mode, case))
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tmlab" / "cli.py").is_file():
        print("bench: run from the repository root; src/tmlab is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    began = perf_counter()
    workload = workloads.build(args.workload, args.seed)
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None

    import tmlab.cli
    tracer = None
    asker = Asker(workload, tmlab.cli.main, None if args.trace else hostspeed.Meter())
    if args.trace:
        # wrapped only now, so that preparation's parses leave no spans
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        asker.tracer = tracer

    rounds = 0
    start = perf_counter()
    before = start - began
    while rounds == 0 or perf_counter() - start < args.seconds:
        asker.round()
        rounds += 1
    wall = perf_counter() - start
    for problem in asker.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)

    if tracer is not None:
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in tracer.layer_metrics(rounds).items()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz",
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "round_s": wall / rounds,
                      "questions": [[c.machine, c.w, c.n] for c in workload.cases]})
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for mode in MODES:
            metrics[f"{mode}_qps"] = {"value": asker.qps(mode), "unit": "1/s"}
        asker.meter = None  # its samples allocate, and the peaks would count them
        metrics["run_peak_kib"] = {"value": peak_kib(asker, "run", workload.peak_run),
                                   "unit": "KiB"}
        metrics["mstar_peak_kib"] = {"value": peak_kib(asker, "mstar", workload.peak_mstar),
                                     "unit": "KiB"}

    print(f"bench: {args.workload} seed {args.seed} trace {args.trace}: {before:.2f} s before "
          f"timing, {rounds} round(s) of {wall / rounds:.3f} s, "
          f"{perf_counter() - start - wall:.2f} s after", file=sys.stderr)
    print(json.dumps({"correct": not asker.problems, "attempted": sum(asker.asked.values()),
                      "failed": asker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
