"""Steadiness check: two sets of runs of one commit, compared.

Usage (from the repository root)::

    python3 bench/steady.py

Runs the command of ``BENCHMARK.json`` on every workload in two sets of
ten runs, for ``run_seconds`` each, one run at a time; the first set uses
seeds 1-10 and the second seeds 11-20.  For every end-to-end metric and
workload it prints each set's median and quartiles, the spread (third
minus first quartile, as a share of the median) against the metric's
bound, and how far the second set's median moved from the first's in the
metric's worse direction.  It also compares the share of failed questions
between the runs, which must be equal.  Then it makes two traced runs of
seed 1 per workload and prints every per-layer count that differs between
them.  Every run's stderr is appended to ``.bench_out/steady-stderr.log``;
raw results go to ``.bench_out/steady-*.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETS = 2
RUNS = 10  # per workload and set; run i of set s has seed 1 + s * RUNS + i


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    log = ROOT / ".bench_out" / "steady-stderr.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("a", encoding="utf-8") as fh:
        fh.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"steady: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict = {}
    for s in range(SETS):
        for name in names:
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                started = time.perf_counter()
                out = run_once(spec, name, seed, seconds, 0)
                results.setdefault(name, []).append({"set": s, "seed": seed, **out,
                                                     "wall_s": time.perf_counter() - started})
                print(f"set {s} {name} seed {seed}: {time.perf_counter() - started:.1f} s, "
                      f"correct {out['correct']}, {out['failed']}/{out['attempted']} failed",
                      file=sys.stderr, flush=True)

    print(f"{'workload':14} {'metric':15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  {'moved':>7}")
    for name in names:
        runs = results[name]
        for metric, m in bounds.items():
            medians = []
            for s in range(SETS):
                values = [r["metrics"][metric]["value"] for r in runs if r["set"] == s]
                median, q1, q3, sp = spread(values)
                medians.append(median)
                moved = ""
                if s > 0:
                    change = (median - medians[0]) / medians[0]
                    worse = change if m["better"] == "lower" else -change
                    moved = f"{worse:+7.3f}{' !' if worse > m['bound'] else ''}"
                flag = " !" if sp > m["bound"] else ""
                print(f"{name:14} {metric:15} {s:>3} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{sp:7.4f} {m['bound']:6.3f}{flag:2} {moved}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r["wall_s"] for r in runs]
        print(f"{name:14} failed share {'equal' if len(shares) == 1 else 'DIFFERS'}: {shares}; "
              f"correct in every run: {all(r['correct'] for r in runs)}; "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")

    per_layer = {m["name"]: m for m in spec["per_layer"]}
    for name in names:
        a, b = (run_once(spec, name, 1, seconds, 1) for _ in range(2))
        differ = [k for k, m in per_layer.items() if m["unit"] in ("count", "ratio")
                  and a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        print(f"{name:14} per-layer counts between two traced runs: "
              f"{'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        results.setdefault(f"{name}/trace", []).extend([a, b])

    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
