"""Check that host-speed scaling passes a slowdown of tmlab through in full.

Usage (from the repository root)::

    python3 bench/meter_check.py

The rates are wall times scaled by samples taken in tmlab's own process
(``hostspeed.py``).  If a slower program also slowed the samples, the
scaling would divide part of the slowdown out.  This check asks
``direct_deep``'s ``run`` questions (seed 1) in ``PAIRS`` pairs of rounds
per cost.  In a pair, each question is asked twice, back to back: once of
the program as it is and once with a known extra cost added to
``run_direct`` from here.  The costs are:

- ``busy``: a fixed pure-Python loop before each search;
- ``twice``: the search is run twice, so it allocates twice as much;
- ``ballast``: a list of 300,000 tuples is built, held while the search
  runs and walked after it, so the heap and the garbage collector's work
  grow.

For each cost it prints the median over the pairs of how much the rate
drops, in wall time and at reference speed.  Scaling passes a slowdown
through if the two drops agree.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import run
import workloads

PAIRS = 12


def _busy():
    total = 0
    for i in range(400_000):
        total += i & 7
    return total


def costs(direct):
    def busy(*args, **kwargs):
        _busy()
        return direct(*args, **kwargs)

    def twice(*args, **kwargs):
        direct(*args, **kwargs)
        return direct(*args, **kwargs)

    def ballast(*args, **kwargs):
        held = [(i, str(i)) for i in range(300_000)]
        result = direct(*args, **kwargs)
        sum(i for i, _s in held)
        return result

    return {"busy": busy, "twice": twice, "ballast": ballast}


def pair_round(asker, direct, slower, flip: bool):
    """Wall and scaled seconds of the ``run`` questions, as they are and slower.

    Each question is asked both ways back to back, in an order that
    alternates, so drift of the host between the two mostly cancels.
    """
    import tmlab.cli

    totals = {direct: [0.0, 0.0], slower: [0.0, 0.0]}
    for index, case in enumerate(asker.workload.cases):
        order = (direct, slower) if (index + flip) % 2 == 0 else (slower, direct)
        for fn in order:
            tmlab.cli.run_direct = fn
            start = perf_counter()
            _code, seconds, _out = asker.ask(asker.argv("run", case))
            totals[fn][0] += perf_counter() - start
            totals[fn][1] += seconds
    tmlab.cli.run_direct = direct
    return totals[direct], totals[slower]


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import tmlab.cli

    direct = tmlab.cli.run_direct
    asker = run.Asker(workloads.build("direct_deep", 1), tmlab.cli.main, hostspeed.Meter())
    drops: dict[str, list[tuple[float, float]]] = {}
    for i in range(PAIRS):
        for name, slower in costs(direct).items():
            plain, cost = pair_round(asker, direct, slower, bool(i % 2))
            # share by which the rate drops: 1 - (questions / cost) / (questions / plain)
            drops.setdefault(name, []).append((1 - plain[0] / cost[0], 1 - plain[1] / cost[1]))
    print(f"{'cost':8} {'wall drop':>10} {'scaled drop':>12} {'scaled / wall':>14}")
    for name, pairs in drops.items():
        wall = statistics.median(w for w, _s in pairs)
        scaled = statistics.median(s for _w, s in pairs)
        print(f"{name:8} {wall:10.3f} {scaled:12.3f} {scaled / wall:14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
