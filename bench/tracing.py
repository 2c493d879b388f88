"""Spans around tmlab's layers, recorded from outside the package.

``install`` replaces each traced public function with a wrapper in every
loaded ``tmlab`` module that holds it, because a module that did
``from .x import f`` calls its own binding.  A span is ``[name, start,
end, parent, question, busy]``, stored column by column; ``busy`` is the
time the layer really ran.  For a plain call it is ``end - start``.  ``enumerate_block_runs`` is a
generator whose caller works between resumes, so its span runs from the
first resume to the last and ``busy`` sums the resumes alone.  A layer's
self time is its busy time minus its children's.

Counts are taken at the same boundaries, from the values the layers
return.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class Tracer:
    def __init__(self):
        # one entry per span in each column; the columns keep memory small
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.question_of = array("i")
        self.busy = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.question = -1

    def open(self, name: str) -> int:
        sid = len(self.start)
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        now = perf_counter()
        self.name.append(self.name_ids[name])
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.question_of.append(self.question)
        self.busy.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int):
        now = perf_counter()
        self.end[sid] = now
        self.busy[sid] = now - self.start[sid]
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def iterate(self, name: str, gen):
        """Yield from ``gen``, charging each resume to one span."""
        sid = self.open(name)
        self.stack.pop()
        try:
            while True:
                self.stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    now = perf_counter()
                    self.end[sid] = now
                    self.busy[sid] += now - t0
                    self.stack.pop()
                yield item
        finally:
            gen.close()

    def self_times(self) -> Counter:
        child = array("d", bytes(8 * len(self.busy)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.busy[sid]
        out = Counter()
        for sid, busy in enumerate(self.busy):
            out[self.names[self.name[sid]]] += busy - child[sid]
        return out

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric: totals per round, and two ratios."""
        t, c = self.self_times(), self.counts
        values = {
            "ntm_core.parse_s": t["ntm_core.parse"],
            "ntm_core.direct_s": t["ntm_core.direct"],
            "ntm_core.direct_explored": c["explored"],
            "ntm_core.replay_s": t["ntm_core.replay"],
            "crossing.lemma_s": t["crossing.lemma"],
            "crossing.history_s": t["crossing.history"],
            "crossing.phase_records": c["phase_records"],
            "phase_sim.enum_s": t["phase_sim.enum"],
            "phase_sim.enum_calls": c["enum_calls"],
            "phase_sim.stops": c["stops"],
            "phase_sim.simulate_s": t["phase_sim.simulate"],
            "phase_sim.simulate_calls": c["simulate_calls"],
            "block_check.s": t["block_check"],
            "block_check.calls": c["check_calls"],
            "block_check.results": c["check_results"],
            "mstar.search_s": t["mstar.search"],
            "mstar.prefixes": c["prefixes"],
            "mstar.reverify_s": t["mstar.reverify"],
            "mstar.verify_s": t["mstar.verify"],
            "reporting.s": t["reporting"],
            "cli.self_s": t["cli"],
            "cli.calls": c["cli_calls"],
        }
        values = {k: v / rounds for k, v in values.items()}
        values["phase_sim.exit_ratio"] = c["exit_stops"] / max(c["stops"], 1)
        values["phase_sim.accept_ratio"] = c["accepted_outcomes"] / max(c["outcomes"], 1)
        return values

    def write(self, path: Path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[sid]], self.start[sid], self.end[sid],
                                     self.parent[sid], self.question_of[sid],
                                     self.busy[sid]]) + "\n")


def _rebind(original, wrapper, only=None):
    """Point every loaded tmlab module's binding of ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname.partition(".")[0] != "tmlab" or module is None:
            continue
        if only is not None and modname not in only:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the traced layers; call once, after importing ``tmlab.cli``."""
    from tmlab import block_check, crossing, mstar, ntm_core, phase_sim, reporting

    counts = tracer.counts

    def spanned(name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def direct_done(result):
        counts["explored"] += result.explored

    def simulate_done(outcomes):
        counts["simulate_calls"] += 1
        counts["outcomes"] += len(outcomes)
        counts["accepted_outcomes"] += sum(o.accepted for o in outcomes)

    def check_done(results):
        counts["check_calls"] += 1
        counts["check_results"] += sum(r.accepted for r in results)

    def search_done(result):
        counts["prefixes"] += result.wall_stats

    def records_counted(*args, **kwargs):
        records = phase_records(*args, **kwargs)
        counts["phase_records"] += len(records)
        return records

    def enumerate_traced(*args, **kwargs):
        counts["enum_calls"] += 1
        for stop in tracer.iterate("phase_sim.enum", enumerate_block_runs(*args, **kwargs)):
            counts["stops"] += 1
            counts["exit_stops"] += stop.kind == "exit"
            yield stop

    phase_records = crossing.phase_records
    enumerate_block_runs = phase_sim.enumerate_block_runs
    verify_story = mstar.verify_story
    _rebind(ntm_core.parse_machine, spanned("ntm_core.parse", ntm_core.parse_machine))
    _rebind(ntm_core.run_direct, spanned("ntm_core.direct", ntm_core.run_direct, direct_done))
    _rebind(ntm_core.run_with_choices, spanned("ntm_core.replay", ntm_core.run_with_choices))
    _rebind(crossing.check_phase_lemma, spanned("crossing.lemma", crossing.check_phase_lemma))
    _rebind(crossing.extract_history, spanned("crossing.history", crossing.extract_history))
    _rebind(phase_records, records_counted)
    _rebind(enumerate_block_runs, enumerate_traced)
    _rebind(phase_sim.simulate_phase,
            spanned("phase_sim.simulate", phase_sim.simulate_phase, simulate_done))
    _rebind(block_check.check_block, spanned("block_check", block_check.check_block, check_done))
    _rebind(mstar.simulate_mstar, spanned("mstar.search", mstar.simulate_mstar, search_done))
    # verify_story answers ``mstar --story`` when the CLI calls it, and
    # re-verifies the winning story when simulate_mstar does.
    _rebind(verify_story, spanned("mstar.verify", verify_story), only={"tmlab.cli"})
    _rebind(verify_story, spanned("mstar.reverify", verify_story))
    for name in ("story_to_dict", "story_from_dict", "load_story", "lemma_to_dict",
                 "mstar_resources"):
        fn = getattr(reporting, name)
        _rebind(fn, spanned("reporting", fn))
    reporting.RunReport.to_json = spanned("reporting", reporting.RunReport.to_json)
