"""JSON report and story serialization shared by the CLI and tests.

One schema (``schema: 1``) covers run reports, crossing tables, simulator
results and story files; parsing a serialized report reproduces it
exactly.  A story file keeps one descriptor list per milestone, ``S_0 ..
S_{r+1}``, next to ``n``, ``P``, ``r`` and ``k``; reading it merges the
lists into the one phase-ordered walk a :class:`~tmlab.crossing.History`
holds, and writing it filters them back out.

Reports are written by :func:`dumps`, whose output equals
``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte.  It exists
because CPython's C encoder runs only without ``indent``, and the
pure-Python encoder ``json`` falls back to was the costliest layer on
every benchmark workload.  Values must be of the exact built-in JSON
types and dict keys strings; anything else raises :class:`TypeError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from . import __version__
from .crossing import Descriptor, History, LemmaReport, Partition, merge_by_phase
from .mstar import MStarResult

SCHEMA = 1


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float repr -> JSON


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, written by exact-type dispatch."""
    return _write(obj, "\n")


def _write(o: Any, newline: str) -> str:
    """``o``'s JSON; ``newline`` starts a line at ``o``'s depth.  Each container
    joins its own items, so no chunk outlives the container that holds it."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        # encode_basestring_ascii raises TypeError on a key that is no str
        body = f",{inner}".join([f"{encode_basestring_ascii(key)}: {_write(o[key], inner)}"
                                 for key in sorted(o)])
        return f"{{{inner}{body}{newline}}}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + "  "
        body = f",{inner}".join([_write(item, inner) for item in o])
        return f"[{inner}{body}{newline}]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is float:
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


class StoryFormatError(ValueError):
    """A story file does not match the JSON story encoding."""


def story_to_dict(story: History) -> dict:
    part = story.partition
    milestones: list[list] = [[] for _ in range(part.r + 2)]
    for d in story.walk:  # one pass: S_j keeps the walk's phase order
        milestones[d.milestone].append(list(d.astuple()))
    return {
        "schema": SCHEMA,
        "kind": "story",
        "n": part.n,
        "P": part.P,
        "r": part.r,
        "k": story.k,
        "milestones": milestones,
    }


def _integer(value: Any) -> int:
    if type(value) is not int:  # a float, string or bool is no JSON integer
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def story_from_dict(data: Any) -> History:
    """Read a story file's lists ``S_0 .. S_{r+1}`` back into one walk.

    Each list must name its own milestone and be in phase order, and ``k``
    must be the walk's last phase; whether the walk is a story is left to
    :func:`tmlab.mstar.verify_story`.
    """
    if not isinstance(data, dict) or data.get("kind") != "story":
        raise StoryFormatError("expected an object with kind 'story'")
    if type(data.get("schema")) is not int or data["schema"] != SCHEMA:
        raise StoryFormatError(f"unsupported schema {data.get('schema')!r}")
    try:
        n, P, r, k = (_integer(data[f]) for f in ("n", "P", "r", "k"))
        lists = [tuple(Descriptor(*map(_integer, (p, j, i, d))) for p, j, i, d in entries)
                 for entries in data["milestones"]]
        partition = Partition(P=P, n=n, r=r)
    except (KeyError, TypeError, ValueError) as err:
        raise StoryFormatError(f"malformed story file: {err}") from None
    if len(lists) != r + 2:
        raise StoryFormatError(f"expected milestone lists H_0..H_{r + 1}")
    misplaced = [f"descriptor {d.astuple()} is listed under S_{j} but names milestone {d.milestone}"
                 for j, entries in enumerate(lists) for d in entries if d.milestone != j]
    if misplaced:
        raise StoryFormatError("; ".join(misplaced))
    for j, entries in enumerate(lists):
        if any(b.phase < a.phase for a, b in zip(entries, entries[1:])):
            raise StoryFormatError(f"S_{j} is not in phase order")
    story = History(partition=partition, walk=merge_by_phase(*lists))
    if story.k != k:
        raise StoryFormatError(f"k={k} is not the last phase {story.k} of the story's walk")
    return story


def load_story(text: str) -> History:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise StoryFormatError(f"story file is not valid JSON: {err}") from None
    return story_from_dict(data)


@dataclass(frozen=True)
class RunReport:
    """Everything one CLI invocation reports; round-trips through JSON."""

    machine: str
    input: str
    mode: str                      # direct | crossings | mstar | verify-story | normalize
    verdict: str                   # accepted | rejected | resource-cap | error
    n: Optional[int] = None
    resources: dict = field(default_factory=dict)
    k_table: Optional[list] = None          # [[P, k], ...]
    lemma: Optional[dict] = None
    story: Optional[dict] = None
    constants: Optional[dict] = None
    notes: Optional[str] = None
    schema: int = SCHEMA
    tool_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "tool_version": self.tool_version,
            "machine": self.machine,
            "input": self.input,
            "mode": self.mode,
            "verdict": self.verdict,
            "n": self.n,
            "resources": self.resources,
            "k_table": self.k_table,
            "lemma": self.lemma,
            "story": self.story,
            "constants": self.constants,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())


def report_from_dict(data: dict) -> RunReport:
    if type(data.get("schema")) is not int or data["schema"] != SCHEMA:  # true and 1.0 equal 1
        raise ValueError(f"unsupported report schema {data.get('schema')!r}")
    return RunReport(
        machine=data["machine"],
        input=data["input"],
        mode=data["mode"],
        verdict=data["verdict"],
        n=data.get("n"),
        resources=data.get("resources") or {},
        k_table=data.get("k_table"),
        lemma=data.get("lemma"),
        story=data.get("story"),
        constants=data.get("constants"),
        notes=data.get("notes"),
        schema=data["schema"],
        tool_version=data.get("tool_version", __version__),
    )


def report_from_json(text: str) -> RunReport:
    return report_from_dict(json.loads(text))


def lemma_to_dict(rep: LemmaReport) -> dict:
    return {
        "n": rep.n,
        "k_table": [[P, rep.per_P[P]] for P in sorted(rep.per_P)],
        "sum": rep.sum,
        "best_P": rep.best_P,
        "holds": rep.holds,
        "total_crossings": rep.total_crossings,
        "sum_identity_ok": rep.sum_identity_ok,
        "sum_within_square": rep.sum_within_square,
    }


def mstar_resources(result: MStarResult) -> dict:
    out = {
        "budget": result.budget,
        "wall_stats": result.wall_stats,
        "budget_exhausted": result.budget_exhausted,
    }
    if result.accepted:
        out.update({
            "sim_time": result.sim_time,
            "sim_space": result.sim_space,
            "phase_steps": result.phase_steps,
            "guess_cost": result.guess_cost,
            "overhead_steps": result.overhead_steps,
            "story_size": result.story_size,
        })
    if result.failed_block is not None:
        out["failed_block"] = result.failed_block
    if result.failed_phase is not None:
        out["failed_phase"] = result.failed_phase
        out["reject_reason"] = result.reject_reason.value
    if result.complete_walk_P is not None:
        out["complete_walk_P"] = result.complete_walk_P
    return out
