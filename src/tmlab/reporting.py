"""JSON report and story serialization shared by the CLI and tests.

One schema (``schema: 1``) covers run reports, crossing tables, simulator
results and story files; parsing a serialized report reproduces it
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from . import __version__
from .crossing import Descriptor, History, LemmaReport, MilestoneHistory, Partition
from .mstar import MStarResult, StoryGuess

SCHEMA = 1


class StoryFormatError(ValueError):
    """A story file does not match the JSON story encoding."""


def story_to_dict(guess: StoryGuess) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "story",
        "n": guess.n,
        "P": guess.P,
        "r": guess.r,
        "k": guess.k,
        "milestones": [[list(d.astuple()) for d in h.entries] for h in guess.story.milestones],
    }


def story_from_dict(data: Any) -> StoryGuess:
    if not isinstance(data, dict) or data.get("kind") != "story":
        raise StoryFormatError("expected an object with kind 'story'")
    if data.get("schema") != SCHEMA:
        raise StoryFormatError(f"unsupported schema {data.get('schema')!r}")
    try:
        n, P, r, k = (int(data[f]) for f in ("n", "P", "r", "k"))
        raw = data["milestones"]
        milestones = []
        for j, entries in enumerate(raw):
            descriptors = tuple(Descriptor(int(p), int(jj), int(i), int(d))
                                for p, jj, i, d in entries)
            milestones.append(MilestoneHistory(milestone=j, entries=descriptors))
    except (KeyError, TypeError, ValueError) as err:
        raise StoryFormatError(f"malformed story file: {err}") from None
    try:
        story = History(partition=Partition(P=P, n=n, r=r), milestones=tuple(milestones))
    except ValueError as err:
        raise StoryFormatError(f"malformed story file: {err}") from None
    return StoryGuess(n=n, P=P, r=r, k=k, story=story)


def load_story(text: str) -> StoryGuess:
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def report_from_dict(data: dict) -> RunReport:
    if data.get("schema") != SCHEMA:
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
    if result.structure_error is not None:
        out["structure_error"] = result.structure_error
    return out
