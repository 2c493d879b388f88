"""Coherence checking of one block's story, one visit at a time.

A block story claims the block was visited a number of times, each visit
framed by an in-crossing and an out-crossing.  Whether a whole story is
well formed is decided by :meth:`tmlab.crossing.History.violations`, and
whether one block story's pairs are by
:meth:`tmlab.crossing.BlockStory.check`; this module only asks whether the
visits can run.  The block's *frontier* maps every content it can hold
after the visits so far to the cheapest way there.
:func:`advance_frontier` is the one step that runs a block's visits: it
runs the visit's phase once from each content of the frontier and groups
the exits by side and state, each group being the frontier after the
visit.  :func:`check_block` applies it to each visit in turn, keeping the
group the story's out-crossing names; the story search of
:mod:`tmlab.mstar` applies it to the block each phase runs on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .crossing import BlockStory, Descriptor, Partition, exit_milestone
from .ntm_core import BLANK, Machine, NodeBudget, RawStop
from .phase_sim import RejectReason, enumerate_block_runs, reject_reason

# content -> its cheapest (steps, picks per visit, content chain); ties go to the least picks
Frontier = dict[str, tuple[int, tuple[tuple[int, ...], ...], tuple[str, ...]]]


def initial_block_content(j: int, partition: Partition, w: str) -> str:
    """Content of block ``j`` before the run starts.

    Block 1 holds the first ``P`` input symbols (blank-padded), block 2 the
    rest of the input (blank-padded to ``n``), and every later block is all
    blanks.
    """
    if not (1 <= j <= partition.r):
        raise ValueError(f"block index {j} outside materialized range 1..{partition.r}")
    size = partition.block_length(j)
    if j == 1:
        chunk = w[:partition.P]
    elif j == 2:
        chunk = w[partition.P:]
    else:
        chunk = ""
    if len(chunk) > size:
        raise ValueError(f"input does not fit blocks 1..2 of {partition}")
    return chunk + BLANK * (size - len(chunk))


@dataclass(frozen=True)
class BlockCheckResult:
    """One way (or failure) to realize a block story.

    ``content_chain`` lists the block's contents before/after each visit;
    ``choices_per_visit`` the branch picks of each visit's accepted phase
    run.  ``budget_exhausted`` distinguishes running out of steps from a
    genuinely incoherent story.  A rejection names the deepest visit no
    content chain got past, by its phase, and the :class:`RejectReason` of
    that visit's first phase outcome.
    """

    accepted: bool
    content_chain: Optional[tuple[str, ...]]
    steps_consumed: int
    choices_per_visit: tuple[tuple[int, ...], ...] = ()
    budget_exhausted: bool = False
    failed_phase: Optional[int] = None
    reject_reason: Optional[RejectReason] = None


def start_frontier(x0: str) -> Frontier:
    """A block before its first visit: its initial content, at no cost."""
    return {x0: (0, (), (x0,))}


class Visit(NamedTuple):
    exits: dict[tuple[int, int], Frontier]   # (side, state) -> the frontier after the visit
    capped: bool                             # the budget cut some computation short
    first: Optional[RawStop]                 # first stop from the first content, if it ran


def advance_frontier(m: Machine, d_in: Descriptor, block: int, frontier: Frontier,
                     budget: int, work: NodeBudget) -> Visit:
    """Advance a block's frontier by one visit entered through ``d_in``.

    Each content runs the phase once, within ``budget`` minus its steps so
    far, and is charged to ``work`` once per run besides its expansions.
    A content whose steps already use up ``budget`` does not run.
    """
    exits: dict[tuple[int, int], Frontier] = {}
    capped = False
    first = None
    for i, (x, (steps, picks, chain)) in enumerate(frontier.items()):
        cap = budget - steps
        if cap < 1:
            capped = True
            continue
        work.charge()
        for stop in enumerate_block_runs(m, d_in.state, d_in.delta, x, cap,
                                         left_is_edge=(block == 1), work=work):
            if i == 0 and first is None:
                first = stop
            if stop.kind == "cap":
                capped = True
            elif stop.kind == "exit":
                group = exits.setdefault((stop.delta, stop.state), {})
                cand = (steps + stop.steps, picks + (stop.choices,), chain + (stop.content,))
                prev = group.get(stop.content)
                if prev is None or cand[:2] < prev[:2]:
                    group[stop.content] = cand
    return Visit(exits, capped, first)


def check_block(m: Machine, bs: BlockStory, x0: str, budget: int,
                work: Optional[NodeBudget] = None) -> list[BlockCheckResult]:
    """Search for content chains realizing every visit of ``bs``.

    Returns accepted results deduplicated by final content (cheapest chain
    kept), or a single non-accepted result whose ``budget_exhausted`` flag
    tells whether a larger budget could still change the verdict and
    whose ``failed_phase`` and ``reject_reason`` say where and why the
    deepest chain stopped.  An empty story accepts vacuously with the chain
    ``[x0]``.  Raises :class:`~tmlab.crossing.StoryStructureError` when
    :meth:`BlockStory.check` does, which cannot happen for a block of a
    story that passes :meth:`~tmlab.crossing.History.violations`; a visit
    claiming to leave through the wrong milestone is rejected as it runs,
    as ``wrong-exit-*``.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    bs.check()
    work = work or NodeBudget(sys.maxsize)
    frontier = start_frontier(x0)
    saw_cap = False
    for d_in, d_out in bs.pairs():
        visit = advance_frontier(m, d_in, bs.block, frontier, budget, work)
        saw_cap |= visit.capped
        frontier = (visit.exits.get((d_out.delta, d_out.state), {})
                    if d_out.milestone == exit_milestone(bs.block, d_out.delta) else {})
        if not frontier:
            # every content failed this visit; name the first one's first outcome
            reason = (RejectReason.STEP_CAP_EXCEEDED if visit.first is None
                      else reject_reason(visit.first, d_out, bs.block))
            return [BlockCheckResult(False, None, 0, (), budget_exhausted=saw_cap,
                                     failed_phase=d_in.phase, reject_reason=reason)]
    return [BlockCheckResult(True, chain, steps, picks)
            for steps, picks, chain in frontier.values()]
