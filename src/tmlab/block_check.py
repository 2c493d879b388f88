"""Coherence checking of one block's story.

A block story claims the block was visited a number of times, each visit
framed by an in-crossing and an out-crossing.  The checker threads block
contents through the visits: starting from the block's initial content it
runs each visit with the phase simulator, branching over every accepted
post-content, and accepts when some chain of choices survives all visits
within the step budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .crossing import BlockStory, Partition, StoryStructureError
from .ntm_core import BLANK, Machine, NodeBudget
from .phase_sim import (
    InconsistentDescriptors,
    RejectReason,
    simulate_phase,
    validate_descriptor_pair,
)


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


def _validate_block_story(bs: BlockStory):
    if len(bs.entries) % 2 != 0:
        raise StoryStructureError(f"block {bs.block}: odd number of descriptors")
    for d_in, d_out in bs.pairs():
        if d_out.phase != d_in.phase + 1:
            raise StoryStructureError(
                f"block {bs.block}: visit entered at phase {d_in.phase} must leave at "
                f"phase {d_in.phase + 1}", phase=d_out.phase)
        try:
            framed = validate_descriptor_pair(d_in, d_out)
        except InconsistentDescriptors as err:
            raise StoryStructureError(f"block {bs.block}: {err}", phase=d_in.phase) from None
        if framed != bs.block:
            raise StoryStructureError(
                f"block {bs.block}: visit at phase {d_in.phase} frames block {framed}",
                phase=d_in.phase)
    phases = [d.phase for d in bs.entries]
    if any(b <= a for a, b in zip(phases, phases[1:])):
        raise StoryStructureError(f"block {bs.block}: phase numbers must strictly increase")


def check_block(m: Machine, bs: BlockStory, x0: str, budget: int,
                work: Optional[NodeBudget] = None) -> list[BlockCheckResult]:
    """Search for content chains realizing every visit of ``bs``.

    Returns accepted results deduplicated by final content (cheapest chain
    kept), or a single non-accepted result whose ``budget_exhausted`` flag
    tells whether a larger budget could still change the verdict and
    whose ``failed_phase`` and ``reject_reason`` say where and why the
    deepest chain stopped.  An empty story accepts vacuously with the chain
    ``[x0]``.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    _validate_block_story(bs)
    pairs = bs.pairs()
    if not pairs:
        return [BlockCheckResult(True, (x0,), 0)]

    results: dict[str, BlockCheckResult] = {}
    saw_cap = False
    deepest = (-1, None)  # first visit index no chain got past, at the greatest depth, and why

    def descend(idx: int, content: str, spent: int,
                chain: tuple[str, ...], picks: tuple[tuple[int, ...], ...]):
        nonlocal saw_cap, deepest
        if idx == len(pairs):
            candidate = BlockCheckResult(True, chain, spent, picks)
            prev = results.get(content)
            if prev is None or (candidate.steps_consumed, candidate.choices_per_visit) < (
                    prev.steps_consumed, prev.choices_per_visit):
                results[content] = candidate
            return
        remaining = budget - spent
        if remaining < 1:
            saw_cap = True
            if idx > deepest[0]:
                deepest = (idx, RejectReason.STEP_CAP_EXCEEDED)
            return
        d_in, d_out = pairs[idx]
        outcomes = simulate_phase(m, d_in, d_out, content, step_cap=remaining, work=work)
        passed = False
        for out in outcomes:
            if out.accepted:
                passed = True
                descend(idx + 1, out.result, spent + out.steps,
                        chain + (out.result,), picks + (out.choices,))
            elif out.reject_reason is RejectReason.STEP_CAP_EXCEEDED:
                saw_cap = True
        if not passed and idx > deepest[0]:
            deepest = (idx, outcomes[0].reject_reason)

    descend(0, x0, 0, (x0,), ())
    if results:
        return list(results.values())
    idx, reason = deepest
    return [BlockCheckResult(False, None, 0, (), budget_exhausted=saw_cap,
                             failed_phase=pairs[idx][0].phase, reject_reason=reason)]
