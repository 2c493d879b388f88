"""Simulation of one phase on one sentinel-delimited block.

The engine runs the machine on a working string ``<X>`` whose sentinels
stand where the block's neighbor cells would be.  Simulation stops when
the machine halts inside the block or when a move lands on a sentinel;
an outcome is accepted when the landing matches the expected out-crossing
(side, milestone and state).  Which block a descriptor pair frames and
which milestone an exit crosses are the story-shape rules of
:mod:`tmlab.crossing`; this module only runs a phase against them.

For block 1 the left sentinel is the left end of the tape, so landing on
it means the real machine halts: the state checked there is the one the
move was attempted in, which makes the accepting exit carry state 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from .crossing import Descriptor, exit_milestone, validate_descriptor_pair
from .ntm_core import LEFT, RIGHT, Machine, NodeBudget, RawStop, search_configurations


class RejectReason(enum.Enum):
    HALTED_INSIDE = "halted-inside"
    WRONG_STATE = "wrong-state"
    WRONG_EXIT_LEFT = "wrong-exit-left"     # landed on the left sentinel, expected elsewhere
    WRONG_EXIT_RIGHT = "wrong-exit-right"   # landed on the right sentinel, expected elsewhere
    STEP_CAP_EXCEEDED = "step-cap-exceeded"


@dataclass(frozen=True)
class PhaseOutcome:
    accepted: bool
    result: Optional[str]            # block content X* when accepted
    steps: int                       # applied rules, including the exit move
    reject_reason: Optional[RejectReason] = None
    exit_delta: Optional[int] = None
    exit_state: Optional[int] = None
    content: Optional[str] = None    # content at stop time, accepted or not
    choices: tuple[int, ...] = ()


def enumerate_block_runs(m: Machine, start_state: int, enter_delta: int, x: str,
                         step_cap: int, left_is_edge: bool,
                         work: Optional[NodeBudget] = None) -> Iterator[RawStop]:
    """Run the machine inside ``<x>``, yielding every distinct stop.

    The head starts on the first cell of ``x`` when entering rightward and
    on its last cell when entering leftward.  ``left_is_edge`` marks block
    1, where landing on the left sentinel reports the pre-move state.
    Stops come from :func:`search_configurations`, in order of fewest
    steps, then least branch choices, so the first stop with a given
    content, state and side is its cheapest realization.  ``step_cap``
    bounds each computation's depth, and a ``work`` budget bounds the
    configurations expanded.
    """
    if not x:
        raise ValueError("block content must be nonempty")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    yield from search_configurations(m, start_state, 0 if enter_delta == RIGHT else len(x) - 1,
                                     x, step_cap, width=len(x), left_is_edge=left_is_edge,
                                     work=work)


def reject_reason(stop: RawStop, d_out: Descriptor, block: int) -> Optional[RejectReason]:
    """Why ``stop`` does not leave ``block`` through ``d_out``; None when it does."""
    if stop.kind == "halt":
        return RejectReason.HALTED_INSIDE
    if stop.kind == "cap":
        return RejectReason.STEP_CAP_EXCEEDED
    if stop.delta != d_out.delta or d_out.milestone != exit_milestone(block, d_out.delta):
        return RejectReason.WRONG_EXIT_LEFT if stop.delta == LEFT else RejectReason.WRONG_EXIT_RIGHT
    if stop.state != d_out.state:
        return RejectReason.WRONG_STATE
    return None


def simulate_phase(m: Machine, d_in: Descriptor, d_out: Descriptor, x: str,
                   step_cap: int, work: Optional[NodeBudget] = None) -> list[PhaseOutcome]:
    """Enumerate every distinct way one phase can run on ``x``.

    Accepted outcomes leave the block through the sentinel named by
    ``d_out`` (left sentinel and milestone ``block-1`` for ``delta == -1``,
    right sentinel and milestone ``block`` for ``delta == +1``) in state
    ``d_out.state``; everything else is returned rejected with a reason.
    Outcomes are deduplicated on ``(content, state, exit side)``, keeping
    the cheapest realization, and listed in order of fewest steps, then
    lexicographically least choices: the order stops arrive in, so the
    first arrival of an outcome is its cheapest.
    """
    block = validate_descriptor_pair(d_in, d_out)
    seen: dict[tuple, PhaseOutcome] = {}
    for stop in enumerate_block_runs(m, d_in.state, d_in.delta, x, step_cap,
                                     left_is_edge=(block == 1), work=work):
        reason = reject_reason(stop, d_out, block)
        key = (reason is None, reason, stop.content, stop.state, stop.delta)
        if key not in seen:
            seen[key] = PhaseOutcome(reason is None, stop.content if reason is None else None,
                                     stop.steps, reason, stop.delta, stop.state, stop.content,
                                     stop.choices)
    return list(seen.values())
