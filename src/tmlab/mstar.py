"""Guess-and-verify simulation: enumerate stories, check every block.

Given a machine, an input ``w`` and a scale ``n >= len(w)``, the simulator
looks for an accepting *story*: a claimed crossing sequence, one
:class:`~tmlab.crossing.History` walk, with some first block length ``P``
and at most ``n + n % 2`` phases, opened by ``(1,0,0,+1)`` and closed by
the accepting exit ``(k,0,1,-1)``.  A story is verified by checking each
block's visits independently, and the whole run is charged
against a shared budget of ``n**2`` simulated machine steps, the same step
counting the direct search uses.

The nondeterministic "guess a story" becomes a deterministic canonical
enumeration: first block lengths ascending, then phase counts ascending,
then stories ordered lexicographically by their phase-ordered descriptor
tuples ``(milestone, state, delta)``.  For each first block length one
walk extends story prefixes phase by phase, each level in lexicographic
order, and the first prefix that can close wins; so every prefix is
examined once per first block length, and ``wall_stats`` counts each
once.  A prefix carries one frontier per visited block, the contents the
block can hold with the cheapest way to each, and each phase advances
its block's frontier with :func:`tmlab.block_check.advance_frontier`, the
same visit step :func:`tmlab.block_check.check_block` uses; the node cap
is charged once per phase run in search and in verification alike.  The
walk prunes prefixes whose phases cannot be realized at all, which never
changes which story is found first, and the winner is re-verified
through the block-by-block pipeline to produce the reported result.

A walk that finds no story, and whose last level has no prefix left to
extend, is not cut by the phase bound: the ``n**2`` budget (a content is
dropped only when its steps plus the other blocks' fewest steps exceed
it) ended every computation, which does not depend on ``P``.  So no first
block length accepts, and the search rejects at once, naming that walk's
``P`` in ``MStarResult.complete_walk_P``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .block_check import advance_frontier, check_block, initial_block_content, start_frontier
from .crossing import (
    Descriptor,
    History,
    OPENER,
    Partition,
    block_story,
    exit_milestone,
)
from .ntm_core import (
    DEFAULT_NODE_CAP,
    LEFT,
    NodeBudget,
    RIGHT,
    Machine,
    input_tape,
)
from .phase_sim import RejectReason


class InvalidStoryError(ValueError):
    """A story is not an accepting walk of the machine."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def descriptor_constant(m: Machine) -> int:
    """Symbols needed to encode one story descriptor for this machine.

    Descriptors are laid out milestone by milestone in phase order, so only
    the state (digits of the largest state id) plus a direction sign and a
    separator need storing; the constant depends on the machine alone.
    """
    return len(str(m.state_count - 1)) + 2


@dataclass(frozen=True)
class MStarResult:
    accepted: bool
    winning: Optional[History]
    sim_time: Optional[int]          # guess cost + per-call overhead + phase steps
    sim_space: Optional[int]         # max(block window incl. sentinels, story size)
    descriptor_constant: int
    wall_stats: int                  # search effort: story prefixes examined
    budget: int
    phase_steps: Optional[int] = None
    guess_cost: Optional[int] = None
    overhead_steps: Optional[int] = None
    story_size: Optional[int] = None
    witness_choices: tuple[tuple[int, ...], ...] = ()   # per phase, phases 1..k-1
    failed_block: Optional[int] = None
    failed_phase: Optional[int] = None               # deepest visit of failed_block no chain passed
    reject_reason: Optional[RejectReason] = None     # why that visit's first outcome was rejected
    budget_exhausted: bool = False
    complete_walk_P: Optional[int] = None            # P whose uncut, empty walk ended the search


def story_from_history(history: History) -> History:
    """Trim an extracted accepting history down to a verifiable story.

    Drops the spare blocks a replay partition materializes, keeping the
    blocks actually visited.  Raises :class:`InvalidStoryError` when the
    history does not end in the accepting exit.
    """
    h0 = history.milestone(0)
    if len(h0) != 2 or h0[0] != OPENER or h0[1].state != 1 or h0[1].delta != LEFT:
        raise InvalidStoryError(["history does not close with the accepting exit"])
    return _story(history.partition.n, history.partition.P, history.walk[1:])


def _story(n: int, P: int, descriptors) -> History:
    """The story of phases ``2..k``'s descriptors, in phase order, the last
    being the accepting exit: the opener goes first, and the blocks run up
    to the one past the rightmost milestone crossed."""
    r = max(d.milestone for d in descriptors) + 1
    return History(partition=Partition(P=P, n=n, r=r), walk=(OPENER, *descriptors))


def _story_problems(m: Machine, story: History) -> list[str]:
    """What keeps ``story`` from being an accepting story of ``m``: the
    visited-block count ``r``, the accepting ``S_0``, the states, and the
    walk itself through :meth:`History.violations`.

    Stories with more than ``n + n % 2`` phases are still verifiable
    (crossing histories of slow runs have more phases), so no upper bound
    is put on ``k``.
    """
    r, k = story.partition.r, story.k
    closer = Descriptor(phase=k, milestone=0, state=1, delta=LEFT)
    out = []
    if r > max(1, k - 1):
        out.append(f"visited-block count r={r} must lie in 1..{max(1, k - 1)}")
    if story.milestone(0) != (OPENER, closer):
        out.append(f"accepting story must have S_0 = ({OPENER.astuple()}, {closer.astuple()})")
    out.extend(f"descriptor {d.astuple()} names state outside the machine"
               for d in story.walk if not 0 <= d.state < m.state_count)
    return out + story.violations()


def _accounting(m: Machine, story: History, phase_steps: int) -> dict:
    c = descriptor_constant(m)
    story_size = c * len(story.walk)
    part = story.partition
    window = max(part.block_length(j) for j in range(1, part.r + 1)) + 2
    overhead = part.r + story.k
    # guessing writes the header's digits, then the story
    cost = sum(len(str(x)) for x in (part.n * part.n, part.P, part.r, story.k)) + story_size
    return dict(
        sim_time=cost + overhead + phase_steps,
        sim_space=max(window, story_size),
        phase_steps=phase_steps,
        guess_cost=cost,
        overhead_steps=overhead,
        story_size=story_size,
        descriptor_constant=c,
    )


def verify_story(m: Machine, w: str, story: History, budget: Optional[int] = None,
                 node_cap: int = DEFAULT_NODE_CAP) -> MStarResult:
    """Check one story by verifying each of its blocks independently.

    Raises :class:`InvalidStoryError` unless the story is an accepting
    walk of ``m`` (:meth:`History.violations` among its checks), so every
    block checked is one of the walk's blocks ``1..r`` and its visits pair
    up.  All blocks share one
    cumulative budget of simulated machine steps (default ``n**2``).
    Accepts iff every block's visit chain can be realized within it; the
    result carries the time/space accounting of the accepting branch.

    Why that suffices: with ``S_j^±`` milestone ``j``'s right/left-going
    crossings, checking block ``j+1`` gives ``S_j^+ ∧ S_{j+1}^- ⇒ S_j^- ∧
    S_{j+1}^+`` (vacuous at ``j = r``).  Chained, each interior side occurs
    once on each side and cancels, leaving ``S_0^+ → S_0^-``; the opener
    ``S_0^+`` holds by definition, so the accepting exit is realizable.
    """
    partition = story.partition
    problems = _story_problems(m, story)
    if len(w) > partition.n:
        problems.append(f"story scale n={partition.n} is below the input length {len(w)}")
    if problems:
        raise InvalidStoryError(problems)
    if budget is None:
        budget = partition.n * partition.n
    if budget < 0:
        raise ValueError("budget must be >= 0")
    c = descriptor_constant(m)
    work = NodeBudget(node_cap, "story verification")

    total_steps = 0
    choices_by_phase: dict[int, tuple[int, ...]] = {}
    for j in range(1, partition.r + 1):
        bs = block_story(story, j)
        x0 = initial_block_content(j, partition, w)
        results = check_block(m, bs, x0, budget - total_steps, work=work)
        if not results[0].accepted:
            failed, = results
            return MStarResult(accepted=False, winning=None, sim_time=None, sim_space=None,
                               descriptor_constant=c, wall_stats=1, budget=budget,
                               failed_block=j, failed_phase=failed.failed_phase,
                               reject_reason=failed.reject_reason,
                               budget_exhausted=failed.budget_exhausted)
        best = min(results, key=lambda res: res.steps_consumed)  # the first of the cheapest
        total_steps += best.steps_consumed
        for (d_in, _d_out), picks in zip(bs.pairs(), best.choices_per_visit):
            choices_by_phase[d_in.phase] = picks

    witness = tuple(choices_by_phase.get(p, ()) for p in range(1, story.k))
    return MStarResult(accepted=True, winning=story, wall_stats=1, budget=budget,
                       witness_choices=witness, **_accounting(m, story, total_steps))


# ---------------------------------------------------------------------------
# canonical story enumeration with realizability pruning


class _StorySearch:
    def __init__(self, m: Machine, w: str, n: int, budget: int, node_cap: int):
        self.m = m
        self.w = w
        self.n = n
        self.budget = budget
        self.work = NodeBudget(node_cap, "story search")
        self.prefixes = 0

    def find(self, P: int, kmax: int) -> Optional[tuple[list[Descriptor], int]]:
        """Fewest-phase, then lexicographically first, story for ``P``.

        Walks the story prefixes level by level, up to ``kmax - 1`` phases:
        level ``j`` holds every realizable prefix of ``j`` phases, in
        lexicographic order.  Once a prefix is fixed its blocks evolve
        independently and share only the step budget, so a prefix carries
        one frontier per visited block (see :mod:`tmlab.block_check`).  A
        phase advances the active block's frontier by one visit: a content
        may run iff its steps plus the other blocks' fewest steps fit the
        budget, which is exact.  A prefix's frontiers do not depend on how
        many phases the story will have, so the first prefix that can close
        on the shallowest level is the first story in canonical order, and
        each prefix is examined once.  Returns the descriptors of phases
        ``2..k`` and the fewest steps that realize them; ``self.cut`` says
        whether a last-level prefix had an exit the phase bound cut off.
        """
        self.cut = False
        level = [(1, OPENER, {}, [])]   # block, in-crossing, frontier per visited block, prefix
        for phase in range(1, kmax):
            children = []
            for block, d_in, frontiers, prefix in level:
                self.prefixes += 1
                others = sum(min(steps for steps, _, _ in f.values())
                             for j, f in frontiers.items() if j != block)
                frontier = frontiers.get(block) or start_frontier(
                    initial_block_content(block, Partition(P=P, n=self.n, r=block), self.w))
                exits = advance_frontier(self.m, d_in, block, frontier,
                                         self.budget - others, self.work).exits
                closing = exits.get((LEFT, 1)) if block == 1 else None
                if closing:
                    closer = Descriptor(phase=phase + 1, milestone=0, state=1, delta=LEFT)
                    steps = others + min(steps for steps, _, _ in closing.values())
                    return prefix + [closer], steps
                # the tape edge is no milestone: only the accepting closer may use it
                moves = [(delta, state) for delta, state in exits if block > 1 or delta == RIGHT]
                if phase == kmax - 1:
                    self.cut = self.cut or bool(moves)  # the last level only closes: moves are cut
                    continue
                for milestone, state, delta in sorted((exit_milestone(block, delta), state, delta)
                                                      for delta, state in moves):
                    nxt = Descriptor(phase=phase + 1, milestone=milestone, state=state, delta=delta)
                    children.append((block + delta, nxt, {**frontiers, block: exits[delta, state]},
                                     prefix + [nxt]))
            if not children:
                break
            level = children
        return None


def simulate_mstar(m: Machine, w: str, n: int, node_cap: int = DEFAULT_NODE_CAP) -> MStarResult:
    """Search the story space and verify the first candidate that fits.

    Equivalent to asking whether the direct bounded search accepts within
    ``n**2`` steps: the enumeration is pruned by phase realizability, which
    cannot skip a verifiable story, and the phase bound ``n + n % 2`` cuts
    no accepting run.  Each completed move crosses a milestone of exactly
    one partition, so ``sum_P k(P) = moves + 2n <= n**2 + 2n - 1`` and
    some ``k(P) <= n + 1``; and every ``k(P)`` of an accepting run is even,
    since its walk leaves block 1 and comes back one block at a time.  It
    rejects at the first empty walk the phase bound did not cut: there the
    ``n**2`` budget ended every computation, and no ``P`` changes a
    computation.  Raises :class:`ResourceCapExceeded` when the search
    effort passes ``node_cap``.
    """
    if n < 1:
        raise ValueError("scale n must be >= 1")
    if len(w) > n:
        raise ValueError(f"scale n must be at least the input length ({len(w)})")
    input_tape(m, w)  # rejects symbols outside the alphabet
    budget = n * n
    kmax = n + n % 2

    search = _StorySearch(m, w, n, budget, node_cap)
    for P in range(1, n + 1):
        found = search.find(P, kmax)
        if found is not None or not search.cut:  # an uncut walk that finds nothing ends it
            break
    if found is None:
        return MStarResult(accepted=False, winning=None, sim_time=None, sim_space=None,
                           descriptor_constant=descriptor_constant(m),
                           wall_stats=search.prefixes, budget=budget,
                           complete_walk_P=None if search.cut else P)
    descriptors, steps = found
    result = verify_story(m, w, _story(n, P, descriptors), budget, node_cap=node_cap)
    assert result.accepted, "search found a story the verifier rejects"
    assert result.phase_steps == steps, \
        "search and verifier disagree on the cheapest realization"
    return replace(result, wall_stats=search.prefixes)
