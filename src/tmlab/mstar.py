"""Guess-and-verify simulation: enumerate stories, check every block.

Given a machine, an input ``w`` and a scale ``n >= len(w)``, the simulator
looks for an accepting *story*: a claimed crossing history with some first
block length ``P``, at most ``max(2, n)`` phases, opened by ``(1,0,0,+1)``
and closed by the accepting exit ``(k,0,1,-1)``.  A story is verified by
checking each block's visits independently, and the whole run is charged
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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .block_check import advance_frontier, check_block, initial_block_content, start_frontier
from .crossing import (
    Descriptor,
    History,
    MilestoneHistory,
    OPENER,
    Partition,
    StoryStructureError,
    block_story,
    exit_milestone,
)
from .ntm_core import (
    DEFAULT_NODE_CAP,
    LEFT,
    NodeBudget,
    RIGHT,
    Machine,
)
from .phase_sim import RejectReason


class InvalidStoryError(ValueError):
    """A story guess violates the story-shape invariants."""

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
class StoryGuess:
    """One candidate ``(n, P, r, k, story)`` for the simulator to verify."""

    n: int
    P: int
    r: int
    k: int
    story: History

    def closer(self) -> Descriptor:
        return Descriptor(phase=self.k, milestone=0, state=1, delta=LEFT)

    def descriptor_count(self) -> int:
        return sum(len(h.entries) for h in self.story.milestones)

    def violations(self, m: Optional[Machine] = None) -> list[str]:
        # Note: the story search only enumerates k up to max(2, n); larger
        # stories are still *verifiable* (crossing histories of slow runs
        # have more phases), so no upper bound is enforced here.
        out = []
        if self.n < 1:
            out.append("scale n must be >= 1")
        if not (1 <= self.P <= self.n):
            out.append(f"first block length P={self.P} must lie in 1..{self.n}")
        if self.k < 2:
            out.append(f"an accepting story has at least 2 phases, got k={self.k}")
        if not (1 <= self.r <= max(1, self.k - 1)):
            out.append(f"visited-block count r={self.r} must lie in 1..{max(1, self.k - 1)}")
        part = self.story.partition
        if (part.P, part.n, part.r) != (self.P, self.n, self.r):
            out.append("story partition disagrees with the guessed (P, n, r)")
            return out
        if len(self.story.milestones) != self.r + 2:
            out.append(f"story must carry milestone lists S_0..S_{self.r + 1}")
            return out
        s0 = self.story.milestone(0).entries
        if s0 != (OPENER, self.closer()):
            out.append(f"accepting story must have S_0 = ({OPENER.astuple()}, {self.closer().astuple()})")
        if self.story.milestone(self.r + 1).entries:
            out.append(f"S_{self.r + 1} must be empty")
        count = self.descriptor_count()
        if count > 2 * self.k:
            out.append(f"story carries {count} descriptors, more than 2k = {2 * self.k}")
        for j, h in enumerate(self.story.milestones):
            for d in h.entries:
                if d.milestone != j:
                    out.append(f"descriptor {d.astuple()} is listed under S_{j} "
                               f"but names milestone {d.milestone}")
                if not (1 <= d.phase <= self.k):
                    out.append(f"descriptor {d.astuple()} has phase outside 1..k")
                if not (0 <= d.milestone <= self.r):
                    out.append(f"descriptor {d.astuple()} names milestone outside 0..r")
                if d.delta not in (LEFT, RIGHT):
                    out.append(f"descriptor {d.astuple()} has direction outside -1/+1")
                if m is not None and not (0 <= d.state < m.state_count):
                    out.append(f"descriptor {d.astuple()} names state outside the machine")
        return out


@dataclass(frozen=True)
class MStarResult:
    accepted: bool
    winning: Optional[StoryGuess]
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
    structure_error: Optional[str] = None
    budget_exhausted: bool = False


def story_from_history(history: History) -> StoryGuess:
    """Repackage an extracted accepting history as a verifiable story.

    Trims the spare blocks a replay partition materializes down to the
    blocks actually visited, and reads ``k`` off the closing descriptor.
    Raises :class:`InvalidStoryError` when the history does not end in the
    accepting exit.
    """
    h0 = history.milestone(0).entries
    if len(h0) != 2 or h0[0] != OPENER or h0[1].state != 1 or h0[1].delta != LEFT:
        raise InvalidStoryError(["history does not close with the accepting exit"])
    return _story(history.partition.n, history.partition.P, history.descriptors()[1:])


def _story(n: int, P: int, descriptors: list[Descriptor]) -> StoryGuess:
    """The story of phases ``2..k``'s descriptors, in phase order, the last
    being the accepting exit: the opener joins milestone 0, and the blocks
    run up to the one past the rightmost milestone crossed."""
    r = max(d.milestone for d in descriptors) + 1
    per: list[list[Descriptor]] = [[] for _ in range(r + 2)]
    per[0].append(OPENER)
    for d in descriptors:
        per[d.milestone].append(d)
    milestones = tuple(MilestoneHistory(milestone=j, entries=tuple(entries))
                       for j, entries in enumerate(per))
    story = History(partition=Partition(P=P, n=n, r=r), milestones=milestones)
    return StoryGuess(n=n, P=P, r=r, k=descriptors[-1].phase, story=story)


def _guess_cost(guess: StoryGuess, c: int) -> int:
    digits = len(str(guess.n * guess.n)) + len(str(guess.P)) + len(str(guess.r)) + len(str(guess.k))
    return digits + c * guess.descriptor_count()


def _accounting(m: Machine, guess: StoryGuess, phase_steps: int) -> dict:
    c = descriptor_constant(m)
    story_size = c * guess.descriptor_count()
    window = max(guess.story.partition.block_length(j) for j in range(1, guess.r + 1)) + 2
    overhead = guess.r + guess.k
    cost = _guess_cost(guess, c)
    return dict(
        sim_time=cost + overhead + phase_steps,
        sim_space=max(window, story_size),
        phase_steps=phase_steps,
        guess_cost=cost,
        overhead_steps=overhead,
        story_size=story_size,
        descriptor_constant=c,
    )


def verify_story(m: Machine, w: str, guess: StoryGuess, budget: Optional[int] = None,
                 node_cap: int = DEFAULT_NODE_CAP) -> MStarResult:
    """Check one story by verifying each of its blocks independently.

    All blocks share one cumulative budget of simulated machine steps
    (default ``n**2``).  Accepts iff every block's visit chain can be
    realized within it; the result carries the time/space accounting of
    the accepting branch.
    """
    problems = guess.violations(m)
    if len(w) > guess.n:
        problems.append(f"story scale n={guess.n} is below the input length {len(w)}")
    if problems:
        raise InvalidStoryError(problems)
    if budget is None:
        budget = guess.n * guess.n
    if budget < 0:
        raise ValueError("budget must be >= 0")
    c = descriptor_constant(m)
    partition = guess.story.partition
    work = NodeBudget(node_cap, "story verification")

    total_steps = 0
    choices_by_phase: dict[int, tuple[int, ...]] = {}
    for j in range(1, guess.r + 1):
        try:
            bs = block_story(guess.story, j)
        except StoryStructureError as err:
            return MStarResult(accepted=False, winning=None, sim_time=None, sim_space=None,
                               descriptor_constant=c, wall_stats=1, budget=budget,
                               failed_block=j, structure_error=str(err))
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

    witness = tuple(choices_by_phase.get(p, ()) for p in range(1, guess.k))
    return MStarResult(accepted=True, winning=guess, wall_stats=1, budget=budget,
                       witness_choices=witness, **_accounting(m, guess, total_steps))


# ---------------------------------------------------------------------------
# the implication chain behind story verification


@dataclass(frozen=True)
class Implication:
    """``S_j^+ and S_{j+1}^- imply S_j^- and S_{j+1}^+`` for one ``j``."""

    index: int
    antecedent: tuple[str, str]
    succedent: tuple[str, str]
    holds: bool


@dataclass(frozen=True)
class ChainReport:
    implications: tuple[Implication, ...]
    occurrence_ok: bool   # every interior side occurs once per role
    reduced: str
    sound: bool


def implication_chain(guess: StoryGuess, block_verdicts: list[bool]) -> ChainReport:
    """Materialize the elimination chain that block verdicts feed.

    Implication ``j`` (0-based, ``j = 0..r``) is established by checking
    block ``j+1``; the last one is vacuous because milestone ``r+1`` has no
    crossings.  When every verdict holds, eliminating each interior
    ``S_j^+``/``S_j^-`` pair reduces the chain to ``S_0^+ -> S_0^-``: the
    opening crossing is true by definition, so the accepting exit is
    realizable.
    """
    r = guess.r
    if len(block_verdicts) != r:
        raise ValueError(f"expected {r} block verdicts, got {len(block_verdicts)}")
    implications = []
    for j in range(r + 1):
        holds = block_verdicts[j] if j < r else True
        implications.append(Implication(
            index=j,
            antecedent=(f"S_{j}^+", f"S_{j + 1}^-"),
            succedent=(f"S_{j}^-", f"S_{j + 1}^+"),
            holds=holds,
        ))
    antecedents: dict[str, int] = {}
    succedents: dict[str, int] = {}
    for imp in implications:
        for name in imp.antecedent:
            antecedents[name] = antecedents.get(name, 0) + 1
        for name in imp.succedent:
            succedents[name] = succedents.get(name, 0) + 1
    occurrence_ok = all(
        antecedents.get(f"S_{j}^{sign}", 0) == 1 and succedents.get(f"S_{j}^{sign}", 0) == 1
        for j in range(1, r + 1) for sign in "+-")
    return ChainReport(
        implications=tuple(implications),
        occurrence_ok=occurrence_ok,
        reduced="S_0^+ -> S_0^-",
        sound=all(block_verdicts),
    )


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
        ``2..k`` and the fewest steps that realize them.
        """
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
                if phase == kmax - 1:
                    continue  # the last level only closes
                # the tape edge is no milestone: only the accepting closer may use it
                for milestone, state, delta in sorted((exit_milestone(block, delta), state, delta)
                                                      for delta, state in exits
                                                      if block > 1 or delta == RIGHT):
                    nxt = Descriptor(phase=phase + 1, milestone=milestone, state=state, delta=delta)
                    children.append((block + delta, nxt, {**frontiers, block: exits[delta, state]},
                                     prefix + [nxt]))
            if not children:
                break
            level = children
        return None


def simulate_mstar(m: Machine, w: str, n: int, max_phases: Optional[int] = None,
                   node_cap: int = DEFAULT_NODE_CAP) -> MStarResult:
    """Search the story space and verify the first candidate that fits.

    Equivalent, by construction, to asking whether the direct bounded
    search accepts within ``n**2`` steps using at most ``max(2, n)`` phases
    under some first-block length: the enumeration is pruned by phase
    realizability, which cannot skip a verifiable story.  Raises
    :class:`ResourceCapExceeded` when the search effort passes ``node_cap``.
    """
    if n < 1:
        raise ValueError("scale n must be >= 1")
    if len(w) > n:
        raise ValueError(f"scale n must be at least the input length ({len(w)})")
    for s in w:
        if s not in m.alphabet:
            raise ValueError(f"input symbol {s!r} not in machine alphabet")
    budget = n * n
    kmax = max_phases if max_phases is not None else max(2, n)

    search = _StorySearch(m, w, n, budget, node_cap)
    for P in range(1, n + 1):
        found = search.find(P, kmax)
        if found is None:
            continue
        descriptors, steps = found
        guess = _story(n, P, descriptors)
        result = verify_story(m, w, guess, budget, node_cap=node_cap)
        assert result.accepted, "search found a story the verifier rejects"
        assert result.phase_steps == steps, \
            "search and verifier disagree on the cheapest realization"
        return replace(result, wall_stats=search.prefixes)
    return MStarResult(accepted=False, winning=None, sim_time=None, sim_space=None,
                       descriptor_constant=descriptor_constant(m),
                       wall_stats=search.prefixes, budget=budget)
