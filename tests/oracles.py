"""Independent oracles used by the tests.

These deliberately avoid the configuration search, the phase simulator
and the block checker: runs and block feasibility are decided by running
the machine on absolute tape cells with :func:`tmlab.step`, enumerating
every nondeterministic choice sequence.  The one exception is
:func:`first_verified_story`, which checks the story *search* against
the story verifier it trusts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from tmlab import (
    BLANK,
    Configuration,
    Descriptor,
    DetRule,
    Halt,
    History,
    LEFT,
    Machine,
    MilestoneHistory,
    MStarResult,
    OPENER,
    Partition,
    RIGHT,
    StoryGuess,
    step,
    validate_normal_form,
    verify_story,
)


@dataclass(frozen=True)
class OracleRun:
    time: int
    space: int
    choices: tuple[int, ...]


def least_accepting_run(m: Machine, w: str, max_time: int) -> Optional[OracleRun]:
    """The accepting computation with the fewest steps, then the least choices.

    Tries the choice sequences in ascending order at step bounds 1, 2, ...,
    ``max_time``, and returns the first computation that accepts within
    the bound.
    """

    def rec(config: Configuration, steps: int, bound: int, choices: tuple[int, ...],
            visited: frozenset) -> Optional[OracleRun]:
        if steps == bound:
            return None
        if m.is_branch_state(config.state):
            for idx in range(len(m.branches[config.state])):
                found = rec(step(m, config, idx), steps + 1, bound, choices + (idx,), visited)
                if found is not None:
                    return found
            return None
        nxt = step(m, config)
        if isinstance(nxt, Halt):
            return OracleRun(steps + 1, len(visited), choices) if nxt.accepting else None
        return rec(nxt, steps + 1, bound, choices, visited | {nxt.head})

    start = Configuration(state=0, head=1, tape={i + 1: s for i, s in enumerate(w)})
    for bound in range(1, max_time + 1):
        found = rec(start, 0, bound, (), frozenset({1}))
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class OracleStop:
    kind: str               # "exit" | "halt"
    delta: Optional[int]
    state: int
    content: str
    steps: int


def block_stops(m: Machine, partition: Partition, j: int, entry_state: int,
                entry_delta: int, content: str, step_cap: int) -> list[OracleStop]:
    """All stops of the machine running inside block ``j``'s real cells."""
    lo, hi = partition.block_range(j)
    assert hi - lo + 1 == len(content)
    tape = {lo + idx: s for idx, s in enumerate(content)}
    start = Configuration(state=entry_state,
                          head=lo if entry_delta == RIGHT else hi,
                          tape=tape)
    stops: list[OracleStop] = []

    def snapshot(tp):
        return "".join(tp.get(c, BLANK) for c in range(lo, hi + 1))

    def rec(config: Configuration, steps: int):
        if m.is_branch_state(config.state):
            if steps >= step_cap:
                return
            for idx in range(len(m.branches[config.state])):
                nxt = step(m, config, idx)
                rec(nxt, steps + 1)
            return
        rule = m.rule_for(config.state, config.scanned())
        if rule is None:
            stops.append(OracleStop("halt", None, config.state, snapshot(config.tape), steps))
            return
        if steps >= step_cap:
            return
        nxt = step(m, config)
        if isinstance(nxt, Halt):
            # left-move attempt from cell 1; only possible when lo == 1
            stops.append(OracleStop("exit", LEFT, config.state, snapshot(config.tape), steps + 1))
            return
        if nxt.head < lo:
            stops.append(OracleStop("exit", LEFT, nxt.state, snapshot(nxt.tape), steps + 1))
            return
        if nxt.head > hi:
            stops.append(OracleStop("exit", RIGHT, nxt.state, snapshot(nxt.tape), steps + 1))
            return
        rec(nxt, steps + 1)

    rec(start, 0)
    return stops


def block_story_feasible(m: Machine, partition: Partition, j: int, pairs,
                         x0: str, budget: int) -> bool:
    """Does some choice of runs realize every (in, out) visit within budget?"""

    def matches(stop: OracleStop, d_out) -> bool:
        if stop.kind != "exit" or stop.delta != d_out.delta:
            return False
        want_milestone = j if d_out.delta == RIGHT else j - 1
        return d_out.milestone == want_milestone and stop.state == d_out.state

    def rec(idx: int, content: str, spent: int) -> bool:
        if idx == len(pairs):
            return True
        d_in, d_out = pairs[idx]
        if budget - spent < 1:
            return False
        for stop in block_stops(m, partition, j, d_in.state, d_in.delta, content,
                                budget - spent):
            if matches(stop, d_out) and rec(idx + 1, stop.content, spent + stop.steps):
                return True
        return False

    return rec(0, x0, 0)


def _story_shapes(m: Machine, k: int) -> list[list[Descriptor]]:
    """Every well-formed descriptor sequence of phases ``2..k``, in lex order.

    Phase ``p`` leaves its block through a guessed state and side; the
    walk must stay off the tape edge until phase ``k``, whose accepting
    closer leaves block 1 leftward in state 1.
    """
    moves = [(state, delta) for state in range(m.state_count) for delta in (LEFT, RIGHT)]
    shapes = []
    for walk in itertools.product(moves, repeat=k - 2):
        block, descriptors = 1, []
        for phase, (state, delta) in enumerate(walk, start=2):
            milestone = block if delta == RIGHT else block - 1
            block += delta
            descriptors.append(Descriptor(phase=phase, milestone=milestone, state=state, delta=delta))
        if block == 1 and all(d.milestone >= 1 for d in descriptors):
            shapes.append(descriptors + [Descriptor(phase=k, milestone=0, state=1, delta=LEFT)])
    return sorted(shapes, key=lambda ds: [d.astuple() for d in ds])


def first_verified_story(m: Machine, w: str, n: int, kmax: int) -> Optional[MStarResult]:
    """The first story :func:`tmlab.verify_story` accepts, without any pruning.

    Tries every well-formed story in the story search's order: first-block
    lengths ``P`` ascending, then phase counts ``k = 2..kmax``, then
    descriptor sequences in lexicographic order.
    """
    for P in range(1, n + 1):
        for k in range(2, kmax + 1):
            for descriptors in _story_shapes(m, k):
                r = 1 + max((d.milestone for d in descriptors if d.delta == RIGHT), default=0)
                milestones = tuple(
                    MilestoneHistory(milestone=j, entries=tuple(
                        ([OPENER] if j == 0 else []) + [d for d in descriptors if d.milestone == j]))
                    for j in range(r + 2))
                story = History(partition=Partition(P=P, n=n, r=r), milestones=milestones)
                result = verify_story(m, w, StoryGuess(n=n, P=P, r=r, k=k, story=story))
                if result.accepted:
                    return result
    return None


def random_machine(rng: random.Random, max_states: int = 7) -> Machine:
    """A random valid normal-form machine over the alphabet (0, a, b)."""
    state_count = rng.randint(3, max_states)
    alphabet = (BLANK, "a", "b")
    rules = {}
    branches = {}
    for q in range(state_count):
        if q >= 2 and rng.random() < 0.25:
            branches[q] = tuple(rng.randrange(state_count) for _ in range(rng.randint(2, 3)))
            continue
        for s in alphabet:
            roll = rng.random()
            if roll < 0.1:
                continue  # leave the pair without a rule
            if roll < 0.6:
                rules[(q, s)] = DetRule(next_state=rng.randrange(state_count),
                                        move=rng.choice((LEFT, RIGHT)))
            else:
                rules[(q, s)] = DetRule(next_state=rng.randrange(state_count),
                                        write=rng.choice(alphabet))
    m = Machine(name=f"random_{rng.randrange(10**6)}", state_count=state_count,
                alphabet=alphabet, rules=rules, branches=branches)
    assert not validate_normal_form(m)
    return m
