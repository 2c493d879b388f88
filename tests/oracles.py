"""Independent oracles used by the tests.

These deliberately avoid the configuration search, the phase simulator
and the block checker: runs and block feasibility are decided by running
the machine on absolute tape cells with :func:`step`, this module's own
one-configuration-at-a-time copy of the step semantics, enumerating
every nondeterministic choice sequence; :func:`block_search` instead
builds every level of configurations up to its cap, picking each one's
least choices with ``min``.  Crossings and phase counts come from
:func:`crossing_walk`, which re-runs a trace's choices through
:func:`step` and finds each milestone by scanning the blocks' cell
ranges, never from :func:`tmlab.extract_history`,
:func:`tmlab.phase_records` or the one-pass table of
:func:`tmlab.check_phase_lemma` they check.  A single computation is
replayed one :func:`step` call at a time, never through the in-place
loop of :func:`tmlab.run_with_choices`.  A general machine is decided
by :func:`general_accepts`, on the same absolute cells with the general
transition semantics, never through :func:`tmlab.normalize`.  The one
exception is :func:`first_verified_story`, which checks the story
*search* against the story verifier it trusts;
``test_oracle_independence.py`` keeps every other engine out of this
module's imports.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Union

from tmlab import (
    BLANK,
    Configuration,
    Descriptor,
    DetRule,
    GeneralMachine,
    HaltReason,
    History,
    LEFT,
    Machine,
    MStarResult,
    OPENER,
    Partition,
    RIGHT,
    Trace,
    machine_to_text,
    parse_machine,
    verify_story,
)


# ---------------------------------------------------------------------------
# one step at a time


def is_branch_state(m: Machine, state: int) -> bool:
    return state in m.branches


def rule_for(m: Machine, state: int, symbol: str) -> Optional[DetRule]:
    return m.rules.get((state, symbol))


def scanned(c: Configuration) -> str:
    return c.tape.get(c.head, BLANK)


def initial_configuration(m: Union[Machine, GeneralMachine], w: str) -> Configuration:
    for s in w:
        if s not in m.alphabet:
            raise ValueError(f"input symbol {s!r} not in machine alphabet")
    return Configuration(state=0, head=1, tape={i + 1: s for i, s in enumerate(w)})


def step(m: Machine, c: Configuration, choice: Optional[int] = None) -> Union[Configuration, HaltReason]:
    """Apply exactly one rule to ``c``: the next configuration, or why the run halts.

    ``choice`` must be given iff ``c.state`` is nondeterministic, and then
    indexes that state's branch list.
    """
    if is_branch_state(m, c.state):
        succs = m.branches[c.state]
        if choice is None:
            raise ValueError(f"state {c.state} is nondeterministic; a branch choice is required")
        if not (0 <= choice < len(succs)):
            raise ValueError(f"branch choice {choice} out of range for state {c.state}")
        return Configuration(state=succs[choice], head=c.head, tape=c.tape)

    if choice is not None:
        raise ValueError(f"state {c.state} is deterministic; no choice expected")
    rule = rule_for(m, c.state, scanned(c))
    if rule is None:
        return HaltReason.NO_RULE
    if rule.move is not None:
        if rule.move == LEFT and c.head == 1:
            return HaltReason.ACCEPTING_EXIT if c.state == 1 else HaltReason.LEFT_EDGE
        return Configuration(state=rule.next_state, head=c.head + rule.move, tape=c.tape)
    tape = dict(c.tape)
    tape[c.head] = rule.write
    return Configuration(state=rule.next_state, head=c.head, tape=tape)


# ---------------------------------------------------------------------------
# runs


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
        if is_branch_state(m, config.state):
            for idx in range(len(m.branches[config.state])):
                found = rec(step(m, config, idx), steps + 1, bound, choices + (idx,), visited)
                if found is not None:
                    return found
            return None
        nxt = step(m, config)
        if isinstance(nxt, HaltReason):
            return OracleRun(steps + 1, len(visited), choices) if nxt is HaltReason.ACCEPTING_EXIT else None
        return rec(nxt, steps + 1, bound, choices, visited | {nxt.head})

    start = initial_configuration(m, w)
    for bound in range(1, max_time + 1):
        found = rec(start, 0, bound, (), frozenset({1}))
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class StepReplay:
    rows: tuple[tuple, ...]          # (state, head, action) per applied rule
    halt: Optional[HaltReason]
    time: int
    space: int
    final: Configuration


def replay_by_step(m: Machine, w: str, choices, max_time: int) -> StepReplay:
    """One computation, replayed through :func:`step` one call at a time.

    ``choices`` is a sequence of branch indices consumed in order, or a
    callable ``(state, successors) -> index``.  A sequence that runs out
    raises :class:`ValueError`, and :func:`step` raises it for a pick
    outside the branch list.
    """
    picks = None if callable(choices) else iter(choices)
    config = initial_configuration(m, w)
    rows = []
    visited = {config.head}
    for _ in range(max_time):
        if is_branch_state(m, config.state):
            succs = m.branches[config.state]
            if picks is None:
                action = choices(config.state, succs)
            else:
                action = next(picks, None)
                if action is None:
                    raise ValueError("choice sequence exhausted")
            nxt = step(m, config, action)
        else:
            action = rule_for(m, config.state, scanned(config))
            nxt = step(m, config)
            if nxt is HaltReason.NO_RULE:
                return StepReplay(tuple(rows), nxt, len(rows), len(visited), config)
        rows.append((config.state, config.head, action))
        if isinstance(nxt, HaltReason):
            return StepReplay(tuple(rows), nxt, len(rows), len(visited), config)
        config = nxt
        visited.add(config.head)
    stuck = not is_branch_state(m, config.state) and step(m, config) is HaltReason.NO_RULE
    return StepReplay(tuple(rows), HaltReason.NO_RULE if stuck else None,
                      len(rows), len(visited), config)


# ---------------------------------------------------------------------------
# general machines


def general_accepts(g: GeneralMachine, w: str, max_time: int) -> bool:
    """Whether some computation of ``g`` on ``w`` enters an accepting state
    within ``max_time`` transitions.

    Breadth-first over configurations on absolute tape cells, each kept at
    its first arrival; a transition off the left end of the tape ends its
    computation.  This is the oracle :func:`tmlab.normalize` is checked
    against.
    """
    level = [initial_configuration(g, w)]
    seen = set()
    for t in range(max_time + 1):
        nxt = []
        for c in level:
            if c.state in g.accepting:
                return True
            if t == max_time:
                continue
            for r in g.rules.get((c.state, scanned(c)), ()):
                head = c.head + r.move
                if head < 1:
                    continue
                tape = dict(c.tape)
                tape[c.head] = r.write
                key = (r.next_state, head, frozenset(cell for cell in tape.items() if cell[1] != BLANK))
                if key not in seen:
                    seen.add(key)
                    nxt.append(Configuration(state=r.next_state, head=head, tape=tape))
        level = nxt
    return False


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
        if is_branch_state(m, config.state):
            if steps >= step_cap:
                return
            for idx in range(len(m.branches[config.state])):
                nxt = step(m, config, idx)
                rec(nxt, steps + 1)
            return
        rule = rule_for(m, config.state, scanned(config))
        if rule is None:
            stops.append(OracleStop("halt", None, config.state, snapshot(config.tape), steps))
            return
        if steps >= step_cap:
            return
        nxt = step(m, config)
        if isinstance(nxt, HaltReason):
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


@dataclass(frozen=True)
class OracleSearch:
    first: dict            # (kind, delta, state, content) -> least (steps, picks) of its stops
    at_cap: frozenset      # (state, content) of each computation still running at step_cap

    @property
    def capped(self) -> bool:
        """Some computation is still running at ``step_cap``."""
        return bool(self.at_cap)


def block_search(m: Machine, partition: Partition, j: int, entry_state: int,
                 entry_delta: int, content: str, step_cap: int) -> OracleSearch:
    """Every stop of the machine inside block ``j``'s real cells, level by level.

    Unlike :func:`block_stops` it follows configurations, not choice
    sequences, so a branch state that lists itself costs one configuration
    per step.  Level ``t`` maps each configuration reached in exactly ``t``
    steps to the least picks reaching it, chosen with ``min``; every level
    up to ``step_cap`` is built, whether or not it repeats the one before.
    """
    lo, hi = partition.block_range(j)
    assert hi - lo + 1 == len(content)
    first: dict = {}
    at_cap = set()

    def snapshot(tp):
        return "".join(tp.get(c, BLANK) for c in range(lo, hi + 1))

    def record(kind, delta, state, tape, steps, picks):
        key = (kind, delta, state, snapshot(tape))
        first[key] = min(first.get(key, (steps, picks)), (steps, picks))

    start = Configuration(state=entry_state, head=lo if entry_delta == RIGHT else hi,
                          tape={lo + idx: s for idx, s in enumerate(content)})
    level = [((), start)]
    for steps in range(step_cap + 1):
        reached: dict = {}
        for picks, config in level:
            branch = is_branch_state(m, config.state)
            if not branch and rule_for(m, config.state, scanned(config)) is None:
                record("halt", None, config.state, config.tape, steps, picks)
                continue
            if steps == step_cap:
                at_cap.add((config.state, snapshot(config.tape)))
                continue
            moves = ([(picks + (idx,), step(m, config, idx))
                      for idx in range(len(m.branches[config.state]))] if branch
                     else [(picks, step(m, config))])
            for picks_after, nxt in moves:
                if isinstance(nxt, HaltReason):
                    # left-move attempt from cell 1; only possible when lo == 1
                    record("exit", LEFT, config.state, config.tape, steps + 1, picks_after)
                elif nxt.head < lo:
                    record("exit", LEFT, nxt.state, nxt.tape, steps + 1, picks_after)
                elif nxt.head > hi:
                    record("exit", RIGHT, nxt.state, nxt.tape, steps + 1, picks_after)
                else:
                    key = (nxt.state, nxt.head, snapshot(nxt.tape))
                    reached[key] = min(reached.get(key, (picks_after, nxt)), (picks_after, nxt),
                                       key=lambda entry: entry[0])
        level = list(reached.values())
    return OracleSearch(first, frozenset(at_cap))


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
                story = History(partition=Partition(P=P, n=n), walk=(OPENER, *descriptors))
                result = verify_story(m, w, story)
                if result.accepted:
                    return result
    return None


def milestone_after(partition: Partition, cell: int) -> Optional[int]:
    """The milestone on the boundary after ``cell``, if any, found by
    scanning the blocks' cell ranges from block 1."""
    j = 1
    while partition.block_range(j)[1] < cell:
        j += 1
    return j if partition.block_range(j)[1] == cell else None


def crossing_walk(m: Machine, trace: Trace, partition: Partition) -> tuple[Descriptor, ...]:
    """The trace's crossings under ``partition``, opened by ``OPENER``, by replay.

    Re-runs ``trace.choices`` through :func:`step` for as many rules as the
    trace applied.  Each change of head cell crosses the boundary after
    the lower cell, a milestone or none; the state recorded is the one the
    move leads to.  A left-edge attempt closes milestone 0 in the state it
    was made in and ends the walk.
    """
    config = initial_configuration(m, trace.input)
    picks = iter(trace.choices)
    walk = [OPENER]
    for _ in trace.steps:
        nxt = step(m, config, next(picks) if is_branch_state(m, config.state) else None)
        if nxt in (HaltReason.ACCEPTING_EXIT, HaltReason.LEFT_EDGE):
            walk.append(Descriptor(phase=len(walk) + 1, milestone=0, state=config.state, delta=LEFT))
            break
        if isinstance(nxt, HaltReason):
            break
        if nxt.head != config.head:
            milestone = milestone_after(partition, min(config.head, nxt.head))
            if milestone is not None:
                walk.append(Descriptor(phase=len(walk) + 1, milestone=milestone,
                                       state=nxt.state, delta=nxt.head - config.head))
        config = nxt
    return tuple(walk)


def replay_phase_count(m: Machine, trace: Trace, n: int, P: int) -> int:
    """Phases of the trace under the partition ``(P, n)``, by replay: one
    per descriptor of its :func:`crossing_walk`."""
    return len(crossing_walk(m, trace, Partition(P=P, n=n)))


def replay_phase_table(m: Machine, trace: Trace, n: int) -> dict[int, int]:
    """``k(P)`` for every ``P <= n``, one full replay per partition."""
    return {P: replay_phase_count(m, trace, n, P) for P in range(1, n + 1)}


def crossings_off_heads(trace: Trace, n: int) -> int:
    """Milestone crossings summed over all ``n`` partitions.

    Counted straight off the head positions: every change of head cell
    is a completed move, which crosses one partition's milestone, and a
    left-edge exit closes milestone 0 under each of the ``n`` partitions.
    """
    heads = [head for _, head, _ in trace.steps] + [trace.final.head]
    moves = sum(1 for a, b in zip(heads, heads[1:]) if a != b)
    edge_exit = trace.halt in (HaltReason.ACCEPTING_EXIT, HaltReason.LEFT_EDGE)
    return moves + (n if edge_exit else 0)


def split_history(h: tuple[Descriptor, ...]) -> tuple[tuple[Descriptor, ...], tuple[Descriptor, ...]]:
    """Separate a history ``S_j`` into its rightward (+1) and leftward (-1) parts."""
    return (tuple(d for d in h if d.delta == RIGHT), tuple(d for d in h if d.delta == LEFT))


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
    assert parse_machine(machine_to_text(m)) == m
    return m


def scribble(K: int) -> Machine:
    """A wide nondeterministic machine: it scribbles ``K`` cells, then accepts.

    At each of ``K`` cells it picks ``a`` or ``b`` (one step), writes it
    (one step) and moves right (one step); then it sweeps left in state 1
    and accepts off the left end, ``K + 1`` moves.  On the empty input
    every computation takes ``T = 4K + 1`` steps, and ``2**K`` contents
    lie on the tape when the sweep starts.
    """
    alphabet = (BLANK, "a", "b")
    rules = {(1, s): DetRule(next_state=1, move=LEFT) for s in alphabet}
    branches = {}
    pick = 0
    for i in range(K):
        write_a, write_b, move = 2 + 4 * i, 3 + 4 * i, 4 + 4 * i
        after = 5 + 4 * i if i < K - 1 else 1
        branches[pick] = (write_a, write_b)
        rules[(write_a, BLANK)] = DetRule(next_state=move, write="a")
        rules[(write_b, BLANK)] = DetRule(next_state=move, write="b")
        for s in "ab":
            rules[(move, s)] = DetRule(next_state=after, move=RIGHT)
        pick = after
    m = Machine(name=f"scribble_{K}", state_count=1 + 4 * K if K else 2,
                alphabet=alphabet, rules=rules, branches=branches)
    assert parse_machine(machine_to_text(m)) == m
    return m


def ruler(K: int) -> Machine:
    """A deterministic machine that walks ``K >= 1`` cells right, then accepts.

    It moves right over blanks ``K`` times, one state per cell, then
    sweeps left in state 1 and accepts off the left end.  On the empty
    input it runs in ``T = 2K + 1`` steps and visits ``K + 1`` cells.
    """
    walk = [0] + list(range(2, K + 1)) + [1]
    rules = {(q, BLANK): DetRule(next_state=after, move=RIGHT) for q, after in zip(walk, walk[1:])}
    rules[(1, BLANK)] = DetRule(next_state=1, move=LEFT)
    m = Machine(name=f"ruler_{K}", state_count=K + 1, alphabet=(BLANK,), rules=rules)
    assert parse_machine(machine_to_text(m)) == m
    return m

