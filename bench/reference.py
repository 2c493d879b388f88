"""Reference answers that share no code with the searches they check.

The solver is a level-order search over configurations ``(state, head,
tape)``: level ``t`` holds every configuration some computation reaches
after ``t`` applied rules, and a configuration is expanded only at its
first arrival, which is already its fewest steps.  It reads only the
machine's ``rules`` and ``branches`` tables; it never calls ``step``,
``run_direct`` or any story-search layer.

The model is the one the README states: a run halts when it attempts to
move left from cell 1 (accepting exactly in state 1) or when no rule
applies; every applied rule, the halting attempt included, costs one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

BLANK = "0"


@dataclass(frozen=True)
class Reference:
    accepted: bool
    time: Optional[int]   # minimum accepting time within the budget


@dataclass(frozen=True)
class Replay:
    accepted: bool
    time: int             # applied rules, the halting attempt included
    space: int            # distinct cells visited
    moves: int            # moves that changed the head cell


def _read(tape: tuple, head: int) -> str:
    return tape[head - 1] if head <= len(tape) else BLANK


def _canonical(tape: tuple) -> tuple:
    while tape and tape[-1] == BLANK:
        tape = tape[:-1]  # blanks past the last mark are implicit
    return tape


def _write(tape: tuple, head: int, symbol: str) -> tuple:
    if head > len(tape):
        tape = tape + (BLANK,) * (head - len(tape))
    return _canonical(tape[:head - 1] + (symbol,) + tape[head:])


def solve(machine, w: str, budget: int) -> Reference:
    """Does some computation of at most ``budget`` applied rules accept?"""
    rules, branches = machine.rules, machine.branches
    start = (0, 1, _canonical(tuple(w)))
    level = [start]
    seen = {start}
    for t in range(budget):
        nxt = []
        for state, head, tape in level:
            if state in branches:
                succs = [(q, head, tape) for q in branches[state]]
            else:
                rule = rules.get((state, _read(tape, head)))
                if rule is None:
                    continue  # halted without a rule; costs no step
                if rule.write is not None:
                    succs = [(rule.next_state, head, _write(tape, head, rule.write))]
                elif head + rule.move < 1:
                    if state == 1:
                        return Reference(True, t + 1)
                    continue
                else:
                    succs = [(rule.next_state, head + rule.move, tape)]
            for config in succs:
                if config not in seen:
                    seen.add(config)
                    nxt.append(config)
        if not nxt:
            break
        level = nxt
    return Reference(False, None)


def replay(machine, w: str, choices, limit: int) -> Replay:
    """Follow one computation of at most ``limit`` steps, resolving each
    branch from ``choices`` in order; unused or missing choices reject."""
    rules, branches = machine.rules, machine.branches
    picks = iter(choices)
    state, head, tape = 0, 1, tuple(w)
    visited = {1}
    time = moves = 0
    while time < limit:
        if state in branches:
            pick = next(picks, None)
            if pick is None or not 0 <= pick < len(branches[state]):
                break
            state = branches[state][pick]
            time += 1
            continue
        rule = rules.get((state, _read(tape, head)))
        if rule is None:
            return Replay(False, time, len(visited), moves)
        time += 1
        if rule.write is not None:
            tape = _write(tape, head, rule.write)
        elif head + rule.move < 1:
            done = next(picks, None) is None
            return Replay(state == 1 and done, time, len(visited), moves)
        else:
            head += rule.move
            moves += 1
            visited.add(head)
        state = rule.next_state
    return Replay(False, time, len(visited), moves)
