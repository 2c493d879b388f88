"""Normal-form single-tape nondeterministic Turing machines.

The machine model used throughout this package:

* one half-infinite tape, cells numbered 1, 2, 3, ...; the blank symbol is
  the literal token ``"0"``;
* states are the integers 0, 1, ..., ``state_count - 1``; state 0 is the
  initial state and state 1 is the only accepting state;
* a deterministic state either moves the head one cell (left/right) or
  writes a symbol, never both; a nondeterministic state only picks one of
  at least two successor states, without moving or writing;
* a run halts when it attempts to move left from cell 1 (accepting exactly
  when that attempt is made in state 1) or when no rule applies.

Every applied rule costs one unit of time, including branch picks and the
final halting move attempt.  Space is the number of distinct cells the
head visits.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

LEFT = -1
RIGHT = +1
BLANK = "0"

DEFAULT_NODE_CAP = 10_000_000


class MachineFormatError(ValueError):
    """Raised when a machine description cannot be parsed or is invalid."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceCapExceeded(RuntimeError):
    """A bounded search would expand more configurations than its cap allows.

    Distinct from rejection: the question was not decided.
    """


class NodeBudget:
    """Mutable work allowance shared across the calls of one search.

    Charged once per expanded configuration; exceeding the limit raises
    :class:`ResourceCapExceeded` so callers can distinguish "too much work"
    from a verdict.
    """

    __slots__ = ("limit", "used", "what")

    def __init__(self, limit: int, what: str = "search"):
        self.limit = limit
        self.used = 0
        self.what = what

    def charge(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise ResourceCapExceeded(f"{self.what} exceeded node cap {self.limit}")


# ---------------------------------------------------------------------------
# machine model


@dataclass(frozen=True)
class DetRule:
    """Action of a deterministic state on one symbol.

    Exactly one of ``move`` / ``write`` should be set; this is *not*
    enforced at construction time so that malformed rules can be built and
    reported by :func:`validate_normal_form`.
    """

    next_state: int
    move: Optional[int] = None
    write: Optional[str] = None

    def is_move(self):
        return self.move is not None and self.write is None

    def is_write(self):
        return self.write is not None and self.move is None


@dataclass(frozen=True)
class Machine:
    """A normal-form NTM description.

    ``rules`` maps ``(state, symbol)`` to a :class:`DetRule` for
    deterministic states; ``branches`` maps a nondeterministic state to its
    ordered tuple of successor states.  Treat instances as immutable.
    """

    name: str
    state_count: int
    alphabet: tuple[str, ...]
    rules: dict[tuple[int, str], DetRule] = field(default_factory=dict)
    branches: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def is_branch_state(self, state: int) -> bool:
        return state in self.branches

    def rule_for(self, state: int, symbol: str) -> Optional[DetRule]:
        return self.rules.get((state, symbol))

    @cached_property
    def actions(self) -> dict[tuple[int, str], tuple[int, int, Optional[str]]]:
        """``(state, symbol) -> (next_state, move, write)``; ``move`` is 0 for a write."""
        return {key: (r.next_state, r.move or 0, r.write) for key, r in self.rules.items()}


@dataclass(frozen=True)
class Violation:
    """One normal-form violation, naming the offending state/symbol."""

    kind: str
    state: Optional[int] = None
    symbol: Optional[str] = None
    detail: str = ""

    def __str__(self):
        where = []
        if self.state is not None:
            where.append(f"state {self.state}")
        if self.symbol is not None:
            where.append(f"symbol {self.symbol!r}")
        loc = ", ".join(where)
        return f"{self.kind}({loc}): {self.detail}" if loc else f"{self.kind}: {self.detail}"


def validate_normal_form(m: Machine) -> list[Violation]:
    """Check every normal-form invariant; an empty list means valid."""
    out: list[Violation] = []
    if BLANK not in m.alphabet:
        out.append(Violation("missing-blank", detail=f"alphabet must contain {BLANK!r}"))
    if m.state_count < 2:
        out.append(Violation("too-few-states", detail="need at least states 0 (initial) and 1 (accepting)"))
    seen_symbols = set(m.alphabet)
    if len(seen_symbols) != len(m.alphabet):
        out.append(Violation("duplicate-symbol", detail="alphabet symbols must be distinct"))
    for s in m.alphabet:
        if len(s) != 1:  # tapes and block contents are strings, one cell per character
            out.append(Violation("long-symbol", symbol=s, detail="symbols must be single characters"))

    det_states = {q for (q, _s) in m.rules}
    for q in sorted(det_states & set(m.branches)):
        out.append(Violation("mixed-state", state=q, detail="state has both deterministic rules and branches"))

    for (q, s), rule in m.rules.items():
        if not (0 <= q < m.state_count):
            out.append(Violation("bad-state-id", state=q, detail="rule state out of range"))
        if s not in seen_symbols:
            out.append(Violation("unknown-symbol", state=q, symbol=s, detail="rule symbol not in alphabet"))
        if rule.move is not None and rule.write is not None:
            out.append(Violation("move-and-write", state=q, symbol=s, detail="rule both moves and writes"))
        elif rule.move is None and rule.write is None:
            out.append(Violation("no-action", state=q, symbol=s, detail="rule neither moves nor writes"))
        if rule.move is not None and rule.move not in (LEFT, RIGHT):
            out.append(Violation("bad-direction", state=q, symbol=s, detail=f"direction must be -1 or +1, got {rule.move}"))
        if rule.write is not None and rule.write not in seen_symbols:
            out.append(Violation("unknown-symbol", state=q, symbol=s, detail=f"written symbol {rule.write!r} not in alphabet"))
        if not (0 <= rule.next_state < m.state_count):
            out.append(Violation("bad-state-id", state=q, symbol=s, detail=f"next state {rule.next_state} out of range"))

    for q, succs in m.branches.items():
        if not (0 <= q < m.state_count):
            out.append(Violation("bad-state-id", state=q, detail="branch state out of range"))
        if len(succs) < 2:
            out.append(Violation("short-branch", state=q, detail="branch list needs length > 1"))
        for t in succs:
            if not (0 <= t < m.state_count):
                out.append(Violation("bad-state-id", state=q, detail=f"branch target {t} out of range"))
    return out


# ---------------------------------------------------------------------------
# machine file format
#
#   machine <name>              (optional; defaults to "machine")
#   states <count>
#   alphabet <sym> <sym> ...    (must include 0)
#   det <q> <s> move L|R <q'>
#   det <q> <s> write <s'> <q'>
#   nondet <q> <q1> <q2> [...]
#
# '#' starts a comment; blank lines are ignored.


def _want_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MachineFormatError(f"{what} must be an integer, got {token!r}", lineno)


def parse_machine(text: str) -> Machine:
    """Parse the line-oriented machine file format.

    Raises :class:`MachineFormatError` (with a line number) on syntax
    problems and on any normal-form violation, so a returned machine is
    always valid.
    """
    name = None
    state_count = None
    alphabet: Optional[tuple[str, ...]] = None
    rules: dict[tuple[int, str], DetRule] = {}
    branches: dict[int, tuple[int, ...]] = {}
    saw_anything = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_anything = True
        tokens = line.split()
        head = tokens[0]
        if head == "machine":
            if len(tokens) != 2:
                raise MachineFormatError("expected: machine <name>", lineno)
            if name is not None:
                raise MachineFormatError("duplicate machine line", lineno)
            name = tokens[1]
        elif head == "states":
            if len(tokens) != 2:
                raise MachineFormatError("expected: states <count>", lineno)
            if state_count is not None:
                raise MachineFormatError("duplicate states line", lineno)
            state_count = _want_int(tokens[1], lineno, "state count")
            if state_count < 1:
                raise MachineFormatError("state count must be positive", lineno)
        elif head == "alphabet":
            if alphabet is not None:
                raise MachineFormatError("duplicate alphabet line", lineno)
            if len(tokens) < 2:
                raise MachineFormatError("alphabet needs at least one symbol", lineno)
            alphabet = tuple(tokens[1:])
            if BLANK not in alphabet:
                raise MachineFormatError(f"alphabet must include the blank symbol {BLANK!r}", lineno)
        elif head == "det":
            if state_count is None or alphabet is None:
                raise MachineFormatError("rules must come after states and alphabet lines", lineno)
            if len(tokens) != 6:
                raise MachineFormatError("expected: det <q> <s> move L|R <q'>  or  det <q> <s> write <s'> <q'>", lineno)
            q = _want_int(tokens[1], lineno, "state")
            s = tokens[2]
            action, arg = tokens[3], tokens[4]
            q2 = _want_int(tokens[5], lineno, "next state")
            if (q, s) in rules:
                raise MachineFormatError(f"duplicate rule for state {q} symbol {s!r}", lineno)
            if action == "move":
                if arg not in ("L", "R"):
                    raise MachineFormatError("move direction must be L or R", lineno)
                rules[(q, s)] = DetRule(next_state=q2, move=LEFT if arg == "L" else RIGHT)
            elif action == "write":
                rules[(q, s)] = DetRule(next_state=q2, write=arg)
            else:
                raise MachineFormatError(f"unknown action {action!r} (want move/write)", lineno)
        elif head == "nondet":
            if state_count is None or alphabet is None:
                raise MachineFormatError("rules must come after states and alphabet lines", lineno)
            if len(tokens) < 4:
                raise MachineFormatError("expected: nondet <q> <q1> <q2> [...] with at least two successors", lineno)
            q = _want_int(tokens[1], lineno, "state")
            if q in branches:
                raise MachineFormatError(f"duplicate nondet line for state {q}", lineno)
            branches[q] = tuple(_want_int(t, lineno, "successor state") for t in tokens[2:])
        else:
            raise MachineFormatError(f"unknown directive {head!r}", lineno)

    if not saw_anything:
        raise MachineFormatError("empty machine description", 1)
    if state_count is None:
        raise MachineFormatError("missing states line", 1)
    if alphabet is None:
        raise MachineFormatError("missing alphabet line", 1)

    m = Machine(name=name or "machine", state_count=state_count, alphabet=alphabet,
                rules=rules, branches=branches)
    violations = validate_normal_form(m)
    if violations:
        raise MachineFormatError("; ".join(str(v) for v in violations))
    return m


def machine_to_text(m: Machine) -> str:
    """Serialize a machine back into the file format."""
    lines = [f"machine {m.name}", f"states {m.state_count}", "alphabet " + " ".join(m.alphabet)]
    for (q, s), rule in sorted(m.rules.items()):
        if rule.move is not None:
            lines.append(f"det {q} {s} move {'L' if rule.move == LEFT else 'R'} {rule.next_state}")
        else:
            lines.append(f"det {q} {s} write {rule.write} {rule.next_state}")
    for q, succs in sorted(m.branches.items()):
        lines.append(f"nondet {q} " + " ".join(str(t) for t in succs))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configurations and single steps


@dataclass(frozen=True)
class Configuration:
    """Machine state, head cell (>= 1), and sparse tape (blank elsewhere)."""

    state: int
    head: int
    tape: dict[int, str] = field(default_factory=dict)

    def read(self, cell: int) -> str:
        return self.tape.get(cell, BLANK)

    def scanned(self) -> str:
        return self.read(self.head)


class HaltReason(enum.Enum):
    ACCEPTING_EXIT = "accepting-exit"   # left-move attempt from cell 1 in state 1
    LEFT_EDGE = "left-edge"             # same attempt in any other state
    NO_RULE = "no-rule"                 # no applicable rule


@dataclass(frozen=True)
class Halt:
    reason: HaltReason

    @property
    def accepting(self) -> bool:
        return self.reason is HaltReason.ACCEPTING_EXIT


def initial_configuration(m: Machine, w: str) -> Configuration:
    for s in w:
        if s not in m.alphabet:
            raise ValueError(f"input symbol {s!r} not in machine alphabet")
    tape = {i + 1: s for i, s in enumerate(w)}
    return Configuration(state=0, head=1, tape=tape)


def step(m: Machine, c: Configuration, choice: Optional[int] = None) -> Union[Configuration, Halt]:
    """Apply exactly one rule to ``c``.

    ``choice`` must be given iff ``c.state`` is nondeterministic, and then
    indexes that state's branch list.
    """
    if m.is_branch_state(c.state):
        succs = m.branches[c.state]
        if choice is None:
            raise ValueError(f"state {c.state} is nondeterministic; a branch choice is required")
        if not (0 <= choice < len(succs)):
            raise ValueError(f"branch choice {choice} out of range for state {c.state}")
        return Configuration(state=succs[choice], head=c.head, tape=c.tape)

    if choice is not None:
        raise ValueError(f"state {c.state} is deterministic; no choice expected")
    rule = m.rule_for(c.state, c.scanned())
    if rule is None:
        return Halt(HaltReason.NO_RULE)
    if rule.move is not None:
        if rule.move == LEFT and c.head == 1:
            return Halt(HaltReason.ACCEPTING_EXIT if c.state == 1 else HaltReason.LEFT_EDGE)
        return Configuration(state=rule.next_state, head=c.head + rule.move, tape=c.tape)
    tape = dict(c.tape)
    tape[c.head] = rule.write
    return Configuration(state=rule.next_state, head=c.head, tape=tape)


# ---------------------------------------------------------------------------
# traces


class Outcome(enum.Enum):
    ACCEPTED = "accepted"
    HALTED_REJECTING = "halted-rejecting"
    TIME_BOUND_EXCEEDED = "time-bound-exceeded"


@dataclass(frozen=True)
class TraceStep:
    """One applied rule: the configuration it was applied to, plus what ran."""

    before: Configuration
    action: Union[DetRule, int]  # DetRule, or the branch choice index

    @property
    def choice(self) -> Optional[int]:
        return self.action if isinstance(self.action, int) else None


@dataclass(frozen=True)
class ResourceUsage:
    time: int   # rules applied, including the final halting move attempt
    space: int  # distinct cells visited


@dataclass(frozen=True)
class Trace:
    input: str
    steps: tuple[TraceStep, ...]
    outcome: Outcome
    halt: Optional[Halt]
    final: Configuration  # configuration at the moment the run stopped
    usage: ResourceUsage

    @property
    def choices(self) -> tuple[int, ...]:
        return tuple(s.action for s in self.steps if isinstance(s.action, int))


ChoiceSource = Union[Sequence[int], Callable[[int, tuple[int, ...]], int]]


def run_with_choices(m: Machine, w: str, choices: ChoiceSource, max_time: int) -> Trace:
    """Run one computation, resolving nondeterminism from ``choices``.

    ``choices`` is either a sequence of branch indices consumed in order, or
    a callable ``(state, successors) -> index``.  Replaying a witness
    trace's ``choices`` reproduces it exactly.
    """
    if callable(choices):
        pick = choices
    else:
        it = iter(choices)

        def pick(state, succs):
            try:
                return next(it)
            except StopIteration:
                raise ValueError("choice sequence exhausted at a nondeterministic state") from None

    config = initial_configuration(m, w)
    steps: list[TraceStep] = []
    visited = {config.head}
    outcome = Outcome.TIME_BOUND_EXCEEDED
    halt = None
    for _ in range(max_time):
        if m.is_branch_state(config.state):
            choice = pick(config.state, m.branches[config.state])
            nxt = step(m, config, choice)
            steps.append(TraceStep(before=config, action=choice))
        else:
            rule = m.rule_for(config.state, config.scanned())
            if rule is None:
                outcome = Outcome.HALTED_REJECTING
                halt = Halt(HaltReason.NO_RULE)
                break
            nxt = step(m, config)
            steps.append(TraceStep(before=config, action=rule))
        if isinstance(nxt, Halt):
            halt = nxt
            outcome = Outcome.ACCEPTED if nxt.accepting else Outcome.HALTED_REJECTING
            break
        config = nxt
        visited.add(config.head)
    else:
        # Bound exhausted.  A stuck state is still a halt: running out of
        # rules costs no step, so it must be observable at the bound too.
        if not m.is_branch_state(config.state) and m.rule_for(config.state, config.scanned()) is None:
            outcome = Outcome.HALTED_REJECTING
            halt = Halt(HaltReason.NO_RULE)
    # A NO_RULE halt applies no rule, so it adds no step; move attempts do.
    usage = ResourceUsage(time=len(steps), space=len(visited))
    return Trace(input=w, steps=tuple(steps), outcome=outcome, halt=halt,
                 final=config, usage=usage)


# ---------------------------------------------------------------------------
# level-order configuration search


@dataclass(frozen=True)
class RawStop:
    """Where one computation of :func:`search_configurations` stopped."""

    kind: str                # "exit" | "halt" | "cap"
    delta: Optional[int]     # exit side for "exit"
    state: int               # exit state ("exit") or halting state
    content: str
    steps: int
    choices: tuple[int, ...]


def _write(content: str, pos: int, symbol: str) -> str:
    """``content`` with cell ``pos`` set to ``symbol``, trailing blanks dropped."""
    if pos < len(content):
        out = content[:pos] + symbol + content[pos + 1:]
        return out.rstrip(BLANK) if symbol == BLANK and pos == len(content) - 1 else out
    return content if symbol == BLANK else content + BLANK * (pos - len(content)) + symbol


def search_configurations(m: Machine, state: int, pos: int, content: str, step_cap: int,
                          width: Optional[int] = None, left_is_edge: bool = True,
                          work: Optional[NodeBudget] = None) -> Iterator[RawStop]:
    """Yield every stop of the computations starting from one configuration.

    A computation stops when a move leaves the tape window (``"exit"``),
    when no rule applies (``"halt"``) or when it reaches ``step_cap``
    applied rules still running (``"cap"``).  Cells are numbered from 0.  A move to cell ``-1`` exits on the left; a
    move to cell ``width`` exits on the right, and with ``width=None`` the
    tape grows rightward without end.  On a left exit ``left_is_edge``
    reports the state the move was attempted in, as a halt at the tape's
    left end does; otherwise the exit carries the move's next state.

    The search is level-order.  Level ``t`` holds each distinct
    configuration ``(state, pos, content)`` reached by exactly ``t``
    applied rules, kept at its first arrival.  Levels are expanded in
    order, each in the order its configurations arrived, so a first
    arrival carries the lexicographically least branch choices of its
    length, and stops are yielded in order of fewest steps, then least
    choices.  Configurations are deduplicated within a level only, so
    level ``t`` is exactly the set of ends of the length-``t``
    computations, and a cap means some computation really runs that long.

    Each expanded configuration is charged to ``work``.  While a level
    holds a single deterministic configuration the search runs it ahead
    without building levels.
    """
    actions = m.actions
    branches = m.branches
    right = sys.maxsize if width is None else width
    work = work or NodeBudget(sys.maxsize)
    ended = object()  # marks a level entry that halted or hit the cap

    def stop(kind, delta, q, c, t, chain):
        picks = []
        while chain is not None:  # a chain is (last pick, earlier chain)
            pick, chain = chain
            picks.append(pick)
        if width is not None:
            c += BLANK * (width - len(c))
        return RawStop(kind, delta, q, c, t, tuple(reversed(picks)))

    content = content.rstrip(BLANK)  # blanks past the last mark are implicit
    if state not in branches and (state, content[pos] if pos < len(content) else BLANK) not in actions:
        yield stop("halt", None, state, content, 0, None)
        return
    if step_cap < 1:
        yield stop("cap", None, state, content, 0, None)
        return
    level = {(state, pos, content): None}
    t = 0
    while level:
        if len(level) == 1:
            (q, p, c), chain = next(iter(level.items()))
            if q not in branches:
                # Run ahead: one deterministic computation, no levels built.
                # Its expansions are charged once, at the end; ``last`` is
                # the deepest it may go before the step cap or the budget.
                start = t
                last = min(step_cap, t + work.limit - work.used)
                kind = delta = None
                while True:
                    act = actions.get((q, c[p] if p < len(c) else BLANK))
                    if act is None:
                        kind = "halt"
                        break
                    if t >= last:
                        break
                    nq, move, write = act
                    t += 1
                    if write is None:
                        p += move
                        if p < 0:
                            kind, delta, q = "exit", LEFT, q if left_is_edge else nq
                            break
                        if p >= right:
                            kind, delta, q = "exit", RIGHT, nq
                            break
                    else:
                        c = _write(c, p, write)
                    q = nq
                    if q in branches:
                        break
                if kind is None and t >= step_cap:
                    kind = "cap"
                # one more expansion is due when the budget, not the cap, stopped the run
                work.charge(t - start + (kind is None and t >= last))
                if kind is not None:
                    yield stop(kind, delta, q, c, t, chain)
                    return
                level = {(q, p, c): chain}
        t += 1
        nxt = {}
        for (q, p, c), chain in level.items():
            work.charge()
            succs = branches.get(q)
            if succs is None:
                nq, move, write = actions[q, c[p] if p < len(c) else BLANK]
                if write is not None:
                    arrivals = (((nq, p, _write(c, p, write)), chain),)
                elif p + move < 0:
                    yield stop("exit", LEFT, q if left_is_edge else nq, c, t, chain)
                    continue
                elif p + move >= right:
                    yield stop("exit", RIGHT, nq, c, t, chain)
                    continue
                else:
                    arrivals = (((nq, p + move, c), chain),)
            else:
                arrivals = [((nq, p, c), (pick, chain)) for pick, nq in enumerate(succs)]
            for key, at in arrivals:
                if key in nxt:
                    continue
                nq, np, nc = key
                if nq not in branches and (nq, nc[np] if np < len(nc) else BLANK) not in actions:
                    nxt[key] = ended
                    yield stop("halt", None, nq, nc, t, at)
                elif t >= step_cap:
                    nxt[key] = ended
                    yield stop("cap", None, nq, nc, t, at)
                else:
                    nxt[key] = at
        level = {key: at for key, at in nxt.items() if at is not ended}


@dataclass(frozen=True)
class DirectResult:
    accepted: bool
    witness: Optional[Trace]
    usage: Optional[ResourceUsage]
    explored: int   # configuration expansions


def run_direct(m: Machine, w: str, max_time: int, node_cap: int = DEFAULT_NODE_CAP) -> DirectResult:
    """Exhaustive bounded search over the machine's computations.

    Accepts iff some computation of at most ``max_time`` applied rules
    accepts: the first accepting left-edge exit of
    :func:`search_configurations`, on a tape that grows rightward on
    demand.  The witness is a minimum-time accepting trace; ties are broken
    by the lexicographically smallest branch-choice sequence.  Raises
    :class:`ResourceCapExceeded` when more than ``node_cap`` configurations
    would be expanded.
    """
    if max_time < 0:
        raise ValueError("max_time must be >= 0")
    initial_configuration(m, w)  # rejects symbols outside the alphabet
    work = NodeBudget(node_cap, "direct search")
    found = None
    for stop in search_configurations(m, 0, 0, w, max_time, work=work):
        if stop.kind == "exit" and stop.state == 1:
            found = stop
            break
    if found is None:
        return DirectResult(accepted=False, witness=None, usage=None, explored=work.used)
    # replayed once the search is freed, so its levels and the trace never coexist
    witness = run_with_choices(m, w, found.choices, found.steps)
    assert witness.outcome is Outcome.ACCEPTED
    return DirectResult(accepted=True, witness=witness, usage=witness.usage, explored=work.used)


# ---------------------------------------------------------------------------
# general (conventional) machines and normalization
#
# A general machine is a conventional single-tape NTM: a transition may
# write and move in the same step, may stay put ("S"), and a (state,
# symbol) pair may carry several alternative transitions.  It accepts the
# moment it enters any accepting state.

STAY = 0


@dataclass(frozen=True)
class GeneralRule:
    write: str
    move: int  # LEFT, STAY, RIGHT
    next_state: int


@dataclass(frozen=True)
class GeneralMachine:
    name: str
    state_count: int
    alphabet: tuple[str, ...]
    accepting: frozenset[int]
    rules: dict[tuple[int, str], tuple[GeneralRule, ...]] = field(default_factory=dict)


def parse_general_machine(text: str) -> GeneralMachine:
    """Parse the general-machine file format.

    Layout mirrors the normal format::

        general <name>
        states <count>
        alphabet 0 a b
        accept <q> [...]
        rule <q> <s> <s'> L|R|S <q'>     # may repeat (q, s) for branching
    """
    name = None
    state_count = None
    alphabet = None
    accepting: Optional[frozenset[int]] = None
    accept_line = None
    rule_lines: list[tuple[int, int, str, GeneralRule]] = []  # (line, q, s, rule)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "general":
            name = tokens[1] if len(tokens) == 2 else None
            if name is None:
                raise MachineFormatError("expected: general <name>", lineno)
        elif head == "states":
            if len(tokens) != 2:
                raise MachineFormatError("expected: states <count>", lineno)
            state_count = _want_int(tokens[1], lineno, "state count")
            if state_count < 1:
                raise MachineFormatError("state count must be positive", lineno)
        elif head == "alphabet":
            alphabet = tuple(tokens[1:])
        elif head == "accept":
            accepting = frozenset(_want_int(t, lineno, "accepting state") for t in tokens[1:])
            accept_line = lineno
        elif head == "rule":
            if len(tokens) != 6:
                raise MachineFormatError("expected: rule <q> <s> <s'> L|R|S <q'>", lineno)
            s, w_, d = tokens[2:5]
            q, q2 = _want_int(tokens[1], lineno, "state"), _want_int(tokens[5], lineno, "next state")
            if d not in ("L", "R", "S"):
                raise MachineFormatError("direction must be L, R or S", lineno)
            move = {"L": LEFT, "R": RIGHT, "S": STAY}[d]
            rule_lines.append((lineno, q, s, GeneralRule(write=w_, move=move, next_state=q2)))
        else:
            raise MachineFormatError(f"unknown directive {head!r}", lineno)

    if state_count is None or alphabet is None or accepting is None:
        raise MachineFormatError("general machine needs states, alphabet and accept lines", 1)
    if BLANK not in alphabet:
        raise MachineFormatError(f"alphabet must include the blank symbol {BLANK!r}", 1)
    if any(len(s) != 1 for s in alphabet):
        raise MachineFormatError("alphabet symbols must be single characters", 1)
    for q in sorted(accepting):
        if not (0 <= q < state_count):
            raise MachineFormatError(f"accepting state {q} out of range", accept_line)
    rules: dict[tuple[int, str], list[GeneralRule]] = {}
    for lineno, q, s, r in rule_lines:
        if not (0 <= q < state_count):
            raise MachineFormatError(f"rule state {q} out of range", lineno)
        if s not in alphabet:
            raise MachineFormatError(f"rule symbol {s!r} not in alphabet", lineno)
        if r.write not in alphabet:
            raise MachineFormatError(f"written symbol {r.write!r} not in alphabet", lineno)
        if not (0 <= r.next_state < state_count):
            raise MachineFormatError(f"next state {r.next_state} out of range", lineno)
        rules.setdefault((q, s), []).append(r)
    return GeneralMachine(name=name or "general", state_count=state_count, alphabet=alphabet,
                          accepting=accepting, rules={k: tuple(v) for k, v in rules.items()})


def run_direct_general(g: GeneralMachine, w: str, max_time: int,
                       node_cap: int = DEFAULT_NODE_CAP) -> DirectResult:
    """Bounded exhaustive search for general machines.

    Accepts iff some computation enters an accepting state within
    ``max_time`` transitions.  A breadth-first search over configurations
    ``(state, cell, tape)``, each kept at its first arrival; ``explored``
    counts the transitions tried.  Used as the independent oracle when
    testing :func:`normalize`.
    """
    for s in w:
        if s not in g.alphabet:
            raise ValueError(f"input symbol {s!r} not in machine alphabet")
    explored = 0
    level = [(0, 0, w.rstrip(BLANK))]
    seen = set(level)
    for t in range(max_time + 1):
        nxt = []
        for state, pos, tape in level:
            if state in g.accepting:
                return DirectResult(accepted=True, witness=None, usage=None, explored=explored)
            if t == max_time:
                continue
            for r in g.rules.get((state, tape[pos] if pos < len(tape) else BLANK), ()):
                explored += 1
                if explored > node_cap:
                    raise ResourceCapExceeded(f"general search exceeded node cap {node_cap}")
                if pos + r.move < 0:
                    continue  # falling off the left edge kills this computation
                config = (r.next_state, pos + r.move, _write(tape, pos, r.write))
                if config not in seen:
                    seen.add(config)
                    nxt.append(config)
        level = nxt
    return DirectResult(accepted=False, witness=None, usage=None, explored=explored)


@dataclass(frozen=True)
class NormalizeResult:
    """Normalized machine plus the time blow-up it introduces.

    If the general machine accepts within ``t`` transitions, the normalized
    machine accepts within ``step_blowup * t + step_overhead`` applied
    rules, and conversely every accepting normalized run projects back to
    an accepting general run.
    """

    machine: Machine
    step_blowup: int
    step_overhead: int
    state_map: dict[int, int]


def normalize(g: GeneralMachine, state_cap: int = 10_000) -> NormalizeResult:
    """Compile a general machine into an equivalent normal-form machine.

    Write-and-move transitions split into write-then-move via fresh
    states; per-symbol branching splits into an identity write followed by
    a pure-choice state; acceptance becomes "reach state 1, sweep left,
    exit cell 1".  A general state whose transitions already look like a
    pure normal-form action maps one-to-one.
    """
    if BLANK not in g.alphabet:
        raise ValueError(f"general machine alphabet lacks the blank symbol {BLANK!r}")

    # Accepting states collapse onto normal state 1; their outgoing rules
    # are dead (a general machine accepts on entry).
    state_map: dict[int, int] = {}
    next_id = 2
    for q in range(g.state_count):
        if q in g.accepting:
            state_map[q] = 1
        elif q == 0:
            state_map[q] = 0
        else:
            state_map[q] = next_id
            next_id += 1
    if 0 in g.accepting:
        # state 0 must still exist as the entry point; it funnels into 1 below
        state_map[0] = 0

    rules: dict[tuple[int, str], DetRule] = {}
    branches: dict[int, tuple[int, ...]] = {}
    fresh = [next_id]  # next unallocated state id
    max_cost = 1  # worst applied-rules count emitted for one general transition

    def alloc() -> int:
        q = fresh[0]
        if q >= state_cap:
            raise ValueError(f"normalization exceeded the state budget ({state_cap})")
        fresh[0] += 1
        return q

    def emit_apply(src: int, s: str, r: GeneralRule) -> int:
        """Rules taking ``src`` scanning ``s`` through one general transition.

        Returns the number of applied rules the simulated step costs.
        """
        target = state_map[r.next_state]
        if r.move == STAY:
            rules[(src, s)] = DetRule(next_state=target, write=r.write)
            return 1
        if r.write == s:
            rules[(src, s)] = DetRule(next_state=target, move=r.move)
            return 1
        mid = alloc()
        rules[(src, s)] = DetRule(next_state=mid, write=r.write)
        rules[(mid, r.write)] = DetRule(next_state=target, move=r.move)
        return 2

    def is_pure_choice(q: int) -> Optional[tuple[int, ...]]:
        """Detect a state that only picks among successors, uniformly over
        the whole alphabet, writing nothing and staying put."""
        succs = None
        for s in g.alphabet:
            alts = g.rules.get((q, s))
            if not alts or len(alts) < 2:
                return None
            sig = tuple(r.next_state for r in alts)
            if any(r.move != STAY or r.write != s for r in alts):
                return None
            if succs is None:
                succs = sig
            elif succs != sig:
                return None
        return succs

    for q in range(g.state_count):
        if q in g.accepting:
            continue
        mq = state_map[q]
        pure = is_pure_choice(q)
        if pure is not None:
            branches[mq] = tuple(state_map[t] for t in pure)
            max_cost = max(max_cost, 1)
            continue
        for s in g.alphabet:
            alts = g.rules.get((q, s))
            if not alts:
                continue
            if len(alts) == 1:
                max_cost = max(max_cost, emit_apply(mq, s, alts[0]))
            else:
                # identity write into a pure-choice state, then one chain per
                # alternative: 2 picks plus the chain's own 1-2 rules
                sel = alloc()
                rules[(mq, s)] = DetRule(next_state=sel, write=s)
                heads = []
                for r in alts:
                    c = alloc()
                    heads.append(c)
                    max_cost = max(max_cost, 2 + emit_apply(c, s, r))
                branches[sel] = tuple(heads)

    if 0 in g.accepting:
        # immediate acceptance: hop into the accept runner on any symbol
        for s in g.alphabet:
            rules[(0, s)] = DetRule(next_state=1, write=s)
        max_cost = max(max_cost, 1)

    # accept runner: sweep left in state 1 until the exit from cell 1
    for s in g.alphabet:
        rules.setdefault((1, s), DetRule(next_state=1, move=LEFT))

    state_count = max([fresh[0] - 1, 1] + [q for q in branches] + [q for (q, _s) in rules]
                      + [r.next_state for r in rules.values()]
                      + [t for succ in branches.values() for t in succ]) + 1
    machine = Machine(name=g.name + "_normal", state_count=state_count,
                      alphabet=g.alphabet, rules=rules, branches=branches)
    violations = validate_normal_form(machine)
    if violations:  # construction bug guard; should be unreachable
        raise AssertionError("normalize produced an invalid machine: " + "; ".join(map(str, violations)))
    # +1 covers the accept sweep (at most one move per visited cell plus the
    # final attempt); +2 covers acceptance at time zero (funnel write + exit).
    return NormalizeResult(machine=machine, step_blowup=max_cost + 1, step_overhead=2,
                           state_map=state_map)
