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

:func:`run_with_choices` replays one computation in place and
:func:`search_configurations` walks them all level by level; the tests'
oracles keep their own copy that steps one configuration at a time.

The module also reads both machine file formats, which share one header
grammar, and :func:`normalize` compiles a conventional
:class:`GeneralMachine` into normal form.  Only the normal form is
searched here; the tests' oracles decide general machines.
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
    enforced at construction time.  A :class:`Machine` built in code is
    valid iff ``parse_machine(machine_to_text(m)) == m``: the text cannot
    say move-and-write, no action or a direction other than L/R, and the
    reader refuses a missing blank and a state or symbol out of range.
    """

    next_state: int
    move: Optional[int] = None
    write: Optional[str] = None


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

    @cached_property
    def actions(self) -> dict[tuple[int, str], tuple[int, int, Optional[str]]]:
        """``(state, symbol) -> (next_state, move, write)``; ``move`` is 0 for a write."""
        return {key: (r.next_state, r.move or 0, r.write) for key, r in self.rules.items()}


# ---------------------------------------------------------------------------
# machine file formats
#
#   machine <name>              (general <name> in a general file; optional)
#   states <count>              (a positive integer)
#   alphabet <sym> <sym> ...    (distinct single characters, 0 among them)
#   det <q> <s> move L|R <q'>
#   det <q> <s> write <s'> <q'>
#   nondet <q> <q1> <q2> [...]
#   rule <q> <s> <s'> L|R|S <q'>     (general; may repeat (q, s) for branching)
#   accept <q> [...]                 (general; anywhere)
#
# The first three lines are the header both formats share, each given at
# most once; rule lines come after states and alphabet, and each one's
# states and symbols are checked at that line.  '#' starts a comment;
# blank lines are ignored.


def _want_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MachineFormatError(f"{what} must be an integer, got {token!r}", lineno)


def _state(token: str, lineno: int, what: str, count: int) -> int:
    q = _want_int(token, lineno, what)
    if not 0 <= q < count:
        raise MachineFormatError(f"{what} {q} out of range", lineno)
    return q


def _symbol(s: str, lineno: int, what: str, alphabet: tuple) -> str:
    if s not in alphabet:
        raise MachineFormatError(f"{what} {s!r} not in alphabet", lineno)
    return s


def _read_line(header: list, raw: str, lineno: int, name_word: str, rule_words: tuple) -> Optional[list]:
    """Read one line of either format against the header grammar they share.

    ``header`` is the parse's ``[name, state_count, alphabet, seen]``.  Returns
    None for a blank or header line, else the tokens for the format to read,
    once a line headed by one of ``rule_words`` is known to follow the header.
    """
    tokens = raw.split("#", 1)[0].split()
    if not tokens:
        return None
    header[3] = True
    head = tokens[0]
    if head == name_word:
        if len(tokens) != 2:
            raise MachineFormatError(f"expected: {name_word} <name>", lineno)
        if header[0] is not None:
            raise MachineFormatError(f"duplicate {name_word} line", lineno)
        header[0] = tokens[1]
    elif head == "states":
        if len(tokens) != 2:
            raise MachineFormatError("expected: states <count>", lineno)
        if header[1] is not None:
            raise MachineFormatError("duplicate states line", lineno)
        header[1] = _want_int(tokens[1], lineno, "state count")
        if header[1] < 1:
            raise MachineFormatError("state count must be positive", lineno)
    elif head == "alphabet":
        if header[2] is not None:
            raise MachineFormatError("duplicate alphabet line", lineno)
        alphabet = header[2] = tuple(tokens[1:])
        if BLANK not in alphabet:
            raise MachineFormatError(f"alphabet must include the blank symbol {BLANK!r}", lineno)
        symbols = "".join(alphabet)  # tapes and block contents are strings, one cell per character
        if len(symbols) != len(alphabet):
            raise MachineFormatError("alphabet symbols must be single characters", lineno)
        if len(set(symbols)) != len(alphabet):
            raise MachineFormatError("alphabet symbols must be distinct", lineno)
    elif head in rule_words and (header[1] is None or header[2] is None):
        raise MachineFormatError("rules must come after states and alphabet lines", lineno)
    else:
        return tokens
    return None


def _check_header(header: list) -> None:
    """Refuse, after the last line, a file with no states or alphabet line."""
    if not header[3]:
        raise MachineFormatError("empty machine description", 1)
    if header[1] is None:
        raise MachineFormatError("missing states line", 1)
    if header[2] is None:
        raise MachineFormatError("missing alphabet line", 1)


def parse_machine(text: str) -> Machine:
    """Parse the normal-form machine file format.

    Every check is made at its line, so a :class:`MachineFormatError`
    names the line of the first fault, and a returned machine is always
    valid.  Faults found only after the last line (a missing header line,
    fewer than 2 states) are named at line 1.
    """
    header = [None, None, None, False]
    rules: dict[tuple[int, str], DetRule] = {}
    branches: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _read_line(header, raw, lineno, "machine", ("det", "nondet"))
        if tokens is None:
            continue
        head = tokens[0]
        count, alphabet = header[1], header[2]
        if head == "det":
            if len(tokens) != 6:
                raise MachineFormatError("expected: det <q> <s> move L|R <q'>  or  det <q> <s> write <s'> <q'>", lineno)
            head, q, s, action, arg, q2 = tokens  # not "_": a new name would keep "det" alive
            q = _state(q, lineno, "rule state", count)
            s = _symbol(s, lineno, "rule symbol", alphabet)
            q2 = _state(q2, lineno, "next state", count)
            if (q, s) in rules:
                raise MachineFormatError(f"duplicate rule for state {q} symbol {s!r}", lineno)
            if q in branches:
                raise MachineFormatError(f"state {q} has both det rules and a nondet line", lineno)
            if action == "move":
                if arg not in ("L", "R"):
                    raise MachineFormatError("move direction must be L or R", lineno)
                rules[(q, s)] = DetRule(next_state=q2, move=LEFT if arg == "L" else RIGHT)
            elif action == "write":
                rules[(q, s)] = DetRule(next_state=q2, write=_symbol(arg, lineno, "written symbol", alphabet))
            else:
                raise MachineFormatError(f"unknown action {action!r} (want move/write)", lineno)
        elif head == "nondet":
            if len(tokens) < 4:
                raise MachineFormatError("expected: nondet <q> <q1> <q2> [...] with at least two successors", lineno)
            q = _state(tokens[1], lineno, "rule state", count)
            if q in branches:
                raise MachineFormatError(f"duplicate nondet line for state {q}", lineno)
            for s in alphabet:
                if (q, s) in rules:
                    raise MachineFormatError(f"state {q} has both det rules and a nondet line", lineno)
            branches[q] = tuple(_state(t, lineno, "successor state", count) for t in tokens[2:])
        else:
            raise MachineFormatError(f"unknown directive {head!r}", lineno)
    _check_header(header)
    if header[1] < 2:
        raise MachineFormatError("need at least states 0 (initial) and 1 (accepting)", 1)
    return Machine(name=header[0] or "machine", state_count=header[1], alphabet=header[2],
                   rules=rules, branches=branches)


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
# configurations and halts


@dataclass(frozen=True)
class Configuration:
    """Machine state, head cell (>= 1), and sparse tape (blank elsewhere)."""

    state: int
    head: int
    tape: dict[int, str] = field(default_factory=dict)


class HaltReason(enum.Enum):
    ACCEPTING_EXIT = "accepting-exit"   # left-move attempt from cell 1 in state 1
    LEFT_EDGE = "left-edge"             # same attempt in any other state
    NO_RULE = "no-rule"                 # no applicable rule


def input_tape(m: Machine, w: str) -> dict[int, str]:
    for s in w:
        if s not in m.alphabet:
            raise ValueError(f"input symbol {s!r} not in machine alphabet")
    return {i + 1: s for i, s in enumerate(w)}


# ---------------------------------------------------------------------------
# traces


# One applied rule: ``(state, head, action)``, the state and head cell it was
# applied at and what ran, a DetRule or the branch choice index.  Rows are
# plain tuples: CPython unpacks an exact tuple on a fast path that a
# NamedTuple row misses, and every trace consumer unpacks each row.
TraceStep = tuple[int, int, Union[DetRule, int]]


@dataclass(frozen=True)
class ResourceUsage:
    time: int   # rules applied, including the final halting move attempt
    space: int  # distinct cells visited


@dataclass(frozen=True)
class Trace:
    """One computation: a :data:`TraceStep` row per applied rule.

    The rows carry no tape: a block's content at any step is rebuilt by
    applying the rows' writes to ``input``.  ``final`` is the one full
    configuration, the one the run stopped in.
    """

    input: str
    steps: tuple[TraceStep, ...]
    halt: Optional[HaltReason]  # ACCEPTING_EXIT iff accepted; None while still going at the bound
    final: Configuration  # configuration at the moment the run stopped
    usage: ResourceUsage

    @property
    def choices(self) -> tuple[int, ...]:
        return tuple(action for _, _, action in self.steps if isinstance(action, int))


ChoiceSource = Union[Sequence[int], Callable[[int, tuple[int, ...]], int]]


def run_with_choices(m: Machine, w: str, choices: ChoiceSource, max_time: int) -> Trace:
    """Run one computation, resolving nondeterminism from ``choices``.

    ``choices`` is either a sequence of branch indices consumed in order, or
    a callable ``(state, successors) -> index``; a pick outside the branch
    list, or a sequence that runs out, raises :class:`ValueError`.  The run
    updates one state, head cell and tape in place and records a
    :data:`TraceStep` row per applied rule, building no configuration but
    the final one.  ``Trace.halt`` names the :class:`HaltReason`, or is
    ``None`` when the run is still going at ``max_time``.  Replaying a
    witness trace's ``choices`` reproduces it exactly.
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

    rules = m.rules
    branches = m.branches
    tape = input_tape(m, w)
    state = 0
    head = 1
    steps: list[TraceStep] = []
    visited = {head}
    halt = None
    for _ in range(max_time):
        succs = branches.get(state)
        if succs is not None:
            choice = pick(state, succs)
            if choice is None or not 0 <= choice < len(succs):
                raise ValueError(f"branch choice {choice} out of range for state {state}")
            steps.append((state, head, choice))
            state = succs[choice]
            continue
        rule = rules.get((state, tape.get(head, BLANK)))
        if rule is None:
            halt = HaltReason.NO_RULE
            break
        steps.append((state, head, rule))
        if rule.move is not None:
            if rule.move == LEFT and head == 1:
                halt = HaltReason.ACCEPTING_EXIT if state == 1 else HaltReason.LEFT_EDGE
                break
            head += rule.move
            visited.add(head)
        else:
            tape[head] = rule.write
        state = rule.next_state
    else:
        # Bound exhausted.  A stuck state is still a halt: running out of
        # rules costs no step, so it must be observable at the bound too.
        if state not in branches and (state, tape.get(head, BLANK)) not in rules:
            halt = HaltReason.NO_RULE
    # A NO_RULE halt applies no rule, so it adds no step; move attempts do.
    usage = ResourceUsage(time=len(steps), space=len(visited))
    return Trace(input=w, steps=tuple(steps), halt=halt,
                 final=Configuration(state=state, head=head, tape=tape), usage=usage)


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
    input_tape(m, w)  # rejects symbols outside the alphabet
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
    assert witness.halt is HaltReason.ACCEPTING_EXIT
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
    """Parse the general-machine file format: the normal format's header
    under a ``general`` name line, ``rule`` lines and one ``accept`` line,
    whose states are checked after the last line.
    """
    header = [None, None, None, False]
    accepting: Optional[frozenset[int]] = None
    accept_line = None
    rules: dict[tuple[int, str], list[GeneralRule]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _read_line(header, raw, lineno, "general", ("rule",))
        if tokens is None:
            continue
        head = tokens[0]
        if head == "accept":
            if accepting is not None:
                raise MachineFormatError("duplicate accept line", lineno)
            accepting = frozenset(_want_int(t, lineno, "accepting state") for t in tokens[1:])
            accept_line = lineno
        elif head == "rule":
            if len(tokens) != 6:
                raise MachineFormatError("expected: rule <q> <s> <s'> L|R|S <q'>", lineno)
            head, q, s, w_, d, q2 = tokens
            count, alphabet = header[1], header[2]
            q = _state(q, lineno, "rule state", count)
            s = _symbol(s, lineno, "rule symbol", alphabet)
            w_ = _symbol(w_, lineno, "written symbol", alphabet)
            q2 = _state(q2, lineno, "next state", count)
            if d not in ("L", "R", "S"):
                raise MachineFormatError("direction must be L, R or S", lineno)
            move = {"L": LEFT, "R": RIGHT, "S": STAY}[d]
            rules.setdefault((q, s), []).append(GeneralRule(write=w_, move=move, next_state=q2))
        else:
            raise MachineFormatError(f"unknown directive {head!r}", lineno)
    _check_header(header)

    if accepting is None:
        raise MachineFormatError("missing accept line", 1)
    for q in sorted(accepting):
        if not (0 <= q < header[1]):
            raise MachineFormatError(f"accepting state {q} out of range", accept_line)
    return GeneralMachine(name=header[0] or "general", state_count=header[1], alphabet=header[2],
                          accepting=accepting, rules={k: tuple(v) for k, v in rules.items()})


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
    if g.state_count >= state_cap:  # checked before state_map holds a slot per state
        raise ValueError(f"{g.state_count} states exceed the state budget ({state_cap})")

    # Accepting states collapse onto normal state 1; their outgoing rules
    # are dead (a general machine accepts on entry).  State 0 stays the
    # entry point even when it accepts; it funnels into 1 below.
    state_map: dict[int, int] = {}
    next_id = 2
    for q in range(g.state_count):
        if q == 0:
            state_map[q] = 0
        elif q in g.accepting:
            state_map[q] = 1
        else:
            state_map[q] = next_id
            next_id += 1

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

    # accept runner: sweep left in state 1 until the exit from cell 1
    for s in g.alphabet:
        rules.setdefault((1, s), DetRule(next_state=1, move=LEFT))

    state_count = max([fresh[0] - 1, 1] + [q for q in branches] + [q for (q, _s) in rules]
                      + [r.next_state for r in rules.values()]
                      + [t for succ in branches.values() for t in succ]) + 1
    machine = Machine(name=g.name + "_normal", state_count=state_count,
                      alphabet=g.alphabet, rules=rules, branches=branches)
    try:  # construction bug guard, unreachable: a valid machine reads back from its text
        if parse_machine(machine_to_text(machine)) != machine:
            raise MachineFormatError("it does not read back from its text")
    except MachineFormatError as err:
        raise AssertionError(f"normalize produced an invalid machine: {err}") from None
    # +1 covers the accept sweep (at most one move per visited cell plus the
    # final attempt); +2 covers acceptance at time zero (funnel write + exit).
    return NormalizeResult(machine=machine, step_blowup=max_cost + 1, step_overhead=2)
