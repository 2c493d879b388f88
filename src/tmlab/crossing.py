"""Tape partitions, milestone crossings, and the walk they make.

A partition slices the tape into a first block of ``P`` cells followed by
blocks of ``n`` cells.  The boundary between blocks ``j`` and ``j + 1`` is
milestone ``j``; milestone 0 is the left end of the tape.  Replaying a
trace against a partition yields a descriptor every time the head crosses
a milestone.  In phase order these are the run's crossing sequence, the
*walk* a :class:`History` holds and the object the guess-and-verify
simulator guesses; milestone ``j``'s crossing history ``S_j`` is the walk
filtered to milestone ``j``.  :func:`extract_history` builds the walk
alone, in one pass over the moves with no tape.  :func:`phase_records`
cuts the trace into phases at the same crossings and adds what answers
never need: each phase's block at its start and end, its branch choices
and its step count, the ground truth the tests check the simulator against.

This module also owns the one story-shape rule, :meth:`History.violations`:
a history is a single head walk through blocks ``1..r``.  Its parts,
which block a descriptor pair frames (:func:`validate_descriptor_pair`)
and which milestone a move off a block crosses (:func:`exit_milestone`),
are what the phase simulator and the block checker run against;
:meth:`BlockStory.check` is the rule seen from one block, for callers
that check a block story on its own.

Conventions (fixed here, used everywhere):

* block 1 covers cells ``1..P``; block ``j >= 2`` covers cells
  ``P+(j-2)n+1 .. P+(j-1)n``; milestone ``j >= 1`` is the boundary after
  cell ``P+(j-1)n``.
* a descriptor ``(p, j, i, delta)`` says: the crossing of milestone ``j``
  in direction ``delta`` began phase ``p`` with the machine in state
  ``i``.  For interior crossings ``i`` is the state *after* the crossing
  move (the state the machine works in on the far side); for the final
  left-edge exit it is the state the move was attempted in, so an
  accepting run always closes with ``(k, 0, 1, -1)``.
* phase 1 opens every history with the virtual descriptor
  ``(1, 0, 0, +1)``; a run that halts by attempting to move left from
  cell 1 closes milestone 0's history with its own, final phase number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .ntm_core import BLANK, LEFT, RIGHT, HaltReason, Trace


class RegionExceeded(ValueError):
    """The trace wandered past the partition's materialized blocks."""


class StoryStructureError(ValueError):
    """A history/story fails a structural requirement; the message names the phase."""


@dataclass(frozen=True)
class Partition:
    """First-block length ``P``, block length ``n``, ``r`` blocks covered."""

    P: int
    n: int
    r: int

    def __post_init__(self):
        if not (1 <= self.P <= self.n):
            raise ValueError(f"need 1 <= P <= n, got P={self.P}, n={self.n}")
        if self.r < 1:
            raise ValueError("need at least one materialized block")

    def block_range(self, j: int) -> tuple[int, int]:
        """Inclusive cell range of block ``j``."""
        if j == 1:
            return (1, self.P)
        return (self.P + (j - 2) * self.n + 1, self.P + (j - 1) * self.n)

    def block_length(self, j: int) -> int:
        lo, hi = self.block_range(j)
        return hi - lo + 1

    def block_of_cell(self, cell: int) -> int:
        if cell <= self.P:
            return 1
        return 2 + (cell - self.P - 1) // self.n

    def milestone_cells(self) -> dict[int, int]:
        """``{last cell of block j: j}`` for ``j`` in ``1..r``: milestone ``j``
        is the boundary between that cell and the next."""
        return {self.block_range(j)[1]: j for j in range(1, self.r + 1)}


@dataclass(frozen=True, order=True)
class Descriptor:
    """``(phase, milestone, state, delta)`` crossing record."""

    phase: int
    milestone: int
    state: int
    delta: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.phase, self.milestone, self.state, self.delta)


OPENER = Descriptor(phase=1, milestone=0, state=0, delta=RIGHT)


class InconsistentDescriptors(ValueError):
    """The descriptor pair cannot frame any phase on the given block."""


def block_index_for(d_in: Descriptor) -> int:
    """Block a phase runs on, given its in-crossing."""
    return d_in.milestone + 1 if d_in.delta == RIGHT else d_in.milestone


def exit_milestone(block: int, delta: int) -> int:
    """Milestone a move off ``block`` in direction ``delta`` crosses."""
    return block - 1 if delta == LEFT else block


def validate_descriptor_pair(d_in: Descriptor, d_out: Descriptor) -> int:
    """Check the pair can frame a phase; returns the block index."""
    if d_out.phase != d_in.phase + 1:
        raise InconsistentDescriptors(
            f"out-crossing must carry phase {d_in.phase + 1}, got {d_out.phase}")
    if d_in.delta not in (LEFT, RIGHT) or d_out.delta not in (LEFT, RIGHT):
        raise InconsistentDescriptors("directions must be -1 or +1")
    block = block_index_for(d_in)
    if block < 1:
        raise InconsistentDescriptors(f"in-crossing {d_in.astuple()} does not enter any block")
    if d_out.milestone not in (block - 1, block):
        raise InconsistentDescriptors(
            f"out-crossing milestone {d_out.milestone} does not border block {block}")
    return block


@dataclass(frozen=True)
class History:
    """A run's milestone crossings under one partition, in phase order.

    ``walk`` is the crossing sequence itself, opened by :data:`OPENER`;
    milestone ``j``'s history ``S_j`` is the walk filtered to that
    milestone.  The same shape serves as a *story* (a guessed history);
    nothing in the data distinguishes the two roles.
    """

    partition: Partition
    walk: tuple[Descriptor, ...]

    @property
    def k(self) -> int:
        """The last phase: the walk's last descriptor's phase number (0 for no walk)."""
        return self.walk[-1].phase if self.walk else 0

    def milestone(self, j: int) -> tuple[Descriptor, ...]:
        """``S_j``: the crossings of milestone ``j``, in phase order."""
        return tuple(d for d in self.walk if d.milestone == j)

    def violations(self) -> list[str]:
        """Why the history is not one head walk through blocks ``1..r``.

        Every descriptor enters a block no further right than ``r``.  The
        walk's first descriptor is :data:`OPENER`, and each next one
        carries the next phase number and leaves the block the previous
        one entered, both crossing in direction -1 or +1; so the phases
        are ``1..k``, once each.  The walk implies the rest of the shape:
        each milestone's crossings alternate +1, -1, ...; milestone 0
        holds the opener and at most a final exit; ``S_{r+1}`` is empty;
        there are ``k`` descriptors; and every block's visits pair up
        (:meth:`BlockStory.check`).
        """
        r = self.partition.r
        out = [f"phase {d.phase}: {d.astuple()} enters block {block}, beyond r = {r}"
               for d in self.walk if (block := block_index_for(d)) > r]
        if not self.walk or self.walk[0] != OPENER:
            out.append(f"histories must open with {OPENER.astuple()}")
        if out:
            return out
        for d_in, d_out in zip(self.walk, self.walk[1:]):
            try:
                block = validate_descriptor_pair(d_in, d_out)
            except InconsistentDescriptors as err:
                return [f"phase {d_out.phase}: {err}"]
            if d_out.milestone != exit_milestone(block, d_out.delta):
                return [f"phase {d_out.phase}: {d_out.astuple()} does not leave block {block}"]
        return []


def merge_by_phase(*sequences: Iterable[Descriptor]) -> tuple[Descriptor, ...]:
    """Compose descriptor sequences by ascending phase number."""
    merged = [d for seq in sequences for d in seq]
    merged.sort(key=lambda d: d.phase)
    return tuple(merged)


@dataclass(frozen=True)
class BlockStory:
    """Phase-ordered in/out descriptor pairs of one block's visits."""

    block: int
    entries: tuple[Descriptor, ...] = ()

    def pairs(self) -> list[tuple[Descriptor, Descriptor]]:
        return [(self.entries[i], self.entries[i + 1]) for i in range(0, len(self.entries), 2)]

    def check(self):
        """Raise :class:`StoryStructureError` unless the entries pair into
        visits of this block: an even count, each pair framing a phase on
        this block, and phase numbers strictly increasing.

        The out-crossing's side is not checked here: a visit that claims to
        leave through the wrong milestone is rejected when it runs.
        """
        if len(self.entries) % 2 != 0:
            raise StoryStructureError(f"phase {self.entries[-1].phase}: block {self.block}: "
                                      "odd number of descriptors")
        for d_in, d_out in self.pairs():
            try:
                framed = validate_descriptor_pair(d_in, d_out)
            except InconsistentDescriptors as err:
                raise StoryStructureError(f"phase {d_in.phase}: block {self.block}: {err}") from None
            if framed != self.block:
                raise StoryStructureError(f"phase {d_in.phase}: block {self.block}: "
                                          f"visit at phase {d_in.phase} frames block {framed}")
        for a, b in zip(self.entries, self.entries[1:]):
            if b.phase <= a.phase:
                raise StoryStructureError(f"phase {b.phase}: block {self.block}: "
                                          "phase numbers must strictly increase")


def block_story(hist: History, j: int) -> BlockStory:
    """Block ``j``'s visits: the crossings of milestones ``j-1`` and ``j``."""
    return BlockStory(block=j, entries=tuple(d for d in hist.walk if d.milestone in (j - 1, j)))


# ---------------------------------------------------------------------------
# replaying traces against a partition


@dataclass(frozen=True)
class PhaseRecord:
    """Ground truth for one phase of a recorded trace.

    ``entered`` is the crossing that began the phase, ``left`` the crossing
    that ended it (None when the trace stopped inside the block).
    ``content_before``/``content_after`` snapshot the block under the
    partition at phase start/end; ``choices`` are the branch picks made
    during the phase and ``steps`` its applied-rule count (including the
    crossing move that ends it).
    """

    phase: int
    block: int
    entered: Descriptor
    left: Optional[Descriptor]
    content_before: str
    content_after: str
    choices: tuple[int, ...]
    steps: int


def _block_snapshot(tape: dict[int, str], partition: Partition, j: int) -> str:
    lo, hi = partition.block_range(j)
    return "".join(tape.get(c, BLANK) for c in range(lo, hi + 1))


def _crossings(trace: Trace, partition: Partition):
    """Yield ``(row, descriptor)`` for each milestone crossing, in phase order.

    ``row`` indexes the crossing move in ``trace.steps``.  One pass over
    the moves, no tape: milestone ``j`` is the boundary after block ``j``'s
    last cell, and a final left-edge attempt closes milestone 0 and ends
    the walk.  A move past the partition's ``r`` blocks raises
    :class:`RegionExceeded`; the head gets there only across milestone ``r``.
    """
    r = partition.r
    milestone_after = partition.milestone_cells()
    phase = 1
    for row, (state, head, rule) in enumerate(trace.steps):
        if type(rule) is int:
            continue
        move = rule.move
        if move == LEFT:
            if head == 1:
                yield row, Descriptor(phase=phase + 1, milestone=0, state=state, delta=LEFT)
                return
            milestone = milestone_after.get(head - 1)
        elif move is None:
            continue
        else:
            milestone = milestone_after.get(head)
            if milestone == r:
                raise RegionExceeded(
                    f"head reached cell {head + 1}, beyond the {r} materialized blocks")
        if milestone is not None:
            phase += 1
            yield row, Descriptor(phase=phase, milestone=milestone,
                                  state=rule.next_state, delta=move)


def phase_records(trace: Trace, partition: Partition) -> list[PhaseRecord]:
    """Replay a trace, returning its phases with block contents attached.

    The phases end at :func:`extract_history`'s crossings; on top of them
    this applies the trace's writes to snapshot each phase's block at its
    start and end, and collects its branch choices and step count.
    """
    cuts = [(row + 1, crossing) for row, crossing in _crossings(trace, partition)]
    if not cuts or block_index_for(cuts[-1][1]) >= 1:
        cuts.append((len(trace.steps), None))  # the trace stopped inside its last block
    tape: dict[int, str] = {i + 1: s for i, s in enumerate(trace.input)}
    records = []
    entered, start = OPENER, 0
    for end, left in cuts:
        block = block_index_for(entered)
        before = _block_snapshot(tape, partition, block)
        choices = []
        for _, head, rule in trace.steps[start:end]:
            if type(rule) is int:
                choices.append(rule)
            elif rule.write is not None:
                tape[head] = rule.write
        records.append(PhaseRecord(phase=entered.phase, block=block, entered=entered, left=left,
                                   content_before=before,
                                   content_after=_block_snapshot(tape, partition, block),
                                   choices=tuple(choices), steps=end - start))
        entered, start = left, end
    return records


def partition_for_trace(trace: Trace, P: int, n: int) -> Partition:
    """Partition with enough blocks materialized to cover the trace."""
    max_cell = max((head for _, head, _ in trace.steps), default=1)
    max_cell = max(max_cell, 1 + len(trace.input))
    probe = Partition(P=P, n=n, r=1)
    # one spare block so the crossing *into* the outermost visited cell's
    # neighbor block never trips RegionExceeded
    return Partition(P=P, n=n, r=probe.block_of_cell(max_cell) + 1)


def extract_history(trace: Trace, partition: Partition) -> History:
    """Replay ``trace`` and collect its crossing descriptors in phase order.

    This is the walk alone: one pass over the moves that builds each
    descriptor directly, with no tape, block snapshot or per-phase record.
    """
    walk = [OPENER]
    walk.extend(crossing for _, crossing in _crossings(trace, partition))
    return History(partition=partition, walk=tuple(walk))


@dataclass(frozen=True)
class LemmaReport:
    """Per-partition phase counts for one trace at scale ``n``."""

    n: int
    per_P: dict[int, int]
    sum: int
    best_P: int
    holds: bool                 # some P has at most n phases
    total_crossings: int        # milestone crossings summed over partitions
    sum_identity_ok: bool       # sum == total_crossings + n, by construction
    sum_within_square: bool     # sum <= n^2 + n (informational)


def check_phase_lemma(trace: Trace, n: int) -> LemmaReport:
    """Tabulate ``k(P)`` for every ``P <= n`` and check the phase bound.

    Requires ``trace.usage.time <= n**2``.  One pass over the moves fills
    the whole table: a completed move across the boundary after cell
    ``b`` crosses a milestone of exactly one partition, ``P = (b - 1) mod
    n + 1``, and a final left-edge attempt (accepting or ``LEFT_EDGE``)
    closes milestone 0 under every partition.  So ``k(P) = 1 +
    crossings(P) + edge_exit``, with no replay and no block snapshot.
    ``holds`` reports whether some partition sees at most ``n`` phases.

    ``total_crossings`` counts every milestone crossing over all ``n``
    partitions from the raw move count and the trace's recorded halt
    reason.  ``sum == total_crossings + n`` (one opening phase per
    partition) then checks that each completed move landed in exactly one
    partition's count, and that the edge exit seen among the steps
    matches the halt the trace records.
    """
    if trace.usage.time > n * n:
        raise ValueError(f"trace takes {trace.usage.time} steps, beyond the n^2 = {n * n} bound")
    crossed = [0] * n
    edge_seen = 0
    moves = 0
    for _, head, rule in trace.steps:
        if type(rule) is int:
            continue
        move = rule.move
        if move is None:
            continue
        moves += 1
        if move == LEFT and head == 1:
            edge_seen = 1
        else:
            crossed[(min(head, head + move) - 1) % n] += 1
    per_P = {P: 1 + crossed[P - 1] + edge_seen for P in range(1, n + 1)}
    total = sum(per_P.values())
    best_P = min(per_P, key=lambda P: (per_P[P], P))
    edge_exit = trace.halt in (HaltReason.ACCEPTING_EXIT, HaltReason.LEFT_EDGE)
    if edge_exit:
        moves -= 1  # the halting attempt completes no move
    crossings = moves + (n if edge_exit else 0)
    return LemmaReport(n=n, per_P=per_P, sum=total, best_P=best_P,
                       holds=per_P[best_P] <= n,
                       total_crossings=crossings,
                       sum_identity_ok=(total == crossings + n),
                       sum_within_square=(total <= n * n + n))
