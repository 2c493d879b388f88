"""Tape partitions, milestone crossings, and per-milestone histories.

A partition slices the tape into a first block of ``P`` cells followed by
blocks of ``n`` cells.  The boundary between blocks ``j`` and ``j + 1`` is
milestone ``j``; milestone 0 is the left end of the tape.  Replaying a
trace against a partition yields a descriptor every time the head crosses
a milestone; grouped by milestone and ordered by phase these are the run's
crossing histories, the object the guess-and-verify simulator guesses.

This module also owns the story-shape rules: which block a descriptor
pair frames (:func:`validate_descriptor_pair`), which milestone a move
off a block crosses (:func:`exit_milestone`), and when one block's
descriptors pair into visits (:meth:`BlockStory.check`,
:func:`block_story`).  The phase simulator, the block checker and the
story search all apply these rules rather than their own.

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
    """A history/story fails a structural requirement; names the phase."""

    def __init__(self, message, phase=None):
        self.phase = phase
        if phase is not None:
            message = f"phase {phase}: {message}"
        super().__init__(message)


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

    def milestone_after_cell(self, cell: int) -> Optional[int]:
        """Milestone index of the boundary between ``cell`` and ``cell+1``,
        or None when that boundary is interior to a block."""
        if cell < self.P:
            return None
        if (cell - self.P) % self.n != 0:
            return None
        return (cell - self.P) // self.n + 1

    def cells_covered(self) -> int:
        return self.P + (self.r - 1) * self.n


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


@dataclass(frozen=True)
class MilestoneHistory:
    milestone: int
    entries: tuple[Descriptor, ...] = ()

    def violations(self) -> list[str]:
        out = []
        phases = [d.phase for d in self.entries]
        if any(b <= a for a, b in zip(phases, phases[1:])):
            out.append(f"milestone {self.milestone}: phase numbers must strictly increase")
        for d in self.entries:
            if d.milestone != self.milestone:
                out.append(f"milestone {self.milestone}: entry {d.astuple()} carries wrong milestone")
        if self.milestone >= 1:
            for idx, d in enumerate(self.entries):
                want = RIGHT if idx % 2 == 0 else LEFT
                if d.delta != want:
                    out.append(
                        f"milestone {self.milestone}: direction must alternate +1,-1,... "
                        f"(entry {idx} is {d.delta:+d})")
                    break
        else:
            if self.entries:
                if self.entries[0] != OPENER:
                    out.append(f"milestone 0 must open with {OPENER.astuple()}")
                if len(self.entries) > 2:
                    out.append("milestone 0 holds at most the opener and one exit")
                if len(self.entries) == 2 and self.entries[1].delta != LEFT:
                    out.append("milestone 0's exit must have direction -1")
        return out


@dataclass(frozen=True)
class History:
    """Milestone histories ``H_0 .. H_{r+1}`` under one partition.

    The same shape serves as a *story* (a guessed history); nothing in the
    data distinguishes the two roles.
    """

    partition: Partition
    milestones: tuple[MilestoneHistory, ...]

    def milestone(self, j: int) -> MilestoneHistory:
        return self.milestones[j]

    def descriptors(self) -> list[Descriptor]:
        out = [d for h in self.milestones for d in h.entries]
        out.sort(key=lambda d: d.phase)
        return out

    def phase_total(self) -> int:
        """Number of phases = highest phase number appearing."""
        return max((d.phase for h in self.milestones for d in h.entries), default=0)

    def violations(self) -> list[str]:
        out = []
        if len(self.milestones) != self.partition.r + 2:
            out.append(f"expected milestone lists H_0..H_{self.partition.r + 1}")
            return out
        for j, h in enumerate(self.milestones):
            if h.milestone != j:
                out.append(f"history at position {j} is labeled milestone {h.milestone}")
            out.extend(h.violations())
        if self.milestones[-1].entries:
            out.append(f"H_{self.partition.r + 1} must be empty")
        descriptors = self.descriptors()
        if not descriptors or descriptors[0] != OPENER:
            out.append(f"histories must open with {OPENER.astuple()}")
        phases = [d.phase for d in descriptors]
        k = self.phase_total()
        if sorted(phases) != list(range(1, k + 1)):
            out.append("every phase number in 1..k must label exactly one descriptor")
        return out


def split_history(h: MilestoneHistory) -> tuple[MilestoneHistory, MilestoneHistory]:
    """Separate a history into its rightward (+1) and leftward (-1) parts."""
    plus = tuple(d for d in h.entries if d.delta == RIGHT)
    minus = tuple(d for d in h.entries if d.delta == LEFT)
    return (MilestoneHistory(h.milestone, plus), MilestoneHistory(h.milestone, minus))


def merge_by_phase(*sequences: Iterable[Descriptor]) -> tuple[Descriptor, ...]:
    """Compose descriptor sequences by ascending phase number."""
    merged = [d for seq in sequences for d in seq]
    merged.sort(key=lambda d: d.phase)
    return tuple(merged)


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
            raise StoryStructureError(f"block {self.block}: odd number of descriptors",
                                      phase=self.entries[-1].phase)
        for d_in, d_out in self.pairs():
            try:
                framed = validate_descriptor_pair(d_in, d_out)
            except InconsistentDescriptors as err:
                raise StoryStructureError(f"block {self.block}: {err}", phase=d_in.phase) from None
            if framed != self.block:
                raise StoryStructureError(
                    f"block {self.block}: visit at phase {d_in.phase} frames block {framed}",
                    phase=d_in.phase)
        for a, b in zip(self.entries, self.entries[1:]):
            if b.phase <= a.phase:
                raise StoryStructureError(
                    f"block {self.block}: phase numbers must strictly increase", phase=b.phase)


def block_story(hist: History, j: int) -> BlockStory:
    """Block ``j``'s visits: milestones ``j-1`` and ``j`` in phase order.

    Raises :class:`StoryStructureError` unless the descriptors pass
    :meth:`BlockStory.check` and every visit's out-crossing leaves block
    ``j``.
    """
    if not (1 <= j <= hist.partition.r):
        raise ValueError(f"block index {j} outside materialized range 1..{hist.partition.r}")
    bs = BlockStory(block=j, entries=merge_by_phase(hist.milestone(j - 1).entries,
                                                     hist.milestone(j).entries))
    bs.check()
    for _, d_out in bs.pairs():
        if d_out.milestone != exit_milestone(j, d_out.delta):
            raise StoryStructureError(
                f"block {j}: out-crossing {d_out.astuple()} does not leave the block",
                phase=d_out.phase)
    return bs


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


def _replay(trace: Trace, partition: Partition):
    """Yield per-phase records by walking the trace's steps once."""
    tape: dict[int, str] = {i + 1: s for i, s in enumerate(trace.input)}
    phase = 1
    block = 1
    entered = OPENER
    content_before = _block_snapshot(tape, partition, 1)
    choices: list[int] = []
    steps_in_phase = 0

    if partition.block_of_cell(1) != 1:
        raise RegionExceeded("cell 1 not covered")

    for state, head, rule in trace.steps:
        steps_in_phase += 1
        if isinstance(rule, int):
            choices.append(rule)
            continue
        if rule.write is not None:
            tape[head] = rule.write
            continue
        # a move: the final left-edge attempt closes milestone 0's history
        if rule.move == LEFT and head == 1:
            closer = Descriptor(phase=phase + 1, milestone=0, state=state, delta=LEFT)
            yield PhaseRecord(phase=phase, block=block, entered=entered, left=closer,
                              content_before=content_before,
                              content_after=_block_snapshot(tape, partition, block),
                              choices=tuple(choices), steps=steps_in_phase)
            return
        src, dst = head, head + rule.move
        if dst > partition.cells_covered():
            raise RegionExceeded(
                f"head reached cell {dst}, beyond the {partition.r} materialized blocks")
        boundary = min(src, dst)
        milestone = partition.milestone_after_cell(boundary)
        if milestone is None:
            continue
        crossing = Descriptor(phase=phase + 1, milestone=milestone,
                              state=rule.next_state, delta=rule.move)
        yield PhaseRecord(phase=phase, block=block, entered=entered, left=crossing,
                          content_before=content_before,
                          content_after=_block_snapshot(tape, partition, block),
                          choices=tuple(choices), steps=steps_in_phase)
        phase += 1
        block = block + 1 if rule.move == RIGHT else block - 1
        entered = crossing
        content_before = _block_snapshot(tape, partition, block)
        choices = []
        steps_in_phase = 0

    # trace ended inside the current block (halt without exit, or time bound)
    yield PhaseRecord(phase=phase, block=block, entered=entered, left=None,
                      content_before=content_before,
                      content_after=_block_snapshot(tape, partition, block),
                      choices=tuple(choices), steps=steps_in_phase)


def phase_records(trace: Trace, partition: Partition) -> list[PhaseRecord]:
    """Replay a trace, returning its phases with block contents attached."""
    return list(_replay(trace, partition))


def partition_for_trace(trace: Trace, P: int, n: int) -> Partition:
    """Partition with enough blocks materialized to cover the trace."""
    max_cell = max((head for _, head, _ in trace.steps), default=1)
    max_cell = max(max_cell, 1 + len(trace.input))
    probe = Partition(P=P, n=n, r=1)
    # one spare block so the crossing *into* the outermost visited cell's
    # neighbor block never trips RegionExceeded
    return Partition(P=P, n=n, r=probe.block_of_cell(max_cell) + 1)


def extract_history(trace: Trace, partition: Partition) -> History:
    """Replay ``trace`` and collect each milestone's crossing descriptors."""
    per_milestone: dict[int, list[Descriptor]] = {j: [] for j in range(partition.r + 2)}
    per_milestone[0].append(OPENER)
    for rec in _replay(trace, partition):
        if rec.left is not None:
            per_milestone[rec.left.milestone].append(rec.left)
    milestones = tuple(MilestoneHistory(milestone=j, entries=tuple(per_milestone[j]))
                       for j in range(partition.r + 2))
    return History(partition=partition, milestones=milestones)


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
        if isinstance(rule, int) or rule.move is None:
            continue
        moves += 1
        if rule.move == LEFT and head == 1:
            edge_seen = 1
        else:
            crossed[(min(head, head + rule.move) - 1) % n] += 1
    per_P = {P: 1 + crossed[P - 1] + edge_seen for P in range(1, n + 1)}
    total = sum(per_P.values())
    best_P = min(per_P, key=lambda P: (per_P[P], P))
    edge_exit = trace.halt is not None and trace.halt.reason is not HaltReason.NO_RULE
    if edge_exit:
        moves -= 1  # the halting attempt completes no move
    crossings = moves + (n if edge_exit else 0)
    return LemmaReport(n=n, per_P=per_P, sum=total, best_P=best_P,
                       holds=per_P[best_P] <= n,
                       total_crossings=crossings,
                       sum_identity_ok=(total == crossings + n),
                       sum_within_square=(total <= n * n + n))
