"""Milestone crossing histories of a recorded run.

The tape is split into a first block of P cells and further blocks of n
cells; the boundaries between blocks are milestones.  Replaying a trace
yields a descriptor (phase, milestone, state, direction) for every
milestone crossing; in phase order they are one walk, and milestone j's
history H_j is the walk filtered to j.  The zigzag machine walks right to
the fourth block, bounces twice between blocks 4 and 3, then returns and
accepts, so its histories have a clean closed form.
"""

from tmlab import (
    LEFT,
    RIGHT,
    Partition,
    block_story,
    extract_history,
    load_corpus_machine,
    run_direct,
)

zigzag = load_corpus_machine("zigzag")
r = run_direct(zigzag, "", 20)
print(f"zigzag run: accepted={r.accepted}, time={r.usage.time}, space={r.usage.space}")

part = Partition(P=2, n=2, r=5)
hist = extract_history(r.witness, part)

print("\n=== the walk under P=2, n=2 (blocks of cells [1-2][3-4][5-6][7-8]...) ===")
print(f"  {[d.astuple() for d in hist.walk]}")

print("\n=== the same crossings, milestone by milestone ===")
for j in range(part.r + 2):
    if hist.milestone(j) or j <= 4:
        print(f"  H_{j} = {[d.astuple() for d in hist.milestone(j)]}")
print("(milestone 0 is the left end of the tape: the run opens with phase 1")
print(" and the accepting exit closes it at phase 10, in state 1)")

print("\n=== splitting a history by direction ===")
print(f"  H_3 rightward: {[d.astuple() for d in hist.milestone(3) if d.delta == RIGHT]}")
print(f"  H_3 leftward:  {[d.astuple() for d in hist.milestone(3) if d.delta == LEFT]}")

print("\n=== per-block stories: in/out crossing pairs ===")
for j in (1, 3, 4, 5):
    bs = block_story(hist, j)
    pairs = [(a.astuple(), b.astuple()) for a, b in bs.pairs()]
    print(f"  block {j}: {pairs if pairs else 'never visited'}")

print("\nBlock 4 is entered twice, both times from the left, and each visit")
print("leaves one phase later -- the two oscillations of the walk.")
