"""Block story coherence checking."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    BlockStory,
    Descriptor,
    DetRule,
    LEFT,
    Partition,
    RIGHT,
    RejectReason,
    StoryStructureError,
    block_story,
    check_block,
    extract_history,
    initial_block_content,
    partition_for_trace,
    phase_records,
    parse_machine,
    run_direct,
)

from oracles import block_story_feasible, random_machine, scribble


def test_initial_block_contents_split_the_input():
    part = Partition(P=2, n=3, r=5)
    assert initial_block_content(1, part, "abba") == "ab"
    assert initial_block_content(2, part, "abba") == "ba0"
    assert initial_block_content(5, part, "abba") == "000"


def test_initial_block_content_pads_short_input():
    part = Partition(P=3, n=4, r=3)
    assert initial_block_content(1, part, "ab") == "ab0"
    assert initial_block_content(2, part, "ab") == "0000"


def test_empty_story_accepts_vacuously(corpus):
    results = check_block(corpus["palindrome"], BlockStory(block=3), "000", budget=5)
    (res,) = results
    assert res.accepted and res.content_chain == ("000",) and res.steps_consumed == 0


def test_recorded_block_story_is_coherent(corpus):
    m = corpus["sweep_right"]
    r = run_direct(m, "abab", 16)
    part = partition_for_trace(r.witness, P=2, n=4)
    hist = extract_history(r.witness, part)
    records = phase_records(r.witness, part)
    for j in (1, 2):
        bs = block_story(hist, j)
        if not bs.entries:
            continue
        x0 = initial_block_content(j, part, "abab")
        results = check_block(m, bs, x0, budget=16)
        chains = [res for res in results if res.accepted]
        assert chains
        true_chain = tuple([x0] + [rec.content_after for rec in records if rec.block == j
                                   and rec.left is not None])
        assert any(res.content_chain == true_chain for res in chains)
        # chain steps add up
        for res in chains:
            assert len(res.content_chain) == len(bs.pairs()) + 1


def test_unreachable_out_state_rejected(corpus):
    m = corpus["sweep_right"]
    r = run_direct(m, "abab", 16)
    part = partition_for_trace(r.witness, P=2, n=4)
    hist = extract_history(r.witness, part)
    bs = block_story(hist, 2)
    assert bs.entries
    # state 2 is only ever entered by write rules, never by a crossing move
    entries = list(bs.entries)
    entries[1] = Descriptor(entries[1].phase, entries[1].milestone, 2, entries[1].delta)
    mutated = BlockStory(block=2, entries=tuple(entries))
    x0 = initial_block_content(2, part, "abab")
    results = check_block(m, mutated, x0, budget=16)
    assert not any(res.accepted for res in results)
    assert not block_story_feasible(m, part, 2, mutated.pairs(), x0, 16)


def test_odd_story_raises(corpus):
    d1 = Descriptor(2, 1, 0, RIGHT)
    with pytest.raises(StoryStructureError, match="odd"):
        check_block(corpus["sweep_right"], BlockStory(block=2, entries=(d1,)), "0000", 9)


def test_nonconsecutive_visit_phases_raise(corpus):
    entries = (Descriptor(2, 1, 0, RIGHT), Descriptor(4, 2, 0, RIGHT))
    with pytest.raises(StoryStructureError, match="phase"):
        check_block(corpus["sweep_right"], BlockStory(block=2, entries=entries), "0000", 9)


def test_budget_exhaustion_is_flagged(corpus):
    m = corpus["sweep_right"]
    entries = (Descriptor(2, 1, 0, RIGHT), Descriptor(3, 2, 0, RIGHT))
    # crossing a 4-cell block costs 8 steps (write + move per cell)
    short = check_block(m, BlockStory(block=2, entries=entries), "aaaa", budget=3)
    (res,) = short
    assert not res.accepted and res.budget_exhausted
    full = check_block(m, BlockStory(block=2, entries=entries), "aaaa", budget=16)
    hits = [r for r in full if r.accepted]
    assert hits and hits[0].steps_consumed == 8 and hits[0].content_chain == ("aaaa", "xxxx")
    # a coherent rejection, by contrast, is final: wrong out-state, ample budget
    wrong = (Descriptor(2, 1, 0, RIGHT), Descriptor(3, 2, 1, RIGHT))
    rejected = check_block(m, BlockStory(block=2, entries=wrong), "aaaa", budget=64)
    (res,) = rejected
    assert not res.accepted and not res.budget_exhausted


# Visit 1 (phase 1) writes a or b on a one-cell block 2 and leaves right.
# Visit 2 (phase 3) halts on a but leaves left on b.  Visit 3 (phase 5)
# branches: arm 1 halts at once, arm 0 leaves right in state 13, not 14.
THREE_VISITS = """\
states 16
alphabet 0 a b
nondet 2 3 4
det 3 0 write a 5
det 4 0 write b 5
det 5 a move R 6
det 5 b move R 6
det 7 b move L 9
nondet 10 11 12
det 11 b move R 13
"""


def test_rejection_names_the_deepest_visit_and_its_first_outcome():
    m = parse_machine(THREE_VISITS)
    entries = (Descriptor(1, 1, 2, RIGHT), Descriptor(2, 2, 6, RIGHT),
               Descriptor(3, 2, 7, LEFT), Descriptor(4, 1, 9, LEFT),
               Descriptor(5, 1, 10, RIGHT), Descriptor(6, 2, 14, RIGHT))
    (res,) = check_block(m, BlockStory(block=2, entries=entries), "0", budget=16)
    # the a-chain stops at phase 3 first; the b-chain gets one visit further
    assert not res.accepted and not res.budget_exhausted
    assert (res.failed_phase, res.reject_reason) == (5, RejectReason.HALTED_INSIDE)
    # with ample steps for visit 1 only, the deepest visit is cut by the budget
    (res,) = check_block(m, BlockStory(block=2, entries=entries), "0", budget=3)
    assert res.budget_exhausted
    assert (res.failed_phase, res.reject_reason) == (3, RejectReason.STEP_CAP_EXCEEDED)


def test_frontier_keeps_every_content_a_visit_can_leave():
    # scribble_6 writes a or b on cells 1..6, steps right onto cell 7 and
    # sweeps back; under P = 1, n = 5 its block 2 (cells 2..6) is visited
    # twice: the first visit writes any of 32 words, the second reads it back
    m = scribble(6)
    r = run_direct(m, "", 25)
    part = partition_for_trace(r.witness, P=1, n=5)
    bs = block_story(extract_history(r.witness, part), 2)
    assert [d.astuple() for d in bs.entries] == [
        (2, 1, 5, RIGHT), (3, 2, 1, RIGHT), (4, 2, 1, LEFT), (5, 1, 1, LEFT)]
    results = check_block(m, bs, "00000", budget=25)
    assert all(res.accepted and res.steps_consumed == 20 for res in results)
    words = {res.content_chain[1] for res in results}
    assert len(words) == 32 and all(res.content_chain[2] == res.content_chain[1] for res in results)
    for res in results:
        assert "".join("ab"[pick] for pick in res.choices_per_visit[0]) == res.content_chain[1]
    # leaving left across milestone 2, the right-hand one, is no way out of block 2
    entries = bs.entries[:3] + (Descriptor(5, 2, 1, LEFT),)
    (res,) = check_block(m, BlockStory(block=2, entries=entries), "00000", budget=25)
    assert (res.accepted, res.failed_phase, res.reject_reason) == (
        False, 4, RejectReason.WRONG_EXIT_LEFT)


def _nondeterministic_multi_visit_story(rng):
    """A random branching machine, one block story of its accepting run,
    and the phase records of that block.

    Draws machines until one accepts with a block that is visited at
    least twice and branches on some visit; state 1 sweeps left, so
    reaching it accepts.
    """
    while True:
        m = random_machine(rng, max_states=5)
        m = dataclasses.replace(m, rules={**m.rules, **{
            (1, s): DetRule(next_state=1, move=LEFT) for s in m.alphabet}})
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        n = max(len(w), 2)
        r = run_direct(m, w, n * n)
        if not r.accepted:
            continue
        stories = []
        for P in range(1, n + 1):
            part = partition_for_trace(r.witness, P, n)
            hist = extract_history(r.witness, part)
            records = phase_records(r.witness, part)
            branching = {rec.block for rec in records if rec.choices}
            stories += [(part, bs, [rec for rec in records if rec.block == bs.block])
                        for bs in (block_story(hist, j) for j in sorted(branching))
                        if len(bs.pairs()) >= 2]
        if stories:
            return (m, w, n, *rng.choice(stories))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_check_block_agrees_with_raw_stepping_on_branching_blocks(seed):
    rng = random.Random(seed)
    m, w, n, part, bs, records = _nondeterministic_multi_visit_story(rng)
    x0 = initial_block_content(bs.block, part, w)
    entries = list(bs.entries)
    idx = rng.randrange(len(entries))
    d = entries[idx]
    kind = rng.choice(("none", "state", "side", "phase"))
    if kind == "state":
        entries[idx] = Descriptor(d.phase, d.milestone, rng.randrange(m.state_count), d.delta)
    elif kind == "side":
        entries[idx] = Descriptor(d.phase, d.milestone, d.state, -d.delta)
    elif kind == "phase":
        entries[idx] = Descriptor(d.phase + rng.choice((-1, 1, 2)), d.milestone, d.state, d.delta)
    story = BlockStory(block=bs.block, entries=tuple(entries))
    budget = rng.choice((n * n, rng.randint(0, n * n)))
    try:
        results = check_block(m, story, x0, budget)
    except StoryStructureError:
        # a changed state keeps the story's shape; a changed phase never does
        assert kind in ("side", "phase")
        return
    assert kind != "phase"
    accepted = [res for res in results if res.accepted]
    assert bool(accepted) == block_story_feasible(m, part, bs.block, story.pairs(), x0, budget)
    assert accepted or len(results) == 1
    for res in accepted:
        assert len(res.content_chain) == len(story.pairs()) + 1
        assert res.content_chain[0] == x0 and res.steps_consumed <= budget
    spent = sum(rec.steps for rec in records)
    if kind == "none" and spent <= budget:
        # the witness's own chain realizes the story: its final content is
        # reached, and no dearer than the witness reached it
        final = [res for res in accepted if res.content_chain[-1] == records[-1].content_after]
        assert final and final[0].steps_consumed <= spent
