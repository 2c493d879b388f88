"""Partitions, descriptors, history extraction, and phase counting.

The zigzag corpus machine realizes the canonical example shape: rightward
to the fourth block, two oscillations between blocks 4 and 3, then a
straight walk back to an accepting exit.  Its histories under the (P=2,
n=2) partition have a known closed form asserted literally below.
"""

import pytest

from tmlab import (
    Partition,
    RegionExceeded,
    StoryStructureError,
    block_story,
    check_phase_lemma,
    extract_history,
    load_corpus_machine,
    merge_by_phase,
    parse_machine,
    partition_for_trace,
    phase_records,
    run_direct,
    run_with_choices,
    split_history,
)

from oracles import crossings_off_heads, replay_phase_count, replay_phase_table


@pytest.fixture(scope="module")
def zigzag_witness():
    m = load_corpus_machine("zigzag")
    r = run_direct(m, "", 20)
    assert r.accepted and r.usage.time == 15
    return r.witness


@pytest.fixture(scope="module")
def zigzag_history(zigzag_witness):
    return extract_history(zigzag_witness, Partition(P=2, n=2, r=5))


# ---------------------------------------------------------------------------
# partition geometry


def test_partition_block_ranges():
    part = Partition(P=2, n=3, r=4)
    assert part.block_range(1) == (1, 2)
    assert part.block_range(2) == (3, 5)
    assert part.block_range(3) == (6, 8)
    assert part.milestone_after_cell(2) == 1
    assert part.milestone_after_cell(5) == 2
    assert part.milestone_after_cell(3) is None
    assert part.milestone_after_cell(1) is None
    assert part.block_of_cell(1) == 1
    assert part.block_of_cell(3) == 2
    assert part.block_of_cell(6) == 3


def test_partition_validerrors():
    with pytest.raises(ValueError):
        Partition(P=4, n=3, r=2)
    with pytest.raises(ValueError):
        Partition(P=0, n=3, r=2)


# ---------------------------------------------------------------------------
# figure-shaped histories


def test_zigzag_histories_match_closed_form(zigzag_history):
    hist = zigzag_history
    entries = {h.milestone: [d.astuple() for d in h.entries] for h in hist.milestones}
    assert entries[0] == [(1, 0, 0, +1), (10, 0, 1, -1)]
    assert entries[1] == [(2, 1, 3, +1), (9, 1, 14, -1)]
    assert entries[2] == [(3, 2, 5, +1), (8, 2, 12, -1)]
    assert entries[3] == [(4, 3, 7, +1), (5, 3, 8, -1), (6, 3, 9, +1), (7, 3, 10, -1)]
    assert entries[4] == [] and entries[5] == []
    assert hist.violations() == []


def test_split_history_oscillating_milestone(zigzag_history):
    plus, minus = split_history(zigzag_history.milestone(3))
    assert [d.astuple() for d in plus.entries] == [(4, 3, 7, +1), (6, 3, 9, +1)]
    assert [d.astuple() for d in minus.entries] == [(5, 3, 8, -1), (7, 3, 10, -1)]


def test_split_history_tape_end_milestone(zigzag_history):
    plus, minus = split_history(zigzag_history.milestone(0))
    assert [d.astuple() for d in plus.entries] == [(1, 0, 0, +1)]
    assert [d.astuple() for d in minus.entries] == [(10, 0, 1, -1)]


def test_split_empty_history():
    from tmlab import MilestoneHistory
    plus, minus = split_history(MilestoneHistory(milestone=4))
    assert plus.entries == () and minus.entries == ()


def test_split_then_merge_reconstructs(zigzag_history):
    for h in zigzag_history.milestones:
        plus, minus = split_history(h)
        assert merge_by_phase(plus.entries, minus.entries) == h.entries


def test_block_story_oscillating_block(zigzag_history):
    pairs = [(a.astuple(), b.astuple()) for a, b in block_story(zigzag_history, 4).pairs()]
    assert pairs == [((4, 3, 7, +1), (5, 3, 8, -1)), ((6, 3, 9, +1), (7, 3, 10, -1))]


def test_block_story_first_block(zigzag_history):
    pairs = [(a.astuple(), b.astuple()) for a, b in block_story(zigzag_history, 1).pairs()]
    assert pairs == [((1, 0, 0, +1), (2, 1, 3, +1)), ((9, 1, 14, -1), (10, 0, 1, -1))]


def test_block_story_unvisited_block(zigzag_history):
    assert block_story(zigzag_history, 5).entries == ()


def test_block_story_rejects_broken_alternation(zigzag_history):
    from dataclasses import replace
    from tmlab import History, MilestoneHistory
    h3 = zigzag_history.milestone(3)
    flipped = tuple(replace(d, delta=+1) if d.phase == 5 else d for d in h3.entries)
    milestones = tuple(MilestoneHistory(h.milestone, flipped if h.milestone == 3 else h.entries)
                       for h in zigzag_history.milestones)
    broken = History(partition=zigzag_history.partition, milestones=milestones)
    with pytest.raises(StoryStructureError) as err:
        block_story(broken, 3)
    assert err.value.phase is not None


def test_block_story_rejects_an_exit_through_the_entry_side():
    """``block_story`` requires each visit to leave its block, as the shape
    check that ``check_block`` runs does not: there a wrong side is a run-time
    rejection."""
    from tmlab import BlockStory, Descriptor, History, MilestoneHistory
    d = [Descriptor(1, 0, 0, +1), Descriptor(2, 1, 0, +1), Descriptor(3, 1, 1, +1),
         Descriptor(4, 0, 1, -1)]
    lists = ((d[0], d[3]), (d[1], d[2]), (), ())
    story = History(partition=Partition(P=1, n=2, r=2),
                    milestones=tuple(MilestoneHistory(j, es) for j, es in enumerate(lists)))
    with pytest.raises(StoryStructureError, match=r"out-crossing \(3, 1, 1, 1\) does not leave"):
        block_story(story, 2)
    BlockStory(block=2, entries=(d[1], d[2])).check()


# ---------------------------------------------------------------------------
# extraction on other shapes


def test_history_confined_to_first_block(corpus):
    m = corpus["always_accept"]
    r = run_direct(m, "", 4)
    hist = extract_history(r.witness, Partition(P=3, n=3, r=2))
    assert [d.astuple() for d in hist.milestone(0).entries] == [(1, 0, 0, +1), (2, 0, 1, -1)]
    assert all(not hist.milestone(j).entries for j in range(1, 4))


def test_region_exceeded_when_partition_too_small(zigzag_witness):
    with pytest.raises(RegionExceeded):
        extract_history(zigzag_witness, Partition(P=2, n=2, r=2))


def test_partition_for_trace_covers(zigzag_witness):
    part = partition_for_trace(zigzag_witness, P=2, n=2)
    assert part.cells_covered() >= 7
    extract_history(zigzag_witness, part)  # should not raise


def test_extracted_histories_validate_for_rejecting_runs(corpus):
    m = corpus["palindrome"]
    tr = run_with_choices(m, "ab", (), 60)  # halts rejecting
    for P in (1, 2):
        hist = extract_history(tr, partition_for_trace(tr, P, 2))
        assert hist.violations() == []


# ---------------------------------------------------------------------------
# phase counting and the lemma table
#
# ``replay_phase_count`` is the replay-based oracle; ``check_phase_lemma``
# must agree with it wherever the trace fits the n^2 bound.


def test_phase_count_zigzag_is_ten(zigzag_witness):
    assert replay_phase_count(zigzag_witness, n=2, P=2) == 10


def test_phase_count_confined_accepting_run(corpus):
    r = run_direct(corpus["always_accept"], "", 4)
    for P in (1, 2, 3):
        assert replay_phase_count(r.witness, n=3, P=P) == 2
    assert check_phase_lemma(r.witness, 3).per_P == {1: 2, 2: 2, 3: 2}


def test_phase_count_no_crossing_rejecting_run():
    m = parse_machine("states 2\nalphabet 0\ndet 0 0 write 0 0\n")  # spins in place
    tr = run_with_choices(m, "", (), 5)
    for P in (1, 2, 3):
        assert replay_phase_count(tr, n=3, P=P) == 1
    assert check_phase_lemma(tr, 3).per_P == {1: 1, 2: 1, 3: 1}


def test_zigzag_sum_counts_moves_once_per_partition(zigzag_witness):
    # every completed move crosses the milestone of exactly one partition,
    # and the accepting exit counts once per partition
    n = 3
    total_k = sum(replay_phase_count(zigzag_witness, n=n, P=P) for P in range(1, n + 1))
    completed_moves = 14
    assert total_k == (completed_moves + n) + n


def test_phase_count_table_against_head_positions(corpus):
    # independent oracle: count milestone crossings straight off the head
    # positions of the recorded steps, plus opener and final exit
    m = corpus["palindrome"]
    r = run_direct(m, "aba", 60)
    witness = r.witness
    heads = [head for _, head, _ in witness.steps]
    n = 3
    for P in (1, 2, 3):
        crossings = 0
        for a, b in zip(heads, heads[1:]):
            boundary = min(a, b)
            if a != b and boundary >= P and (boundary - P) % n == 0:
                crossings += 1
        expected = 1 + crossings + 1  # opener + crossings + accepting exit
        assert replay_phase_count(witness, n=n, P=P) == expected


def test_check_phase_lemma_table(corpus):
    m = corpus["sweep_right"]
    r = run_direct(m, "abab", 16)
    rep = check_phase_lemma(r.witness, 4)
    assert rep.per_P == {1: 4, 2: 4, 3: 4, 4: 4}
    assert rep.holds and rep.best_P == 1
    assert rep.sum == rep.total_crossings + 4
    assert rep.sum_identity_ok


# one machine per way a trace can end: on the input a^(n-1) each walks
# right over the input first, so every end comes after milestone crossings
_TRACE_ENDS = {
    # back to cell 1 in state 1, then the accepting exit
    "accepting-exit": "det 0 a move R 0\ndet 0 0 move L 1\ndet 1 a move L 1\n",
    # back to cell 1 in state 2, then a rejecting left-edge attempt
    "left-edge": "det 0 a move R 0\ndet 0 0 move L 2\ndet 2 a move L 2\n",
    # no rule for the first blank
    "no-rule": "det 0 a move R 0\n",
    # walks right until the step bound
    "time-bound": "det 0 a move R 0\ndet 0 0 move R 0\n",
}


@pytest.mark.parametrize("end", sorted(_TRACE_ENDS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_pass_table_matches_replay_at_every_trace_end(end, n):
    m = parse_machine("states 3\nalphabet 0 a\n" + _TRACE_ENDS[end])
    tr = run_with_choices(m, "a" * (n - 1), (), n * n)
    assert (tr.halt.reason.value if tr.halt is not None else "time-bound") == end
    rep = check_phase_lemma(tr, n)
    assert rep.total_crossings > 0
    assert rep.per_P == replay_phase_table(tr, n)
    assert rep.total_crossings == crossings_off_heads(tr, n)
    assert rep.sum_identity_ok


def test_check_phase_lemma_requires_time_bound(zigzag_witness):
    with pytest.raises(ValueError, match="bound"):
        check_phase_lemma(zigzag_witness, 2)  # 15 steps > 4


def test_phase_records_thread_contents(corpus):
    m = corpus["sweep_right"]
    r = run_direct(m, "ab", 7)
    part = partition_for_trace(r.witness, P=1, n=2)
    records = phase_records(r.witness, part)
    assert [rec.block for rec in records] == [1, 2, 1]
    assert records[0].content_before == "a"
    # phase steps sum to the witness time and chain contents agree
    assert sum(rec.steps for rec in records) == r.usage.time
    for a, b in zip(records, records[1:]):
        if b.block == a.block:
            assert b.content_before == a.content_after
