"""Partitions, descriptors, history extraction, and phase counting.

The zigzag corpus machine realizes the canonical example shape: rightward
to the fourth block, two oscillations between blocks 4 and 3, then a
straight walk back to an accepting exit.  Its histories under the (P=2,
n=2) partition have a known closed form asserted literally below.
"""

import math
import random

import pytest

from tmlab import (
    CORPUS_MACHINES,
    Partition,
    RejectReason,
    check_block,
    check_phase_lemma,
    extract_history,
    load_corpus_machine,
    merge_by_phase,
    parse_machine,
    phase_records,
    run_direct,
    run_with_choices,
    story_from_history,
)

from conftest import all_inputs, assert_one_walk, scale_for
from oracles import (crossings_off_heads, random_machine, replay_phase_count, replay_phase_table,
                     ruler, split_history)


@pytest.fixture(scope="module")
def zigzag():
    return load_corpus_machine("zigzag")


@pytest.fixture(scope="module")
def zigzag_witness(zigzag):
    r = run_direct(zigzag, "", 20)
    assert r.accepted and r.usage.time == 15
    return r.witness


@pytest.fixture(scope="module")
def zigzag_history(zigzag_witness):
    return extract_history(zigzag_witness, Partition(P=2, n=2))


# ---------------------------------------------------------------------------
# partition geometry


def test_partition_block_ranges():
    part = Partition(P=2, n=3)
    assert part.block_range(1) == (1, 2)
    assert part.block_range(2) == (3, 5)
    assert part.block_range(3) == (6, 8)


def test_partition_validerrors():
    with pytest.raises(ValueError):
        Partition(P=4, n=3)
    with pytest.raises(ValueError):
        Partition(P=0, n=3)


# ---------------------------------------------------------------------------
# figure-shaped histories


def test_zigzag_histories_match_closed_form(zigzag_history):
    hist = zigzag_history
    assert hist.r == 4
    entries = {j: [d.astuple() for d in hist.milestone(j)] for j in range(hist.r + 2)}
    assert entries[0] == [(1, 0, 0, +1), (10, 0, 1, -1)]
    assert entries[1] == [(2, 1, 3, +1), (9, 1, 14, -1)]
    assert entries[2] == [(3, 2, 5, +1), (8, 2, 12, -1)]
    assert entries[3] == [(4, 3, 7, +1), (5, 3, 8, -1), (6, 3, 9, +1), (7, 3, 10, -1)]
    assert entries[4] == [] and entries[5] == []
    assert hist.violations() == []


def test_split_history_oscillating_milestone(zigzag_history):
    plus, minus = split_history(zigzag_history.milestone(3))
    assert [d.astuple() for d in plus] == [(4, 3, 7, +1), (6, 3, 9, +1)]
    assert [d.astuple() for d in minus] == [(5, 3, 8, -1), (7, 3, 10, -1)]


def test_split_history_tape_end_milestone(zigzag_history):
    plus, minus = split_history(zigzag_history.milestone(0))
    assert [d.astuple() for d in plus] == [(1, 0, 0, +1)]
    assert [d.astuple() for d in minus] == [(10, 0, 1, -1)]


def test_split_empty_history(zigzag_history):
    plus, minus = split_history(zigzag_history.milestone(4))
    assert plus == () and minus == ()


def test_split_then_merge_reconstructs(zigzag_history):
    for j in range(zigzag_history.r + 2):
        plus, minus = split_history(zigzag_history.milestone(j))
        assert merge_by_phase(plus, minus) == zigzag_history.milestone(j)


def test_block_story_oscillating_block(zigzag_history):
    pairs = [(a.astuple(), b.astuple()) for a, b in zigzag_history.visits(4)]
    assert pairs == [((4, 3, 7, +1), (5, 3, 8, -1)), ((6, 3, 9, +1), (7, 3, 10, -1))]


def test_block_story_first_block(zigzag_history):
    pairs = [(a.astuple(), b.astuple()) for a, b in zigzag_history.visits(1)]
    assert pairs == [((1, 0, 0, +1), (2, 1, 3, +1)), ((9, 1, 14, -1), (10, 0, 1, -1))]


def test_block_story_unvisited_block(zigzag_history):
    assert zigzag_history.visits(5) == []


def _accepted_histories():
    """Histories of accepting runs: the corpus on short inputs,
    ``ruler(4/12/24)`` at ``n = ⌈√T⌉``, and random machines."""
    corpus = {name: load_corpus_machine(name) for name in CORPUS_MACHINES}
    runs = [(m, w, scale_for(w)) for m in corpus.values() for w in all_inputs(max_len=4)]
    runs += [(ruler(K), "", math.isqrt(2 * K) + 1) for K in (4, 12, 24)]
    rng = random.Random(25)
    runs += [(random_machine(rng), w, 3) for w in ("", "a", "ab", "bab") for _ in range(100)]
    for m, w, n in runs:
        r = run_direct(m, w, n * n)
        if r.accepted:
            for P in range(1, n + 1):
                yield extract_history(r.witness, Partition(P, n))


def test_visits_pair_each_blocks_crossings_in_order():
    """Block ``j``'s visits are milestones ``j-1`` and ``j``'s crossings,
    paired in phase order, in every extracted history, which is its own
    story, and no block past ``r`` is visited."""
    blocks = 0
    for hist in _accepted_histories():
        assert story_from_history(hist) is hist
        for j in range(1, hist.r + 2):
            crossings = [d for d in hist.walk if d.milestone in (j - 1, j)]
            assert hist.visits(j) == list(zip(crossings[::2], crossings[1::2])), (hist, j)
            assert bool(crossings) == (j <= hist.r), (hist, j)
            blocks += 1
    assert blocks > 600


def test_block_story_rejects_broken_alternation(zigzag_history):
    """Two +1 crossings of milestone 3 in a row are no head walk: the history
    rule names the phase whose crossing does not leave block 4."""
    from dataclasses import replace
    walk = tuple(replace(d, delta=+1) if d.phase == 5 else d for d in zigzag_history.walk)
    broken = replace(zigzag_history, walk=walk)
    assert broken.violations() == ["phase 5: (5, 3, 8, 1) does not leave block 4"]


def test_history_must_open_with_the_opener(zigzag_history):
    from dataclasses import replace
    walk = zigzag_history.walk
    broken = replace(zigzag_history, walk=(replace(walk[0], state=5),) + walk[1:])
    assert broken.violations() == ["histories must open with (1, 0, 0, 1)"]


def test_block_story_rejects_an_exit_through_the_entry_side(corpus):
    """The history rule requires each visit to leave its block; ``check_block``
    runs the visit as given and rejects the wrong side at run time."""
    from tmlab import Descriptor, History
    d = [Descriptor(1, 0, 0, +1), Descriptor(2, 1, 0, +1), Descriptor(3, 1, 1, +1),
         Descriptor(4, 0, 1, -1)]
    story = History(partition=Partition(P=1, n=2), walk=tuple(d))
    assert story.violations() == ["phase 3: (3, 1, 1, 1) does not leave block 2"]
    visit = story.visits(2)[0]
    assert visit == (d[1], d[2])
    (res,) = check_block(corpus["sweep_right"], 2, [visit], "aa", 9)
    assert (res.accepted, res.failed_phase, res.reject_reason) == (
        False, 2, RejectReason.WRONG_EXIT_RIGHT)


# ---------------------------------------------------------------------------
# extraction on other shapes


def test_history_confined_to_first_block(corpus):
    m = corpus["always_accept"]
    r = run_direct(m, "", 4)
    hist = extract_history(r.witness, Partition(P=3, n=3))
    assert [d.astuple() for d in hist.milestone(0)] == [(1, 0, 0, +1), (2, 0, 1, -1)]
    assert all(not hist.milestone(j) for j in range(1, 4))
    assert hist.r == 1


def test_history_walk_equals_the_phase_records_crossings(corpus):
    walks = short = 0
    for name in CORPUS_MACHINES:
        for w in all_inputs(5):
            n = scale_for(w)
            r = run_direct(corpus[name], w, n * n)
            if not r.accepted:
                continue
            for P in range(1, n + 1):
                walks += 1
                short += assert_one_walk(corpus[name], r.witness, Partition(P, n))
    assert walks > 100 and short > 0


def test_extracted_histories_validate_for_rejecting_runs(corpus):
    m = corpus["palindrome"]
    tr = run_with_choices(m, "ab", (), 60)  # halts rejecting
    for P in (1, 2):
        hist = extract_history(tr, Partition(P, 2))
        assert hist.violations() == []


# ---------------------------------------------------------------------------
# phase counting and the lemma table
#
# ``replay_phase_count`` is the replay-based oracle; ``check_phase_lemma``
# must agree with it wherever the trace fits the n^2 bound.


def test_phase_count_zigzag_is_ten(zigzag, zigzag_witness):
    assert replay_phase_count(zigzag, zigzag_witness, n=2, P=2) == 10


def test_phase_count_confined_accepting_run(corpus):
    r = run_direct(corpus["always_accept"], "", 4)
    for P in (1, 2, 3):
        assert replay_phase_count(corpus["always_accept"], r.witness, n=3, P=P) == 2
    assert check_phase_lemma(r.witness, 3).per_P == {1: 2, 2: 2, 3: 2}


def test_phase_count_no_crossing_rejecting_run():
    m = parse_machine("states 2\nalphabet 0\ndet 0 0 write 0 0\n")  # spins in place
    tr = run_with_choices(m, "", (), 5)
    for P in (1, 2, 3):
        assert replay_phase_count(m, tr, n=3, P=P) == 1
    assert check_phase_lemma(tr, 3).per_P == {1: 1, 2: 1, 3: 1}


def test_zigzag_sum_counts_moves_once_per_partition(zigzag, zigzag_witness):
    # every completed move crosses the milestone of exactly one partition,
    # and the accepting exit counts once per partition
    n = 3
    total_k = sum(replay_phase_count(zigzag, zigzag_witness, n=n, P=P) for P in range(1, n + 1))
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
        assert replay_phase_count(m, witness, n=n, P=P) == expected


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
    assert (tr.halt.value if tr.halt is not None else "time-bound") == end
    rep = check_phase_lemma(tr, n)
    assert rep.total_crossings > 0
    assert rep.per_P == replay_phase_table(m, tr, n)
    assert rep.total_crossings == crossings_off_heads(tr, n)
    assert rep.sum_identity_ok


def test_check_phase_lemma_requires_time_bound(zigzag_witness):
    with pytest.raises(ValueError, match="bound"):
        check_phase_lemma(zigzag_witness, 2)  # 15 steps > 4


def test_phase_records_thread_contents(corpus):
    m = corpus["sweep_right"]
    r = run_direct(m, "ab", 7)
    part = Partition(P=1, n=2)
    records = phase_records(r.witness, part)
    assert [rec.block for rec in records] == [1, 2, 1]
    assert records[0].content_before == "a"
    # phase steps sum to the witness time and chain contents agree
    assert sum(rec.steps for rec in records) == r.usage.time
    for a, b in zip(records, records[1:]):
        if b.block == a.block:
            assert b.content_before == a.content_after
