"""Story guessing, verification and search.

Why checking every block verifies a story (the implication chain down to
``S_0^+ → S_0^-``) is argued in :func:`tmlab.verify_story`'s docstring.
"""

import dataclasses
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    DetRule,
    HaltReason,
    InvalidStoryError,
    LEFT,
    Partition,
    RIGHT,
    descriptor_constant,
    extract_history,
    parse_machine,
    run_direct,
    run_with_choices,
    simulate_mstar,
    story_from_history,
    verify_story,
)

from oracles import first_verified_story, random_machine, scribble


def true_story(m, w, n, P):
    r = run_direct(m, w, n * n)
    assert r.accepted
    hist = extract_history(r.witness, Partition(P, n))
    return story_from_history(hist), r


def with_changed(story, old, new):
    """``story`` with the descriptor ``old`` replaced by ``new``."""
    return replace(story, walk=tuple(new if d == old else d for d in story.walk))


# ---------------------------------------------------------------------------
# verify_story


def test_extracted_story_verifies(corpus):
    m = corpus["sweep_right"]
    guess, direct = true_story(m, "abab", 4, 2)
    result = verify_story(m, "abab", guess)
    assert result.accepted
    assert result.phase_steps == direct.usage.time
    assert result.sim_time == result.guess_cost + result.overhead_steps + result.phase_steps


def test_verify_story_accepts_nondeterministic_witness(corpus):
    m = corpus["guesser"]
    guess, direct = true_story(m, "bbbb", 4, 1)
    result = verify_story(m, "bbbb", guess)
    assert result.accepted
    # soundness: concatenated phase choices replay to an accepting run
    concat = [c for phase in result.witness_choices for c in phase]
    tr = run_with_choices(m, "bbbb", concat, max_time=result.budget)
    assert tr.halt is HaltReason.ACCEPTING_EXIT
    assert tr.usage.time == result.phase_steps


def test_invalid_closing_state_is_an_invariant_error(corpus):
    m = corpus["sweep_right"]
    guess, _ = true_story(m, "abab", 4, 2)
    closer = guess.milestone(0)[1]
    broken = with_changed(guess, closer, replace(closer, state=0))
    with pytest.raises(InvalidStoryError, match="S_0"):
        verify_story(m, "abab", broken)


def test_delta_flip_is_rejected_by_checking(corpus):
    m = corpus["sweep_right"]
    guess, _ = true_story(m, "abab", 4, 2)
    d = guess.milestone(1)[1]
    broken = with_changed(guess, d, replace(d, delta=-d.delta))
    with pytest.raises(InvalidStoryError, match="phase 3: .* does not leave block 2"):
        verify_story(m, "abab", broken)


def test_state_flip_is_rejected_by_checking(corpus):
    m = corpus["sweep_right"]
    guess, _ = true_story(m, "abab", 4, 2)
    d = guess.milestone(1)[0]
    broken = with_changed(guess, d, replace(d, state=2))
    result = verify_story(m, "abab", broken)
    assert not result.accepted and result.failed_block is not None


def test_slow_machine_story_verifies_with_matching_budget(corpus):
    # the palindrome run on "aba" takes 15 steps: its extracted story has
    # more phases than the n=3 search would enumerate, but verifying it
    # directly succeeds once the budget covers the run
    m = corpus["palindrome"]
    direct = run_direct(m, "aba", 60)
    assert direct.accepted and direct.usage.time == 15
    hist = extract_history(direct.witness, Partition(2, 3))
    assert hist.violations() == []
    guess = story_from_history(hist)
    assert guess.k == 6
    assert not verify_story(m, "aba", guess).accepted            # default budget 9
    result = verify_story(m, "aba", guess, budget=15)
    assert result.accepted and result.phase_steps == 15


def test_verify_story_budget_exhaustion_flagged(corpus):
    m = corpus["sweep_right"]
    guess, direct = true_story(m, "abab", 4, 2)
    result = verify_story(m, "abab", guess, budget=direct.usage.time - 1)
    assert not result.accepted and result.budget_exhausted


def test_zigzag_story_is_trimmed_to_its_visited_blocks_and_verifies(corpus):
    # the story's r is read off its walk: the four blocks the head visits,
    # each of which is checked
    m = corpus["zigzag"]
    direct = run_direct(m, "", 20)
    hist = extract_history(direct.witness, Partition(2, 2))
    guess = story_from_history(hist)
    assert guess.r == 4
    result = verify_story(m, "", guess, budget=direct.usage.time)
    assert result.accepted and result.phase_steps == direct.usage.time


# ---------------------------------------------------------------------------
# the full simulator


def test_mstar_trivial_story_smallest_scale(corpus):
    m = corpus["always_accept"]
    result = simulate_mstar(m, "", 2)
    assert result.accepted
    part = result.winning.partition
    assert result.winning.k == 2 and result.winning.r == 1 and part.P == 1
    assert len(result.winning.walk) == 2
    c = descriptor_constant(m)
    assert result.sim_space <= max(part.n, 2) + c * part.n


def test_mstar_scale_one_budget_matches_direct(corpus):
    # at n=1 the budget is a single step, one short of the cheapest
    # accepting run (write + exit); both searches must agree on rejection
    m = corpus["always_accept"]
    assert not run_direct(m, "", 1).accepted
    result = simulate_mstar(m, "", 1)
    assert not result.accepted and result.budget == 1


def test_mstar_agrees_with_direct_on_palindrome(corpus):
    m = corpus["palindrome"]
    for w, n in [("aba", 3), ("ab", 2)]:
        d = run_direct(m, w, n * n)
        s = simulate_mstar(m, w, n)
        assert s.accepted == d.accepted
        # this machine needs more than n^2 steps on these inputs
        assert not s.accepted


def test_mstar_winner_is_canonical_first(corpus):
    m = corpus["guesser"]
    result = simulate_mstar(m, "aaaa", 4)
    assert result.accepted
    # stories are tried P ascending, then k ascending: P=1 realizes k=4 first
    assert result.winning.partition.P == 1 and result.winning.k == 4
    again = simulate_mstar(m, "aaaa", 4)
    assert again.winning == result.winning


def test_mstar_rejects_scale_below_input():
    m = {}
    from tmlab import corpus_machines
    m = corpus_machines()["always_accept"]
    with pytest.raises(ValueError, match="input length"):
        simulate_mstar(m, "aaa", 2)


def test_mstar_node_cap_is_an_error(corpus):
    from tmlab import ResourceCapExceeded
    with pytest.raises(ResourceCapExceeded):
        simulate_mstar(corpus["sweep_right"], "abab", 4, node_cap=0)


def test_mstar_wall_stats_counts_search_effort(corpus):
    accept = simulate_mstar(corpus["always_accept"], "ab", 2)
    reject = simulate_mstar(corpus["palindrome"], "ab", 2)
    assert accept.wall_stats >= 1
    assert reject.wall_stats >= accept.wall_stats  # exhaustion examines more prefixes


def test_mstar_examines_each_prefix_once_per_first_block_length(corpus):
    # a deterministic machine realizes at most one prefix per phase; this
    # one halts long before the last phase level, so the walk for P = 1 is
    # complete and it alone settles the rejection
    half = "abbabaababbabaab"
    w = half + half[::-1]
    w = w[:8] + "b" + w[9:]  # no longer a palindrome
    n = kmax = 32
    result = simulate_mstar(corpus["palindrome"], w, n)
    assert not result.accepted
    assert result.complete_walk_P == 1
    assert result.wall_stats <= kmax - 1


def test_mstar_rejects_at_once_when_no_rule_leaves_the_start_state():
    m = parse_machine("states 2\nalphabet 0 a\ndet 1 a move L 1\ndet 1 0 move L 1\n")
    result = simulate_mstar(m, "aa", 3)
    assert not result.accepted
    assert (result.complete_walk_P, result.wall_stats) == (1, 1)


CUT_THEN_HALT = """\
states 9
alphabet 0 a
nondet 0 2 3
det 2 0 move R 4
det 3 0 move R 5
det 4 0 move L 6
det 5 0 move L 8
det 6 0 move R 7
det 7 0 move L 1
det 1 0 move L 1
"""


def test_one_cut_prefix_on_the_last_level_keeps_the_walk_incomplete():
    # at n = 3 and P = 1 the last level, phase 3, holds two prefixes back in
    # block 1: state 6's still has an exit into block 2, and state 8's
    # halts. The first cuts the walk, though the last does not, so P = 2,
    # where the same run stays in block 1 and accepts in 2 phases, is still
    # reached
    m = parse_machine(CUT_THEN_HALT)
    result = simulate_mstar(m, "", 3)
    assert result.accepted and (result.winning.partition.P, result.winning.k) == (2, 2)
    assert result.complete_walk_P is None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_complete_walk_means_no_run_and_no_story_accepts(seed):
    # a walk the phase bound did not cut has followed every computation to
    # its end, so neither direct search nor any story within the same bound
    # may accept; an accepting later P would expose a cut walk called complete
    rng = random.Random(seed)
    m = random_machine(rng, max_states=4)
    m = dataclasses.replace(m, rules={**m.rules, **{
        (1, s): DetRule(next_state=1, move=LEFT) for s in m.alphabet}})
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    n = max(len(w), rng.randint(2, 4))
    got = simulate_mstar(m, w, n)
    if got.complete_walk_P is not None:
        assert not run_direct(m, w, n * n).accepted
        assert first_verified_story(m, w, n, kmax=n + n % 2) is None


THREE_WAY_GUESS = """\
states 9
alphabet 0 a
nondet 0 2 3 7
det 2 a move R 4
det 3 a move R 5
det 7 a move R 8
det 4 0 move L 6
det 5 0 move L 1
det 8 0 move L 1
det 1 a move L 1
"""


def test_mstar_winner_is_least_closing_prefix_of_the_last_phase():
    # three prefixes reach phase 3 (k = n + n % 2 = 4), in the order of the
    # state they cross into block 2 with: 4 halts in block 1, 5 and 8 close
    m = parse_machine(THREE_WAY_GUESS)
    result = simulate_mstar(m, "a", 4)
    assert result.accepted and (result.winning.partition.P, result.winning.k) == (1, 4)
    assert [d.astuple() for d in result.winning.milestone(1)] == [
        (2, 1, 5, RIGHT), (3, 1, 1, LEFT)]
    assert result.witness_choices == ((1,), (), ())
    assert result.winning == first_verified_story(m, "a", 4, kmax=4).winning


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_mstar_matches_first_verified_story(seed):
    rng = random.Random(seed)
    m = random_machine(rng, max_states=4)
    # state 1 sweeps left, so reaching it accepts: about a third accept
    m = dataclasses.replace(m, rules={**m.rules, **{
        (1, s): DetRule(next_state=1, move=LEFT) for s in m.alphabet}})
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    n = max(len(w), 2)
    want = first_verified_story(m, w, n, kmax=n + n % 2)
    got = simulate_mstar(m, w, n)
    assert got.accepted == (want is not None)
    if want is not None:
        assert (got.winning, got.phase_steps, got.witness_choices) == (
            want.winning, want.phase_steps, want.witness_choices)


def test_mstar_runs_each_block_content_once_on_a_wide_machine(monkeypatch):
    # scribble_12 writes one of 2**12 words over 12 cells before it sweeps
    # back, so a search that keyed its frontier on every block's content at
    # once would hold their product; one frontier per block holds their sum
    import tmlab.block_check
    calls = []
    enumerate_block_runs = tmlab.block_check.enumerate_block_runs

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_block_runs(*args, **kwargs)

    monkeypatch.setattr(tmlab.block_check, "enumerate_block_runs", counted)
    m = scribble(12)
    result = simulate_mstar(m, "", 7)
    assert result.accepted
    assert result.phase_steps == run_direct(m, "", 49).usage.time == 49
    assert result.sim_space == 24
    assert len(calls) <= 400


def test_mstar_verify_round_trip(corpus):
    m = corpus["sweep_right"]
    result = simulate_mstar(m, "ababa", 5)
    assert result.accepted
    again = verify_story(m, "ababa", result.winning)
    assert again.accepted and again.sim_time == result.sim_time
