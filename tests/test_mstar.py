"""Story guessing, verification, and the implication chain."""

import dataclasses
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    Descriptor,
    DetRule,
    History,
    InvalidStoryError,
    LEFT,
    MilestoneHistory,
    OPENER,
    Outcome,
    Partition,
    RIGHT,
    StoryGuess,
    descriptor_constant,
    extract_history,
    implication_chain,
    parse_machine,
    partition_for_trace,
    run_direct,
    run_with_choices,
    simulate_mstar,
    story_from_history,
    verify_story,
)

from oracles import first_verified_story, random_machine


def true_story(m, w, n, P):
    r = run_direct(m, w, n * n)
    assert r.accepted
    hist = extract_history(r.witness, partition_for_trace(r.witness, P, n))
    return story_from_history(hist), r


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
    assert tr.outcome is Outcome.ACCEPTED
    assert tr.usage.time == result.phase_steps


def test_invalid_closing_state_is_an_invariant_error(corpus):
    m = corpus["sweep_right"]
    guess, _ = true_story(m, "abab", 4, 2)
    h0 = guess.story.milestone(0)
    broken_h0 = MilestoneHistory(0, (h0.entries[0], replace(h0.entries[1], state=0)))
    milestones = (broken_h0,) + guess.story.milestones[1:]
    broken = replace(guess, story=replace(guess.story, milestones=milestones))
    with pytest.raises(InvalidStoryError, match="S_0"):
        verify_story(m, "abab", broken)


def test_delta_flip_is_rejected_by_checking(corpus):
    m = corpus["sweep_right"]
    guess, _ = true_story(m, "abab", 4, 2)
    h1 = guess.story.milestone(1)
    flipped = MilestoneHistory(1, tuple(
        replace(d, delta=-d.delta) if idx == 1 else d for idx, d in enumerate(h1.entries)))
    milestones = tuple(flipped if h.milestone == 1 else h for h in guess.story.milestones)
    broken = replace(guess, story=replace(guess.story, milestones=milestones))
    result = verify_story(m, "abab", broken)
    assert not result.accepted
    assert result.failed_block is not None or result.structure_error is not None


def test_state_flip_is_rejected_by_checking(corpus):
    m = corpus["sweep_right"]
    guess, _ = true_story(m, "abab", 4, 2)
    h1 = guess.story.milestone(1)
    mutated = MilestoneHistory(1, (replace(h1.entries[0], state=2),) + h1.entries[1:])
    milestones = tuple(mutated if h.milestone == 1 else h for h in guess.story.milestones)
    broken = replace(guess, story=replace(guess.story, milestones=milestones))
    result = verify_story(m, "abab", broken)
    assert not result.accepted and result.failed_block is not None


def test_slow_machine_story_verifies_with_matching_budget(corpus):
    # the palindrome run on "aba" takes 15 steps: its extracted story has
    # more phases than the n=3 search would enumerate, but verifying it
    # directly succeeds once the budget covers the run
    m = corpus["palindrome"]
    direct = run_direct(m, "aba", 60)
    assert direct.accepted and direct.usage.time == 15
    hist = extract_history(direct.witness, partition_for_trace(direct.witness, 2, 3))
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


# ---------------------------------------------------------------------------
# the implication chain


def chain_guess(r: int) -> StoryGuess:
    k = r + 2
    closer = Descriptor(k, 0, 1, LEFT)
    per = {0: [OPENER, closer]}
    for j in range(1, r + 1):
        per[j] = [Descriptor(j + 1, j, 0, RIGHT)]
    # walk right to block r+... keep it simple: r crossings out, then close;
    # not realizable by any machine, but structurally fine for chain math
    milestones = tuple(MilestoneHistory(j, tuple(per.get(j, ()))) for j in range(r + 2))
    story = History(Partition(P=1, n=max(2, r + 1), r=r), milestones)
    return StoryGuess(n=max(2, r + 1), P=1, r=r, k=k, story=story)


def test_chain_all_true_reduces(corpus):
    guess = chain_guess(3)
    report = implication_chain(guess, [True, True, True])
    assert report.sound and report.occurrence_ok
    assert report.reduced == "S_0^+ -> S_0^-"
    assert len(report.implications) == 4  # one per block plus the vacuous tail


def test_chain_one_false_verdict():
    guess = chain_guess(3)
    report = implication_chain(guess, [True, False, True])
    assert not report.sound and report.occurrence_ok


def test_chain_shape_for_four_blocks(corpus):
    m = corpus["zigzag"]
    r = run_direct(m, "", 20)
    hist = extract_history(r.witness, partition_for_trace(r.witness, 2, 2))
    guess = story_from_history(hist)
    assert guess.r == 4
    report = implication_chain(guess, [True] * 4)
    assert len(report.implications) == 5
    assert report.occurrence_ok and report.sound
    assert report.implications[0].antecedent == ("S_0^+", "S_1^-")
    assert report.implications[4].succedent == ("S_4^-", "S_5^+")


def test_chain_length_mismatch():
    with pytest.raises(ValueError, match="verdicts"):
        implication_chain(chain_guess(2), [True])


# ---------------------------------------------------------------------------
# the full simulator


def test_mstar_trivial_story_smallest_scale(corpus):
    m = corpus["always_accept"]
    result = simulate_mstar(m, "", 2)
    assert result.accepted
    assert result.winning.k == 2 and result.winning.r == 1 and result.winning.P == 1
    assert result.winning.descriptor_count() == 2
    c = descriptor_constant(m)
    assert result.sim_space <= max(result.winning.n, 2) + c * result.winning.n


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
    assert result.winning.P == 1 and result.winning.k == 4
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
    # a deterministic machine realizes at most one prefix per phase, so an
    # exhausted search examines at most one prefix per phase per P
    half = "abbabaababbabaab"
    w = half + half[::-1]
    w = w[:8] + "b" + w[9:]  # no longer a palindrome
    n = kmax = 32
    result = simulate_mstar(corpus["palindrome"], w, n)
    assert not result.accepted
    assert result.wall_stats <= n * (kmax - 1)


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
    # three prefixes reach phase 3 (k = max(2, n) = 4), in the order of the
    # state they cross into block 2 with: 4 halts in block 1, 5 and 8 close
    m = parse_machine(THREE_WAY_GUESS)
    result = simulate_mstar(m, "a", 4)
    assert result.accepted and (result.winning.P, result.winning.k) == (1, 4)
    assert [d.astuple() for d in result.winning.story.milestone(1).entries] == [
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
    want = first_verified_story(m, w, n, kmax=n + 2)
    got = simulate_mstar(m, w, n, max_phases=n + 2)
    assert got.accepted == (want is not None)
    if want is not None:
        assert (got.winning, got.phase_steps, got.witness_choices) == (
            want.winning, want.phase_steps, want.witness_choices)


def test_mstar_verify_round_trip(corpus):
    m = corpus["sweep_right"]
    result = simulate_mstar(m, "ababa", 5)
    assert result.accepted
    again = verify_story(m, "ababa", result.winning)
    assert again.accepted and again.sim_time == result.sim_time
