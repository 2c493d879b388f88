"""Single-phase simulation on a sentinel-delimited block."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    Descriptor,
    InconsistentDescriptors,
    LEFT,
    Partition,
    RIGHT,
    RejectReason,
    parse_machine,
    phase_records,
    run_direct,
    simulate_phase,
)

from oracles import block_stops, random_machine

SWEEPER = parse_machine("""\
machine transit
states 2
alphabet 0 a b
det 0 0 move R 0
det 0 a move R 0
det 0 b move R 0
""")


def accepted(outcomes):
    return [o for o in outcomes if o.accepted]


def test_pure_transit_accepts():
    d_in = Descriptor(phase=4, milestone=2, state=0, delta=RIGHT)   # enters block 3
    d_out = Descriptor(phase=5, milestone=3, state=0, delta=RIGHT)  # leaves to the right
    outs = simulate_phase(SWEEPER, d_in, d_out, "000", step_cap=10)
    assert [o for o in outs] == accepted(outs)
    (only,) = outs
    assert only.result == "000" and only.steps == 3 and only.choices == ()


def test_wrong_exit_side_rejected():
    d_in = Descriptor(phase=4, milestone=2, state=0, delta=RIGHT)
    d_out = Descriptor(phase=5, milestone=3, state=0, delta=LEFT)  # claims a left exit
    outs = simulate_phase(SWEEPER, d_in, d_out, "000", step_cap=10)
    assert accepted(outs) == []
    (only,) = outs
    assert only.reject_reason is RejectReason.WRONG_EXIT_RIGHT


def test_wrong_state_rejected():
    d_in = Descriptor(phase=4, milestone=2, state=0, delta=RIGHT)
    d_out = Descriptor(phase=5, milestone=3, state=1, delta=RIGHT)
    outs = simulate_phase(SWEEPER, d_in, d_out, "000", step_cap=10)
    (only,) = outs
    assert not only.accepted and only.reject_reason is RejectReason.WRONG_STATE


def test_halt_inside_is_rejected():
    m = parse_machine("states 2\nalphabet 0 a\ndet 0 a move R 0\n")
    d_in = Descriptor(phase=2, milestone=1, state=0, delta=RIGHT)
    d_out = Descriptor(phase=3, milestone=2, state=0, delta=RIGHT)
    outs = simulate_phase(m, d_in, d_out, "aa0a", step_cap=10)
    (only,) = outs
    assert only.reject_reason is RejectReason.HALTED_INSIDE


def test_branchy_enumeration_respects_work_budget():
    # guessing a symbol, writing it and moving right doubles the distinct
    # configurations of a level every three steps; the shared work budget
    # must cut the search off as an error
    from tmlab import NodeBudget, ResourceCapExceeded
    m = parse_machine("""\
states 5
alphabet 0 a b
nondet 0 2 3
det 2 0 write a 4
det 3 0 write b 4
det 4 a move R 0
det 4 b move R 0
""")
    d_in = Descriptor(phase=2, milestone=1, state=0, delta=RIGHT)
    d_out = Descriptor(phase=3, milestone=2, state=0, delta=RIGHT)
    with pytest.raises(ResourceCapExceeded):
        simulate_phase(m, d_in, d_out, "0" * 20, step_cap=40,
                       work=NodeBudget(5_000, "test enumeration"))
    # a branch state feeding write loops has a choice tree exponential in
    # the step cap but few configurations, so the same budget decides it
    loops = parse_machine("""\
states 6
alphabet 0 a b
nondet 0 2 3 4
det 2 0 write a 5
det 3 0 write b 5
det 4 0 write 0 5
det 2 a write a 5
det 3 a write b 5
det 4 a write 0 5
det 2 b write a 5
det 3 b write b 5
det 4 b write 0 5
det 5 a write a 0
det 5 b write b 0
det 5 0 write 0 0
""")
    d_out = Descriptor(phase=3, milestone=2, state=5, delta=RIGHT)
    outs = simulate_phase(loops, d_in, d_out, "00", step_cap=40,
                          work=NodeBudget(5_000, "test enumeration"))
    assert outs and not accepted(outs)


def test_step_cap_is_a_distinct_outcome():
    m = parse_machine("states 2\nalphabet 0\ndet 0 0 write 0 0\n")  # spins forever
    d_in = Descriptor(phase=2, milestone=1, state=0, delta=RIGHT)
    d_out = Descriptor(phase=3, milestone=2, state=0, delta=RIGHT)
    outs = simulate_phase(m, d_in, d_out, "00", step_cap=6)
    (only,) = outs
    assert only.reject_reason is RejectReason.STEP_CAP_EXCEEDED and only.steps == 6


def test_first_block_left_exit_checks_pre_move_state(corpus):
    # the always-accept machine writes then attempts the left exit from
    # cell 1 while in state 1: on block 1 that is the accepting crossing
    m = corpus["always_accept"]
    d_in = Descriptor(phase=1, milestone=0, state=0, delta=RIGHT)
    d_out = Descriptor(phase=2, milestone=0, state=1, delta=LEFT)
    outs = simulate_phase(m, d_in, d_out, "ab", step_cap=9)
    assert len(accepted(outs)) == 1
    assert accepted(outs)[0].steps == 2


def test_descriptor_pair_validation():
    d_in = Descriptor(phase=4, milestone=2, state=0, delta=RIGHT)
    with pytest.raises(InconsistentDescriptors, match="phase"):
        simulate_phase(SWEEPER, d_in, Descriptor(6, 3, 0, RIGHT), "000", 10)
    with pytest.raises(InconsistentDescriptors, match="milestone"):
        simulate_phase(SWEEPER, d_in, Descriptor(5, 5, 0, RIGHT), "000", 10)


def test_nondeterministic_outcomes_enumerated_in_choice_order():
    m = parse_machine("""\
states 6
alphabet 0 a b
nondet 0 2 4
det 2 0 write a 3
det 3 a move R 5
det 4 0 write b 3
det 3 b move R 5
""")
    d_in = Descriptor(phase=2, milestone=1, state=0, delta=RIGHT)
    d_out = Descriptor(phase=3, milestone=2, state=5, delta=RIGHT)
    outs = accepted(simulate_phase(m, d_in, d_out, "0", step_cap=9))
    assert [(o.result, o.choices) for o in outs] == [("a", (0,)), ("b", (1,))]


def test_outcomes_deduplicate_on_content_state_side():
    # two branches converge on the identical write and exit
    m = parse_machine("""\
states 5
alphabet 0 a b
nondet 0 2 3
det 2 0 write a 4
det 3 0 write a 4
det 4 a move R 4
""")
    d_in = Descriptor(phase=2, milestone=1, state=0, delta=RIGHT)
    d_out = Descriptor(phase=3, milestone=2, state=4, delta=RIGHT)
    outs = accepted(simulate_phase(m, d_in, d_out, "0", step_cap=9))
    assert len(outs) == 1
    assert outs[0].choices == (0,)  # lexicographically least representative


def test_no_sentinels_ever_appear_in_results(corpus):
    m = corpus["guesser"]
    r = run_direct(m, "aaa", 40)
    part = Partition(P=2, n=3)
    for rec in phase_records(r.witness, part):
        if rec.left is None:
            continue
        for o in simulate_phase(m, rec.entered, rec.left, rec.content_before, 60):
            if o.accepted:
                assert "⟨" not in o.result and "⟩" not in o.result


def test_accepted_outcomes_replay_through_raw_stepping(corpus):
    # soundness: an accepted outcome's choice sequence drives the real
    # machine (via the oracles' step on absolute cells) to the same content and exit
    from oracles import is_branch_state, step
    from tmlab import Configuration, HaltReason

    m = corpus["guesser"]
    r = run_direct(m, "aaa", 40)
    part = Partition(P=1, n=3)
    for rec in phase_records(r.witness, part):
        if rec.left is None:
            continue
        outs = simulate_phase(m, rec.entered, rec.left, rec.content_before, 60)
        for o in outs:
            if not o.accepted:
                continue
            lo, hi = part.block_range(rec.block)
            tape = {lo + i: s for i, s in enumerate(rec.content_before)}
            config = Configuration(state=rec.entered.state,
                                   head=lo if rec.entered.delta == RIGHT else hi,
                                   tape=tape)
            picks = iter(o.choices)
            for _ in range(o.steps):
                choice = next(picks) if is_branch_state(m, config.state) else None
                nxt = step(m, config, choice)
                if isinstance(nxt, HaltReason):
                    break
                config = nxt
            content = "".join(config.tape.get(c, "0") for c in range(lo, hi + 1))
            assert content == o.result


def test_recorded_phases_replay_from_ground_truth(corpus):
    # faithfulness on a nondeterministic witness, every partition choice
    m = corpus["guesser"]
    r = run_direct(m, "aaaa", 16)
    assert r.accepted
    n = 4
    for P in range(1, n + 1):
        part = Partition(P, n)
        for rec in phase_records(r.witness, part):
            if rec.left is None:
                continue
            outs = simulate_phase(m, rec.entered, rec.left, rec.content_before, n * n)
            hits = [o for o in outs if o.accepted and o.result == rec.content_after]
            assert hits, (P, rec)
            assert any(o.steps <= rec.steps for o in hits)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=300, deadline=None)
def test_outcomes_match_raw_stepping_oracle(seed):
    # every way the phase can stop, each at its fewest steps, agrees with
    # running the machine on the block's absolute cells
    rng = random.Random(seed)
    m = random_machine(rng)
    n = rng.randint(1, 3)
    part = Partition(P=rng.randint(1, n), n=n)
    j = rng.randint(1, 3)
    delta = rng.choice((LEFT, RIGHT))
    state = rng.randrange(m.state_count)
    content = "".join(rng.choice("0ab") for _ in range(part.block_length(j)))
    cap = rng.randint(1, 8)
    d_in = Descriptor(phase=2, milestone=j - 1 if delta == RIGHT else j, state=state, delta=delta)
    d_out = Descriptor(phase=3, milestone=j, state=rng.randrange(m.state_count), delta=RIGHT)
    got = {(o.content, o.exit_state, o.exit_delta): o.steps
           for o in simulate_phase(m, d_in, d_out, content, cap)
           if o.reject_reason is not RejectReason.STEP_CAP_EXCEEDED}
    want: dict = {}
    for s in block_stops(m, part, j, state, delta, content, cap):
        key = (s.content, s.state, s.delta)
        want[key] = min(want.get(key, s.steps), s.steps)
    assert got == want
