"""Property tests: replay determinism, monotonicity, history invariants."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    Descriptor,
    DetRule,
    HaltReason,
    LEFT,
    RIGHT,
    check_phase_lemma,
    extract_history,
    merge_by_phase,
    partition_for_trace,
    run_direct,
    run_with_choices,
)

from conftest import assert_one_walk
from oracles import (crossings_off_heads, random_machine, replay_phase_count, replay_phase_table,
                     split_history)


def random_run(seed: int, max_time: int = 18):
    rng = random.Random(seed)
    m = random_machine(rng)
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
    trace = run_with_choices(m, w, lambda state, succs: rng.randrange(len(succs)), max_time)
    return rng, m, w, trace


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=300, deadline=None)
def test_random_run_histories_satisfy_invariants(seed):
    rng, m, w, trace = random_run(seed)
    P = rng.randint(1, 4)
    n = rng.randint(P, 5)
    hist = extract_history(trace, partition_for_trace(trace, P, n))
    assert hist.violations() == []
    for j in range(hist.partition.r + 2):
        plus, minus = split_history(hist.milestone(j))
        assert merge_by_phase(plus, minus) == hist.milestone(j)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_replay_is_deterministic(seed):
    _rng, m, w, trace = random_run(seed)
    again = run_with_choices(m, w, trace.choices, max_time=max(trace.usage.time, 1))
    assert again.halt == trace.halt
    assert again.usage == trace.usage
    assert again.final == trace.final


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_space_at_most_time_plus_one(seed):
    _rng, _m, _w, trace = random_run(seed)
    assert 0 <= trace.usage.space <= trace.usage.time + 1


@given(st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60, deadline=None)
def test_direct_acceptance_monotone(seed):
    rng = random.Random(seed)
    m = random_machine(rng, max_states=5)
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    base = run_direct(m, w, 10, node_cap=200_000)
    if not base.accepted:
        return
    for bigger in (11, 15, 25):
        again = run_direct(m, w, bigger, node_cap=400_000)
        assert again.accepted
        assert again.usage.time == base.usage.time
        assert again.witness.choices == base.witness.choices


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_crossings_summed_over_partitions_at_most_moves(seed):
    # each completed move crosses one boundary, and each boundary is a
    # milestone of exactly one partition, so the crossing totals of all
    # partitions cannot exceed the move count
    from tmlab import DetRule

    rng, m, w, trace = random_run(seed)
    n = rng.randint(2, 5)
    moves = sum(1 for _, _, action in trace.steps
                if isinstance(action, DetRule) and action.move is not None)
    total = sum(replay_phase_count(trace, n=n, P=P) for P in range(1, n + 1))
    # subtract the opener phase and any final exit, counted once per partition
    assert total - n * (1 + _has_edge_exit(trace)) <= moves


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
@settings(max_examples=200, deadline=None)
def test_one_pass_lemma_table_matches_replay_oracle(seed, n):
    # traces run to the n^2 bound or stop earlier by accepting, by a
    # rejecting left-edge attempt or with no applicable rule
    _rng, _m, _w, trace = random_run(seed, max_time=n * n)
    rep = check_phase_lemma(trace, n)
    table = replay_phase_table(trace, n)
    assert rep.per_P == table
    assert rep.sum == sum(table.values())
    assert rep.best_P == min(table, key=lambda P: (table[P], P))
    assert rep.total_crossings == crossings_off_heads(trace, n)
    assert rep.sum_identity_ok


def accepting_run(seed: int, n: int):
    """The first run a seed draws that accepts within ``n**2`` steps, or None.

    State 1 sweeps left, so a run accepts once it reaches state 1.
    """
    rng = random.Random(seed)
    for _ in range(50):
        m = random_machine(rng)
        m = dataclasses.replace(m, rules={**m.rules, **{
            (1, s): DetRule(next_state=1, move=LEFT) for s in m.alphabet}})
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, n)))
        trace = run_with_choices(m, w, lambda state, succs: rng.randrange(len(succs)), n * n)
        if trace.halt is HaltReason.ACCEPTING_EXIT:
            return trace
    return None


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
@settings(max_examples=300, deadline=None)
def test_accepting_runs_have_even_phase_counts(seed, n):
    # An accepting run leaves cell 1 and comes back, so it crosses each
    # milestone an even number of times, and k(P) = 1 + crossings(P) + 1
    # (the opener and the exit) is even.  The sum identity gives
    # min_P k(P) <= n + 1, so some partition has at most n + n % 2: the
    # story search's phase bound.  (At n = 1 the one-step budget admits
    # no accepting run.)
    trace = accepting_run(seed, n)
    assert trace is not None
    rep = check_phase_lemma(trace, n)
    assert all(k % 2 == 0 for k in rep.per_P.values()), rep.per_P
    assert min(rep.per_P.values()) <= n + n % 2
    assert rep.holds or n % 2 == 1


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
@settings(max_examples=300, deadline=None)
def test_accepting_run_walks_equal_phase_record_crossings(seed, n):
    trace = accepting_run(seed, n)
    assert trace is not None
    for P in range(1, n + 1):
        assert_one_walk(trace, partition_for_trace(trace, P, n))


def _has_edge_exit(trace):
    from tmlab import HaltReason

    return trace.halt in (HaltReason.ACCEPTING_EXIT, HaltReason.LEFT_EDGE)


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=8))
@settings(max_examples=200, deadline=None)
def test_split_merge_identity_on_synthetic_histories(items):
    # build a milestone history with strictly increasing phases and
    # alternating directions, as extraction guarantees
    phases = sorted({p for p, _ in items})
    entries = tuple(
        Descriptor(phase=p + 2, milestone=5, state=idx % 3,
                   delta=RIGHT if idx % 2 == 0 else LEFT)
        for idx, p in enumerate(phases))
    plus, minus = split_history(entries)
    assert merge_by_phase(plus, minus) == entries
    assert all(d.delta == RIGHT for d in plus)
    assert all(d.delta == LEFT for d in minus)
