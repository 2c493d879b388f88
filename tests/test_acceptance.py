"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The corpus is the six shipped machines; inputs are every string of
length at most 6 over the two-symbol alphabet {a, b}; the scale for input
``w`` is ``n = max(len(w), 2)`` and the direct-search budget is ``n**2``.
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

from tmlab import (
    CORPUS_MACHINES,
    Descriptor,
    GENERAL_CORPUS_MACHINES,
    NodeBudget,
    Partition,
    check_block,
    check_phase_lemma,
    descriptor_constant,
    extract_history,
    initial_block_content,
    merge_by_phase,
    normalize,
    phase_records,
    run_direct,
    run_with_choices,
    simulate_mstar,
    simulate_phase,
)
from tmlab.block_check import advance_frontier, start_frontier

from conftest import all_inputs, scale_for
from oracles import block_story_feasible, general_accepts, random_machine, split_history

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """Direct and story-search results for every (machine, input) pair."""
    runs = {}
    t0 = time.time()
    for name in CORPUS_MACHINES:
        m = corpus[name]
        for w in all_inputs():
            n = scale_for(w)
            direct = run_direct(m, w, n * n)
            mstar = simulate_mstar(m, w, n)
            runs[(name, w)] = (n, direct, mstar)
    runs["elapsed"] = time.time() - t0
    return runs


def witnesses(corpus_runs):
    for (key, value) in corpus_runs.items():
        if key == "elapsed":
            continue
        name, w = key
        n, direct, _mstar = value
        if direct.accepted:
            yield name, w, n, direct.witness


def test_criterion_1_oracle_equivalence(corpus_runs):
    cases = disagreements = accepted = 0
    for key, value in corpus_runs.items():
        if key == "elapsed":
            continue
        _n, direct, mstar = value
        cases += 1
        accepted += direct.accepted
        if direct.accepted != mstar.accepted:
            disagreements += 1
    elapsed = corpus_runs["elapsed"]
    assert disagreements == 0
    assert cases == len(CORPUS_MACHINES) * 127
    assert elapsed < 600, f"corpus runs took {elapsed:.0f}s, over the 10 minute budget"
    print(f"\nACCEPTANCE 1 (oracle equivalence): PASS "
          f"({cases} cases, {accepted} accepted, 0 disagreements, {elapsed:.1f}s)")


def test_criterion_2_phase_faithfulness(corpus, corpus_runs):
    """Each recorded phase is an accepted outcome of ``simulate_phase`` and,
    through the visit step the story search and ``check_block`` run, lands
    its content in the exit group of its out-crossing at no more steps."""
    checked = failures = 0
    for name, w, n, witness in witnesses(corpus_runs):
        m = corpus[name]
        for P in range(1, n + 1):
            part = Partition(P, n)
            for rec in phase_records(witness, part):
                if rec.left is None:
                    continue
                checked += 1
                outs = simulate_phase(m, rec.entered, rec.left, rec.content_before,
                                      step_cap=n * n)
                if not any(o.accepted and o.result == rec.content_after for o in outs):
                    failures += 1
                visit = advance_frontier(m, rec.entered, rec.block,
                                         start_frontier(rec.content_before), n * n,
                                         NodeBudget(sys.maxsize))
                group = visit.exits.get((rec.left.delta, rec.left.state), {})
                if rec.content_after not in group or group[rec.content_after][0] > rec.steps:
                    failures += 1
    assert checked > 0 and failures == 0
    print(f"ACCEPTANCE 2 (phase faithfulness): PASS ({checked} recorded phases, 0 failures)")


def _true_block_visits(corpus, corpus_runs):
    """Every nonempty (machine, partition, block, visits, x0, budget) ground truth."""
    out = []
    for name, w, n, witness in witnesses(corpus_runs):
        for P in range(1, n + 1):
            part = Partition(P, n)
            hist = extract_history(witness, part)
            for j in range(1, hist.r + 1):
                visits = hist.visits(j)
                if visits:
                    out.append((corpus[name], part, j, visits, initial_block_content(j, part, w),
                                n * n))
    return out


def _mutate(rng, visits, state_count: int):
    """``visits`` with one descriptor's state, direction or phase changed."""
    visits = [list(pair) for pair in visits]
    i, side = divmod(rng.randrange(2 * len(visits)), 2)
    d = visits[i][side]
    kind = rng.choice(("state", "delta", "phase"))
    if kind == "state":
        new_state = rng.choice([s for s in range(state_count) if s != d.state])
        visits[i][side] = Descriptor(d.phase, d.milestone, new_state, d.delta)
    elif kind == "delta":
        visits[i][side] = Descriptor(d.phase, d.milestone, d.state, -d.delta)
    else:
        visits[i][side] = Descriptor(d.phase + rng.choice((-1, 1, 2)), d.milestone, d.state,
                                     d.delta)
    return [tuple(pair) for pair in visits]


def test_criterion_3_mutation_suite(corpus, corpus_runs):
    rng = random.Random(0xC3)
    truths = _true_block_visits(corpus, corpus_runs)
    assert truths, "no ground-truth block visits in the corpus"
    mutants = false_accepts = false_rejects = rejected = 0
    while mutants < 120:
        m, part, j, visits, x0, budget = truths[rng.randrange(len(truths))]
        mutant = _mutate(rng, visits, m.state_count)
        if mutant == visits:
            continue
        mutants += 1
        accepted = any(res.accepted for res in check_block(m, j, mutant, x0, budget))
        # independent oracle: raw stepping on the block's real cells
        feasible = block_story_feasible(m, part, j, mutant, x0, budget)
        if accepted and not feasible:
            false_accepts += 1
        if feasible and not accepted:
            false_rejects += 1
        if not accepted:
            rejected += 1
    assert false_accepts == 0 and false_rejects == 0
    print(f"ACCEPTANCE 3 (mutation suite): PASS ({mutants} mutants, {rejected} rejected, "
          "0 false accepts, 0 false rejects)")


def test_criterion_4_phase_count_lemma(corpus_runs):
    checked = 0
    for _name, _w, n, witness in witnesses(corpus_runs):
        report = check_phase_lemma(witness, n)
        checked += 1
        assert min(report.per_P.values()) <= n, (_name, _w, report.per_P)
        assert report.sum <= report.total_crossings + n
        assert report.sum_identity_ok
    assert checked > 0
    print(f"ACCEPTANCE 4 (phase-count bound): PASS ({checked} accepting traces, 0 failures)")


def test_criterion_5_space_accounting(corpus, corpus_runs):
    checked = 0
    for key, value in corpus_runs.items():
        if key == "elapsed":
            continue
        name, _w = key
        n, _direct, mstar = value
        if not mstar.accepted:
            continue
        checked += 1
        c = mstar.descriptor_constant
        assert c == descriptor_constant(corpus[name])
        assert mstar.sim_space <= max(n, 2) + c * n
        assert mstar.sim_space == max(mstar.story_size,
                                      mstar.sim_space)  # story dominates or window does
    assert checked > 0
    print(f"ACCEPTANCE 5 (space accounting): PASS ({checked} accepted results, exact bound)")


def test_criterion_6_time_accounting(corpus_runs):
    expected = json.loads((DATA / "expected_time_constants.json").read_text())
    measured = {name: 0.0 for name in CORPUS_MACHINES}
    for key, value in corpus_runs.items():
        if key == "elapsed":
            continue
        name, _w = key
        n, _direct, mstar = value
        if mstar.accepted:
            measured[name] = max(measured[name], mstar.sim_time / (n * n))
    for name in CORPUS_MACHINES:
        assert measured[name] <= expected[name] + 1e-9, (
            f"time constant for {name} grew: {measured[name]} > {expected[name]}")
    shown = {k: round(v, 4) for k, v in measured.items() if v}
    print(f"ACCEPTANCE 6 (time accounting): PASS (a per machine {shown}, within stored ceilings)")


def test_criterion_7_normalizer_equivalence(general_corpus):
    budget = 120
    cases = disagreements = 0
    for name in GENERAL_CORPUS_MACHINES:
        g = general_corpus[name]
        res = normalize(g)
        scaled = res.step_blowup * budget + res.step_overhead
        for w in all_inputs():
            cases += 1
            if general_accepts(g, w, budget) != run_direct(res.machine, w, scaled).accepted:
                disagreements += 1
    assert disagreements == 0
    print(f"ACCEPTANCE 7 (normalizer equivalence): PASS "
          f"({cases} cases over {len(GENERAL_CORPUS_MACHINES)} machines, 0 disagreements)")


def test_criterion_8_history_invariants():
    rng = random.Random(0xC8)
    runs = 10_000
    failures = 0
    for _ in range(runs):
        m = random_machine(rng, max_states=6)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        trace = run_with_choices(m, w, lambda _s, succs: rng.randrange(len(succs)),
                                 max_time=rng.randint(4, 16))
        P = rng.randint(1, 4)
        n = rng.randint(P, 5)
        hist = extract_history(trace, Partition(P, n))
        if hist.violations():
            failures += 1
            continue
        for j in range(hist.r + 2):
            plus, minus = split_history(hist.milestone(j))
            if merge_by_phase(plus, minus) != hist.milestone(j):
                failures += 1
                break
    assert failures == 0
    print(f"ACCEPTANCE 8 (history invariants): PASS ({runs} randomized runs, 0 failures)")
