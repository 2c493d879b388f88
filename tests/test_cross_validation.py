"""Story search vs direct search on randomized machines.

With the per-partition phase bound lifted to cover every possible run
(any trace of at most n^2 steps has fewer than n^2 + 1 phases), the story
search must agree with exhaustive direct search on arbitrary machines,
including nondeterministic ones whose branches write and wander.
"""

import random

import pytest

from tmlab import run_direct, simulate_mstar

from oracles import random_machine


@pytest.mark.parametrize("seed_base", [0xA5, 0x5A, 0xE7])
def test_random_machines_agree_with_direct(seed_base):
    rng = random.Random(seed_base)
    cases = 0
    while cases < 250:
        m = random_machine(rng, max_states=7)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        n = max(len(w), rng.randint(2, 3))
        direct = run_direct(m, w, n * n, node_cap=60_000)
        story = simulate_mstar(m, w, n, max_phases=n * n + 1, node_cap=60_000)
        cases += 1
        assert direct.accepted == story.accepted, (m.name, w, n)
        # a complete walk settles a rejection at either bound
        bounded = simulate_mstar(m, w, n, node_cap=60_000)
        for result in (story, bounded):
            assert result.complete_walk_P is None or not direct.accepted, (m.name, w, n)


def test_default_phase_bound_is_the_only_incompleteness():
    # A fast out-and-back walk to cell n+1 accepts within n^2 steps but
    # crosses every partition's milestone twice, so at n=3 each partition
    # needs 4 phases while the default search bound is max(2, n) = 3.
    # This is the known boundary of the phase-bound heuristic at small odd
    # scales: the bounded search rejects, and lifting the bound restores
    # agreement with direct search.
    from tmlab import parse_machine

    m = parse_machine("""\
machine out_and_back
states 4
alphabet 0 a b
det 0 0 move R 2
det 0 a move R 2
det 0 b move R 2
det 2 0 move R 3
det 2 a move R 3
det 2 b move R 3
det 3 0 move R 1
det 3 a move R 1
det 3 b move R 1
det 1 0 move L 1
det 1 a move L 1
det 1 b move L 1
""")
    w = "aaa"
    n = 3
    direct = run_direct(m, w, n * n)
    assert direct.accepted and direct.usage.time == 7  # 1 -> 4 -> 1 plus the exit
    lifted = simulate_mstar(m, w, n, max_phases=n * n + 1)
    assert lifted.accepted
    assert lifted.winning.k == 4
    bounded = simulate_mstar(m, w, n)
    assert not bounded.accepted
    assert bounded.complete_walk_P is None  # every walk is cut, so every P is tried
    # at any even scale the bound is provably safe; n=4 covers k=4
    assert simulate_mstar(m, "aaa", 4).accepted == run_direct(m, "aaa", 16).accepted == True
