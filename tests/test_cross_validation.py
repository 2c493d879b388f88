"""Story search vs direct search on randomized machines.

The default phase bound ``n + n % 2`` is complete: every ``k(P)`` of an
accepting run is even, and the sum identity puts some ``k(P)`` at most
``n + 1``.  So the story search must agree with exhaustive direct search
on arbitrary machines, including nondeterministic ones whose branches
write and wander.
"""

import random

import pytest

from tmlab import check_phase_lemma, run_direct, simulate_mstar

from oracles import random_machine, ruler


@pytest.mark.parametrize("seed_base", [0xA5, 0x5A, 0xE7])
def test_random_machines_agree_with_direct(seed_base):
    rng = random.Random(seed_base)
    cases = 0
    while cases < 250:
        m = random_machine(rng, max_states=7)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        n = max(len(w), rng.randint(2, 3))
        direct = run_direct(m, w, n * n, node_cap=60_000)
        story = simulate_mstar(m, w, n, node_cap=60_000)
        cases += 1
        assert direct.accepted == story.accepted, (m.name, w, n)
        # a complete walk settles a rejection
        assert story.complete_walk_P is None or not direct.accepted, (m.name, w, n)


def test_default_phase_bound_is_complete():
    # ruler_K walks K cells right and back in T = 2K + 1 = n^2 steps, and
    # no partition sees fewer than n + 1 phases: one more than the former
    # max(2, n) bound allowed at an odd n, and exactly n + n % 2
    for K, n in ((4, 3), (12, 5), (24, 7)):
        m = ruler(K)
        direct = run_direct(m, "", n * n)
        assert direct.accepted and direct.usage.time == 2 * K + 1 == n * n
        assert min(check_phase_lemma(direct.witness, n).per_P.values()) == n + 1
        story = simulate_mstar(m, "", n)
        assert story.accepted, (K, n)
        assert story.winning.k == n + n % 2 == n + 1
        assert story.phase_steps == n * n
