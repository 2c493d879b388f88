"""End-to-end story search: low space, linear-factor time overhead.

The simulator guesses a story (first-block length, phase count, and the
crossing descriptors) and verifies every block independently; the walk
the descriptors make fixes which blocks, 1..r, there are to verify.  Each
checked block turns one implication between milestone crossings true, and
chained they reduce to "the accepting exit is realizable" (the argument is
in ``verify_story``'s docstring), so acceptance of a story is sound; and
any run acceptable in n^2 steps has at most n + n % 2 phases under some
partition, so its true story is in the enumeration and the search agrees
with direct simulation.
"""

from tmlab import (
    HaltReason,
    corpus_machines,
    run_direct,
    run_with_choices,
    simulate_mstar,
)

machines = corpus_machines()

print("=== story search vs direct search, budget n^2 ===")
for name, w in [("always_accept", "ab"), ("sweep_right", "abab"),
                ("guesser", "aaaa"), ("palindrome", "aba"), ("anbn", "ab")]:
    m = machines[name]
    n = max(len(w), 2)
    d = run_direct(m, w, n * n)
    s = simulate_mstar(m, w, n)
    agree = "agree" if d.accepted == s.accepted else "DISAGREE"
    print(f"  {name:13s} {w!r:8s} n={n}: direct={d.accepted!s:5s} story={s.accepted!s:5s} ({agree})")

print("\n=== the winning story of the guesser on 'aaaa' ===")
s = simulate_mstar(machines["guesser"], "aaaa", 4)
g = s.winning
print(f"  P={g.partition.P}, r={g.r}, k={g.k}; descriptors:")
for j in range(g.r):
    print(f"    S_{j} = {[d.astuple() for d in g.milestone(j)]}")
print(f"  accounting: phase steps {s.phase_steps}, guess cost {s.guess_cost}, "
      f"call overhead {s.overhead_steps}")
print(f"  sim_time {s.sim_time} (= {s.sim_time / 16:.2f} * n^2), sim_space {s.sim_space}")

print("\n=== soundness: the story's phase choices replay on the real machine ===")
concat = [c for phase in s.witness_choices for c in phase]
tr = run_with_choices(machines["guesser"], "aaaa", concat, max_time=s.budget)
print(f"  replay halt: {tr.halt.value}, time {tr.usage.time} = phase steps {s.phase_steps}")
assert tr.halt is HaltReason.ACCEPTING_EXIT
