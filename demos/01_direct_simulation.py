"""Direct bounded simulation of the corpus machines.

The direct simulator explores every computation up to a step budget, one
level of configurations per step, so its verdict is the ground truth the
rest of the package is validated against.  The witness it returns is
the minimum-time accepting run, with ties broken toward the
lexicographically least choice sequence.
"""

from tmlab import HaltReason, corpus_machines, run_direct, run_with_choices

machines = corpus_machines()

print("=== verdicts with a generous budget ===")
for name in ("always_accept", "sweep_right", "palindrome", "anbn", "guesser"):
    m = machines[name]
    for w in ("", "a", "ab", "aba", "aabb", "aaaa"):
        budget = len(w) ** 2 + 6 * len(w) + 12
        r = run_direct(m, w, budget)
        mark = f"time {r.usage.time:2d}, space {r.usage.space}" if r.accepted else "-"
        print(f"  {name:13s} {w!r:8s} -> {'accept' if r.accepted else 'reject':6s} {mark}")
    print()

print("=== a nondeterministic witness and its replay ===")
guesser = machines["guesser"]
r = run_direct(guesser, "bbbb", 40)
print(f"guesser on 'bbbb': accepted={r.accepted}, branch choices={r.witness.choices}")
replay = run_with_choices(guesser, "bbbb", r.witness.choices, r.usage.time)
print(f"replaying those choices: halt={replay.halt.value}, "
      f"usage identical: {replay.usage == r.usage}")

print()
print("=== the budget matters: tight budgets reject slow machines ===")
pal = machines["palindrome"]
for budget in (9, 15):
    verdict = run_direct(pal, "aba", budget).accepted
    print(f"palindrome on 'aba' within {budget:2d} steps: {'accept' if verdict else 'reject'}")
print("(the machine needs 15 steps on 'aba', so the 9-step budget rejects)")
assert replay.halt is HaltReason.ACCEPTING_EXIT
