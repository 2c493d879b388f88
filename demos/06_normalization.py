"""Compiling conventional machines into the normal form.

Normal form means: deterministic states either move or write (never
both), nondeterministic states only pick a successor, and acceptance is
the attempt to move left from cell 1 in state 1.  The compiler splits
write-and-move transitions, reroutes per-symbol branching through a pure
choice state, funnels accepting states into state 1, and reports the step
blow-up so budgets can be translated.
"""

import itertools

from tmlab import (
    general_corpus_machines,
    machine_to_text,
    normalize,
    run_direct,
)

# the language each general corpus machine is written to accept
LANGUAGES = {
    "general_always": lambda w: True,
    "general_anbn": lambda w: w == "a" * (len(w) // 2) + "b" * (len(w) // 2),
    "general_ends_a": lambda w: w.endswith("a"),
}

generals = general_corpus_machines()

print("=== the nondeterministic 'ends in a' acceptor, normalized ===")
g = generals["general_ends_a"]
res = normalize(g)
print(machine_to_text(res.machine))
print(f"time translation: general t steps -> at most "
      f"{res.step_blowup}*t + {res.step_overhead} normal steps\n")

print("=== normalized verdicts against each machine's language, inputs up to length 6 ===")
budget = 120
for name, g in generals.items():
    res = normalize(g)
    scaled = res.step_blowup * budget + res.step_overhead
    disagreements = sum(
        LANGUAGES[name](w) != run_direct(res.machine, w, scaled).accepted
        for length in range(7)
        for w in map("".join, itertools.product("ab", repeat=length)))
    print(f"  {name:16s} blowup x{res.step_blowup}+{res.step_overhead}: "
          f"disagreements over 127 inputs: {disagreements}")
