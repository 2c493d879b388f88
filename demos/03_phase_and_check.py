"""The phase simulator and the block checker.

A phase runs the machine on one block between sentinels: it starts just
inside the block in the in-crossing's state and stops when the machine
halts or steps onto a sentinel.  The outcome is accepted when the exit
matches the claimed out-crossing.  The block checker advances the block's
frontier, every content it can hold, through its visits one at a time.
"""

from tmlab import (
    Descriptor,
    Partition,
    check_block,
    corpus_machines,
    extract_history,
    initial_block_content,
    phase_records,
    run_direct,
    simulate_phase,
)

machines = corpus_machines()
sweep = machines["sweep_right"]

print("=== ground truth from a recorded run ===")
r = run_direct(sweep, "abab", 16)
part = Partition(P=2, n=4)
records = [rec for rec in phase_records(r.witness, part) if rec.left is not None]
for rec in records:
    print(f"  phase {rec.phase}: block {rec.block} {rec.content_before!r} -> "
          f"{rec.content_after!r}, leaves via {rec.left.astuple()}, {rec.steps} steps")

print("\n=== replaying one phase through the simulator ===")
rec = records[0]
outs = simulate_phase(sweep, rec.entered, rec.left, rec.content_before, step_cap=16)
for o in outs:
    print(f"  accepted={o.accepted} result={o.result!r} steps={o.steps} choices={o.choices}")
assert any(o.accepted and o.result == rec.content_after for o in outs)

print("\n=== a wrong claim is rejected with a reason ===")
wrong = Descriptor(rec.left.phase, rec.left.milestone, rec.left.state + 1, rec.left.delta)
outs = simulate_phase(sweep, rec.entered, wrong, rec.content_before, step_cap=16)
print(f"  claiming exit state {wrong.state}: "
      f"{[(o.accepted, o.reject_reason.value) for o in outs]}")

print("\n=== checking a block's visits, read off the walk ===")
hist = extract_history(r.witness, part)
visits = hist.visits(1)
x0 = initial_block_content(1, part, "abab")
results = check_block(sweep, 1, visits, x0, budget=16)
for res in results:
    print(f"  accepted={res.accepted} chain={res.content_chain} steps={res.steps_consumed}")

print("\n=== and a mutated visit fails ===")
d_in, d_out = visits[0]
# state 2 never exits a block
broken = [(d_in, Descriptor(d_out.phase, d_out.milestone, 2, d_out.delta))]
results = check_block(sweep, 1, broken + visits[1:], x0, budget=16)
print(f"  accepted={any(res.accepted for res in results)}, "
      f"reason={results[0].reject_reason.value} at phase {results[0].failed_phase}")
