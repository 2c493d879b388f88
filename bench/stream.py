"""Seeded random machines, written straight into the machine file format.

This is the benchmark's own copy of the random-machine method the
cross-validation tests use: the same draws in the same order, so the same
seeds give machines of the same names.  It emits file text rather than
``tmlab`` objects, so neither an edit under ``tests/`` nor a change to the
library's data types can change a workload.

Regenerate the pinned machine file with::

    python3 bench/stream.py pin
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ALPHABET = ("0", "a", "b")
LEFT, RIGHT = -1, +1

# random_281707 is the 14th draw of random.Random(7) with max_states=7: a
# 3-state machine whose state 2 branches to (0, 2, 1), back to itself.
PINNED_SEED = 7
PINNED_DRAW = 14
PINNED_NAME = "random_281707"
PINNED_FILE = Path(__file__).resolve().parent / "machines" / f"{PINNED_NAME}.tm"

# Seeds of the cross-validation stream and the number of machines drawn from each.
STREAM_SEEDS = (0xA5, 0x5A, 0xE7)
STREAM_PER_SEED = 250


def random_machine_text(rng: random.Random, max_states: int = 7) -> tuple[str, str]:
    """Draw one valid normal-form machine over (0, a, b); returns (name, text)."""
    state_count = rng.randint(3, max_states)
    lines = []
    for q in range(state_count):
        if q >= 2 and rng.random() < 0.25:
            succs = [rng.randrange(state_count) for _ in range(rng.randint(2, 3))]
            lines.append(f"nondet {q} " + " ".join(map(str, succs)))
            continue
        for s in ALPHABET:
            roll = rng.random()
            if roll < 0.1:
                continue  # leave the pair without a rule
            if roll < 0.6:
                nxt = rng.randrange(state_count)
                move = "L" if rng.choice((LEFT, RIGHT)) == LEFT else "R"
                lines.append(f"det {q} {s} move {move} {nxt}")
            else:
                nxt = rng.randrange(state_count)
                lines.append(f"det {q} {s} write {rng.choice(ALPHABET)} {nxt}")
    name = f"random_{rng.randrange(10**6)}"
    head = [f"machine {name}", f"states {state_count}", "alphabet " + " ".join(ALPHABET)]
    return name, "\n".join(head + lines) + "\n"


def stream_cases() -> list[tuple[str, str, str, int]]:
    """The cross-validation stream: (name, text, input, n) per drawn machine."""
    cases = []
    for seed in STREAM_SEEDS:
        rng = random.Random(seed)
        for _ in range(STREAM_PER_SEED):
            name, text = random_machine_text(rng)
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            n = max(len(w), rng.randint(2, 3))
            cases.append((name, text, w, n))
    return cases


def pinned_machine_text() -> str:
    rng = random.Random(PINNED_SEED)
    for _ in range(PINNED_DRAW):
        name, text = random_machine_text(rng)
    assert name == PINNED_NAME, name
    return text


if __name__ == "__main__":
    if sys.argv[1:] != ["pin"]:
        sys.exit("usage: python3 bench/stream.py pin")
    PINNED_FILE.write_text(pinned_machine_text(), encoding="utf-8")
    print(f"wrote {PINNED_FILE}")
