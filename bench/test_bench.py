"""Checks of the benchmark's own parts.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import reference  # noqa: E402
import stream  # noqa: E402
from tmlab import corpus_machines, run_direct  # noqa: E402


def _inputs(max_len=6):
    for length in range(max_len + 1):
        for tup in itertools.product("ab", repeat=length):
            yield "".join(tup)


@pytest.mark.parametrize("name", sorted(corpus_machines()))
def test_reference_solver_agrees_with_direct_search(name):
    m = corpus_machines()[name]
    for w in _inputs():
        for n in {max(len(w), 2), 2 * len(w)} - {0}:
            direct = run_direct(m, w, n * n)
            ref = reference.solve(m, w, n * n)
            assert ref.accepted == direct.accepted, (name, w, n)
            if direct.accepted:
                assert ref.time == direct.usage.time, (name, w, n)
                rep = reference.replay(m, w, direct.witness.choices, n * n)
                assert rep.accepted and rep.time == direct.usage.time
                assert rep.space == direct.usage.space


def test_stream_draws_the_same_machines_as_the_test_oracle():
    from oracles import random_machine

    for seed in stream.STREAM_SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(stream.STREAM_PER_SEED):
            name, _text = stream.random_machine_text(ours)
            assert name == random_machine(theirs).name
            for rng in (ours, theirs):  # the input and scale draws that follow
                "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
                rng.randint(2, 3)


def test_pinned_machine_file_regenerates():
    assert stream.PINNED_FILE.read_text(encoding="utf-8") == stream.pinned_machine_text()
