import itertools

import pytest

from tmlab import (
    OPENER,
    corpus_machines,
    extract_history,
    general_corpus_machines,
    phase_records,
)

from oracles import crossing_walk

TWO_SYMBOL = "ab"


def all_inputs(max_len=6, alphabet=TWO_SYMBOL):
    """Every string over ``alphabet`` up to ``max_len``, shortest first."""
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


def scale_for(w: str) -> int:
    return max(len(w), 2)


def assert_one_walk(m, trace, part):
    """``extract_history`` walks, and ``phase_records`` ends its phases with,
    the crossings the oracle's replay of ``trace`` finds; the history's
    ``r`` is the block of the farthest cell the head reached.  Says
    whether the trace reached a second block."""
    walk = crossing_walk(m, trace, part)
    hist = extract_history(trace, part)
    assert hist.walk == walk
    assert (OPENER,) + tuple(r.left for r in phase_records(trace, part) if r.left) == walk
    farthest = max([trace.final.head] + [head for _, head, _ in trace.steps])
    lo, hi = part.block_range(hist.r)
    assert lo <= farthest <= hi
    return hist.r >= 2


@pytest.fixture(scope="session")
def corpus():
    return corpus_machines()


@pytest.fixture(scope="session")
def general_corpus():
    return general_corpus_machines()
