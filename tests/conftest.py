import itertools
import re

import pytest

from tmlab import (
    OPENER,
    Partition,
    RegionExceeded,
    corpus_machines,
    extract_history,
    general_corpus_machines,
    phase_records,
)

TWO_SYMBOL = "ab"


def all_inputs(max_len=6, alphabet=TWO_SYMBOL):
    """Every string over ``alphabet`` up to ``max_len``, shortest first."""
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


def scale_for(w: str) -> int:
    return max(len(w), 2)


def assert_one_walk(trace, part):
    """``extract_history`` walks the crossings ``phase_records`` ends its phases
    with; on a partition that stops short of the head's farthest block, both
    raise the same error.  Says whether the trace reached a second block."""
    records = phase_records(trace, part)
    assert extract_history(trace, part).walk == (OPENER,) + tuple(r.left for r in records if r.left)
    farthest = part.block_of_cell(max([trace.final.head] + [head for _, head, _ in trace.steps]))
    if farthest < 2:
        return False
    short = Partition(P=part.P, n=part.n, r=farthest - 1)
    with pytest.raises(RegionExceeded) as walked:
        extract_history(trace, short)
    with pytest.raises(RegionExceeded, match=re.escape(str(walked.value))):
        phase_records(trace, short)
    return True


@pytest.fixture(scope="session")
def corpus():
    return corpus_machines()


@pytest.fixture(scope="session")
def general_corpus():
    return general_corpus_machines()
