"""The benchmark's workloads: which machines it asks about, and on what.

A workload is a list of cases ``(machine, w, n)``.  Every case is asked as
up to four questions, in this order: ``run --max-steps n^2``,
``crossings -n n``, ``mstar -n n`` and, when ``crossings`` printed a
story, ``mstar --story``.  The seed draws input symbols wherever the
machine's cost does not depend on them, and the order of the cases; the
lengths, scales and mismatch positions are fixed, so every seed asks for
the same amount of work.  Nothing here imports ``tmlab``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import stream

CORPUS_DIR = Path("src") / "tmlab" / "corpus"

# The cross-validation node cap; the stream is asked with it in every mode.
STREAM_NODE_CAP = 60_000

# Stream questions that exceed STREAM_NODE_CAP on every run, keyed by
# (machine, input, n, mode); a machine's file is named after it.  The searches enumerate choice paths rather
# than configurations, so a few branchy machines run out of nodes.
KNOWN_CAPS = frozenset({
    ("random_883982", "abab", 4, "run"),
    ("random_883982", "abab", 4, "crossings"),
    ("random_883982", "abab", 4, "mstar"),
    ("random_909667", "bbbb", 4, "mstar"),
    ("random_348419", "babb", 4, "mstar"),
    ("random_418868", "bbba", 4, "mstar"),
})


@dataclass(frozen=True)
class Case:
    machine: str
    w: str
    n: int


@dataclass
class Workload:
    name: str
    texts: dict[str, str]                 # machine file name -> file text
    cases: list[Case]
    node_cap: int | None = None
    # cases whose run / mstar questions the tracemalloc pass measures
    peak_run: list[Case] = field(default_factory=list)
    peak_mstar: list[Case] = field(default_factory=list)


def _corpus(*names: str) -> dict[str, str]:
    return {name: (CORPUS_DIR / f"{name}.tm").read_text(encoding="utf-8") for name in names}


def _flip(w: str, i: int) -> str:
    return w[:i] + ("a" if w[i] == "b" else "b") + w[i + 1:]


def _direct_deep(rng: random.Random) -> Workload:
    # Deterministic deep runs at n = |w|: each question's time goes to the
    # iterative-deepening direct search and to the trace replays.  A
    # rejecting input differs from an accepting one in the symbol a quarter
    # of the way in, so the mismatch is found after a fixed share of the run.
    # 32 is the longest input: at 48 symbols the direct search overflows
    # Python's recursion limit.
    def pair(machine, w, L):
        q = L // 4
        # sweep_right accepts every nonempty a/b string, so its twin gets the
        # marker symbol x, which it has no rule to read from state 0
        bad = w[:q] + "x" + w[q + 1:] if machine == "sweep_right" else _flip(w, q)
        return [Case(machine, w, L), Case(machine, bad, L)]

    cases = []
    for L in (16, 32):
        half = "".join(rng.choice("ab") for _ in range(L // 2))
        cases += pair("palindrome", half + half[::-1], L)
        cases += pair("sweep_right", "".join(rng.choice("ab") for _ in range(L)), L)
        cases += pair("guesser", rng.choice("ab") * L, L)
    for L in (16, 24):
        cases += pair("anbn", "a" * (L // 2) + "b" * (L // 2), L)
    # the accepting 32-symbol palindrome has the longest trace; the story
    # search holds the most when it exhausts on the rejecting one
    longest = [c for c in cases if c.machine == "palindrome" and c.n == 32]
    return Workload("direct_deep", _corpus("palindrome", "anbn", "sweep_right", "guesser"),
                    cases, peak_run=longest[:1], peak_mstar=longest)


def _story_branchy(rng: random.Random) -> Workload:
    # random_281707's state 2 branches back to itself, so the story search
    # and the block checker enumerate many choice paths.  Inputs starting
    # with 'a' accept within a few steps; the seed draws their tails.  Those
    # starting with 'b' are rejected after both searches are exhausted;
    # their cost depends on every symbol, so they are fixed.
    r = stream.PINNED_NAME
    accepting = ["abab"] + ["a" + "".join(rng.choice("ab") for _ in range(L - 1))
                            for L in (1, 2, 3)]
    rejecting = ["b", "ba", "bab", "bbbb"]
    letter = rng.choice("ab")
    cases = [Case(r, w, 4) for w in accepting + rejecting]
    cases += [Case("guesser", letter * 4, 4), Case("guesser", _flip(letter * 4, 2), 4)]
    texts = {r: stream.PINNED_FILE.read_text(encoding="utf-8"), **_corpus("guesser")}
    peak = [Case(r, "abab", 4), Case(r, "bbbb", 4)]
    return Workload("story_branchy", texts, cases, peak_run=peak, peak_mstar=peak)


def _reject_stream(rng: random.Random) -> Workload:
    # The cross-validation stream: 750 small random machines, most of them
    # rejected, so a question is cheap and mostly exhausts its search.  The
    # machines and inputs do not depend on the seed.
    texts, cases = {}, []
    for name, text, w, n in stream.stream_cases():
        texts[name] = text
        cases.append(Case(name, w, n))
    assert len(texts) == len(cases), "stream machine names must be distinct"
    # the first 50 machines of each stream seed
    per = stream.STREAM_PER_SEED
    peak = [c for i, c in enumerate(cases) if i % per < 50]
    return Workload("reject_stream", texts, cases, node_cap=STREAM_NODE_CAP,
                    peak_run=peak, peak_mstar=peak)


WORKLOADS = {"direct_deep": _direct_deep, "story_branchy": _story_branchy,
            "reject_stream": _reject_stream}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs and case order drawn from ``seed``."""
    rng = random.Random(seed)
    workload = WORKLOADS[name](rng)
    rng.shuffle(workload.cases)
    return workload


def write_machines(workload: Workload, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in workload.texts.items():
        path = directory / f"{name}.tm"
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths
