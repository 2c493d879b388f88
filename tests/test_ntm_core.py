"""Machine model: parsing, validation, stepping, direct search, normalize.

The step tests run against :func:`oracles.step`, the one-configuration
step the oracles replay runs with; the library's engines are checked
against it.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    BLANK,
    Configuration,
    DetRule,
    HaltReason,
    LEFT,
    Machine,
    MachineFormatError,
    RIGHT,
    ResourceCapExceeded,
    machine_to_text,
    normalize,
    parse_general_machine,
    parse_machine,
    run_direct,
    run_with_choices,
)

from oracles import (
    general_accepts,
    initial_configuration,
    least_accepting_run,
    random_machine,
    replay_by_step,
    rule_for,
    step,
)

MINIMAL_ALWAYS_ACCEPT = """\
states 2
alphabet 0
det 0 0 write 0 1
det 1 0 move L 1
"""

GUESS_WRITE_RIGHT = """\
states 5
alphabet 0 a b
nondet 0 2 3
det 2 0 write a 4
det 3 0 write b 4
det 4 a move R 0
det 4 b move R 0
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_always_accept():
    m = parse_machine(MINIMAL_ALWAYS_ACCEPT)
    assert m.state_count == 2
    assert m.name == "machine"  # header line is optional
    assert rule_for(m, 0, BLANK) == DetRule(next_state=1, write=BLANK)


def test_parse_rejects_mixed_state():
    text = """\
states 4
alphabet 0 a
det 3 a move R 0
nondet 3 1 2
"""
    with pytest.raises(MachineFormatError, match="line 4: state 3 has both det rules and a nondet line"):
        parse_machine(text)


def test_parse_rejects_short_branch_list():
    with pytest.raises(MachineFormatError):
        parse_machine("states 3\nalphabet 0\nnondet 2 1\n")


def test_parse_requires_blank_in_alphabet():
    with pytest.raises(MachineFormatError, match="blank"):
        parse_machine("states 2\nalphabet a b\ndet 0 a move R 1\n")


def test_parse_rejects_multi_character_symbols():
    with pytest.raises(MachineFormatError, match="line 2: alphabet symbols must be single characters"):
        parse_machine("states 2\nalphabet 0 xy\ndet 0 0 write xy 1\n")
    with pytest.raises(MachineFormatError, match="single characters"):
        parse_general_machine("general g\nstates 2\nalphabet 0 xy\naccept 1\n")


@pytest.mark.parametrize("body, line, message", [
    (["alphabet 0 a"], 1, "missing states line"),
    (["states 2"], 1, "missing alphabet line"),
    (["states 2", "states 2", "alphabet 0 a"], 3, "duplicate states line"),
    (["states 2", "alphabet 0 a", "alphabet 0 a"], 4, "duplicate alphabet line"),
    (["states x", "alphabet 0 a"], 2, "state count must be an integer, got 'x'"),
    (["states 0", "alphabet 0 a"], 2, "state count must be positive"),
    (["states -2", "alphabet 0 a"], 2, "state count must be positive"),
    (["states 2", "alphabet a b"], 3, "alphabet must include the blank symbol '0'"),
    (["states 2", "alphabet 0 ab"], 3, "alphabet symbols must be single characters"),
    (["states 2", "alphabet 0 a a"], 3, "alphabet symbols must be distinct"),
    (["RULE", "states 2", "alphabet 0 a"], 2, "rules must come after states and alphabet lines"),
    (["states 2", "RULE", "alphabet 0 a"], 3, "rules must come after states and alphabet lines"),
    (None, 1, "empty machine description"),
], ids=["missing-states", "missing-alphabet", "repeated-states", "repeated-alphabet",
        "non-integer-states", "zero-states", "negative-states", "no-blank", "long-symbol",
        "repeated-symbol", "rule-first", "rule-between", "empty"])
def test_both_formats_refuse_a_header_fault_alike(body, line, message):
    """The header grammar is one: each fault gets one message at one line."""
    def text(name_line, rule, tail):
        if body is None:
            return "\n# nothing but a comment\n"
        lines = [name_line] + [rule if b == "RULE" else b for b in body] + tail
        return "".join(f"{b}\n" for b in lines)

    errors = []
    for parse, source in ((parse_machine, text("machine m", "det 0 0 move L 1", [])),
                          (parse_general_machine, text("general g", "rule 0 0 0 S 1", ["accept 1"]))):
        with pytest.raises(MachineFormatError) as err:
            parse(source)
        errors.append((str(err.value), err.value.line))
    assert errors[0] == errors[1] == (f"line {line}: {message}", line)


RULES_AFTER = ["states 3", "alphabet 0 a", "det 0 a move R 0"]


@pytest.mark.parametrize("body, line, message, general", [
    (RULES_AFTER + ["det 7 0 move L 1"], 5, "rule state 7 out of range", "rule 7 0 0 L 1"),
    (RULES_AFTER + ["det -1 0 move L 1"], 5, "rule state -1 out of range", "rule -1 0 0 L 1"),
    (RULES_AFTER + ["det 0 c move L 1"], 5, "rule symbol 'c' not in alphabet", "rule 0 c 0 L 1"),
    (RULES_AFTER + ["det 0 0 move L 9"], 5, "next state 9 out of range", "rule 0 0 0 L 9"),
    (RULES_AFTER + ["det 0 0 write c 1"], 5, "written symbol 'c' not in alphabet", "rule 0 0 c S 1"),
    (RULES_AFTER + ["nondet 7 0 1"], 5, "rule state 7 out of range", None),
    (RULES_AFTER + ["nondet 2 0 9"], 5, "successor state 9 out of range", None),
    (RULES_AFTER + ["det 2 a move R 0", "nondet 2 0 1"], 6,
     "state 2 has both det rules and a nondet line", None),
    (RULES_AFTER + ["nondet 2 0 1", "det 2 a move R 0"], 6,
     "state 2 has both det rules and a nondet line", None),
    (["states 1", "alphabet 0 a", "det 0 0 write a 0"], 1,
     "need at least states 0 (initial) and 1 (accepting)", None),
], ids=["det-state", "det-negative-state", "det-symbol", "det-next-state", "det-written-symbol",
        "nondet-state", "nondet-successor", "mixed-det-first", "mixed-nondet-first", "one-state"])
def test_every_rule_fault_is_named_at_its_line(body, line, message, general):
    """A rule line's state, symbol and successor faults are refused at that
    line; a general ``rule`` line with the same fault reads the same."""
    with pytest.raises(MachineFormatError) as err:
        parse_machine("".join(f"{b}\n" for b in ["machine m", *body]))
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
    if general is not None:
        with pytest.raises(MachineFormatError) as err:
            parse_general_machine(f"general g\nstates 3\nalphabet 0 a\naccept 1\n{general}\n")
        assert (str(err.value), err.value.line) == (f"line 5: {message}", 5)


def test_parse_rejects_duplicate_rule():
    text = "states 2\nalphabet 0\ndet 0 0 move R 1\ndet 0 0 write 0 1\n"
    with pytest.raises(MachineFormatError, match="duplicate rule"):
        parse_machine(text)


def test_parse_reports_line_numbers():
    text = "states 2\nalphabet 0\nbogus line here\n"
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert err.value.line == 3


def test_parse_empty_file_is_a_syntax_error():
    with pytest.raises(MachineFormatError, match="empty"):
        parse_machine("  \n# only a comment\n")


def test_parse_corpus_palindrome_language(corpus):
    pal = corpus["palindrome"]
    assert pal.state_count == 10
    assert run_direct(pal, "aba", 60).accepted
    assert not run_direct(pal, "ab", 60).accepted


def test_machine_roundtrip_through_text(corpus):
    for m in corpus.values():
        again = parse_machine(machine_to_text(m))
        assert again == m


# ---------------------------------------------------------------------------
# validity of machines built in code


@pytest.mark.parametrize("alphabet, rule, refused", [
    ((BLANK,), DetRule(next_state=1, move=RIGHT, write=BLANK), None),
    (("a",), DetRule(next_state=1, move=RIGHT), "line 3: alphabet must include the blank symbol"),
    ((BLANK,), DetRule(next_state=1, move=2), None),
    ((BLANK,), DetRule(next_state=5, move=LEFT), "line 4: next state 5 out of range"),
], ids=["move-and-write", "missing-blank", "bad-direction", "state-out-of-range"])
def test_invalid_code_built_machine_does_not_read_back(alphabet, rule, refused):
    """A machine built in code is valid iff its text reads back to it: the
    reader refuses the text, or the text cannot say the invalid rule."""
    bad = Machine(name="bad", state_count=2, alphabet=alphabet, rules={(0, alphabet[0]): rule})
    if refused is None:
        assert parse_machine(machine_to_text(bad)) != bad
    else:
        with pytest.raises(MachineFormatError, match=refused):
            parse_machine(machine_to_text(bad))


# ---------------------------------------------------------------------------
# stepping (the oracles' step)


def test_step_write_then_accepting_exit(corpus):
    m = corpus["always_accept"]
    c0 = initial_configuration(m, "")
    c1 = step(m, c0)
    assert isinstance(c1, Configuration)
    assert c1.state == 1 and c1.head == 1
    halted = step(m, c1)
    assert halted is HaltReason.ACCEPTING_EXIT


def test_step_left_edge_in_other_state_rejects():
    m = parse_machine("states 3\nalphabet 0\ndet 0 0 move L 2\n")
    out = step(m, initial_configuration(m, ""))
    assert out is HaltReason.LEFT_EDGE


def test_step_no_rule_halts():
    m = parse_machine("states 2\nalphabet 0 a\ndet 0 a move R 1\n")
    assert step(m, initial_configuration(m, "")) is HaltReason.NO_RULE


def test_step_branch_changes_only_state():
    m = parse_machine("states 8\nalphabet 0\nnondet 3 4 7\n")
    c = Configuration(state=3, head=5, tape={2: "0"})
    out = step(m, c, choice=1)
    assert out == Configuration(state=7, head=5, tape={2: "0"})


def test_step_choice_validation():
    m = parse_machine("states 8\nalphabet 0\nnondet 3 4 7\ndet 0 0 move R 1\n")
    with pytest.raises(ValueError, match="choice is required"):
        step(m, Configuration(state=3, head=1, tape={}))
    with pytest.raises(ValueError, match="out of range"):
        step(m, Configuration(state=3, head=1, tape={}), choice=2)
    with pytest.raises(ValueError, match="no choice expected"):
        step(m, Configuration(state=0, head=1, tape={}), choice=0)


# ---------------------------------------------------------------------------
# direct search


def test_run_direct_always_accept_exact_budget(corpus):
    m = corpus["always_accept"]
    r = run_direct(m, "", 2)
    assert r.accepted and r.usage.time == 2 and r.usage.space == 1


def test_run_direct_bound_too_small(corpus):
    assert not run_direct(corpus["always_accept"], "", 1).accepted


def test_run_direct_padded_palindrome(corpus):
    pal = corpus["palindrome"]
    pad = lambda w: len(w) ** 2 + 6 * len(w) + 10
    assert run_direct(pal, "aba", pad("aba")).accepted
    assert not run_direct(pal, "ab", pad("ab")).accepted


def test_run_direct_witness_is_minimal_and_replayable(corpus):
    m = corpus["guesser"]
    r = run_direct(m, "bbb", 40)
    assert r.accepted
    replay = run_with_choices(m, "bbb", r.witness.choices, r.usage.time)
    assert replay.halt is HaltReason.ACCEPTING_EXIT
    assert replay.usage == r.usage
    assert replay.steps == r.witness.steps
    # one branch pick: the 'b' arm is choice index 1
    assert r.witness.choices == (1,)


def test_run_direct_monotone_in_budget(corpus):
    m = corpus["sweep_right"]
    base = run_direct(m, "ab", 7)
    assert base.accepted and base.usage.time == 7
    for extra in (1, 5, 20):
        again = run_direct(m, "ab", 7 + extra)
        assert again.accepted and again.usage.time == 7


def test_run_direct_rejects_bad_input_symbol(corpus):
    with pytest.raises(ValueError, match="not in machine alphabet"):
        run_direct(corpus["palindrome"], "xyz", 10)


def test_run_direct_node_cap_is_an_error_not_a_verdict():
    # guess a symbol, write it, move right: the distinct configurations of
    # a level double every three steps
    m = parse_machine(GUESS_WRITE_RIGHT)
    with pytest.raises(ResourceCapExceeded):
        run_direct(m, "", 40, node_cap=100)
    # one branch state feeding itself has exponentially many choice
    # sequences but only 3 configurations, so the same cap decides it
    spin = parse_machine("states 4\nalphabet 0\nnondet 0 2 3\ndet 2 0 write 0 0\ndet 3 0 write 0 0\n")
    assert not run_direct(spin, "", 40, node_cap=100).accepted


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=9))
@settings(max_examples=300, deadline=None)
def test_run_direct_matches_brute_force_oracle(seed, budget):
    rng = random.Random(seed)
    m = random_machine(rng)
    # state 1 sweeps left, so reaching it accepts: about a third of these
    # machines accept within 9 steps, against one in twenty otherwise
    m = dataclasses.replace(m, rules={**m.rules, **{
        (1, s): DetRule(next_state=1, move=LEFT) for s in m.alphabet}})
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    want = least_accepting_run(m, w, budget)
    got = run_direct(m, w, budget)
    assert got.accepted == (want is not None)
    if want is not None:
        assert (got.usage.time, got.usage.space, got.witness.choices) == (
            want.time, want.space, want.choices)


def test_space_never_exceeds_time_plus_one(corpus):
    for m in corpus.values():
        for w in ("", "a", "ab", "abba"):
            r = run_direct(m, w, 50)
            if r.accepted:
                assert r.usage.space <= r.usage.time + 1


def test_traces_never_move_and_write(corpus):
    for m in corpus.values():
        r = run_direct(m, "ab", 50)
        if not r.accepted:
            continue
        for _, _, action in r.witness.steps:
            if isinstance(action, DetRule):
                assert (action.move is None) != (action.write is None)


# ---------------------------------------------------------------------------
# trace replay


def assert_matches_step_oracle(trace, want):
    assert trace.steps == want.rows
    assert trace.halt == want.halt
    assert (trace.usage.time, trace.usage.space) == (want.time, want.space)
    assert trace.final == want.final  # tape included


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=30))
@settings(max_examples=300, deadline=None)
def test_replay_matches_step_by_step_oracle(seed, max_time):
    rng = random.Random(seed)
    m = random_machine(rng)
    if rng.random() < 0.5:
        # state 1 sweeps left, so reaching it accepts
        m = dataclasses.replace(m, rules={**m.rules, **{
            (1, s): DetRule(next_state=1, move=LEFT) for s in m.alphabet}})
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))

    def random_picks(pick_seed):
        picker = random.Random(pick_seed)
        return lambda state, succs: picker.randrange(len(succs))

    pick_seed = rng.randrange(10**6)
    assert_matches_step_oracle(run_with_choices(m, w, random_picks(pick_seed), max_time),
                               replay_by_step(m, w, random_picks(pick_seed), max_time))
    # a fixed sequence may run out, and index 2 is out of range for a two-way branch
    picks = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
    try:
        want = replay_by_step(m, w, picks, max_time)
    except ValueError:
        with pytest.raises(ValueError):
            run_with_choices(m, w, picks, max_time)
    else:
        assert_matches_step_oracle(run_with_choices(m, w, picks, max_time), want)


@pytest.mark.parametrize("choices, message", [
    ([2], "out of range"),
    ([-1], "out of range"),
    (lambda state, succs: len(succs), "out of range"),
    ([], "exhausted"),
])
def test_replay_rejects_a_bad_or_missing_pick(corpus, choices, message):
    # guesser branches in state 0, before its first step, between two arms
    with pytest.raises(ValueError, match=message):
        run_with_choices(corpus["guesser"], "bbb", choices, 40)


def test_run_direct_builds_only_the_final_configuration(corpus, monkeypatch):
    built = []
    init = Configuration.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Configuration, "__init__", counted)
    half = "abbabaaababbbaab"
    r = run_direct(corpus["palindrome"], half + half[::-1], 32 * 32)
    assert r.accepted and r.usage.time == 609
    assert len(built) <= 2
    assert not any(hasattr(ts, "before") for ts in r.witness.steps)
    assert all(type(ts) is tuple and len(ts) == 3 for ts in r.witness.steps)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_identity_on_mirrored_machine(corpus, general_corpus):
    res = normalize(general_corpus["general_always"])
    target = corpus["always_accept"]
    assert res.machine.rules == target.rules
    assert res.machine.branches == target.branches
    assert res.machine.state_count == target.state_count


def test_normalize_one_rule_machine_has_three_states():
    g = parse_general_machine(
        "general one_rule\nstates 2\nalphabet 0 a\naccept 1\nrule 0 0 a R 1\n")
    res = normalize(g)
    assert res.machine.state_count == 3
    assert parse_machine(machine_to_text(res.machine)) == res.machine
    assert run_direct(res.machine, "", 10).accepted


def test_normalize_requires_blank():
    from tmlab import GeneralMachine, GeneralRule, RIGHT as R
    g = GeneralMachine(name="g", state_count=2, alphabet=("a",), accepting=frozenset({1}),
                       rules={(0, "a"): (GeneralRule("a", R, 1),)})
    with pytest.raises(ValueError, match="blank"):
        normalize(g)


def test_normalize_state_budget_overflow():
    g = parse_general_machine(
        "general g\nstates 3\nalphabet 0 a b\naccept 2\n"
        "rule 0 a b R 1\nrule 0 b a R 1\nrule 1 a b L 2\nrule 1 b a L 2\n")
    with pytest.raises(ValueError, match="state budget"):
        normalize(g, state_cap=3)  # refused on the count, before any state is mapped
    with pytest.raises(ValueError, match="normalization exceeded the state budget"):
        normalize(g, state_cap=4)  # the three states fit; the fresh ones do not


def test_normalize_general_anbn_agrees_short_inputs(general_corpus):
    g = general_corpus["general_anbn"]
    res = normalize(g)
    budget = 120
    for w in ("", "ab", "aabb", "ba", "abab", "aab", "abb"):
        want = general_accepts(g, w, budget)
        got = run_direct(res.machine, w, res.step_blowup * budget + res.step_overhead).accepted
        assert got == want, w
