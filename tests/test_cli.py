"""Command-line interface and JSON reports."""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmlab import (
    CORPUS_MACHINES,
    GENERAL_CORPUS_MACHINES,
    Partition,
    corpus_text,
    extract_history,
    machine_to_text,
    parse_machine,
    run_direct,
    story_from_history,
)
from tmlab import cli
from tmlab.cli import build_parser, main
from tmlab.plain_argv import QUESTIONS, plain_question
from tmlab.reporting import (
    StoryFormatError,
    dumps,
    report_from_dict,
    report_from_json,
    story_from_dict,
    story_to_dict,
)

from conftest import all_inputs, scale_for


@pytest.fixture()
def machine_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.tm"
        path.write_text(corpus_text(name), encoding="utf-8")
        return str(path)
    return write


def run_cli(capsys, *argv, script=False):
    """Exit code, stdout and stderr of one ``main`` call; with ``script``
    it is called as the console script calls it, with no argv."""
    try:
        code = main() if script else main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# validate


def test_validate_corpus_file(machine_file, capsys):
    code, out, _ = run_cli(capsys, "validate", machine_file("palindrome"))
    assert code == 0 and "ok" in out


def test_validate_mixed_state_file(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("states 4\nalphabet 0 a\ndet 3 a move R 0\nnondet 3 1 2\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 65 and out == ""
    assert err == f"tmlab: {path}: line 4: state 3 has both det rules and a nondet line\n"


def test_validate_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.tm"
    path.write_text("")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 65 and out == ""
    assert err.startswith(f"tmlab: {path}: ") and "empty" in err


def test_missing_file_exits_66(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/machine.tm")
    assert code == 66 and "cannot read" in err


@pytest.mark.parametrize("command", ["run", "validate", "normalize", "mstar --story"])
def test_file_that_is_not_utf8_exits_65(machine_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.tm"
    bad.write_bytes(b"states 2\n\xff\n")
    argv = {"run": ["run", str(bad), "--max-steps", "4"],
            "validate": ["validate", str(bad)],
            "normalize": ["normalize", str(bad)],
            "mstar --story": ["mstar", machine_file("palindrome"), "--input", "aba",
                              "-n", "3", "--story", str(bad)]}[command]
    code, out, err = run_cli(capsys, *argv)  # any exception but SystemExit fails here
    assert code == 65 and out == ""
    assert err.startswith(f"tmlab: {bad}: ") and "utf-8" in err


# ---------------------------------------------------------------------------
# run


def test_run_accept_and_reject_exit_codes(machine_file, capsys):
    pal = machine_file("palindrome")
    code, out, _ = run_cli(capsys, "run", pal, "--input", "aba", "--max-steps", "40")
    assert code == 0 and "accepted" in out
    code, out, _ = run_cli(capsys, "run", pal, "--input", "ab", "--max-steps", "40")
    assert code == 1 and "rejected" in out


def test_run_json_report_round_trips(machine_file, capsys):
    code, out, _ = run_cli(capsys, "run", machine_file("always_accept"),
                           "--input", "", "--max-steps", "2", "--json")
    assert code == 0
    report = report_from_json(out)
    assert report.verdict == "accepted"
    assert report.resources["time"] == 2 and report.resources["space"] == 1
    assert report_from_json(report.to_json()) == report


@pytest.mark.parametrize("schema", [True, 1.0])
def test_report_schema_that_is_no_json_integer_is_refused(machine_file, capsys, schema):
    # True and 1.0 both equal SCHEMA; read back, they were written as true and 1.0
    _, out, _ = run_cli(capsys, "run", machine_file("always_accept"),
                        "--input", "", "--max-steps", "2", "--json")
    data = json.loads(out)
    data["schema"] = schema
    with pytest.raises(ValueError, match=f"unsupported report schema {schema!r}"):
        report_from_dict(data)


def test_run_resource_cap_exit_code(tmp_path, capsys):
    # guessing a symbol, writing it and moving right doubles the distinct
    # configurations of a level every three steps
    path = tmp_path / "branchy.tm"
    path.write_text("states 5\nalphabet 0 a b\nnondet 0 2 3\n"
                    "det 2 0 write a 4\ndet 3 0 write b 4\n"
                    "det 4 a move R 0\ndet 4 b move R 0\n")
    code, out, _ = run_cli(capsys, "run", str(path), "--input", "",
                           "--max-steps", "40", "--node-cap", "50")
    assert code == 2 and "resource cap" in out
    # a branch state feeding itself has only 3 configurations: 20 steps
    # expand 30 of them, within the same cap
    path = tmp_path / "spin.tm"
    path.write_text("states 4\nalphabet 0\nnondet 0 2 3\n"
                    "det 2 0 write 0 0\ndet 3 0 write 0 0\n")
    code, out, _ = run_cli(capsys, "run", str(path), "--input", "",
                           "--max-steps", "20", "--node-cap", "50")
    assert code == 1 and "rejected" in out


def test_a_level_that_repeats_ends_the_search(tmp_path, capsys):
    # state 0 lists itself: every level is the one configuration of the
    # start, so the first repeat decides a million steps in one expansion
    path = tmp_path / "loop.tm"
    path.write_text("states 3\nalphabet 0\nnondet 0 0 2\n")
    code, out, _ = run_cli(capsys, "run", str(path), "--max-steps", "1000000",
                           "--node-cap", "1000", "--json")
    report = report_from_json(out)
    assert code == 1 and report.verdict == "rejected"
    assert report.resources["explored"] == 1


def test_bad_flags_exit_64(machine_file, capsys):
    code, _, err = run_cli(capsys, "run", machine_file("palindrome"))
    assert code == 64 and "max-steps" in err


def test_negative_counts_exit_64(machine_file, capsys):
    pal = machine_file("palindrome")
    for argv in (["--max-steps", "-3"], ["--max-steps", "30", "--node-cap", "-3"]):
        code, out, err = run_cli(capsys, "run", pal, "--input", "aba", *argv)
        assert code == 64 and argv[-2] in err and out == "", argv


def test_input_symbol_outside_alphabet_exits_64(machine_file, capsys):
    for argv in (["run", "--max-steps", "30"], ["crossings", "-n", "5"], ["mstar", "-n", "5"]):
        code, out, err = run_cli(capsys, argv[0], machine_file("palindrome"),
                                 "--input", "abc", *argv[1:])
        assert code == 64 and "'c'" in err and out == "", argv


def test_long_palindrome_is_accepted_without_recursion(machine_file, capsys):
    half = "abbabaaababbbaab" + "abbaabab"
    code, out, _ = run_cli(capsys, "run", machine_file("palindrome"), "--input",
                           half + half[::-1], "--max-steps", "5000", "--json")
    assert code == 0 and report_from_json(out).resources["time"] == 1297


def test_search_ends_when_no_computation_runs(machine_file, capsys):
    # a step budget far beyond the cap: the deterministic run halts after a
    # few steps and nothing is left to expand
    code, out, _ = run_cli(capsys, "run", machine_file("palindrome"), "--input", "ab",
                           "--max-steps", "10000000", "--json")
    assert code == 1 and report_from_json(out).resources["explored"] == 4


# ---------------------------------------------------------------------------
# crossings


def test_crossings_table_and_story(machine_file, capsys):
    code, out, _ = run_cli(capsys, "crossings", machine_file("sweep_right"),
                           "--input", "abab", "-n", "4", "--json")
    assert code == 0
    report = report_from_json(out)
    assert report.k_table == [[1, 4], [2, 4], [3, 4], [4, 4]]
    assert report.lemma["holds"] is True
    assert report.story["kind"] == "story"


def test_crossings_rejecting_input_empty_table(machine_file, capsys):
    code, out, _ = run_cli(capsys, "crossings", machine_file("palindrome"),
                           "--input", "aba", "-n", "3", "--json")
    assert code == 1
    report = report_from_json(out)
    assert report.k_table == [] and report.verdict == "rejected"


def test_crossings_zero_scale_exits_64(machine_file, capsys):
    code, out, err = run_cli(capsys, "crossings", machine_file("palindrome"),
                             "--input", "aba", "-n", "0")
    assert code == 64 and "-n" in err and out == ""


def test_crossings_scale_below_input_exits_64(machine_file, capsys):
    code, out, err = run_cli(capsys, "crossings", machine_file("sweep_right"),
                             "--input", "abababab", "-n", "5", "--json")
    assert code == 64 and out == ""
    assert "scale -n 5 is below the input length 8" in err


def test_crossings_confined_run_all_twos(machine_file, capsys):
    code, out, _ = run_cli(capsys, "crossings", machine_file("always_accept"),
                           "--input", "ab", "-n", "2", "--json")
    assert code == 0
    report = report_from_json(out)
    assert report.k_table == [[1, 2], [2, 2]]


def test_crossings_replays_the_trace_once(machine_file, capsys, monkeypatch):
    # the k(P) table comes from one pass over the moves; only the best
    # partition's crossings are walked
    from tmlab import crossing

    replays = []
    walk = crossing._crossings

    def counted(trace, partition):
        replays.append(partition.P)
        return walk(trace, partition)

    monkeypatch.setattr(crossing, "_crossings", counted)
    half = "abbabaaababbbaab"
    code, out, _ = run_cli(capsys, "crossings", machine_file("palindrome"),
                           "--input", half + half[::-1], "-n", "32", "--json")
    report = report_from_json(out)
    assert code == 0 and report.verdict == "accepted"
    assert replays == [report.lemma["best_P"]]


# ---------------------------------------------------------------------------
# mstar


def test_mstar_agrees_with_run(machine_file, capsys):
    sweep = machine_file("sweep_right")
    for w, n, want in [("abab", 4, 0), ("ab", 2, 1)]:
        run_code, _, _ = run_cli(capsys, "run", sweep, "--input", w,
                                 "--max-steps", str(n * n))
        mstar_code, _, _ = run_cli(capsys, "mstar", sweep, "--input", w, "-n", str(n))
        assert run_code == mstar_code == want


def test_mstar_and_run_agree_across_the_corpus(tmp_path, capsys):
    # exit-code agreement (0 vs 1) between the two commands, with the run
    # budget set to n^2, over every corpus machine and input up to length 4

    for name in CORPUS_MACHINES:
        path = tmp_path / f"{name}.tm"
        path.write_text(corpus_text(name), encoding="utf-8")
        for w in all_inputs(max_len=4):
            n = scale_for(w)
            run_code, _, _ = run_cli(capsys, "run", str(path), "--input", w,
                                     "--max-steps", str(n * n))
            mstar_code, _, _ = run_cli(capsys, "mstar", str(path), "--input", w,
                                       "-n", str(n))
            assert run_code == mstar_code, (name, w)


def test_mstar_bad_scale_exits_64(machine_file, capsys):
    for n in ("0", "2"):  # not positive; below |w| = 3
        code, out, err = run_cli(capsys, "mstar", machine_file("palindrome"),
                                 "--input", "aba", "-n", n)
        assert code == 64 and "-n" in err and out == "", n


def test_mstar_json_carries_constants(machine_file, capsys):
    code, out, _ = run_cli(capsys, "mstar", machine_file("guesser"),
                           "--input", "aaaa", "-n", "4", "--json")
    assert code == 0
    report = report_from_json(out)
    assert report.constants["descriptor_constant"] >= 3
    assert report.constants["time_constant"] > 0
    assert report.resources["sim_time"] <= report.constants["time_constant"] * 16 + 1e-9


def test_mstar_rejection_names_the_complete_walk(machine_file, capsys):
    argv = ["mstar", machine_file("palindrome"), "--input", "ab", "-n", "3"]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == 1 and data["resources"]["complete_walk_P"] == 1
    assert report_from_json(out).to_dict() == data
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "(no computation accepts within 9 steps: the walk for P=1 is complete)" in out
    # a walk cut by the phase bound proves nothing, and the key is left out
    code, out, _ = run_cli(capsys, "mstar", machine_file("palindrome"), "--input", "ab",
                           "-n", "2", "--json")
    assert code == 1 and "complete_walk_P" not in json.loads(out)["resources"]


def test_mstar_story_verify_mode(machine_file, tmp_path, capsys):
    sweep = machine_file("sweep_right")
    code, out, _ = run_cli(capsys, "crossings", sweep, "--input", "abab", "-n", "4", "--json")
    story = report_from_json(out).story
    story_path = tmp_path / "story.json"
    story_path.write_text(json.dumps(story))
    code, out, _ = run_cli(capsys, "mstar", sweep, "--input", "abab", "-n", "4",
                           "--story", str(story_path), "--json")
    assert code == 0
    assert report_from_json(out).mode == "verify-story"


def sweep_story(machine_file, tmp_path, capsys):
    """sweep_right's file and the story ``crossings`` extracts on abab at n=4."""
    sweep = machine_file("sweep_right")
    _, out, _ = run_cli(capsys, "crossings", sweep, "--input", "abab", "-n", "4", "--json")
    story_path = tmp_path / "story.json"
    story_path.write_text(json.dumps(report_from_json(out).story))
    return sweep, str(story_path)


def test_mstar_story_below_input_length_exits_65(machine_file, tmp_path, capsys):
    sweep, story = sweep_story(machine_file, tmp_path, capsys)
    code, out, err = run_cli(capsys, "mstar", sweep, "--input", "abababab", "-n", "8",
                             "--story", story)
    assert code == 65 and "below the input length" in err and out == ""


def test_mstar_story_resource_cap_exits_2(machine_file, tmp_path, capsys):
    sweep, story = sweep_story(machine_file, tmp_path, capsys)
    code, out, _ = run_cli(capsys, "mstar", sweep, "--input", "abab", "-n", "4",
                           "--story", story, "--node-cap", "0", "--json")
    assert code == 2
    report = report_from_json(out)
    assert report.verdict == "resource-cap" and report.mode == "verify-story"


@pytest.mark.parametrize("milestone, entry, state, phase, reason", [
    (1, 0, 2, 1, "wrong-state"),    # visit 1 leaves block 1 in state 0, not 2
    (1, 1, 0, 3, "halted-inside"),  # visit 2 enters block 1 in state 0, which has no rule on x
])
def test_mstar_story_rejection_names_visit_and_reason(machine_file, tmp_path, capsys,
                                                      milestone, entry, state, phase, reason):
    sweep, story_path = sweep_story(machine_file, tmp_path, capsys)
    with open(story_path, encoding="utf-8") as fh:
        story = json.load(fh)
    story["milestones"][milestone][entry][2] = state
    with open(story_path, "w", encoding="utf-8") as fh:
        json.dump(story, fh)
    argv = ["mstar", sweep, "--input", "abab", "-n", "4", "--story", story_path]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1 and json.loads(out)["schema"] == 1
    res = report_from_json(out).resources
    assert (res["failed_block"], res["failed_phase"], res["reject_reason"]) == (1, phase, reason)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and f"(block 1, phase {phase}: {reason})" in out


def test_mstar_story_descriptor_under_another_milestone_exits_65(machine_file, tmp_path, capsys):
    sweep, story_path = sweep_story(machine_file, tmp_path, capsys)
    with open(story_path, encoding="utf-8") as fh:
        story = json.load(fh)
    assert story["milestones"][1][0] == [2, 1, 0, 1]
    story["milestones"][1][0][1] = 2   # still listed under S_1, now naming milestone 2
    with open(story_path, "w", encoding="utf-8") as fh:
        json.dump(story, fh)
    code, out, err = run_cli(capsys, "mstar", sweep, "--input", "abab", "-n", "4",
                             "--story", story_path, "--json")
    assert code == 65 and out == "" and "(2, 2, 0, 1)" in err


@pytest.mark.parametrize("mutate, message", [
    (lambda story: story["milestones"][0].reverse(), "S_0 is not in phase order"),
    (lambda story: story["milestones"][1].reverse(), "S_1 is not in phase order"),
    (lambda story: story.update(k=5), "k=5 is not the last phase 4"),
    (lambda story: (story.update(r=3), story["milestones"].append([])),
     "r=3 is not the 2 blocks"),
    (lambda story: (story.update(r=1), story["milestones"].pop()), "r=1 is not the 2 blocks"),
], ids=["S_0-reversed", "S_1-reversed", "k-not-the-last-phase", "r-one-block-more",
        "r-one-block-less"])
def test_mstar_story_the_reader_refuses_exits_65(tmp_path, capsys, mutate, message):
    """A milestone's list is read in phase order, never re-sorted, so a
    reversed ``S_1`` is as invalid as a reversed ``S_0``; ``k`` must be the
    walk's last phase, and ``r`` the blocks it visits, even when the lists
    still number ``r + 2``."""
    guesser = tmp_path / "guesser.tm"
    guesser.write_text(corpus_text("guesser"), encoding="utf-8")
    question = [str(guesser), "--input", "bbbb", "-n", "4"]
    _, out, _ = run_cli(capsys, "crossings", *question, "--json")
    story = report_from_json(out).story
    assert story["k"] == 4 and story["r"] == 2 and story["milestones"] == [
        [[1, 0, 0, 1], [4, 0, 1, -1]], [[2, 1, 4, 1], [3, 1, 1, -1]], [], []]
    mutate(story)
    story_path = tmp_path / "story.json"
    story_path.write_text(json.dumps(story), encoding="utf-8")
    code, out, err = run_cli(capsys, "mstar", *question, "--story", str(story_path), "--json")
    assert code == 65 and out == "" and message in err


ONE_STEP_RIGHT = """states 3
alphabet 0 a
det 0 a move R 2
det 1 a move L 1
det 1 0 move L 1
"""


@pytest.mark.parametrize("text, w, n, P, state, run_code", [
    (ONE_STEP_RIGHT, "a", 2, 1, 2, 1),
    (corpus_text("sweep_right"), "abba", 4, 3, 0, 0),
], ids=["one_step_right", "sweep_right"])
def test_mstar_story_entering_a_block_past_r_exits_65(tmp_path, capsys, text, w, n, P, state,
                                                     run_code):
    """A story with ``r = 1`` whose second phase crosses into block 2 visits
    two blocks, so the reader refuses it as data.  Were block 2 left
    unchecked, the first machine would accept an input that ``run`` rejects."""
    story = {"schema": 1, "kind": "story", "n": n, "P": P, "r": 1, "k": 4,
             "milestones": [[[1, 0, 0, 1], [4, 0, 1, -1]], [[2, 1, state, 1], [3, 1, 1, -1]], []]}
    with pytest.raises(StoryFormatError, match="r=1 is not the 2 blocks"):
        story_from_dict(story)
    machine_path, story_path = tmp_path / "m.tm", tmp_path / "story.json"
    machine_path.write_text(text, encoding="utf-8")
    story_path.write_text(json.dumps(story), encoding="utf-8")
    code, out, err = run_cli(capsys, "mstar", str(machine_path), "--input", w, "-n", str(n),
                             "--story", str(story_path), "--json")
    assert code == 65 and out == "" and "r=1" in err
    code, _, _ = run_cli(capsys, "run", str(machine_path), "--input", w, "--max-steps", str(n * n))
    assert code == run_code


def test_mstar_malformed_story_exits_65(machine_file, tmp_path, capsys):
    story_path = tmp_path / "bad.json"
    story_path.write_text('{"schema": 1, "kind": "story"}')
    code, _, err = run_cli(capsys, "mstar", machine_file("sweep_right"),
                           "--input", "abab", "-n", "4", "--story", str(story_path))
    assert code == 65 and "malformed story" in err


@pytest.mark.parametrize("path, value", [
    (("n",), 3.7),
    (("P",), True),
    (("k",), "4"),
    (("milestones", 0, 1, 3), -1.5),   # the closing exit (k, 0, 1, -1)
    (("schema",), True),
    (("schema",), 1.0),
], ids=["float-n", "bool-P", "string-k", "float-delta", "bool-schema", "float-schema"])
def test_mstar_story_number_that_is_no_json_integer_exits_65(tmp_path, capsys, path, value):
    """Each field is read as the JSON integer it must be, never rounded or
    coerced: ``3.7`` is not ``3``, ``true`` is not ``1``."""
    sweep = tmp_path / "sweep_right.tm"
    sweep.write_text(corpus_text("sweep_right"), encoding="utf-8")
    _, out, _ = run_cli(capsys, "crossings", str(sweep), "--input", "ab", "-n", "3", "--json")
    story = report_from_json(out).story
    story_path = tmp_path / "story.json"
    argv = ["mstar", str(sweep), "--input", "ab", "-n", "3", "--story", str(story_path), "--json"]
    story_path.write_text(json.dumps(story), encoding="utf-8")
    assert run_cli(capsys, *argv)[0] == 0  # the story as extracted is accepted
    *outer, last = path
    target = story
    for key in outer:
        target = target[key]
    assert type(target[last]) is int
    target[last] = value
    story_path.write_text(json.dumps(story), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv)
    assert code == 65 and out == ""
    assert "malformed story" in err or "unsupported schema" in err


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
@pytest.mark.parametrize("command, layer", [
    ("run", "run_direct"),
    ("crossings", "check_phase_lemma"),
    ("mstar", "simulate_mstar"),
    ("mstar --story", "verify_story"),
])
def test_out_of_memory_is_a_resource_cap_not_a_rejection(machine_file, tmp_path, capsys,
                                                         monkeypatch, command, layer, error):
    """A huge ``-n`` runs out of memory in the layer named: ``-n 10**12``
    raises MemoryError there, and ``-n 10**30`` OverflowError, as the size
    does not fit an index.  No test really allocates it, as an
    overcommitting host would grant the request and then fill it."""

    def raise_error(*args, **kwargs):
        raise error

    sweep, story = sweep_story(machine_file, tmp_path, capsys)
    argv = {"run": ["run", sweep, "--input", "abab", "--max-steps", "16"],
            "crossings": ["crossings", sweep, "--input", "abab", "-n", "4"],
            "mstar": ["mstar", sweep, "--input", "abab", "-n", "4"],
            "mstar --story": ["mstar", sweep, "--input", "abab", "-n", "4", "--story", story],
            }[command]
    monkeypatch.setattr(f"tmlab.cli.{layer}", raise_error)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (2, "")
    report = report_from_json(out)
    assert report.verdict == "resource-cap" and report.notes == "out of memory"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "resource cap exceeded: out of memory\n", "")


# ---------------------------------------------------------------------------
# normalize


def test_normalize_outputs_valid_machine(tmp_path, capsys):
    path = tmp_path / "general.gtm"
    path.write_text(corpus_text("general_anbn"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "normalize", str(path))
    assert code == 0
    machine = parse_machine(out)
    assert machine_to_text(machine) == out


def test_normalize_rejects_normal_format_file(machine_file, capsys):
    code, _, err = run_cli(capsys, "normalize", machine_file("palindrome"))
    assert code == 65


@pytest.mark.parametrize("line", ["states x", "accept z", "rule x a a R 1", "states",
                                  "states 0", "states -2", "accept 7", "rule 2 a a R 1",
                                  "rule 0 b a R 1", "rule 0 a b R 1", "rule 0 a a R 9"])
def test_normalize_malformed_general_line_exits_65(tmp_path, capsys, line):
    path = tmp_path / "bad.gtm"
    path.write_text(f"general g\nstates 2\nalphabet 0 a\naccept 1\n{line}\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and "line 5" in err


def test_normalize_repeated_states_line_exits_65(tmp_path, capsys):
    # a later states line must not silently replace the first one
    path = tmp_path / "bad.gtm"
    path.write_text("general g\nstates 2\nalphabet 0 a\naccept 1\nrule 0 a a R 1\nstates 3\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and "line 6: duplicate states line" in err


@pytest.mark.parametrize("line", ["general h", "states 2", "alphabet 0 a", "accept 1"])
def test_normalize_repeated_header_line_exits_65(tmp_path, capsys, line):
    path = tmp_path / "bad.gtm"
    path.write_text(f"general g\nstates 2\nalphabet 0 a\naccept 1\n{line}\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    head = line.split()[0]
    assert code == 65 and out == "" and f"line 5: duplicate {head} line" in err


@pytest.mark.parametrize("alphabet, message", [
    ("a", "alphabet must include the blank symbol"),
    ("0 xy", "alphabet symbols must be single characters"),
    ("0 a a", "alphabet symbols must be distinct"),
])
def test_normalize_bad_alphabet_reports_its_own_line(tmp_path, capsys, alphabet, message):
    path = tmp_path / "bad.gtm"
    path.write_text(f"general g\nstates 2\nalphabet {alphabet}\naccept 1\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and f"line 3: {message}" in err


def test_validate_repeated_alphabet_symbol_reports_its_line(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("machine m\nstates 2\nalphabet 0 a a\ndet 0 0 move L 1\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 65 and out == "" and "line 3: alphabet symbols must be distinct" in err


def test_normalize_state_count_over_the_budget_exits_65(tmp_path, capsys):
    # refused before normalize builds anything per state
    path = tmp_path / "huge.gtm"
    path.write_text("general g\nstates 99999999999999999999\nalphabet 0 a\naccept 1\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and "exceed the state budget" in err


@pytest.mark.parametrize("missing", ["states", "alphabet", "accept"])
def test_normalize_missing_header_line_is_named(tmp_path, capsys, missing):
    lines = {"states": "states 2", "alphabet": "alphabet 0 a", "accept": "accept 1"}
    del lines[missing]
    path = tmp_path / "bad.gtm"
    path.write_text("general g\n" + "\n".join(lines.values()) + "\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and f"missing {missing} line" in err


# ---------------------------------------------------------------------------
# the JSON writer

SPECIAL_FLOATS = [-0.0, 0.0, 1e300, -1e-300, 0.1, float("nan"), float("inf"), float("-inf")]
JSON_SCALARS = (st.none() | st.booleans()
                | st.integers() | st.integers(min_value=-10**60, max_value=10**60)
                | st.floats() | st.sampled_from(SPECIAL_FLOATS)
                | st.text() | st.text(st.characters(max_codepoint=0x9f))
                | st.text(st.characters(blacklist_categories=())))  # lone surrogates too
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=12)


@given(JSON_VALUES)
@settings(max_examples=500, deadline=None)
@example({"\u00e9\x00\x1f\u2028\ud800": [True, 1, False, 0, -0.0, 1e300, float("nan"),
                                             float("inf"), float("-inf"), 10**100, -(10**100)],
          "": {}, "t": (), "n": [[], {}, [[{}]], (1, (2, [3]))]})
@example([1, True, 2])
def test_writer_equals_the_stdlib_encoder(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1, 2}, {1: "a"}, {"a": [{2: 3}]}, {"a": 1, 2: 3},
                                   [b"bytes"], {"a": object()}])
def test_writer_refuses_what_is_no_json(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_json_answers_are_the_stdlib_encoding(tmp_path, capsys):
    # one question per mode, on a machine whose input symbol is no ASCII
    machine = tmp_path / "sweep.tm"
    machine.write_text(corpus_text("sweep_right").replace(" a ", " \u00e9 "), encoding="utf-8")
    general = tmp_path / "general.gtm"
    general.write_text(corpus_text("general_anbn"), encoding="utf-8")
    story = tmp_path / "story.json"
    ask = {"run": ["run", str(machine), "--input", "\u00e9b", "--max-steps", "20"],
           "crossings": ["crossings", str(machine), "--input", "\u00e9b", "-n", "3"],
           "mstar": ["mstar", str(machine), "--input", "\u00e9b", "-n", "3"],
           "mstar --story": ["mstar", str(machine), "--input", "\u00e9b", "-n", "3",
                             "--story", str(story)],
           "normalize": ["normalize", str(general)]}
    for question, argv in ask.items():
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, question
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", question
        if question == "crossings":
            assert '"input": "\\u00e9b"' in out
            story.write_text(json.dumps(json.loads(out)["story"]), encoding="utf-8")


# ---------------------------------------------------------------------------
# repeated in-process calls


def test_repeated_mstar_json_is_byte_identical(machine_file, capsys):
    argv = ["mstar", machine_file("guesser"), "--input", "aaaa", "-n", "4", "--json"]
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, *argv) == first


def test_usage_error_and_help_leave_the_next_answer_unchanged(machine_file, capsys):
    argv = ["run", machine_file("palindrome"), "--input", "aba", "--max-steps", "40", "--json"]
    first = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, "run", argv[1])
    assert code == 64 and out == "" and "max-steps" in err
    code, out, _ = run_cli(capsys, "run", "--help")
    assert code == 0 and "--max-steps" in out
    assert run_cli(capsys, *argv) == first


def test_second_main_call_builds_no_parser(machine_file, capsys, monkeypatch):
    argv = ["validate", machine_file("palindrome")]
    run_cli(capsys, *argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, *argv)[0] == 0
    assert built == []


def test_console_script_reads_sys_argv(machine_file, tmp_path, capsys, monkeypatch):
    # the tmlab script calls main() with no argv
    sweep, story = sweep_story(machine_file, tmp_path, capsys)
    head = [sweep, "--input", "abab"]
    for argv in (["run", *head, "--max-steps", "16", "--json"],
                 ["crossings", *head, "-n", "4"],
                 ["mstar", *head, "-n", "4", "--json"],
                 ["mstar", *head, "-n", "4", "--story", story],
                 ["run", *head]):
        want = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["tmlab", *argv])
        assert run_cli(capsys, script=True) == want, argv


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import sys, tmlab.cli\n"
        "print(len(built), 'tmlab.plain_argv' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "0 False\n"


# ---------------------------------------------------------------------------
# plain questions read without argparse

REQUIRED = {"run": "--max-steps", "crossings": "-n", "mstar": "-n"}
OPTIONS = ["--input", "--json", "--node-cap", "--max-steps", "-n", "--story"]
NEAR_MISSES = ["--inp", "--max", "--input=ab", "--", "-h", "--help", "validate", "normalize"]
VALUES = ["-1", "+4", " 5", "", "-n", "3", "0", "ab", "m.tm"]


def argparse_namespace(argv):
    """``build_parser().parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


@st.composite
def near_plain_argvs(draw):
    """A question command with its required option and some of its others,
    each with a value where it takes one, a machine path, and up to two
    stray tokens, all in some order."""
    command = draw(st.sampled_from(list(REQUIRED)))
    others = ["--input", "--json", "--node-cap"] + (["--story"] if command == "mstar" else [])
    others = draw(st.permutations(others))[:draw(st.integers(0, len(others)))]
    values = st.one_of(st.sampled_from(VALUES), st.sampled_from(["3", "+4", " 5"]))
    groups = [[option] if option == "--json" else [option, draw(values)]
              for option in draw(st.permutations([REQUIRED[command], *others]))]
    strays = st.sampled_from(OPTIONS + NEAR_MISSES + VALUES)
    for token in ["m.tm", *draw(st.lists(strays, max_size=2))]:
        groups.insert(draw(st.integers(0, len(groups))), [token])
    return [command, *(token for group in groups for token in group)]


any_argvs = st.lists(st.sampled_from([*QUESTIONS, *OPTIONS, *NEAR_MISSES, *VALUES]), max_size=8)


@given(st.one_of(near_plain_argvs(), any_argvs,
                 st.tuples(st.sampled_from(QUESTIONS), any_argvs).map(lambda t: [t[0], *t[1]])))
@example(["run", "m.tm", "--input", "-n", "--max-steps", "3"])  # a value that is an option
@example(["run", "--max-steps", "3", "--inp"])  # an abbreviation where the path would be
@example(["run", "--max-steps", "3", "-h"])
@example(["run", "a.tm", "--max-steps", "3", "b.tm"])  # two paths
@settings(max_examples=600, deadline=None)
def test_plain_question_reader_agrees_with_argparse(argv):
    fast = plain_question(build_parser(), argv)
    assert fast is None or fast == argparse_namespace(argv), argv


def test_plain_questions_skip_argparse(machine_file, tmp_path, capsys, monkeypatch):
    sweep, story = sweep_story(machine_file, tmp_path, capsys)
    head = [sweep, "--input", "abab", "--node-cap", "6000"]
    argvs = [["run", *head, "--max-steps", "16", "--json"],
             ["crossings", *head, "-n", "4", "--json"],
             ["mstar", *head, "-n", "4", "--json"],
             ["mstar", "--story", story, "-n", "4", *head]]
    answers = [run_cli(capsys, *argv) for argv in argvs]
    for argv in argvs:
        assert plain_question(build_parser(), argv) == argparse_namespace(argv) is not None

    def no_argparse(self, *args, **kwargs):
        raise AssertionError("argparse ran")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", no_argparse)
    assert [run_cli(capsys, *argv) for argv in argvs] == answers
    assert [code for code, _, _ in answers] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# the per-process parse cache


def test_edited_machine_file_is_parsed_afresh(tmp_path, capsys):
    path = tmp_path / "edited.tm"
    argv = ["run", str(path), "--input", "ab", "--max-steps", "40", "--json"]
    path.write_text(corpus_text("always_accept"), encoding="utf-8")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and report_from_json(out).machine == "always_accept"
    path.write_text(corpus_text("palindrome"), encoding="utf-8")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and report_from_json(out).machine == "palindrome"


def count_parses(monkeypatch) -> list:
    """Make ``cli`` record each text it hands to ``parse_machine``."""
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_machine(text)

    monkeypatch.setattr(cli, "parse_machine", counted)
    return parsed


def test_two_files_with_one_text_give_one_answer(tmp_path, capsys, monkeypatch):
    parsed = count_parses(monkeypatch)
    answers = []
    for name in ("first.tm", "second.tm"):
        path = tmp_path / name
        path.write_text(corpus_text("guesser"), encoding="utf-8")
        answers.append(run_cli(capsys, "mstar", str(path), "--input", "aaaa", "-n", "4", "--json"))
    calls = len(parsed)
    assert calls <= 1  # the first question parses, unless an earlier one did
    answers.append(run_cli(capsys, "mstar", str(path), "--input", "aaaa", "-n", "4", "--json"))
    assert len(parsed) == calls and cli._parsed[0][0] == corpus_text("guesser")
    assert answers[0][0] == 0 and answers[0] == answers[1] == answers[2]


def test_invalid_machine_file_exits_65_on_every_call(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("states 4\nalphabet 0 a\ndet 3 a move R 0\nnondet 3 1 2\n")
    answers = [run_cli(capsys, "run", str(path), "--max-steps", "4") for _ in range(3)]
    assert answers[0][0] == 65 and "line 4: state 3 has both det rules" in answers[0][2]
    assert answers[0] == answers[1] == answers[2]


def renamed_always_accept(tmp_path, name: str):
    path = tmp_path / f"{name}.tm"
    path.write_text(corpus_text("always_accept").replace("machine always_accept",
                                                         f"machine {name}"),
                    encoding="utf-8")
    return path


def test_parse_cache_stays_within_its_bound(tmp_path, capsys, monkeypatch):
    parsed = count_parses(monkeypatch)
    bound = cli._PARSE_CACHE_SIZE
    for i in range(bound + 6):
        path = renamed_always_accept(tmp_path, f"m{i}")
        code, out, _ = run_cli(capsys, "run", str(path), "--max-steps", "2", "--json")
        assert code == 0 and report_from_json(out).machine == f"m{i}"
    assert len(parsed) == bound + 6  # every text was new
    assert len(cli._parsed) <= bound == 64


def test_a_full_parse_cache_costs_each_miss_the_same(tmp_path, capsys):
    # Once the cache is full, a miss replaces its oldest entry in place; a
    # cache that rebuilt itself now and then would charge that to whichever
    # question happened to trigger it.
    def ask(name):
        path = renamed_always_accept(tmp_path, name)
        return run_cli(capsys, "run", str(path), "--max-steps", "2", "--json")

    for i in range(cli._PARSE_CACHE_SIZE):
        ask(f"fill{i:03d}")
    peaks = []
    gc.freeze()  # the collections below then scan only what the questions made
    tracemalloc.start()
    try:
        for i in range(200):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code, _, _ = ask(f"miss{i:03d}")
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            assert code == 0
    finally:
        tracemalloc.stop()
        gc.unfreeze()
    assert max(peaks) - min(peaks) <= 1024, (min(peaks), max(peaks))


# ---------------------------------------------------------------------------
# mutated machine files


def mutate_machine_text(rng: random.Random, text: str) -> str:
    """Drop, duplicate or swap a few lines or tokens of a machine file; a
    quarter of the time, first repeat or drop an alphabet symbol or set
    ``states 1``, faults that moving whole tokens seldom makes."""
    lines = [line.split() for line in text.splitlines()]
    if rng.random() < 0.25:
        op = rng.choice(("repeat", "drop", "one state"))
        for tokens in lines:
            if op == "one state" and tokens[:1] == ["states"]:
                tokens[1:] = ["1"]
            elif op != "one state" and tokens[:1] == ["alphabet"] and len(tokens) > 1:
                t = rng.randrange(1, len(tokens))
                if op == "repeat":
                    tokens.insert(rng.randrange(1, len(tokens) + 1), tokens[t])
                else:
                    del tokens[t]
    for _ in range(rng.randint(1, 3)):
        cells = [(i, t) for i, tokens in enumerate(lines) for t in range(len(tokens))]
        op = rng.choice(("drop", "duplicate", "swap"))
        if rng.random() < 0.5 or not cells:
            if not lines:
                break
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(j, list(lines[i]))
            else:
                lines[i], lines[j] = lines[j], lines[i]
        else:
            (i, t), (j, u) = rng.choice(cells), rng.choice(cells)
            if op == "drop":
                del lines[i][t]
            elif op == "duplicate":
                lines[j].insert(u, lines[i][t])
            else:
                lines[i][t], lines[j][u] = lines[j][u], lines[i][t]
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_mutated_machine_files_end_in_a_documented_exit_code(fuzz_dir, seed):
    rng = random.Random(seed)
    path = fuzz_dir / "mutant.tm"
    path.write_text(mutate_machine_text(rng, corpus_text(rng.choice(CORPUS_MACHINES))),
                    encoding="utf-8")
    w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    head = [str(path), "--input", w, "--node-cap", str(rng.choice((0, 3, 30, 3000)))]
    if rng.random() < 0.5:
        head.append("--json")
    n = str(rng.randint(0, 4))
    for argv in (["validate", str(path)],
                 ["run", *head, "--max-steps", str(rng.randint(0, 30))],
                 ["crossings", *head, "-n", n],
                 ["mstar", *head, "-n", n]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors; any other exception fails the test
                code = exc.code
        assert code in {0, 1, 2, 64, 65, 66}, argv
        if argv[0] == "validate" and code == 65:  # a refused file names its fault's line
            assert re.match(rf"tmlab: {re.escape(str(path))}: line \d+: ", err.getvalue()), err.getvalue()


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_mutated_general_files_end_in_a_documented_exit_code(fuzz_dir, seed):
    rng = random.Random(seed)
    path = fuzz_dir / "mutant.gtm"
    path.write_text(mutate_machine_text(rng, corpus_text(rng.choice(GENERAL_CORPUS_MACHINES))),
                    encoding="utf-8")
    argv = ["normalize", str(path)] + (["--json"] if rng.random() < 0.5 else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors; any other exception fails the test
            code = exc.code
    assert code in {0, 1, 2, 64, 65, 66}, argv


# ---------------------------------------------------------------------------
# mutated story files


def mutate_story(rng: random.Random, story: dict, state_count: int) -> dict:
    """Change one or two things in a story: a descriptor's milestone,
    direction, phase or state; the list a descriptor sits in; a dropped or
    duplicated descriptor; one of ``n``, ``P``, ``r`` and ``k`` by one; or
    ``r`` by one together with the trailing milestone list, so the lists
    still match ``r`` but ``r`` is one more or one less than the blocks the
    walk visits; or, as the last change, a number swapped for a float,
    string or bool."""
    story = json.loads(json.dumps(story))
    lists = story["milestones"]
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("milestone", "delta", "phase", "state", "move", "drop", "duplicate",
                         "scale", "blocks", "type"))
        if op == "type":
            located = [(story, key) for key in ("schema", "n", "P", "r", "k")]
            located += [(d, f) for entries in lists for d in entries for f in range(4)]
            holder, key = rng.choice(located)
            holder[key] = rng.choice((float(holder[key]), holder[key] + 0.5, str(holder[key]),
                                      bool(holder[key])))
            break  # the other changes do arithmetic on the numbers
        if op == "scale":
            story[rng.choice("nPrk")] += rng.choice((-1, 1))
            continue
        if op == "blocks":
            if rng.random() < 0.5:
                story["r"] += 1
                lists.append([])
            elif lists:
                story["r"] -= 1
                lists.pop()
            continue
        located = [(j, i) for j, entries in enumerate(lists) for i in range(len(entries))]
        if not located:
            continue
        j, i = rng.choice(located)
        d = lists[j][i]
        if op == "milestone":
            d[1] += rng.choice((-1, 1))
        elif op == "delta":
            d[3] = -d[3]
        elif op == "phase":
            d[0] += rng.choice((-1, 1))
        elif op == "state":
            d[2] = rng.choice([s for s in range(state_count + 1) if s != d[2]])
        elif op == "move":
            target = rng.choice([t for t in range(len(lists)) if t != j] or [j])
            lists[target].insert(rng.randint(0, len(lists[target])), lists[j].pop(i))
        elif op == "drop":
            del lists[j][i]
        else:
            lists[j].insert(i, list(d))
    return story


@pytest.fixture(scope="module")
def corpus_stories(fuzz_dir, corpus):
    """(machine, machine file, input, n, story) for accepted corpus runs with
    ``|w| <= 4`` at ``n = max(2, |w|)``, one extracted story per ``P``.

    Stories that never leave block 1 are left out: nearly every mutant of
    one is caught by the ``S_0`` rules before any block runs."""
    out = []
    for name, m in sorted(corpus.items()):
        path = fuzz_dir / f"{name}.tm"
        path.write_text(corpus_text(name), encoding="utf-8")
        for w in all_inputs(4):
            n = scale_for(w)
            direct = run_direct(m, w, n * n)
            if not direct.accepted:
                continue
            for P in range(1, n + 1):
                hist = extract_history(direct.witness, Partition(P, n))
                story = story_to_dict(story_from_history(hist))
                if any(story["milestones"][1:]):
                    out.append((m, str(path), w, n, story))
    return out


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_mutated_story_files_end_in_a_documented_exit_code(fuzz_dir, corpus_stories, seed):
    rng = random.Random(seed)
    m, machine_path, w, n, story = rng.choice(corpus_stories)
    story = mutate_story(rng, story, m.state_count)
    path = fuzz_dir / "mutant.json"
    path.write_text(json.dumps(story), encoding="utf-8")
    argv = ["mstar", machine_path, "--input", w, "-n", str(n), "--story", str(path), "--json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors; any other exception fails the test
            code = exc.code
    assert code in {0, 1, 2, 64, 65, 66}, story
    if code == 0:
        assert run_direct(m, w, story["n"] ** 2).accepted, story
    try:
        read = story_from_dict(story)
    except StoryFormatError:
        return
    assert story_to_dict(read) == story  # what the reader accepts is written back unchanged
