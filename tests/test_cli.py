"""Command-line interface and JSON reports."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (
    CORPUS_MACHINES,
    corpus_text,
    extract_history,
    parse_machine,
    partition_for_trace,
    run_direct,
    story_from_history,
    validate_normal_form,
)
from tmlab.cli import main
from tmlab.reporting import report_from_json, story_to_dict

from conftest import all_inputs, scale_for


@pytest.fixture()
def machine_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.tm"
        path.write_text(corpus_text(name), encoding="utf-8")
        return str(path)
    return write


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
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
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 65 and "mixed-state" in out


def test_validate_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.tm"
    path.write_text("")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 65 and "empty" in out


def test_missing_file_exits_66(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/machine.tm")
    assert code == 66 and "cannot read" in err


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
    # partition's history is replayed
    from tmlab import crossing

    replays = []
    replay = crossing._replay

    def counted(trace, partition):
        replays.append(partition.P)
        return replay(trace, partition)

    monkeypatch.setattr(crossing, "_replay", counted)
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


def test_mstar_malformed_story_exits_65(machine_file, tmp_path, capsys):
    story_path = tmp_path / "bad.json"
    story_path.write_text('{"schema": 1, "kind": "story"}')
    code, _, err = run_cli(capsys, "mstar", machine_file("sweep_right"),
                           "--input", "abab", "-n", "4", "--story", str(story_path))
    assert code == 65 and "malformed story" in err


# ---------------------------------------------------------------------------
# normalize


def test_normalize_outputs_valid_machine(tmp_path, capsys):
    path = tmp_path / "general.gtm"
    path.write_text(corpus_text("general_anbn"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "normalize", str(path))
    assert code == 0
    machine = parse_machine(out)
    assert validate_normal_form(machine) == []


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
])
def test_normalize_bad_alphabet_reports_its_own_line(tmp_path, capsys, alphabet, message):
    path = tmp_path / "bad.gtm"
    path.write_text(f"general g\nstates 2\nalphabet {alphabet}\naccept 1\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and f"line 3: {message}" in err


@pytest.mark.parametrize("missing", ["states", "alphabet", "accept"])
def test_normalize_missing_header_line_is_named(tmp_path, capsys, missing):
    lines = {"states": "states 2", "alphabet": "alphabet 0 a", "accept": "accept 1"}
    del lines[missing]
    path = tmp_path / "bad.gtm"
    path.write_text("general g\n" + "\n".join(lines.values()) + "\n")
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 65 and out == "" and f"missing {missing} line" in err


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


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import tmlab.cli\n"
        "print(len(built))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "0\n"


# ---------------------------------------------------------------------------
# mutated machine files


def mutate_machine_text(rng: random.Random, text: str) -> str:
    """Drop, duplicate or swap a few lines or tokens of a machine file."""
    lines = [line.split() for line in text.splitlines()]
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
    duplicated descriptor; or one of ``n``, ``P``, ``r`` and ``k`` by one."""
    story = json.loads(json.dumps(story))
    lists = story["milestones"]
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("milestone", "delta", "phase", "state", "move", "drop", "duplicate",
                         "scale"))
        if op == "scale":
            story[rng.choice("nPrk")] += rng.choice((-1, 1))
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
                hist = extract_history(direct.witness, partition_for_trace(direct.witness, P, n))
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
