"""Command-line interface and JSON reports."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from tmlab import corpus_text, parse_machine, validate_normal_form
from tmlab.cli import main
from tmlab.reporting import report_from_json


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
    from conftest import all_inputs, scale_for
    from tmlab import CORPUS_MACHINES, corpus_text

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
