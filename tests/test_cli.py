"""Command line behavior: exit codes, output shape, byte stability."""

from functools import partial
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from graphings import cli, compiler
from graphings.automata import parse_automaton
from graphings.compiler import compile_automaton
from graphings.corpus import by_name
from graphings.generators import random_det_pair
from graphings.graphing import equivalent, format_graphing, parse_graphing
from graphings.words import bang_representation


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compile_reports_sizes(capsys):
    code, out, err = run(capsys, "compile", "even-ones")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "machine: even-ones"
    assert "heads: 1" in lines
    assert "stack: no" in lines
    assert "dialect-states: 45" in lines


def test_compile_writes_a_parseable_graphing(tmp_path, capsys):
    out_file = tmp_path / "even.graphing"
    code, out, _ = run(capsys, "compile", "even-ones", "--out", str(out_file))
    assert code == 0
    g = parse_graphing(out_file.read_text())
    assert equivalent(g, compile_automaton(by_name("even-ones")).graphing)


def test_unknown_machine_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compile", "no-such-machine")
    assert code == 2
    assert err.startswith("error:")


def test_accept_agrees_on_both_routes(capsys):
    code, out, _ = run(capsys, "accept", "even-ones", "11")
    assert code == 0
    assert "oracle: 1 (exact)" in out
    assert "dialogue: 1 (exact)" in out
    assert out.rstrip().endswith("verdict: agree")


def test_accept_dash_is_the_empty_word(capsys):
    code, out, _ = run(capsys, "accept", "coin-half", "-")
    assert code == 0
    assert "word: -" in out
    assert "oracle: 1/2 (exact)" in out


def test_accept_rejects_words_off_the_alphabet(capsys):
    code, _, err = run(capsys, "accept", "even-ones", "012")
    assert code == 2 and "word must be over 01" in err


def test_accept_rejects_a_negative_stack_budget(capsys):
    # the oracle ignores the budget for a stack-free machine, so only the
    # budget check stands between this and a false disagreement
    with pytest.raises(SystemExit) as exc:
        cli.main(["accept", "even-ones", "01", "--stack-depth", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--stack-depth" in out.err


@pytest.mark.parametrize("command", [["accept", "even-ones", "01"],
                                     ["membership", "even-ones", "01"]])
def test_zero_stack_budget_is_a_usage_error(command, capsys):
    # compiled start edges sit under the bottom marker, so a zero budget
    # would drop every dialogue and report a false disagreement
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--stack-depth", "0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--stack-depth" in out.err


def test_membership_table_checks_against_the_oracle(capsys):
    code, out, _ = run(capsys, "membership", "even-ones", "11", "1", "-",
                       "--test", "neg")
    assert code == 0
    lines = out.splitlines()
    assert "11 orthogonal oracle=yes ok" in lines
    assert "1 crossing oracle=no ok" in lines
    assert "- orthogonal oracle=yes ok" in lines


def test_membership_prob_needs_epsilon(capsys):
    code, _, err = run(capsys, "membership", "coin-half", "-", "--test", "prob")
    assert code == 2 and "threshold" in err
    code, out, _ = run(capsys, "membership", "coin-half", "-",
                       "--test", "prob", "--epsilon", "1/4")
    assert code == 0
    assert "test: prob[1/4]" in out


def test_equiv_compares_graphing_files(tmp_path, capsys):
    left = tmp_path / "left.graphing"
    right = tmp_path / "right.graphing"
    other = tmp_path / "other.graphing"
    left.write_text(format_graphing(compile_automaton(by_name("even-ones")).graphing))
    right.write_text(format_graphing(compile_automaton(by_name("even-ones")).graphing))
    other.write_text(format_graphing(compile_automaton(by_name("coin-half")).graphing))
    code, out, _ = run(capsys, "equiv", str(left), str(right))
    assert code == 0 and "equivalent: yes" in out
    code, out, _ = run(capsys, "equiv", str(left), str(other))
    assert code == 1 and "equivalent: no" in out


@pytest.mark.parametrize("support, edge", [
    # the source leaves the support
    ("a|[0,1/2]|-|0", "a|[1/2,1]|-|0 @ 0 @ 0 @ id @ 1"),
    # the image leaves the unit interval
    ("a|-|-|0", "a|[0,1]|-|0 @ 0 @ 0 @ b1:1/2 @ 1"),
    # the edge pops 30 symbols its source cylinder does not fix
    ("a|-|-|0", "a|-|-|0 @ 0 @ 0 @ t" + "c" * 30 + " @ 1"),
])
def test_equiv_refuses_an_invalid_graphing(tmp_path, capsys, support, edge):
    path = tmp_path / "bad.graphing"
    path.write_text(f"dialect: 0\nsupport: {support}\nedge: {edge}\n")
    code, out, err = run(capsys, "equiv", str(path), str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_equiv_missing_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "equiv", str(tmp_path / "nope"), str(tmp_path / "nope"))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", [("equiv", "{path}", "{path}"),
                                     ("accept", "{path}", "01")])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    data = random.Random(0).randbytes(200)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "bin.dat"
    path.write_bytes(data)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in command))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "not UTF-8" in err


def test_dump_rule_table_round_trips(capsys):
    code, out, _ = run(capsys, "dump", "even-ones")
    assert code == 0
    a = parse_automaton(out)
    assert a.name == "even-ones" and a.heads == 1


def test_dump_graphing_round_trips(capsys):
    code, out, _ = run(capsys, "dump", "coin-half", "--graphing")
    assert code == 0
    g = parse_graphing(out)
    assert equivalent(g, compile_automaton(by_name("coin-half")).graphing)


@pytest.mark.parametrize("machine, word, grid", [("even-ones", "01", None),
                                                 ("even-ones", "01", 5),
                                                 ("biased-stack-walk", "0", None)])
def test_dump_word_prints_the_graphings_accept_walks(machine, word, grid, capsys):
    argv = ["dump", machine, "--word", word] + (["--grid", str(grid)] if grid else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    m = compile_automaton(by_name(machine))
    rep = bang_representation(word, range(len(word) + 1), grid or len(word) + 1)
    split = out.index("# word ")
    machine_text, word_text = out[:split], out[split:]
    assert machine_text.startswith(
        f"# reachable graphing of {machine} from start state {m.start_state}\n")
    assert word_text.startswith(f"# word {word} on {rep.cells} cells\n")
    for text, want in ((machine_text, m.reachable), (word_text, rep.graphing)):
        got = parse_graphing(text)
        assert got.dialect == want.dialect and got.support == want.support
        assert got.sorted_edges() == want.sorted_edges()


@pytest.mark.parametrize("command", [["accept", "even-ones", "01"],
                                     ["dump", "even-ones", "--word", "01"]])
@pytest.mark.parametrize("grid", ["0", "-3"])
def test_grid_below_one_is_a_usage_error(command, grid, capsys):
    # 0 used to mean the default grid, and -3 to name a cell range 0..-4
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--grid", grid])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--grid" in out.err


@pytest.mark.parametrize("argv, option", [
    (["dump", "even-ones", "--grid", "5"], "--grid"),
    (["dump", "even-ones", "--graphing", "--word", "01"], "--word"),
    (["membership", "coin-half", "-", "--test", "neg", "--epsilon", "7"],
     "--epsilon"),
    (["membership", "coin-half", "-", "--epsilon", "1/2"], "--epsilon"),
    (["properties", "det-closure", "--reps", "9"], "--reps"),
    (["properties", "uniformity", "--count", "1"], "--count"),
    (["properties", "uniformity", "--dump-dir", "d"], "--dump-dir"),
    (["properties", "theta-confluence", "--dump-dir", "d"], "--dump-dir"),
])
def test_option_a_command_would_ignore_is_a_usage_error(argv, option, capsys):
    # the rule table and graphing views read no word, only prob tests read a
    # threshold, only uniformity samples placements and it runs a fixed set
    # of cases, and only the suites of graphing pairs dump a failure:
    # running would drop the option unseen
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and option in out.err


@pytest.mark.parametrize("argv", [
    ["membership", "even-ones", "0", "2"],
    ["compile", "even-ones", "--out", "missing-dir/x.graphing"],
])
def test_bad_input_found_late_still_prints_nothing(argv, tmp_path, monkeypatch,
                                                   capsys):
    # a bad later word, or a file that cannot be written, used to come to
    # light only after the first lines were out
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_a_word_that_fails_at_run_time_prints_nothing(tmp_path, capsys):
    # the oracle refuses every word of this machine only when it runs it;
    # the header lines used to be out by then
    path = tmp_path / "pop-marker.machine"
    path.write_text("name: pop-marker\nheads: 1\nstack: yes\n"
                    "states: accept init reject q\n"
                    "rule: * | init | - -> 1 o pop q 1\n"
                    "rule: * | q | - -> 1 o id accept 1\n"
                    "rule: 0 | q | - -> 1 o id q 1\n"
                    "rule: 1 | q | - -> 1 o id q 1\n")
    code, out, err = run(capsys, "membership", str(path), "-", "0")
    assert code == 2 and out == ""
    assert err == ("error: pop-marker: popped the bottom marker and then failed "
                   "to push it back (state q, read *)\n")


def test_grid_too_small_for_the_word_names_the_cells_needed(capsys):
    code, out, err = run(capsys, "accept", "even-ones", "01", "--grid", "2")
    assert code == 2 and out == ""
    assert err == "error: need at least 3 cells, got 2\n"


def test_accept_on_a_wider_grid_still_agrees(capsys):
    code, out, _ = run(capsys, "accept", "even-ones", "01", "--grid", "5")
    assert code == 0 and out.rstrip().endswith("verdict: agree")


def test_properties_suites_pass_and_stay_quiet(tmp_path, capsys):
    code, out, _ = run(capsys, "properties", "theta-confluence", "--count", "25")
    assert code == 0 and "suite theta-confluence: 25/25 pass" in out
    code, out, _ = run(capsys, "properties", "det-closure", "--count", "3",
                       "--dump-dir", str(tmp_path))
    assert code == 0 and "suite det-closure: 3/3 pass" in out
    assert list(tmp_path.iterdir()) == []  # counterexamples only on failure


def test_failing_theta_confluence_case_names_its_word_and_dumps_nothing(
        tmp_path, monkeypatch, capsys):
    # its word is no graphing to dump: the suite used to crash on the first
    # failure and never reach the next seed
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "reduce_random", lambda word, rng: word + "c")
    code, out, _ = run(capsys, "properties", "theta-confluence", "--count", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "suite theta-confluence: 0/2 pass"
    assert [ln.split("/")[0] for ln in lines[1:]] == ["fail: 0", "fail: 1"]
    assert list(tmp_path.iterdir()) == []


def test_failing_closure_case_dumps_its_pair(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._SUITES, "det-closure", partial(
        cli._suite_closure, random_det_pair, lambda plugged: False))
    code, out, _ = run(capsys, "properties", "det-closure", "--count", "1",
                       "--dump-dir", str(tmp_path))
    left, right = (tmp_path / f"det-closure-0-{side}.graphing"
                   for side in ("left", "right"))
    assert code == 1
    assert out.splitlines() == ["suite det-closure: 0/1 pass", "fail: 0",
                                f"  wrote {left}", f"  wrote {right}"]
    f, g, _ = random_det_pair(0)
    assert equivalent(parse_graphing(left.read_text()), f)
    assert equivalent(parse_graphing(right.read_text()), g)


def test_failing_closure_case_dumps_into_the_working_directory_by_default(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._SUITES, "det-closure", partial(
        cli._suite_closure, random_det_pair, lambda plugged: False))
    code, out, _ = run(capsys, "properties", "det-closure", "--count", "1")
    assert code == 1
    assert out.splitlines()[2:] == ["  wrote ./det-closure-0-left.graphing",
                                    "  wrote ./det-closure-0-right.graphing"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "det-closure-0-left.graphing", "det-closure-0-right.graphing"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_properties_count_below_one_is_a_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["properties", "det-closure", "--count", count])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--count" in out.err


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_properties_reps_below_one_is_a_usage_error(reps, capsys):
    # each check compared only the canonical placement, so the suite passed
    # without testing anything
    with pytest.raises(SystemExit) as exc:
        cli.main(["properties", "uniformity", "--reps", reps])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--reps" in out.err


def test_invalid_rule_table_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.machine"
    path.write_text("heads: 1\nstates: init accept reject\n"
                    "rule: * | init | - -> 1 o id nowhere 1\n")
    code, out, err = run(capsys, "accept", str(path), "0")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid machine: ")
    assert "unknown next state 'nowhere'" in err


def test_dialect_too_wide_to_compile_is_an_input_error(tmp_path, capsys,
                                                      monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the dialect was enumerated")

    monkeypatch.setattr(compiler, "DialectState", no_enumeration)
    path = tmp_path / "wide.machine"
    path.write_text("heads: 8\nstates: init accept reject\n"
                    "rule: ******** | init | - -> 1 o id accept 1\n")
    code, out, err = run(capsys, "compile", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "8 heads and 3 states give a dialect of 2380855680 states" in err


def test_output_is_byte_stable(capsys):
    for argv in (["accept", "coin-half", "-"], ["dump", "even-ones", "--word", "01"]):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_readme_names_only_options_the_parser_has():
    # every option README's command line section shows on a
    # ``graphings <command>`` line, or on the lines continuing it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    found, command = [], None
    for line in section.splitlines():
        named = re.match(r"(?:\$ )?graphings (\w+)", line)
        if named:
            command = named.group(1)
        elif not line.startswith(" "):
            command = None
        if command:
            found += [(command, opt) for opt in re.findall(r"--[a-z][a-z-]*", line)]
    assert ("dump", "--word") in found
    ap = cli.build_parser()
    commands = next(a for a in ap._actions if a.dest == "command").choices
    for command, option in found:
        assert option in commands[command]._option_string_actions, (
            f"README shows graphings {command} {option}")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "graphings.cli",
                           "compile", "even-ones"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("machine: even-ones")


def _readme_examples() -> dict:
    """README's ``$ graphings ...`` blocks: each command and the lines shown."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = {}
    for block in readme.split("```\n$ graphings ")[1:]:
        command, *shown = block.split("\n```", 1)[0].splitlines()
        examples[command] = shown
    return examples


@pytest.mark.parametrize("command", ["accept even-ones 0110",
                                     "accept biased-stack-walk 01",
                                     "membership coin-third - 1 --test prob "
                                     "--epsilon 1/4"])
def test_readme_examples_print_what_readme_shows(command, capsys):
    shown = _readme_examples()[command]
    assert shown
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    lines = iter(out.splitlines())
    # every shown line, in order; README may leave lines out
    assert all(line in lines for line in shown), out


@pytest.mark.parametrize("argv, summary", [
    (["refinement", "--count", "5"], "suite refinement: 5/5 pass"),
    (["uniformity", "--reps", "1"], "suite uniformity: 12/12 pass")])
def test_suites_tier_one_runs_nowhere_else_pass(argv, summary, capsys):
    code, out, _ = run(capsys, "properties", *argv)
    assert code == 0 and out.splitlines() == [summary]
