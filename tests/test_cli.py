import argparse
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flaghom import cli
from flaghom import reference as ref
from flaghom.bases import BasisExpansion, ktilde_upper
from flaghom.cli import build_parser, main, parse_comp
from flaghom.compositions import compositions_of
from flaghom.render import render_tabloid
from flaghom.snakes import enumerate_special_snake_tabloids, tabloid_json_texts
from flaghom.verify import SUITES, VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_h_to_key(capsys):
    code, out = run(capsys, "expand", "h", "key", "1,1", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["+1  [1, 1]", "+1  [2, 0]"]


def test_expand_h_to_atom_json_matches_the_per_shape_counts(capsys):
    b = (0, 2, 0, 2, 2, 3)
    code, out = run(capsys, "expand", "h", "atom", ",".join(map(str, b)), "--json")
    assert code == 0
    want = {a: ktilde_upper(a, b) for a in compositions_of(sum(b), len(b))}
    assert json.loads(out) == BasisExpansion("atom", want).to_json()


def test_expand_key_to_h(capsys):
    code, out = run(capsys, "expand", "key", "h", "1,1", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["+1  [1, 1]", "-1  [2, 0]"]


def test_expand_h_to_schubert(capsys):
    code, out = run(capsys, "expand", "h", "schubert", "0,2")
    assert code == 0
    assert out.strip() == "+1  [1, 4, 2, 3]"


def test_expand_monomial_to_h_json(capsys):
    # x1*x2 is the key polynomial of (1,1), so this matches the key -> h line
    code, out = run(capsys, "expand", "monomial", "h", "1,1", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"basis": "h-flagged",
                    "terms": [{"index": [1, 1], "coef": 1},
                              {"index": [2, 0], "coef": -1}]}


@pytest.mark.parametrize("pair", sorted(cli.EXPANSIONS), ids="-".join)
def test_expand_drops_zeros_past_the_window(capsys, pair):
    # key -> monomial once exited 2 on 1,0: "composition (1, 0) longer than ambient 1"
    code, out = run(capsys, "expand", *pair, "1,0")
    assert (code, out) == run(capsys, "expand", *pair, "1,0", "--n", "2")
    assert code == 0


def test_rsk_flagged_json_matches_reference(capsys):
    biword = ",".join(map(str, ref.BIWORD_TOP)) + ";" + ",".join(map(str, ref.BIWORD_BOTTOM))
    code, out = run(capsys, "rsk", "--biword", biword, "--flagged", "--json", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert data["S"]["rows"] == [list(r) for r in ref.SSKT_FIG]
    assert data["T"]["rows"] == [list(r) for r in ref.RSSAF_FIG]
    code, out = run(capsys, "rsk", "--biword", biword, "--json", "--n", "7")
    data = json.loads(out)
    assert data["P"]["rows"] == [list(r) for r in ref.P_FIG]
    assert data["Q"]["rows"] == [list(r) for r in ref.Q_FIG]


def test_rsk_inverse_roundtrip(capsys):
    code, out = run(capsys, "rsk", "--matrix", "0,0;1,0", "--flagged", "--json")
    pair = out
    code, out = run(capsys, "rsk", "--inverse", "--flagged", "--pair", pair, "--json")
    assert code == 0
    assert json.loads(out) == [[0, 0], [1, 0]]


def test_rsk_json_pair_feeds_back_through_the_inverse(capsys):
    # the pair carries a "shape" per tableau, which the inverse checks
    code, pair = run(capsys, "rsk", "--matrix", "1,0,2;0,1,0;1,1,0", "--json")
    assert code == 0
    code, out = run(capsys, "rsk", "--inverse", "--pair", pair, "--json")
    assert (code, json.loads(out)) == (0, [[1, 0, 2], [0, 1, 0], [1, 1, 0]])
    code, out = run(capsys, "rsk", "--inverse", "--pair", pair)
    assert (code, out) == (0, "1 0 2\n0 1 0\n1 1 0\n")


@pytest.mark.parametrize("biword, message", [
    ("1,2", "error: biword needs exactly two comma-separated lines"),
    ("1;2;3", "error: biword needs exactly two comma-separated lines"),
    ("1,2;1", "error: biword lines have different lengths"),
])
def test_rsk_biword_errors_are_named(capsys, biword, message):
    assert run_error(capsys, "rsk", "--biword", biword) == (2, "", [message])


def test_kohnert_command(capsys):
    code, out = run(capsys, "kohnert", "--shape", "0,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["closure_size"] == 3
    assert data["cells"] == [[1, 2], [2, 2]]
    assert data["polynomial"] == [
        {"exp": [0, 2], "coef": 1},
        {"exp": [1, 1], "coef": 1},
        {"exp": [2, 0], "coef": 1},
    ]


def test_snakes_command(capsys):
    code, out = run(capsys, "snakes", "--shape", "1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted((tuple(t["weight"]), t["sign"]) for t in data) == [
        ((1, 1), 1), ((2, 0), -1)]


def direct_json(shape):
    """json.dumps of the tabloid list, each value built from its tabloid."""
    return json.dumps([
        {"shape": list(t.shape), "snakes": [sorted(map(list, S)) for S in t.snakes],
         "weight": list(t.weight()), "sign": t.sign()}
        for t in enumerate_special_snake_tabloids(parse_comp(shape))], sort_keys=True) + "\n"


@pytest.mark.parametrize("shape", ["0", "1", "1,1", "2,0,3,1", "3,1,2"])
def test_snakes_json_is_one_dump_of_the_list(capsys, shape):
    tabloids = enumerate_special_snake_tabloids(parse_comp(shape))
    code, out = run(capsys, "snakes", "--shape", shape, "--json")
    assert code == 0
    assert out == direct_json(shape)
    assert out == "[" + ", ".join(tabloid_json_texts(tabloids)) + "]\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3), max_size=6))
@example([0, 0, 0]).via("all-zero rows")
@example([3, 0, 2, 0, 1, 3]).via("six rows with zeros between")
def test_snakes_json_matches_a_direct_dump(parts):
    shape = ",".join(map(str, parts))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["snakes", "--shape", shape, "--json"]) == 0
    assert out.getvalue() == direct_json(shape)


def test_snakes_text(capsys):
    code, out = run(capsys, "snakes", "--shape", "1,1")
    assert (code, out) == (0, " 2 | 1\n 1 | 1\nweight [2, 0]  sign -1\n\n"
                              " 2 | 2\n 1 | 1\nweight [1, 1]  sign +1\n\n2 tabloids\n")
    tabloids = enumerate_special_snake_tabloids((3, 1, 2))
    code, out = run(capsys, "snakes", "--shape", "3,1,2")
    blocks = "".join(f"{render_tabloid(t)}\n\n" for t in tabloids)
    assert out == f"{blocks}{len(tabloids)} tabloids\n"


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "cauchy", "--n", "3", "--deg", "4")
    assert code == 0
    assert out.startswith("cauchy: PASS")


def test_verify_all_hands_each_suite_only_the_options_it_reads(capsys, monkeypatch):
    calls = {}

    def fake_run_suite(name, **options):
        calls[name] = options
        return VerifyReport(name)

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, _ = run(capsys, "verify", "all", "--n", "4", "--deg", "6")
    assert code == 0
    assert calls == {name: {"n": 4, "deg": 6} for name in SUITES} | {
        "cancelfree": {"deg": 6}, "regressions": {}}


def test_verify_json_is_one_list_of_reports(capsys):
    code, out = run(capsys, "verify", "regressions", "--json")
    assert code == 0
    (report,) = json.loads(out)
    assert sorted(report) == ["failures", "instances", "seconds", "suite"]
    assert (report["suite"], report["failures"]) == ("regressions", [])
    assert report["instances"] > 0


def test_verify_prints_each_failure_indented_and_exits_1(capsys, monkeypatch):
    def failing_run_suite(name, **options):
        report = VerifyReport(name)
        report.check(True)
        report.check(False, b=(1, 0), kind="made up")
        return report

    monkeypatch.setattr(cli, "run_suite", failing_run_suite)
    code, out = run(capsys, "verify", "cauchy")
    assert code == 1
    assert out.splitlines() == ["cauchy: FAIL (1 failures) [2 instances, 0.00s]",
                                "  {'b': (1, 0), 'kind': 'made up'}"]


@pytest.mark.parametrize("argv, option", [
    (("regressions", "--n", "9", "--deg", "9"), "n"),  # each once exited 0, the option unread
    (("regressions", "--deg", "9"), "deg"),
    (("cancelfree", "--n", "9"), "n"),
])
def test_verify_suite_refuses_an_option_it_does_not_read(capsys, argv, option):
    code, out, err = run_error(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == [f"error: suite {argv[0]} does not read --{option}"]


@pytest.mark.parametrize("argv, message", [
    (("verify", "snakes", "--n", "0"), "--n 0 is not an integer >= 1"),
    (("verify", "all", "--deg", "-1"), "--deg -1 is not an integer >= 0"),
    (("render", "filling", '{"rows": [[1]]}', "--n", "-3"), "window -3 is not an integer >= 0"),
    (("render", "diagram", '{"cells": [[1, 1]]}', "--n", "-3"),
     "window -3 is not an integer >= 0"),
])
def test_an_integer_option_below_its_least_is_one_error_line(capsys, argv, message):
    code, out, err = run_error(capsys, *argv)
    assert (code, out, err) == (2, "", [f"error: {message}"])


def test_render_filling(capsys):
    payload = json.dumps({"shape": [1, 1], "rows": [[1], [2]]})
    code, out = run(capsys, "render", "filling", payload)
    assert code == 0
    assert out.splitlines() == [" 2 | 2", " 1 | 1"]


def test_render_diagram(capsys):
    # JSON cells arrive as lists; they once raised TypeError: unhashable type
    code, out = run(capsys, "render", "diagram", '{"cells": [[1, 2], [2, 1]]}')
    assert code == 0
    assert out.splitlines() == [" 2 | # .", " 1 | . #"]


def test_render_diagram_draws_cells_above_n(capsys):
    # the cell in row 5 was once dropped from a two-row grid
    code, out = run(capsys, "render", "diagram", '{"cells": [[1, 5]]}', "--n", "2")
    assert code == 0
    assert out.splitlines() == [" 5 | #", " 4 | .", " 3 | .", " 2 | .", " 1 | ."]


def test_output_is_deterministic(capsys):
    first = run(capsys, "expand", "h", "key", "2,1", "--n", "3", "--json")
    second = run(capsys, "expand", "h", "key", "2,1", "--n", "3", "--json")
    assert first == second


def test_every_option_is_read_by_its_command():
    # an option the command never reads is accepted and silently ignored
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.option_strings)


def run_error(capsys, *argv):
    """Exit code, stdout and stderr lines of a command that must be
    rejected; main returns the code rather than raising SystemExit."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


@pytest.mark.parametrize("argv", [
    ("expand", "h", "key", "1,-1"),
    ("expand", "h", "schubert", "1,-1"),
    ("rsk", "--matrix", "1,2;3"),
    ("render", "filling", '{"rows": [[1, "a"]]}'),
    ("rsk", "--inverse", "--pair", "[1]"),
    ("rsk", "--inverse", "--pair", '{"P": {"rows": [[0]]}, "Q": {"rows": [[1]]}}'),
    ("rsk", "--inverse", "--flagged", "--pair",
     '{"S": {"rows": [[0]]}, "T": {"rows": [[1]]}}'),
    ("verify", "snakes", "--n", "0"),
    ("verify", "frsk", "--deg", "-1"),
    ("rsk", "--inverse", "--pair", "{}"),
    ("render", "diagram", "{}"),
    ("render", "matrix", "5"),
    ("render", "matrix", "[[1, 2], [3]]"),
    ("expand", "key", "atom", "1,1"),
    ("rsk", "--matrix", "0,1;0,0", "--flagged"),
    ("verify", "definitely-not-a-suite"),
    ("render", "matrix", "[[1, -1]]"),
    ("kohnert", "--shape", "-1,2"),  # argparse once printed its usage block
    ("expand", "h", "key", "1", "--n", "x"),
    ("snakes",),
    ("snakes", "--shape", "1,1", "--n", "1"),  # each option below was once accepted unread
    ("snakes", "--shape", "1,1", "--deg", "9"),
    ("expand", "h", "key", "1,1", "--deg", "7"),
    ("kohnert", "--shape", "0,2", "--deg", "2"),
    ("rsk", "--matrix", "0,0;1,0", "--deg", "1"),
    ("render", "filling", '{"rows": [[1], [2]]}', "--json"),
    ("kohnert", "--shape", "0,2", "--diagram", "1,1"),  # both once ran, one unread
    ("rsk", "--matrix", "0,0;1,0", "--biword", "1,2;1,1"),
    ("rsk", "--matrix", ""),
    ("kohnert", "--diagram", ""),
    ("rsk", "--matrix", "0,0;1,0", "--pair", "{}"),  # each option below is read in one mode only
    ("rsk", "--matrix", "0,0;1,0", "--n", "9"),
    ("rsk", "--inverse", "--flagged", "--n", "2", "--pair",
     '{"S": {"rows": [[1]]}, "T": {"rows": [[1]]}}'),
    ("render", "matrix", "[[1]]", "--n", "3"),
    ("render", "filling", '{"rows": [[1]]}', "--n", "-3"),  # once ignored
    ("kohnert", "--diagram", "1,1", "--n", "9"),
    ("render", "filling", '{"shape": [2], "rows": [[1]]}'),  # each once drew what it had
    ("render", "filling", '{"rows": [[0]]}'),
    ("rsk", "--inverse", "--pair", '{"P": {"shape": [1, 1], "rows": [[2, 1]]}, "Q": {"rows": [[1, 2]]}}'),
])
def test_rejects_negative_parts_and_ragged_matrices(capsys, argv):
    code, out, err = run_error(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0] not in ("error: 'S'", "error: 'cells'")  # a bare KeyError names nothing


@pytest.mark.parametrize("argv, keep, head", [
    (("verify", "all"), 0, b""),
    (("snakes", "--shape", "3,7,0,2,5,8,6", "--json"), 20, b'[{"shape": [3, 7, 0,'),
])
def test_a_closed_stdout_ends_quietly(argv, keep, head):
    # the reader takes `keep` bytes, then closes stdout; each once ended in a
    # BrokenPipeError traceback
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "flaghom", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(keep) == head
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_render_filling_names_missing_rows(capsys):
    code, out, err = run_error(capsys, "render", "filling", "{}")
    assert code == 2
    assert len(err) == 1 and "rows" in err[0] and err[0] != "error: 'rows'"


@pytest.mark.parametrize("cells, named", [("1", "[1]"), ("1,2,3", "[1, 2, 3]"),
                                          ("1,1;0,2", "[0, 2]")])
def test_kohnert_diagram_names_the_bad_cell(capsys, cells, named):
    code, out, err = run_error(capsys, "kohnert", "--diagram", cells)
    assert (code, out) == (2, "")
    assert err == [f"error: cell {named} is not a (column, row) pair of positive integers"]


@pytest.mark.parametrize("argv", [
    ("kohnert", "--diagram", "1,1;1,1"),
    ("kohnert", "--diagram", "2,1;1,1;2,1", "--json"),
    ("render", "diagram", '{"cells": [[1, 1], [1, 1]]}'),
])
def test_diagram_cell_listed_twice_is_refused(capsys, argv):
    # each once printed a diagram with the repeat dropped
    code, out, err = run_error(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: cell [") and err[0].endswith("] is listed twice")


@pytest.mark.parametrize("argv, message", [
    (("snakes", "--shape", "1,,2"), "error: part 2 of '1,,2' is not an integer: ''"),
    (("expand", "h", "key", "1,a"), "error: part 2 of '1,a' is not an integer: 'a'"),
    (("kohnert", "--shape", "1.5"), "error: part 1 of '1.5' is not an integer: '1.5'"),
    (("rsk", "--matrix", "0,0;x,0"), "error: part 1 of 'x,0' is not an integer: 'x'"),
])
def test_unreadable_part_is_named(capsys, argv, message):
    # int() once spoke for itself: invalid literal for int() with base 10: ''
    code, out, err = run_error(capsys, *argv)
    assert (code, out, err) == (2, "", [message])


# parts of a fuzzed argument: small integers, then what no part may be
PARTS = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "1.5", "a", "", "True"])
COMP = st.builds(lambda dash, parts: dash + ",".join(parts),
                 st.sampled_from(["", "-"]), st.lists(PARTS, max_size=3))
ROWS = st.lists(COMP, min_size=1, max_size=3)
JSON_KEY = {"filling": '{{"rows": {}}}', "diagram": '{{"cells": {}}}', "matrix": "{}"}


def render_argv(kind, rows):
    return ["render", kind, JSON_KEY[kind].format("[" + ", ".join(f"[{r}]" for r in rows) + "]")]


ARGV = st.one_of(
    st.builds(lambda source, target, index, n: ["expand", source, target, index, *n],
              st.sampled_from(["h", "key", "monomial"]),
              st.sampled_from(["key", "atom", "h", "schubert", "monomial"]), COMP,
              st.sampled_from([(), ("--n", "0"), ("--n", "2"), ("--n", "-1"), ("--n", "a")])),
    st.builds(lambda rows, flag: ["rsk", "--matrix", ";".join(rows), *flag],
              ROWS, st.sampled_from([(), ("--flagged",)])),
    st.builds(lambda option, rows: ["kohnert", option, ";".join(rows)],
              st.sampled_from(["--shape", "--diagram"]), ROWS),
    st.builds(lambda shape: ["snakes", "--shape", shape], COMP),
    st.builds(render_argv, st.sampled_from(sorted(JSON_KEY)), ROWS),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_fuzzed_argv_exits_0_or_with_one_error_line(argv):
    # capsys is function scoped, which hypothesis rejects
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), argv
    else:
        assert (code, lines) == (0, []), argv
