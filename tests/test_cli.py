import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghom import reference as ref
from flaghom.bases import BasisExpansion, ktilde_upper
from flaghom.cli import main
from flaghom.compositions import compositions_of


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


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "cauchy", "--n", "3", "--deg", "4")
    assert code == 0
    assert out.startswith("cauchy: PASS")


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


def test_output_is_deterministic(capsys):
    first = run(capsys, "expand", "h", "key", "2,1", "--n", "3", "--json")
    second = run(capsys, "expand", "h", "key", "2,1", "--n", "3", "--json")
    assert first == second


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
])
def test_rejects_negative_parts_and_ragged_matrices(capsys, argv):
    code, out, err = run_error(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0] not in ("error: 'S'", "error: 'cells'")  # a bare KeyError names nothing


def test_render_filling_names_missing_rows(capsys):
    code, out, err = run_error(capsys, "render", "filling", "{}")
    assert code == 2
    assert len(err) == 1 and "rows" in err[0] and err[0] != "error: 'rows'"


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
