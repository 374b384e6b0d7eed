"""The workspace format and the command-line front end."""

import json

import pytest

from tgr import cli
from tgr.graphs import RationalTerm, bisim_equal
from tgr.parsing import (
    ParseError,
    format_graph,
    graph_to_json,
    parse_workspace,
)

WORKSPACE = """\
# a small workspace exercising every declaration form
sig a/0 b/0 f/1 g/1 cdr/1 cons/2

graph Loop {
  n: f(n);
  root n;
}

graph Cy {
  c: cdr(k);
  k: cons(u, c);
  u: a;          # constants may drop the parens
  root c;
}

graph Fin {
  m: f(m2);
  m2: a();
  root m;
}

graph WithHole {
  m: f(h);
  h: ;
  root m;
  bottom h;
}

graph Stream {
  q: cons(z, q);
  z: a;
  root q;
}

rule Rf: f(x) -> g(x)
rule Rcdr: cdr(cons(x, y)) -> y
rule Rs: g(x) -> @Stream.q
"""


@pytest.fixture(scope="module")
def ws():
    return parse_workspace(WORKSPACE)


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "work.tgr"
    path.write_text(WORKSPACE)
    return str(path)


# ---------------------------------------------------------------------------
# Parsing


def test_workspace_contents(ws):
    assert ws.sig.arity("cons") == 2
    assert sorted(ws.graphs) == ["Cy", "Fin", "Loop", "Stream", "WithHole"]
    assert [r.name for r in ws.trs.rules] == ["Rf", "Rcdr", "Rs"]


def test_parsed_cycle_and_constants(ws):
    cy = ws.graph("Cy")
    assert cy.point == "c"
    assert cy.graph.succs["k"] == ("u", "c")
    assert cy.graph.labels["u"] == "a"
    assert cy.graph.succs["u"] == ()


def test_parsed_bottom_tag(ws):
    hole = ws.graph("WithHole")
    assert hole.bottoms == frozenset(["h"])
    assert not ws.graph("Loop").bottoms


def test_graph_valued_rhs(ws):
    rs = ws.trs.rule("Rs")
    assert isinstance(rs.rhs, RationalTerm)
    assert rs.rhs.point == "q"
    assert rs.rhs.graph.succs["q"] == ("z", "q")


def test_tgrs_translation_is_cached(ws):
    tgrs = ws.tgrs()
    assert tgrs is ws.tgrs()
    assert [r.name for r in tgrs.rules] == ["Rf", "Rcdr", "Rs"]


def test_graph_lookup_failure(ws):
    with pytest.raises(KeyError):
        ws.graph("Nope")
    with pytest.raises(KeyError):
        ws.trs.rule("Nope")


def test_format_graph_roundtrip(ws):
    for name in ws.graphs:
        rt = ws.graph(name)
        text = "sig a/0 b/0 f/1 g/1 cdr/1 cons/2\n" + format_graph(rt, name)
        back = parse_workspace(text).graph(name)
        assert back == rt  # bisimilar, same point
        assert back.bottoms == rt.bottoms


def test_format_graph_inline(ws):
    line = format_graph(ws.graph("Loop"), name=None)
    assert line == "{n: f(n); root n;}"
    line = format_graph(ws.graph("WithHole"), name=None)
    assert line == "{h: ; m: f(h); root m; bottom h;}"


def test_graph_to_json(ws):
    doc = graph_to_json(ws.graph("WithHole"))
    assert doc["root"] == "m"
    assert doc["bottom"] == ["h"]
    ids = {n["id"]: n for n in doc["nodes"]}
    assert ids["m"]["label"] == "f"
    assert ids["m"]["successors"] == ["h"]
    assert ids["h"]["label"] is None
    json.dumps(doc)  # must be serializable as-is


def bad(text):
    with pytest.raises(ParseError) as e:
        parse_workspace(text)
    return e.value


def test_parse_error_carries_line_numbers():
    err = bad("sig f/1\n\ngraph G {\n  n: f(n);\n}\n")  # no root
    assert err.line == 3
    assert "line 3" in str(err)


def test_parse_error_cases():
    bad("frob G {}")  # unknown declaration
    bad("sig")  # empty signature
    bad("sig f/1 f/2")  # redeclared arity
    bad("sig f/1\ngraph G { n: f(n); n: f(n); root n; }")  # duplicate node
    bad("sig f/1\ngraph G { n: f(n); root n; root n; }")  # duplicate root
    bad("sig f/1\ngraph G { n: f(n); root n; }\ngraph G { n: f(n); root n; }")
    bad("sig f/1 a/0\ngraph G { n: f(); root n; }")  # arity mismatch
    bad("sig f/1 a/0\ngraph G { n: a; root n; bottom n; }")  # bottom + label
    bad("sig f/1\ngraph G { n: f(m); root n; }")  # unknown successor
    bad("sig f/1\nrule R: f(x) -> g(x)")  # undeclared operator
    bad("sig f/1 g/1\nrule R: f(x) -> g(y)")  # fresh rhs variable
    bad("sig f/1\nrule R: f(x) -> @Nope.n")  # unknown graph
    bad("sig f/1\ngraph G { n: f(n); root n; }\nrule R: f(x) -> @G.zz")
    bad("sig f/1\ngraph G { n: ? ; root n; }")  # bad token


# ---------------------------------------------------------------------------
# CLI


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_cli_check(ws_file, capsys):
    code, out, _ = run(capsys, "check", ws_file)
    assert code == 0
    assert "orthogonal: yes" in out
    assert "rule Rcdr: cdr(cons(x, y)) -> y [collapsing]" in out


def test_cli_check_json(ws_file, capsys):
    code, doc = run_json(capsys, "check", ws_file)
    assert code == 0
    assert doc["orthogonal"] is True
    by_name = {r["name"]: r for r in doc["rules"]}
    assert by_name["Rf"]["collapsing"] is False
    assert by_name["Rcdr"]["collapsing"] is True
    assert by_name["Rs"]["oracle_supported"] is True


def test_cli_check_reports_conflicts(tmp_path, capsys):
    path = tmp_path / "clash.tgr"
    path.write_text(
        "sig f/1 a/0\nrule R1: f(x) -> a\nrule R2: f(f(x)) -> a\n"
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "orthogonal: no" in out


def test_cli_unravel(ws_file, capsys):
    code, out, _ = run(capsys, "unravel", ws_file, "--graph", "Loop",
                       "--depth", "3")
    assert code == 0
    assert out.strip() == "f(f(f(_|_)))"


def test_cli_matches(ws_file, capsys):
    code, out, _ = run(capsys, "matches", ws_file, "--graph", "Cy")
    assert code == 0
    assert "Rcdr at c" in out


def test_cli_rewrite_to_normal_form(ws_file, capsys):
    code, out, _ = run(capsys, "rewrite", ws_file, "--graph", "Fin")
    assert code == 0
    assert out.splitlines()[0].startswith("STEP Rf at m")
    # f(a) => g(a) => the stream, which has no redexes
    assert "normal form: yes" in out


def test_cli_derive(ws_file, capsys):
    code, out, _ = run(capsys, "derive", ws_file, "--graph", "Loop",
                       "--rule", "Rf", "--at", "n")
    assert code == 0
    assert "track:" in out

    code, doc = run_json(capsys, "derive", ws_file, "--graph", "Loop",
                         "--rule", "Rf", "--at", "n")
    assert code == 0
    assert set(doc) >= {"host", "result", "track"}


def test_cli_redex_set(ws_file, capsys):
    code, out, _ = run(capsys, "redex-set", ws_file, "--graph", "Loop",
                       "--rule", "Rf", "--at", "n", "--maxlen", "2")
    assert code == 0
    assert "finite: no" in out
    assert "occurrences of length <= 2: 3" in out


def test_cli_oracle(ws_file, capsys):
    code, doc = run_json(capsys, "oracle", ws_file, "--graph", "Loop",
                         "--rule", "Rf", "--at", "n", "--depth", "4")
    assert code == 0
    assert doc["monotone"] is True and doc["agrees"] is True
    assert doc["symbolic"] == "g(g(g(g(_|_))))"


def test_cli_verify_soundness(ws_file, capsys):
    code, doc = run_json(capsys, "verify-soundness", ws_file,
                         "--graph", "Cy", "--depth", "6")
    assert code == 0
    assert doc["ok"] is True
    assert doc["reports"]


def test_cli_verify_nf(ws_file, capsys):
    code, out, _ = run(capsys, "verify-nf", ws_file, "--graph", "Stream")
    assert code == 0
    assert "holds" in out


def test_cli_verify_cofinality(ws_file, capsys):
    code, doc = run_json(capsys, "verify-cofinality", ws_file,
                         "--graph", "Cy", "--depth", "6")
    assert code == 0
    assert doc["ok"] is True


def test_cli_suite(capsys):
    code, doc = run_json(capsys, "suite", "--cases", "2", "--seed", "3",
                         "--properties", "soundness,confluence")
    assert code == 0
    assert [p["name"] for p in doc["properties"]] == [
        "soundness", "confluence"
    ]
    assert all(p["failures"] == 0 for p in doc["properties"])


def test_cli_dot(ws_file, capsys, tmp_path):
    code, out, _ = run(capsys, "dot", ws_file, "--graph", "Loop")
    assert code == 0
    assert out.startswith("digraph")

    target = tmp_path / "step.dot"
    code, out, _ = run(capsys, "dot", ws_file, "--graph", "Loop",
                       "--rule", "Rf", "--at", "n", "-o", str(target))
    assert code == 0
    assert out == ""
    assert "cluster" in target.read_text()


def test_cli_error_exits(ws_file, tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.tgr"))
    assert code == 2 and "error" in err

    broken = tmp_path / "broken.tgr"
    broken.write_text("graph G {")
    code, _, err = run(capsys, "check", str(broken))
    assert code == 2 and "line" in err

    code, _, err = run(capsys, "unravel", ws_file, "--graph", "Nope")
    assert code == 2

    code, _, err = run(capsys, "derive", ws_file, "--graph", "Loop",
                       "--rule", "Rzz", "--at", "n")
    assert code == 2

    code, _, err = run(capsys, "derive", ws_file, "--graph", "Loop",
                       "--rule", "Rcdr", "--at", "n")
    assert code == 2 and "match" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["unravel", "--graph", "Loop", "--depth", "-1"],
        ["rewrite", "--graph", "Loop", "--steps", "-1"],
        ["redex-set", "--graph", "Loop", "--rule", "Rf", "--at", "n",
         "--count", "-3"],
        ["redex-set", "--graph", "Loop", "--rule", "Rf", "--at", "n",
         "--maxlen", "-2"],
        ["oracle", "--graph", "Loop", "--rule", "Rf", "--at", "n",
         "--budget", "-5"],
    ],
)
def test_cli_rejects_negative_bounds(ws_file, capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv[:1] + [ws_file] + argv[1:])
    assert e.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


def test_cli_too_deep_is_bad_input(tmp_path, capsys):
    path = tmp_path / "loop.tgr"
    path.write_text("sig I/1\ngraph Loop { n: I(n); root n; }\nrule RI: I(x) -> x\n")
    code, out, err = run(capsys, "verify-soundness", str(path),
                         "--graph", "Loop", "--depth", "300")
    assert code == 2
    assert err.startswith("error:") and "lower --depth" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
