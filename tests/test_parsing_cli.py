"""The workspace format and the command-line front end."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tgr
from tgr import cli
from tgr.dot import export_dot
from tgr.graphs import RationalTerm, TermGraph, bisim_equal
from tgr.harness import gen_case, gen_signature, gen_term
from tgr.parsing import (
    ParseError,
    Workspace,
    format_graph,
    graph_to_json,
    parse_workspace,
)
from tgr.rules import RewriteRule
from tgr.terms import format_term, op, parse_term, var
from tests.reference import ref_rewrite_steps

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


@pytest.mark.parametrize(
    "text, message",
    [
        ("sig f/1\ngraph G { n: f(n); root m; }",
         "line 2: graph G mentions unknown node m"),
        ("sig f/x", "line 1: expected an arity, found 'x'"),
        ("sig f/1\ngraph G { n: f(n); ; root n; }",
         "line 2: unexpected ';' in graph body"),
        ("sig f/1\nrule R: -> f(x)", "line 2: expected a term, found '->'"),
        ("sig f/1\ngraph G { n: f(n);\n n: f(n); root n; }",
         "line 3: node n declared twice"),
        # errors inside rule terms name the line of the token at fault
        ("sig f/1\nrule R: f(x, y) -> x",
         "line 2: f has arity 1, applied to 2 arguments"),
        ("sig f/1  # one\n# two\n\nrule R: f(x) -> g(x)",
         "line 4: undeclared operator 'g' applied to arguments"),
        ("sig f/1\nrule R: f(x) -> f(", "line 2: unexpected end of input"),
        ("sig p/2\nrule R: p(x,\n  y z) -> x", "line 3: expected ')', found 'z'"),
        ("sig p/2\nrule R:\n  p(x,\n    y, x) -> x",
         "line 3: p has arity 2, applied to 3 arguments"),
        ("sig f/1 a/0\nrule R: f(_|_) -> a",
         "line 2: rule R: left-hand side must be total"),
        ("sig f/1\nrule R: f(1) -> f(x)", "line 2: unexpected '1'"),
        ("\n\nsig", "line 3: sig needs at least one name/arity pair"),
        # exactly one comma between successors, none after the last
        ("sig p/2\ngraph G {\n n: p(n n); root n; }",
         "line 3: expected ')', found 'n'"),
        ("sig p/2\ngraph G {\n n: p(n, n,); root n; }",
         "line 3: expected a name, found ')'"),
        # a rule name declared twice is reported before any rule is checked
        ("sig f/1\nrule R: f(x) -> f(y)\n\nrule R: f(x) -> x",
         "line 4: rule R declared twice"),
    ],
    ids=["unknown-node", "arity", "graph-body", "term", "duplicate-node",
         "rule-arity", "undeclared-operator", "end-in-term", "two-lines",
         "arity-at-the-operator", "bottom-in-rule", "number-in-term",
         "empty-sig-at-the-end", "successors-without-comma",
         "successors-trailing-comma", "duplicate-rule"],
)
def test_parse_error_messages(text, message):
    err = bad(text)
    assert str(err) == message
    assert message.startswith(f"line {err.line}: ")


def test_terms_read_back_from_literals_and_workspace_rules():
    # a term printed as a literal reads back as itself, alone and as the
    # right-hand side of a workspace rule, read from the workspace's tokens
    rng = random.Random(19)
    for _ in range(300):
        sig = gen_signature(rng)
        t = gen_term(rng, sig, ["x", "y"], rng.randint(0, 5))
        text = format_term(t)
        assert parse_term(sig, text) == t
        decls = " ".join(f"{name}/{k}" for name, k in sig.arities)
        ws = parse_workspace(f"sig {decls} top/2\nrule R: top(x, y) ->\n {text}\n")
        lhs = op("top", [var("x"), var("y")])
        assert ws.trs.rules == (RewriteRule.of("R", lhs, t),)


def test_a_20000_node_ring_parses():
    # declared nodes are kept in a dict: a list made this quadratic
    n = 20_000
    body = "".join(f"  n{i}: f(n{(i + 1) % n});\n" for i in range(n))
    ws = parse_workspace(f"sig f/1\ngraph Ring {{\n{body}  root n0;\n}}\n")
    ring = ws.graph("Ring")
    assert len(ring.graph.nodes) == n and ring.graph.successors("n19999") == ("n0",)
    assert ring == RationalTerm(TermGraph.of(["n"], {"n": "f"}, {"n": ("n",)}), "n")


def test_dot_draws_holes_and_the_point():
    text = export_dot(parse_workspace(WORKSPACE).graph("WithHole"), "W")
    assert text.splitlines() == [
        "digraph W {",
        "  rankdir=TB;",
        '  "h" [label="h:⊥", shape=ellipse, style=filled, fillcolor=lightgray];',
        '  "m" [label="m:f", shape=box, peripheries=2];',
        '  "m" -> "h" [label="1"];',
        "}",
    ]


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


def test_cli_rewrite_prints_the_steps_the_replay_takes(ws, capsys, monkeypatch):
    """`tgr rewrite --json` prints the steps its `Stepper` took, with the
    identity plus the merged-away nodes as each track; the old route, which
    replayed each first match on copies (`ref_rewrite_steps`), gives the
    same steps, tracks, result and verdict, or the same refusal, on every
    graph of this file's and the corpus's workspaces and on generated
    hosts."""
    corpus = Path(__file__).resolve().parent / "corpus"
    spaces = [ws]
    for path in sorted(corpus.glob("*.tgr")):
        try:
            spaces.append(parse_workspace(path.read_text(encoding="utf-8")))
        except ValueError:  # the corpus's broken workspaces
            pass
    for seed in range(80):
        case = gen_case(random.Random(seed))
        spaces.append(Workspace(case.sig, {"H": case.host}, case.trs))
    compared = merged = 0
    for space in spaces:
        monkeypatch.setattr(cli, "_load", lambda path: space)
        for name in space.graphs:
            try:
                want = ref_rewrite_steps(space.graph(name), space.tgrs(), 20)
            except ValueError as e:
                code, _, err = run(capsys, "rewrite", "-", "--graph", name)
                assert (code, err) == (2, f"error: {e}\n")
                continue
            steps, result, nf = want
            code, doc = run_json(capsys, "rewrite", "-", "--graph", name)
            assert code == 0
            assert doc["steps"] == steps, name
            assert (doc["result"], doc["normal_form"]) == (graph_to_json(result), nf)
            compared += len(steps)
            merged += sum(s["track"] != {n: n for n in s["track"]} for s in steps)
    assert compared >= 400 and merged >= 20


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
    assert doc["symbolic"] == "g(g(g(g(_|_))))"
    assert not {"doublings", "monotone", "agrees"} & set(doc)
    code, out, _ = run(capsys, "oracle", ws_file, "--graph", "Loop",
                       "--rule", "Rf", "--at", "n", "--depth", "4")
    assert code == 0 and out.splitlines()[-1] == "symbolic = g(g(g(g(_|_))))"


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
    code, doc = run_json(capsys, "verify-cofinality", ws_file, "--graph", "Cy")
    assert code == 0
    assert doc["ok"] is True


def test_cli_verify_cofinality_rejects_a_phi_index_out_of_range(capsys):
    work = str(Path(__file__).resolve().parent / "corpus" / "work.tgr")
    for phi in ("-1", "5"):
        code, out, err = run(capsys, "verify-cofinality", work,
                             "--graph", "Tail", f"--phi={phi}")
        assert (code, out) == (2, "")
        assert err == f"error: phi index {phi} out of range for 1 matches\n"


def test_cli_verify_cofinality_names_a_phi_item_that_is_not_an_integer(capsys):
    work = str(Path(__file__).resolve().parent / "corpus" / "work.tgr")
    with pytest.raises(SystemExit) as e:
        cli.main(["verify-cofinality", work, "--graph", "Tail", "--phi=0,x"])
    assert e.value.code == 2
    out = capsys.readouterr()
    errors = [line for line in out.err.splitlines() if "error" in line]
    assert out.out == "" and len(errors) == 1
    assert errors[0].endswith("error: argument --phi: not an integer: 'x'")


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

    for succs in ("n n", "n, n,"):
        broken.write_text(f"sig p/2\ngraph G {{ n: p({succs}); root n; }}")
        code, _, err = run(capsys, "check", str(broken))
        assert code == 2 and "line 2: expected" in err

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
        ["suite", "--cases", "-1"],
    ],
)
def test_cli_rejects_negative_bounds(ws_file, capsys, argv):
    file = [] if argv[0] == "suite" else [ws_file]  # the suite reads no workspace
    with pytest.raises(SystemExit) as e:
        cli.main(argv[:1] + file + argv[1:])
    assert e.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


LOOP_I = "sig I/1\ngraph Loop { n: I(n); root n; }\nrule RI: I(x) -> x\n"


def test_cli_deep_check_on_a_loop_succeeds(tmp_path, capsys):
    # with the default budget the oracle's chain reaches ~1000 nodes deep,
    # past the interpreter's recursion limit
    path = tmp_path / "loop.tgr"
    path.write_text(LOOP_I)
    code, out, err = run(capsys, "verify-soundness", str(path), "--graph",
                         "Loop", "--depth", "3000")
    assert code == 0 and err == ""
    assert out.startswith("ok: RI at n, depth 3000")


def test_cli_unravels_a_loop_3000_deep(tmp_path, capsys):
    path = tmp_path / "loop.tgr"
    path.write_text("sig f/1\ngraph Loop { n: f(n); root n; }\n")
    term = "f(" * 3000 + "_|_" + ")" * 3000
    argv = ["unravel", str(path), "--graph", "Loop", "--depth", "3000"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, term + "\n", "")
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["term"] == term


def test_python_dash_m_runs_the_cli():
    src = str(Path(tgr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "tgr", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: tgr")


def test_cli_recursion_error_is_bad_input(tmp_path, capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "verify_soundness", too_deep)
    path = tmp_path / "loop.tgr"
    path.write_text(LOOP_I)
    code, out, err = run(capsys, "verify-soundness", str(path),
                         "--graph", "Loop", "--rule", "RI", "--at", "n")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "lower --depth" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


COPYING = """\
sig a/0 f/1 cons/2
graph Host { n: f(m); m: a; root n; }
graph Rep { r: cons(x, r); x: ; root r; }
rule Rinf: f(x) -> @Rep.r
"""


def test_cli_oracle_refuses_an_infinitely_copying_rule(tmp_path, capsys):
    path = tmp_path / "copy.tgr"
    path.write_text(COPYING)
    code, out, err = run(capsys, "oracle", str(path), "--graph", "Host",
                         "--rule", "Rinf", "--at", "n")
    assert (code, out) == (2, "")
    assert err == (
        "error: rule Rinf copies a variable infinitely often; "
        "its developments are not finite\n"
    )


def test_cli_convergence_failure_exits_1(ws_file, capsys, monkeypatch):
    def no_limit(*args, **kwargs):
        raise tgr.ConvergenceError("the chain did not settle")

    monkeypatch.setattr(cli, "infinite_parallel_reduce", no_limit)
    code, out, err = run(capsys, "oracle", ws_file, "--graph", "Loop",
                         "--rule", "Rf", "--at", "n")
    assert (code, out) == (1, "")
    assert err == "verification failed: the chain did not settle\n"


@pytest.mark.parametrize(
    "error, code, message",
    [
        (tgr.ParseError("bad token", 3), 2, "error: line 3: bad token"),
        (tgr.UnsupportedRuleError("copies"), 2, "error: copies"),
        (tgr.OracleError("refused"), 1, "verification failed: refused"),
        (KeyError("no graph named G"), 2, "error: no graph named G"),
        (ValueError("no match"), 2, "error: no match"),
        (FileNotFoundError(2, "No such file", "w.tgr"), 2,
         "error: [Errno 2] No such file: 'w.tgr'"),
        (RecursionError(), 2,
         "error: the input nests too deeply for this depth; lower --depth"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None,
)
def test_cli_exit_code_of_every_handler(
    ws_file, capsys, monkeypatch, error, code, message
):
    def fail(path):
        raise error

    monkeypatch.setattr(cli, "_load", fail)
    assert run(capsys, "check", ws_file) == (code, "", message + "\n")


@pytest.mark.parametrize(
    "error, message",
    [
        (TypeError("unsupported operand"),
         "error: internal: TypeError: unsupported operand"),
        (AssertionError(), "error: internal: AssertionError"),
        (ZeroDivisionError("two\nlines"),
         "error: internal: ZeroDivisionError: two lines"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None,
)
def test_cli_reports_an_internal_error_in_one_line(
    ws_file, capsys, monkeypatch, error, message
):
    def fail(path):
        raise error

    monkeypatch.setattr(cli, "_load", fail)
    assert run(capsys, "check", ws_file) == (2, "", message + "\n")


def test_cli_lets_an_interrupt_through(ws_file, monkeypatch):
    def fail(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_load", fail)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["check", ws_file])


def test_cli_names_a_workspace_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.tgr"
    path.write_bytes(("#" * 9999 + "\n# caf\u00e9\n").encode("latin-1"))
    assert run(capsys, "check", str(path)) == (
        2, "", f"error: {path}: not UTF-8 text (byte 0xe9 at offset 10005)\n"
    )
