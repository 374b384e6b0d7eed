"""Acceptance suite: the eleven headline checks, one test per criterion.

Each test prints a single `criterion NN pass` line (visible under `pytest -s`
or in the captured output) and enforces its time bound; a failing criterion
fails its test, so `pytest -v tests/test_acceptance.py` reads as the
acceptance report.
"""

import time
from contextlib import contextmanager

from tgr.cli import main as cli_main
from tgr.dpo import derive_rational, find_matches
from tgr.graphs import (
    RationalTerm,
    TermGraph,
    bisim_equal,
    rational_of_term,
    truncated_equal,
)
from tgr.harness import (
    check_weak_normal_form_preservation,
    induced_parallel_redex,
    rewrite_sequence,
    run_property_suite,
    verify_soundness,
)
from tgr.parallel import (
    RationalRedexSet,
    Redex,
    complete_development,
    enumerate_occurrences,
    infinite_parallel_reduce,
)
from tgr.rules import TRS, RewriteRule, graph_of_rule, graph_trs, unravel_rule
from tgr.terms import BOTTOM, Signature, parse_term
from tests.test_parallel import sample

SIG = Signature.of(
    {"a": 0, "f": 1, "g": 1, "I": 1, "cdr": 1, "cons": 2, "k": 2, "r": 1}
)


def t(text):
    return parse_term(SIG, text)


R_I = RewriteRule.of("RI", t("I(x)"), t("x"))
R_F = RewriteRule.of("Rf", t("f(x)"), t("g(x)"))
R_CDR = RewriteRule.of("Rcdr", t("cdr(cons(x, y))"), t("y"))
TRS1 = TRS(SIG, (R_I, R_F, R_CDR))
TGRS1 = graph_trs(TRS1)

I_LOOP = RationalTerm(TermGraph.of(["n"], {"n": "I"}, {"n": ("n",)}), "n")
F_LOOP = RationalTerm(TermGraph.of(["n"], {"n": "f"}, {"n": ("n",)}), "n")
G_LOOP = RationalTerm(TermGraph.of(["z"], {"z": "g"}, {"z": ("z",)}), "z")


@contextmanager
def criterion(n, title, bound_s):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    assert dt < bound_s, f"criterion {n} took {dt:.2f}s (bound {bound_s:g}s)"
    print(f"criterion {n:2d} pass  {title}  ({dt:.2f}s < {bound_s:g}s)")


def match_at(host, er, at):
    found = [m for m in find_matches(host, er) if m.root_image == at]
    assert len(found) == 1, f"expected one match of {er.name} at {at}"
    return found[0]


def tower(op, i):
    return t(f"{op}(" * i + "_|_" + ")" * i)


def test_criterion_01_circular_I(tmp_path, capsys):
    with criterion(1, "circular-I collapses to the undefined term", 1.0):
        # graph route: one step, a single unlabelled node, bottom at any depth
        result, steps, nf = rewrite_sequence(I_LOOP, graph_trs(TRS(SIG, (R_I,))))
        assert nf and len(steps) == 1
        assert len(result.graph.nodes) == 1
        assert result.graph.is_empty_node(result.point)
        for depth in (1, 7, 33, 64):
            assert result.unravel(depth) == BOTTOM

        # the same through the CLI
        ws = tmp_path / "circular_i.tgr"
        ws.write_text(
            "sig I/1\n"
            "graph CircularI {\n  n: I(n);\n  root n;\n}\n"
            "rule RI: I(x) -> x\n"
        )
        code = cli_main(["rewrite", str(ws), "--graph", "CircularI"])
        out = capsys.readouterr().out
        assert code == 0
        assert "unravel: _|_" in out
        assert "normal form: yes" in out

        # oracle route: the redex set is 1*, every approximant develops to ⊥
        rs = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
        assert enumerate_occurrences(rs, count=3) == [(), (1,), (1, 1)]
        report = infinite_parallel_reduce(rs, depth=8, sample_at=range(0, 9))
        for i in range(9):
            assert sample(report, i).developed.unravel(8) == BOTTOM
        assert report.limit.unravel(8) == BOTTOM


def test_criterion_02_circular_f():
    with criterion(2, "circular-f becomes circular-g, soundness at D=64", 1.0):
        m = match_at(F_LOOP.graph, graph_of_rule(R_F, SIG), "n")
        _, after = derive_rational(F_LOOP, m)
        assert after == G_LOOP  # pointed bisimulation

        report = verify_soundness(
            SIG, F_LOOP, m, depth=64, sample_at=range(0, 17)
        )
        assert report.ok
        prefix64 = G_LOOP.unravel(64)
        assert report.result.unravel(64) == prefix64
        assert report.symbolic_limit.unravel(64) == prefix64

        # the chain approximants are exactly g^i(_|_) for i <= 16
        rs = induced_parallel_redex(F_LOOP, m, SIG)
        oracle = infinite_parallel_reduce(rs, depth=16, sample_at=range(0, 17))
        for i in range(17):
            assert sample(oracle, i).developed.unravel(17) == tower("g", i)


def test_criterion_03_cdr_cons_derivations():
    with criterion(3, "the four cdr/cons derivations and their redex sets", 1.0):
        g0 = RationalTerm(
            TermGraph.of(
                ["c0", "k", "c1", "u", "v"],
                {"c0": "cdr", "k": "cons", "c1": "cdr", "u": "f", "v": "a"},
                {"c0": ("k",), "k": ("u", "c1"), "c1": ("k",), "u": ("v",)},
            ),
            "c0",
        )
        er = graph_of_rule(R_CDR, SIG)

        # t_0: the infinite tower cdr(cons(f(a), cdr(cons(f(a), ...))))
        expect_g1 = RationalTerm(
            TermGraph.of(
                ["c", "k", "u", "v"],
                {"c": "cdr", "k": "cons", "u": "f", "v": "a"},
                {"c": ("k",), "k": ("u", "c"), "u": ("v",)},
            ),
            "c",
        )
        assert truncated_equal(g0, expect_g1, 24)  # t_0 = t_1 as terms

        # [1] at the point: the two cdr nodes merge, giving G_1
        m1 = match_at(g0.graph, er, "c0")
        _, g1 = derive_rational(g0, m1)
        assert g1 == expect_g1
        assert truncated_equal(g0, g1, 24)

        # [2] at the inner cdr: its node empties to a hole, giving G_2
        m2 = match_at(g0.graph, er, "c1")
        _, g2 = derive_rational(g0, m2)
        assert g2.point == "c0"
        assert g2.bottoms == frozenset(["c1"])
        assert g2.unravel(24) == t("cdr(cons(f(a), _|_))")  # t_2, exactly

        # [3] on G_1: the point itself collapses; t_3 = ⊥
        m3 = match_at(g1.graph, er, "c0")
        _, g3 = derive_rational(g1, m3)
        assert g3.unravel(24) == BOTTOM
        assert g3.graph.is_empty_node(g3.point)

        # [4] on G_2 reaches the same graph
        m4 = match_at(g2.graph, er, "c0")
        _, g4 = derive_rational(g2, m4)
        assert g4.unravel(24) == BOTTOM
        assert g4.graph == g3.graph  # identical, garbage included
        assert g4.point == g3.point and g4.bottoms == g3.bottoms

        # the induced redex sets Φ_1 .. Φ_4, truncated to length 12
        def occs(host, m):
            return enumerate_occurrences(
                induced_parallel_redex(host, m, SIG), maxlen=12
            )

        lam = [()]
        assert occs(g0, m1) == lam
        assert occs(g0, m2) == [tuple([1, 2] * n) for n in range(1, 7)]
        assert occs(g1, m3) == [tuple([1, 2] * n) for n in range(0, 7)]
        assert occs(g2, m4) == lam


def test_criterion_04_shared_step_is_a_development():
    with criterion(4, "one shared step = the 2-redex development", 1.0):
        host = RationalTerm(
            TermGraph.of(
                ["top", "rn", "fn", "an"],
                {"top": "k", "rn": "r", "fn": "f", "an": "a"},
                {"top": ("fn", "rn"), "rn": ("fn",), "fn": ("an",)},
            ),
            "top",
        )
        m = match_at(host.graph, graph_of_rule(R_F, SIG), "fn")
        _, after = derive_rational(host, m)
        expected = t("k(g(a), r(g(a)))")
        assert after.unravel(8) == expected

        unshared = rational_of_term(t("k(f(a), r(f(a)))"))
        dev = complete_development(
            unshared, [Redex((1,), R_F), Redex((2, 1), R_F)]
        )
        assert dev.result.unravel(8) == expected
        assert after == dev.result

        # and the graph match induces exactly that 2-redex set
        rs = induced_parallel_redex(host, m, SIG)
        assert enumerate_occurrences(rs, maxlen=8) == [(1,), (2, 1)]


def test_criterion_05_soundness_suite():
    with criterion(5, "soundness on 200 random workspaces at D=32", 60.0):
        rep = run_property_suite(
            seed=0, cases=200, depth=32, properties=["soundness"]
        )
        assert rep.ok, "\n".join(rep.lines())
        assert rep.outcomes[0].cases == 200


def test_criterion_06_well_definedness():
    with criterion(6, "chain monotone, enumeration-independent at D=32", 30.0):
        rep = run_property_suite(
            seed=0, cases=100, depth=32, properties=["enumerations"]
        )
        assert rep.ok, "\n".join(rep.lines())
        assert rep.outcomes[0].cases == 100


def test_criterion_07_strong_confluence():
    with criterion(7, "parallel diamonds close on 200 instances", 30.0):
        rep = run_property_suite(
            seed=0, cases=200, properties=["confluence"]
        )
        assert rep.ok, "\n".join(rep.lines())
        assert rep.outcomes[0].cases == 200


def test_criterion_08_development_order():
    with criterion(8, "developments are order-independent, 200 instances", 30.0):
        rep = run_property_suite(
            seed=0, cases=200, properties=["development-order"]
        )
        assert rep.ok, "\n".join(rep.lines())
        assert rep.outcomes[0].cases == 200


def test_criterion_09_weak_nf_preservation():
    with criterion(9, "graph-NF implies term-NF; G_3 is the near-miss", 30.0):
        # reproduce the G_3 situation: reachable part is just the hole, but
        # the garbage keeps an f-redex, so the graph is not a normal form
        # while its term ⊥ is one.
        g3 = RationalTerm(
            TermGraph.of(
                ["c0", "k", "u", "v"],
                {"k": "cons", "u": "f", "v": "a"},
                {"k": ("u", "c0"), "u": ("v",)},
            ),
            "c0",
            frozenset(["c0"]),
        )
        assert find_matches(g3.graph, TGRS1)  # not a graph normal form
        rep = check_weak_normal_form_preservation(TRS1, TGRS1, g3)
        assert not rep.graph_nf
        assert rep.term_nf  # t_3 = ⊥ has no redex
        assert rep.ok

        suite = run_property_suite(
            seed=0, cases=200, properties=["nf-preservation"]
        )
        assert suite.ok, "\n".join(suite.lines())


def test_criterion_10_morphism_substitution():
    with criterion(10, "substitution square commutes on 200 instances", 30.0):
        rep = run_property_suite(
            seed=0, cases=200, depth=16, properties=["morphism-substitution"]
        )
        assert rep.ok, "\n".join(rep.lines())
        assert rep.outcomes[0].cases == 200


def test_criterion_11_rule_translation_roundtrip():
    with criterion(11, "unravel_rule . graph_of_rule = id on 53 rules", 5.0):
        import random

        from tgr.harness import gen_rules, gen_signature

        corpus = [(SIG, R_F), (SIG, R_CDR), (SIG, R_I)]
        i = 0
        while len(corpus) < 53:
            rng = random.Random(f"rt:{i}")
            sig = gen_signature(rng)
            for rule in gen_rules(rng, sig).rules:
                corpus.append((sig, rule))
            i += 1
        corpus = corpus[:53]

        for sig, rule in corpus:
            back = unravel_rule(graph_of_rule(rule, sig), sig)
            assert back.name == rule.name
            assert back.lhs == rule.lhs
            assert bisim_equal(back.rhs, rule.rhs)
