"""Rewrite rules in both formats, orthogonality, and the translations."""

import pytest

from tgr.graphs import RationalTerm, TermGraph, bisim_equal, rational_of_term
from tgr.rules import (
    TRS,
    EvaluationRule,
    RewriteRule,
    check_evaluation_rule,
    check_rule,
    graph_of_rule,
    graph_trs,
    is_infinite_copying,
    orthogonality_conflicts,
    unify,
    unravel_rule,
)
from tgr.terms import Signature, parse_term, var

SIG = Signature.of(
    {"a": 0, "f": 1, "g": 1, "I": 1, "cdr": 1, "cons": 2, "p": 2}
)


def t(text):
    return parse_term(SIG, text)


def rule(name, lhs, rhs):
    return RewriteRule.of(name, t(lhs), t(rhs))


R_F = rule("Rf", "f(x)", "g(x)")
R_CDR = rule("Rcdr", "cdr(cons(x, y))", "y")
R_I = rule("RI", "I(x)", "x")


# ---------------------------------------------------------------------------
# Rule validation


def test_check_rule_accepts_the_standard_rules():
    for r in (R_F, R_CDR, R_I):
        check_rule(r, SIG)


def test_check_rule_rejects_variable_lhs():
    with pytest.raises(ValueError):
        check_rule(RewriteRule.of("bad", var("x"), t("a")), SIG)


def test_check_rule_rejects_nonlinear_lhs():
    with pytest.raises(ValueError):
        check_rule(rule("bad", "p(x, x)", "x"), SIG)


def test_check_rule_rejects_partial_lhs():
    with pytest.raises(ValueError):
        check_rule(rule("bad", "f(_|_)", "a"), SIG)


def test_check_rule_rejects_unknown_operator():
    small = Signature.of({"f": 1})
    with pytest.raises(ValueError):
        check_rule(rule("bad", "f(x)", "g(x)"), small)


def test_check_rule_rejects_wrong_arity():
    with pytest.raises(ValueError):
        check_rule(rule("bad", "f(x)", "x"), Signature.of({"f": 2}))


def test_check_rule_rejects_fresh_rhs_variables():
    with pytest.raises(ValueError):
        check_rule(rule("bad", "f(x)", "g(y)"), SIG)


def test_check_rule_rejects_partial_rhs():
    with pytest.raises(ValueError):
        check_rule(rule("bad", "f(x)", "g(_|_)"), SIG)


def test_collapsing_detection():
    assert R_CDR.is_collapsing() and R_I.is_collapsing()
    assert not R_F.is_collapsing()
    assert R_CDR.collapse_variable() == "y"


def test_cyclic_rhs_rules_are_representable():
    loop = RationalTerm(
        TermGraph.of(["r", "x"], {"r": "cons"}, {"r": ("x", "r")}), "r"
    )
    r = RewriteRule("Rrep", t("f(x)"), loop)
    check_rule(r, SIG)
    assert is_infinite_copying(r)  # x sits on the cycle's fringe


def test_finite_rhs_never_infinite_copying():
    assert not any(is_infinite_copying(r) for r in (R_F, R_CDR, R_I))


# ---------------------------------------------------------------------------
# Unification and overlaps


def test_unify_basic():
    sigma = unify(t("p(x, a)"), t("p(f(y), y)"))
    assert sigma is not None


def test_unify_occurs_check():
    assert unify(t("x"), t("f(x)")) is None


def test_unify_clash():
    assert unify(t("f(x)"), t("g(y)")) is None


def test_self_overlap():
    assert orthogonality_conflicts(TRS(SIG, (rule("r", "f(f(x))", "a"),))) == [
        "rules r and r overlap at position (1,) of r's left-hand side"
    ]
    assert orthogonality_conflicts(TRS(SIG, (R_F,))) == []


def test_orthogonal_standard_system():
    assert orthogonality_conflicts(TRS(SIG, (R_F, R_CDR, R_I))) == []


def test_overlapping_pair_detected():
    clash = TRS(SIG, (R_F, rule("Rff", "f(f(x))", "a")))
    conflicts = orthogonality_conflicts(clash)
    assert "rules Rf and Rff overlap at the root of Rf's left-hand side" in conflicts


def test_nonlinear_rule_not_orthogonal():
    bad = RewriteRule.of("nl", t("p(x, x)"), t("x"))
    assert orthogonality_conflicts(TRS(SIG, (bad,)))


# ---------------------------------------------------------------------------
# Rule translation: term rules -> evaluation rules


def test_graph_of_rule_shape():
    er = graph_of_rule(R_F, SIG)
    check_evaluation_rule(er, SIG)
    assert er.L.labels[er.root] == "f"
    assert er.K.is_empty_node(er.root)
    assert set(er.K.nodes) == set(er.L.nodes)


def test_graph_of_rule_collapsing_r_not_injective():
    er = graph_of_rule(R_CDR, SIG)
    check_evaluation_rule(er, SIG)
    # the root and the collapse variable hit the same class on the right
    assert er.r[er.root] == er.r["y"]
    assert er.r["x"] != er.r["y"]


def test_graph_of_rule_shares_repeated_subterms():
    er = graph_of_rule(rule("Rdup", "f(x)", "p(g(a), g(a))"), SIG)
    root_succs = er.R.succs[er.r[er.root]]
    assert root_succs[0] == root_succs[1]


def test_unravel_rule_roundtrips():
    for r in (R_F, R_CDR, R_I):
        back = unravel_rule(graph_of_rule(r, SIG), SIG)
        assert back.name == r.name
        assert back.lhs == r.lhs
        assert bisim_equal(back.rhs, r.rhs)


def test_unravel_rule_rejects_identified_variables():
    L = rational_of_term(t("p(x, y)"), prefix="l").graph
    K = TermGraph.of(L.nodes, {}, {})
    R = TermGraph.of(["v"], {}, {})
    er = EvaluationRule("bad", L, "l", K, R, {"l": "v", "x": "v", "y": "v"})
    check_evaluation_rule(er, SIG)
    with pytest.raises(ValueError):
        unravel_rule(er, SIG)


def test_check_evaluation_rule_rejects_wrong_interface():
    er = graph_of_rule(R_F, SIG)
    bad = EvaluationRule(er.name, er.L, er.root, er.L, er.R, er.r)
    with pytest.raises(ValueError):
        check_evaluation_rule(bad, SIG)


def test_check_evaluation_rule_rejects_non_tree_lhs():
    loop = TermGraph.of(["l"], {"l": "f"}, {"l": ("l",)})
    with pytest.raises(ValueError):
        check_evaluation_rule(
            EvaluationRule(
                "bad", loop, "l", TermGraph.of(["l"], {}, {}),
                TermGraph.of(["v"], {}, {}), {"l": "v"}
            ),
            SIG,
        )


def test_graph_trs_roundtrip_preserves_matching():
    trs = TRS(SIG, (R_F, R_CDR, R_I))
    tgrs = graph_trs(trs)
    assert [r.name for r in tgrs.rules] == [r.name for r in trs.rules]
    for er in tgrs.rules:
        check_evaluation_rule(er, SIG)
