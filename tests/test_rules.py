"""Rewrite rules in both formats, orthogonality, and the translations."""

import random

import pytest

import tgr.rules
from tgr.graphs import RationalTerm, TermGraph, bisim_equal, rational_of_term
from tgr.harness import _gen_lhs, gen_signature
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
    overlaps,
    pattern,
    unravel_rule,
)
from tgr.terms import (
    Signature,
    is_linear,
    op,
    parse_term,
    subterms,
    var,
)
from tests.reference import ref_overlaps, ref_unify

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


def test_cyclic_rhs_rules_are_representable():
    loop = RationalTerm(
        TermGraph.of(["r", "x"], {"r": "cons"}, {"r": ("x", "r")}), "r"
    )
    r = RewriteRule("Rrep", t("f(x)"), loop)
    check_rule(r, SIG)
    assert is_infinite_copying(r)  # x sits on the cycle's fringe


def test_infinite_copying_is_a_variable_below_a_cycle():
    beside = TermGraph.of(
        ["r", "x", "c"], {"r": "p", "c": "g"}, {"r": ("x", "c"), "c": ("c",)}
    )
    r = RewriteRule("Rside", t("f(x)"), RationalTerm(beside, "r"))
    check_rule(r, SIG)
    assert not is_infinite_copying(r)  # x sits beside the cycle
    below = TermGraph.of(
        ["r", "d", "e", "x"],
        {"r": "cons", "d": "f", "e": "g"},
        {"r": ("d", "r"), "d": ("e",), "e": ("x",)},
    )
    r = RewriteRule("Rdeep", t("f(x)"), RationalTerm(below, "r"))
    check_rule(r, SIG)
    assert is_infinite_copying(r)  # x hangs two nodes below the cycle


def test_finite_rhs_never_infinite_copying():
    assert not any(is_infinite_copying(r) for r in (R_F, R_CDR, R_I))


# ---------------------------------------------------------------------------
# Overlaps, against unification


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
    # p(x, x) unifies with p(f(y), z) at the root, but the walk is exact on
    # linear patterns only, so a non-left-linear rule gets one line
    bad = RewriteRule.of("nl", t("p(x, x)"), t("x"))
    beside = rule("Rp", "p(f(y), z)", "z")
    assert ref_unify(bad.lhs, t("p(f(u), v)")) is not None
    for rules in ((bad,), (bad, beside), (beside, bad)):
        assert orthogonality_conflicts(TRS(SIG, rules)) == [
            "rule nl is not left-linear"
        ]


# SIG's names at other arities, so a symbol can agree while its arity clashes
SIG_ARITIES = Signature.of({"a": 1, "f": 2, "g": 0, "cons": 1, "p": 3})


def random_lhs(rng, sig=SIG, depth=3):
    """A linear operator-rooted term over `sig`, variables numbered apart."""
    fresh = iter(f"v{i}" for i in range(100))
    todo, done = [(depth, None)], []
    while todo:
        d, name = todo.pop()
        if name is not None:
            at = len(done) - d
            done[at:] = [op(name, done[at:])]
        elif d < depth and (d <= 0 or rng.random() < 0.35):
            done.append(var(next(fresh)))
        else:
            name, k = rng.choice(sorted(sig.as_dict().items()))
            todo.append((k, name))
            todo.extend([(d - 1, None)] * k)
    return done[0]


def overlap_pairs(rng):
    """Pairs of linear patterns: random ones over SIG, over SIG and
    SIG_ARITIES, the generator's left-hand sides over its signatures, and
    patterns 4-5 deep against a small one, which can overlap at several
    depths of one branch, and against another deep one."""
    for _ in range(400):
        yield random_lhs(rng), random_lhs(rng)
        yield random_lhs(rng), random_lhs(rng, SIG_ARITIES)
        sig = gen_signature(rng)
        yield _gen_lhs(rng, sig)[0], _gen_lhs(rng, sig)[0]
        deep = random_lhs(rng, depth=rng.choice((4, 5)))
        yield deep, random_lhs(rng, depth=rng.choice((1, 2)))
        yield deep, random_lhs(rng, depth=rng.choice((4, 5)))


def test_overlaps_match_unification_at_every_position():
    rng = random.Random(5)
    found = 0
    for l1, l2 in overlap_pairs(rng):
        for a, b in ((l1, l2), (l2, l1), (l1, l1)):
            for same in (False, True):
                got = list(overlaps(pattern(a), pattern(b), same))
                assert got == ref_overlaps(a, b, same)
                found += len(got)
    assert found > 100


def overlaps_of(l1, l2, same):
    return list(overlaps(pattern(l1), pattern(l2), same))


def test_overlaps_below_the_root():
    # a position of l1 counts when l2's operators agree with l1's wherever
    # both have one, symbol and arity alike; under a variable anything goes
    assert overlaps_of(t("cdr(cons(x, y))"), t("cons(u, v)"), False) == [(1,)]
    assert overlaps_of(t("p(f(x), g(y))"), t("g(a)"), False) == [(2,)]
    assert overlaps_of(t("f(f(x))"), t("f(f(y))"), True) == [(1,)]
    assert overlaps_of(t("f(f(x))"), t("f(f(y))"), False) == [(), (1,)]
    assert overlaps_of(t("f(x)"), t("g(y)"), False) == []
    assert overlaps_of(t("f(x)"), t("f(f(f(y)))"), False) == [()]
    # length-lex, not preorder
    assert overlaps_of(t("p(f(f(x)), f(y))"), t("f(z)"), False) == [
        (1,), (2,), (1, 1)
    ]
    assert overlaps_of(t("f(x)"), op("f", [var("y"), var("z")]), False) == []


def test_generated_lhs_comes_with_its_pattern_and_variables():
    """`_gen_lhs` builds the pattern and the variables as it draws, so the
    generator walks no term: they are `pattern` of the left-hand side and
    its variables in preorder, and it is linear."""
    rng = random.Random(5)
    for _ in range(3000):
        lhs, pat, xs = _gen_lhs(rng, gen_signature(rng))
        assert pat == pattern(lhs)
        assert xs == [s.symbol for _, s in subterms(lhs) if s.is_var]
        assert is_linear(lhs)


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


def test_unravel_rule_translates_once_and_checks_once_per_signature(monkeypatch):
    """Every call under one signature returns the same term rule, so its
    cached facts are computed once.  Both checks run once per signature,
    and a rule that passed under one signature is still refused under one
    that lacks one of its operators, however often it is asked."""
    er = graph_of_rule(R_CDR, SIG)
    calls = []
    for name in ("check_evaluation_rule", "check_rule"):

        def counted(*args, name=name, check=getattr(tgr.rules, name)):
            calls.append(name)
            return check(*args)

        monkeypatch.setattr(tgr.rules, name, counted)
    first = unravel_rule(er, SIG)
    assert first.lift == 2
    assert unravel_rule(er, SIG) is first
    assert calls == ["check_evaluation_rule", "check_rule"]
    no_cons = Signature.of({"a": 0, "cdr": 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="cons"):
            unravel_rule(er, no_cons)
    assert unravel_rule(er, SIG) is first
    wider = Signature.of({**SIG.as_dict(), "h": 1})
    again = unravel_rule(er, wider)
    assert unravel_rule(er, wider) is again and again == first
    assert calls.count("check_rule") == 2


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
