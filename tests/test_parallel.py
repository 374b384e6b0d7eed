"""Term-level reduction: single steps, developments, and the oracle."""

import random

import pytest

from tgr.dpo import find_matches, induced_parallel_redex
from tgr.graphs import RationalTerm, TermGraph, rational_of_term, truncated_equal
from tgr.harness import gen_case
from tgr.parallel import (
    ConvergenceError,
    OracleError,
    RationalRedexSet,
    Redex,
    UnsupportedRuleError,
    chain_term,
    complete_development,
    develop_rational,
    enumerate_occurrences,
    find_redexes,
    infinite_parallel_reduce,
    join_parallel,
    reduce,
    residuals,
    residuals_of_set,
    rule_matches_at,
    threshold_length,
    var_positions,
)
from tgr.rules import TRS, RewriteRule
from tgr.terms import BOTTOM, Signature, parse_term

SIG = Signature.of(
    {"a": 0, "b": 0, "f": 1, "g": 1, "I": 1, "cdr": 1, "cons": 2, "p": 2}
)


def t(text):
    return parse_term(SIG, text)


def rat(text):
    return rational_of_term(t(text))


def rule(name, lhs, rhs):
    return RewriteRule.of(name, t(lhs), t(rhs))


R_F = rule("Rf", "f(x)", "g(x)")
R_I = rule("RI", "I(x)", "x")
R_CDR = rule("Rcdr", "cdr(cons(x, y))", "y")
R_DUP = rule("Rdup", "f(x)", "p(x, x)")
R_K = rule("Rk", "f(x)", "a")

F_LOOP = RationalTerm(TermGraph.of(["n"], {"n": "f"}, {"n": ("n",)}), "n")
G_LOOP = RationalTerm(TermGraph.of(["z"], {"z": "g"}, {"z": ("z",)}), "z")
I_LOOP = RationalTerm(TermGraph.of(["n"], {"n": "I"}, {"n": ("n",)}), "n")


def rx(occ, r=R_F):
    return Redex(tuple(occ), r)


# ---------------------------------------------------------------------------
# Finding redexes


def test_var_positions():
    assert var_positions(R_CDR) == {"x": (1, 1), "y": (1, 2)}


def test_rule_matches_through_cycles_but_not_holes():
    assert rule_matches_at(F_LOOP.graph, "n", R_F)
    assert not rule_matches_at(F_LOOP.graph, "n", R_F, bottoms=frozenset(["n"]))


def test_find_redexes_finite():
    assert [r.occ for r in find_redexes(rat("f(f(a))"), [R_F], 8)] == [(), (1,)]


def test_find_redexes_bounded_on_a_loop():
    rs = find_redexes(F_LOOP, [R_F], 3)
    assert [r.occ for r in rs] == [(), (1,), (1, 1), (1, 1, 1)]
    assert len(find_redexes(F_LOOP, [R_F], 3, max_count=2)) == 2


def test_find_redexes_accepts_a_system():
    trs = TRS(SIG, (R_F, R_I))
    got = find_redexes(rat("f(I(a))"), trs, 4)
    assert [(r.occ, r.rule.name) for r in got] == [((), "Rf"), ((1,), "RI")]


# ---------------------------------------------------------------------------
# Single steps


def test_reduce_at_root():
    assert reduce(rat("f(a)"), rx(())).unravel(4) == t("g(a)")


def test_reduce_below_root():
    assert reduce(rat("f(f(a))"), rx((1,))).unravel(4) == t("f(g(a))")


def test_reduce_touches_one_occurrence_despite_sharing():
    shared = TermGraph.of(
        ["r", "u", "c"], {"r": "p", "u": "f", "c": "a"},
        {"r": ("u", "u"), "u": ("c",)},
    )
    rt = RationalTerm(shared, "r")
    out = reduce(rt, rx((1,)))
    assert out.unravel(4) == t("p(g(a), f(a))")


def test_reduce_collapsing():
    assert reduce(rat("I(a)"), rx((), R_I)).unravel(4) == t("a")
    got = reduce(rat("cdr(cons(a, b))"), rx((), R_CDR))
    assert got.unravel(4) == t("b")


def test_reduce_keeps_holes_and_variables():
    out = reduce(rat("f(_|_)"), rx(()))
    assert out.unravel(4) == t("g(_|_)")
    out = reduce(rat("f(y)"), rx(()))
    assert out.unravel(4) == t("g(y)")


def test_reduce_rejects_bad_positions():
    with pytest.raises(ValueError, match="not an occurrence"):
        reduce(rat("f(a)"), rx((3,)))
    with pytest.raises(ValueError, match="does not match"):
        reduce(rat("g(a)"), rx(()))


# ---------------------------------------------------------------------------
# Residuals


def test_residuals_of_contracted_itself():
    assert residuals(rx(()), rx(())) == []


def test_residuals_untouched_when_not_below():
    assert residuals(rx(()), rx((1,))) == [rx(())]


def test_residuals_shift_through_the_rhs():
    assert residuals(rx((1,)), rx(())) == [rx((1,))]


def test_residuals_duplicated():
    got = residuals(rx((1,)), rx((), R_DUP))
    assert [r.occ for r in got] == [(1,), (2,)]


def test_residuals_erased():
    assert residuals(rx((1,)), rx((), R_K)) == []


def test_residuals_overlap_is_an_error():
    r_ff = rule("Rff", "f(f(x))", "a")
    with pytest.raises(OracleError, match="overlap"):
        residuals(rx((1,)), rx((), r_ff))


def test_residuals_of_set_dedups():
    got = residuals_of_set([rx((1,)), rx((1,))], rx((), R_DUP))
    assert [r.occ for r in got] == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Complete developments


def test_development_of_nested_redexes():
    dev = complete_development(rat("f(f(a))"), [rx(()), rx((1,))])
    assert dev.result.unravel(4) == t("g(g(a))")
    assert len(dev.steps) == 2


def test_development_order_independent_but_step_counts_differ():
    rt = rat("f(f(a))")
    redexes = [rx((), R_DUP), rx((1,), R_DUP)]
    outer = complete_development(rt, redexes, order="outermost")
    inner = complete_development(rt, redexes, order="innermost")
    assert outer.result == inner.result
    assert outer.result.unravel(4) == t("p(p(a, a), p(a, a))")
    assert len(outer.steps) == 3  # the inner redex is duplicated first
    assert len(inner.steps) == 2


def test_development_carries_extras():
    dev = complete_development(rat("f(f(a))"), [rx(())], extras=[[rx((1,))]])
    assert dev.extras == [[rx((1,))]]


def test_development_rejects_unknown_order():
    with pytest.raises(ValueError, match="order"):
        complete_development(rat("f(a)"), [rx(())], order="sideways")


def test_development_refuses_infinite_copying():
    loop = RationalTerm(
        TermGraph.of(["r", "x"], {"r": "cons"}, {"r": ("x", "r")}), "r"
    )
    bad = RewriteRule("Rinf", t("f(x)"), loop)
    with pytest.raises(UnsupportedRuleError):
        complete_development(rat("f(a)"), [Redex((), bad)])


def test_join_parallel_diamond():
    join = join_parallel(rat("f(f(a))"), [rx(())], [rx((1,))])
    assert join.commutes
    assert join.left.unravel(4) == t("g(f(a))")
    assert join.right.unravel(4) == t("f(g(a))")
    assert join.left_then_right.unravel(4) == t("g(g(a))")
    assert join.left_then_right == join.right_then_left


def test_join_parallel_on_a_cycle():
    join = join_parallel(F_LOOP, [rx(())], [rx((1,)), rx((1, 1))])
    assert join.commutes


# ---------------------------------------------------------------------------
# Rational redex sets


def test_redex_set_membership_on_a_loop():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    assert rs.contains(())
    assert rs.contains((1, 1, 1))
    assert not rs.contains((2,))
    assert not rs.is_finite()
    assert enumerate_occurrences(rs, maxlen=0) == [()]


def test_redex_set_finite_and_empty():
    chain = TermGraph.of(
        ["n1", "n2", "n3"], {"n1": "f", "n2": "f", "n3": "a"},
        {"n1": ("n2",), "n2": ("n3",)},
    )
    rs = RationalRedexSet(chain, "n1", "n2", R_F)
    assert rs.is_finite()
    assert enumerate_occurrences(rs, maxlen=10) == [(1,)]
    garbage = RationalRedexSet(chain, "n3", "n2", R_F)
    assert garbage.is_finite()
    assert enumerate_occurrences(garbage, maxlen=10) == []


def test_redex_set_requires_a_match():
    with pytest.raises(ValueError, match="does not match"):
        RationalRedexSet(F_LOOP.graph, "n", "n", R_I)


def test_count_below_matches_enumeration():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    for bound in range(6):
        assert rs.count_below(bound) == len(
            [w for w in enumerate_occurrences(rs, count=10) if len(w) < bound]
        )


def test_count_below_handles_exponential_sharing():
    # ten levels of shared pairs: 2^9 paths to the bottom node
    nodes = [f"d{i}" for i in range(10)]
    labels = {f"d{i}": "p" for i in range(9)}
    labels["d9"] = "a"
    succs = {f"d{i}": (f"d{i+1}", f"d{i+1}") for i in range(9)}
    g = TermGraph.of(nodes, labels, succs)
    rs = RationalRedexSet(g, "d0", "d9", rule("Ra", "a", "b"))
    assert rs.count_below(10) == 2 ** 9


def test_redex_sets_against_brute_force():
    """Membership, counts and finiteness of every induced redex set of the
    suite's random hosts, against a list of every path from the start."""
    for seed in range(300):
        case = gen_case(random.Random(seed))
        host = case.host
        n = len(host.graph.nodes)
        for m in find_matches(host.graph, case.tgrs()):
            rs = induced_parallel_redex(host, m, case.sig)
            g = rs.carrier
            members, level = [], [()]
            for _ in range(max(2 * n, 6)):  # every path, level by level
                members += [w for w in level if rs.contains(w)]
                level = [
                    w + (i,)
                    for w in level
                    for i in range(1, len(g.successors(g.walk(rs.start, w))) + 1)
                ]
            short = [w for w in members if len(w) <= 5]
            assert enumerate_occurrences(rs, maxlen=5) == short
            assert enumerate_occurrences(rs, count=3) == members[:3]
            for bound in range(7):
                assert rs.count_below(bound) == sum(1 for w in short if len(w) < bound)
            # an infinite set has a member of length in [n, 2n), a finite one
            # none of length n or more (it would repeat a node)
            assert rs.is_finite() == all(len(w) < n for w in members)


def test_enumerate_occurrences_needs_a_bound():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    with pytest.raises(ValueError):
        enumerate_occurrences(rs)
    assert enumerate_occurrences(rs, count=3) == [(), (1,), (1, 1)]
    assert enumerate_occurrences(rs, maxlen=2) == [(), (1,), (1, 1)]


def test_chain_terms_ascend_to_the_unraveling():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    assert chain_term(rs, 0, 8) == BOTTOM
    assert chain_term(rs, 2, 8) == t("f(f(_|_))")
    assert chain_term(rs, 3, 2) == F_LOOP.unravel(2)


# ---------------------------------------------------------------------------
# Simultaneous development on the carrier


def test_develop_rational_loop():
    developed, _ = develop_rational(F_LOOP, [("n", R_F)])
    assert developed == G_LOOP


def test_develop_rational_collapse_cycle_is_a_hole():
    developed, res = develop_rational(I_LOOP, [("n", R_I)])
    assert developed.unravel(8) == BOTTOM
    assert developed.point in developed.bottoms
    assert res["n"] == developed.point


def test_develop_rational_collapse_chain_resolves_to_endpoint():
    g = TermGraph.of(
        ["n1", "n2", "n3"], {"n1": "I", "n2": "I", "n3": "a"},
        {"n1": ("n2",), "n2": ("n3",)},
    )
    developed, res = develop_rational(
        RationalTerm(g, "n1"), [("n1", R_I), ("n2", R_I)]
    )
    assert developed.point == "n3"
    assert developed.unravel(4) == t("a")
    assert res == {"n1": "n3", "n2": "n3"}


def test_develop_rational_cdr_cycle():
    g = TermGraph.of(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    )
    developed, _ = develop_rational(RationalTerm(g, "c"), [("c", R_CDR)])
    assert developed.unravel(8) == BOTTOM


def test_develop_rational_validates_targets():
    with pytest.raises(ValueError, match="duplicate"):
        develop_rational(F_LOOP, [("n", R_F), ("n", R_F)])
    with pytest.raises(ValueError, match="does not match"):
        develop_rational(F_LOOP, [("n", R_I)])


# ---------------------------------------------------------------------------
# Thresholds and the oracle


def test_threshold_lengths():
    assert threshold_length(R_F, 4) == 8
    assert threshold_length(R_I, 4) == 11  # collapsing costs an extra round
    assert threshold_length(R_F, 0) == 1
    for d in range(1, 6):
        assert threshold_length(R_F, d + 1) >= threshold_length(R_F, d)


def test_oracle_on_the_f_loop():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=8)
    assert report.monotone_ok and report.limit_agrees
    assert report.effective_depth == 8
    assert report.symbolic_limit == G_LOOP
    assert truncated_equal(report.limit, G_LOOP, 8)
    assert report.sample(2).developed.unravel(8) == t("g(g(_|_))")


def test_oracle_on_the_collapsing_loop():
    rs = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
    report = infinite_parallel_reduce(rs, depth=6)
    assert report.limit_agrees
    assert report.limit.unravel(6) == BOTTOM
    for s in report.samples:
        assert s.developed.unravel(6) == BOTTOM


def test_oracle_on_an_empty_set():
    chain = TermGraph.of(
        ["n1", "n2"], {"n1": "a", "n2": "f"}, {"n2": ("n1",)}
    )
    rs = RationalRedexSet(chain, "n1", "n2", R_F)
    report = infinite_parallel_reduce(rs, depth=4)
    assert report.occurrences == []
    assert report.limit.unravel(4) == t("a")


def test_oracle_budget_lowers_effective_depth():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=16, budget=8)
    assert report.effective_depth == 4
    assert len(report.occurrences) == 8
    assert truncated_equal(report.limit, G_LOOP, report.effective_depth)


def test_oracle_min_occurrences():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=2, min_occurrences=40)
    assert len(report.occurrences) == 40


def test_oracle_supplied_enumeration():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=4, occurrences=[(), (1,)])
    assert report.effective_depth == 1
    with pytest.raises(ValueError, match="prefix-respecting"):
        infinite_parallel_reduce(rs, depth=4, occurrences=[(), (1, 1)])
    with pytest.raises(ValueError, match="not in the redex set"):
        infinite_parallel_reduce(rs, depth=4, occurrences=[(2,)])


def test_oracle_sample_selection():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=4, sample_at=[0, 2])
    assert [s.index for s in report.samples] == [0, 2, len(report.occurrences)]
    with pytest.raises(KeyError):
        report.sample(1)


def test_oracle_refuses_infinite_copying():
    loop = RationalTerm(
        TermGraph.of(["r", "x"], {"r": "cons"}, {"r": ("x", "r")}), "r"
    )
    bad = RewriteRule("Rinf", t("f(x)"), loop)
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", bad)
    with pytest.raises(UnsupportedRuleError):
        infinite_parallel_reduce(rs, depth=4)


def test_error_hierarchy():
    assert issubclass(UnsupportedRuleError, OracleError)
    assert issubclass(ConvergenceError, OracleError)
