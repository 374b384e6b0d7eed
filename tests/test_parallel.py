"""Term-level reduction: single steps, developments, and the oracle."""

import functools
import random
from bisect import bisect_right
from dataclasses import replace

import pytest

import tgr.rules
from tgr import parallel
from tgr.dpo import find_matches
from tgr.graphs import (
    PathCounts,
    RationalTerm,
    TermGraph,
    all_approx_leq,
    minimize,
    rational_approx_leq,
    rational_of_term,
    tree_match,
    truncated_equal,
)
from tgr.harness import gen_case, induced_parallel_redex
from tgr.parallel import (
    ConvergenceError,
    OracleError,
    RationalRedexSet,
    Redex,
    UnsupportedRuleError,
    _cut_graph,
    _Cuts,
    _prefix_respecting_trie,
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
)
from tgr.rules import TRS, RewriteRule, graph_of_rule, is_infinite_copying
from tgr.terms import BOTTOM, Signature, occ_format, parse_term
from tests.test_graphs import random_carrier
from tests.test_terms import approx_leq
from tests.reference import (
    member,
    ref_find_redexes,
    ref_prefix_check,
    ref_route,
    ref_scan,
    ref_table_sizes,
    ref_trie,
)

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
    assert R_CDR.var_positions == {"x": (1, 1), "y": (1, 2)}


def test_rule_matches_through_cycles_but_not_holes():
    assert rule_matches_at(F_LOOP.graph, "n", R_F)
    assert not rule_matches_at(F_LOOP.graph, "n", R_F, bottoms=frozenset(["n"]))


# p(x, a) against a p node at n; graphs built without a signature check
R_PA = rule("Rpa", "p(x, a)", "x")


@pytest.mark.parametrize(
    "labels, succs, matches",
    [
        ({"n": "p", "m": "a"}, {"n": ("m", "m")}, True),
        ({"n": "p", "m": "a"}, {"n": ("m",)}, False),  # one successor too few
        ({"n": "p", "m": "a"}, {"n": ("m", "m", "m")}, False),  # one too many
        ({"n": "p", "m": "a", "c": "a"}, {"n": ("m", "c"), "c": ("m",)}, False),
    ],
    ids=["same", "too-few", "too-many", "too-many-below"],
)
def test_matchers_compare_successor_counts(labels, succs, matches):
    g = TermGraph.of(["n", "m", "c"], labels, succs)
    assert rule_matches_at(g, "n", R_PA) is matches
    er = graph_of_rule(R_PA, SIG)
    mapping = tree_match(er.L, er.root, g, "n")
    assert (mapping is not None) is matches
    if matches:  # every node of L is mapped
        assert set(mapping) == set(er.L.nodes)


def test_find_redexes_finite():
    assert [r.occ for r in find_redexes(rat("f(f(a))"), [R_F], 8)] == [(), (1,)]


def test_find_redexes_bounded_on_a_loop():
    rs = find_redexes(F_LOOP, [R_F], 3)
    assert [r.occ for r in rs] == [(), (1,), (1, 1), (1, 1, 1)]
    assert len(find_redexes(F_LOOP, [R_F], 3)[:2]) == 2


def test_find_redexes_matches_the_per_node_walks():
    for seed in range(300):
        case = gen_case(random.Random(seed))
        for maxlen, count in ((3, 40), (16, None)):
            got = find_redexes(case.host, case.trs, maxlen)[:count]
            want = ref_find_redexes(case.host, case.trs.rules, maxlen)[:count]
            assert [r.key for r in got] == [r.key for r in want]


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
    for occ in ((3,), (0,), (-1,)):  # letters count from 1
        with pytest.raises(ValueError, match="not an occurrence"):
            reduce(rat("p(f(a), b)"), rx(occ))
        assert F_LOOP.graph.walk("n", occ) is None
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
    assert member(rs, ())
    assert member(rs, (1, 1, 1))
    assert not member(rs, (2,))
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


def test_is_finite_on_a_20000_node_ring():
    ids = [f"n{i}" for i in range(20000)]
    succs = {n: (m,) for n, m in zip(ids, ids[1:] + ids[:1])}
    ring = TermGraph.of(ids, dict.fromkeys(ids, "f"), succs)
    assert not RationalRedexSet(ring, "n0", "n12345", R_F).is_finite()


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
                members += [w for w in level if member(rs, w)]
                level = [
                    w + (i,)
                    for w in level
                    for i in range(1, len(g.successors(g.walk(rs.start, w))) + 1)
                ]
            short = [w for w in members if len(w) <= 5]
            assert enumerate_occurrences(rs, maxlen=5) == short
            assert enumerate_occurrences(rs, count=3) == members[:3]
            table = PathCounts(g, rs.start, [rs.target])  # one, read at any bound
            for bound in (3, 0, 6, 1, 5, 2, 4):
                want = sum(1 for w in short if len(w) < bound)
                assert rs.count_below(bound) == table.count(bound) == want
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
    chain = _Cuts(rs)
    cuts = [_cut_graph(rs, chain, i)[0] for i in range(4)]
    assert cuts[0].unravel(8) == BOTTOM
    assert cuts[2].unravel(8) == t("f(f(_|_))")
    assert cuts[3].unravel(2) == F_LOOP.unravel(2)
    assert all(rational_approx_leq(a, b) for a, b in zip(cuts, cuts[1:]))
    assert all(rational_approx_leq(c, F_LOOP) for c in cuts)


# ---------------------------------------------------------------------------
# Simultaneous development on the carrier


def test_develop_rational_loop():
    developed, _ = develop_rational(F_LOOP, [("n", R_F)])
    assert developed == G_LOOP


def test_develop_rational_gives_inner_nodes_fresh_ids():
    """A right-hand side's inner nodes get the g# ids the carrier lacks,
    least first, in node order of their targets."""
    ring = TermGraph.of(
        ["n", "g#0"], {"n": "f", "g#0": "f"}, {"n": ("g#0",), "g#0": ("n",)}
    )
    rule_gg = rule("Rgg", "f(x)", "g(g(x))")
    developed, _ = develop_rational(
        RationalTerm(ring, "n"), [("g#0", rule_gg), ("n", rule_gg)]
    )
    assert list(developed.graph.nodes) == ["n", "g#0", "g#1", "g#2"]
    assert developed.graph.succs == {
        "n": ("g#1",), "g#1": ("g#0",), "g#0": ("g#2",), "g#2": ("n",)
    }
    assert set(developed.graph.labels.values()) == {"g"}


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


def test_lift_is_the_most_a_contraction_raises_a_variable():
    assert (R_F.lift, R_DUP.lift, R_K.lift) == (0, 0, 0)  # none, or erased
    assert (R_I.lift, R_CDR.lift) == (1, 2)  # collapsing: the variable's depth
    assert rule("Rdeep", "f(x)", "g(g(x))").lift == 0  # never negative
    assert rule("Rswap", "cdr(cons(x, y))", "cons(y, x)").lift == 1
    assert rule("Rtwice", "f(g(x))", "p(g(g(x)), x)").lift == 1  # shortest


def test_threshold_lengths():
    """The depth itself when nothing lifts or no member encloses another,
    the cycle bound when the shortest cycle through the target is longer
    than the lift, and the per-rule bound when it is not."""
    f_loop = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    i_loop = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
    i_ring = shared_ring(5, "I", R_I)
    chain = TermGraph.of(
        ["u", "v", "c"], {"u": "I", "v": "I", "c": "a"}, {"u": ("v",), "v": ("c",)}
    )
    i_chain = RationalRedexSet(chain, "u", "v", R_I)
    assert (f_loop.cycle, i_loop.cycle, i_ring.cycle, i_chain.cycle) == (
        1, 1, 5, None
    )
    assert [threshold_length(f_loop, d) for d in (0, 1, 4)] == [0, 1, 4]
    assert threshold_length(i_chain, 4) == 4
    assert threshold_length(i_ring, 4) == 7  # ceil((4 + 1) 5 / 4)
    assert threshold_length(i_loop, 4) == 11  # (4 + 1)(1 + 1) + 1
    for rs in (f_loop, i_loop, i_ring, i_chain):
        for d in range(0, 6):
            assert threshold_length(rs, d + 1) >= threshold_length(rs, d) >= d


def test_rule_facts_are_computed_once_per_rule(monkeypatch):
    """What `threshold_length`, `residuals`, `reduce` and `develop_rational`
    read of a rule is computed on the rule object, once: after a first
    round of calls, nine more rounds (100 thresholds, 10 developments, 10
    residual computations and 10 steps in all) walk neither side of it
    again."""
    dup = rule("Rdup2", "f(x)", "p(x, g(x))")
    walks = {"lhs": 0, "rhs": 0}

    def counting(fn, side, is_side):
        def counted(first, *args, **kwargs):
            walks[side] += is_side(first)
            return fn(first, *args, **kwargs)

        return counted

    def on_lhs(term):
        return term is dup.lhs

    def on_rhs(graph):
        return graph is dup.rhs.graph

    walkers = [
        (tgr.rules, "subterms", "lhs", on_lhs),
        (TermGraph, "reachable", "rhs", on_rhs),
        (tgr.rules, "infinitely_reached", "rhs", on_rhs),
        (tgr.rules, "PathCounts", "rhs", on_rhs),
    ]
    for owner, name, side, is_side in walkers:
        fn = counting(getattr(owner, name), side, is_side)
        monkeypatch.setattr(owner, name, fn)

    def round_of_calls():
        for d in range(10):
            threshold_length(RationalRedexSet(F_LOOP.graph, "n", "n", dup), d)
        develop_rational(F_LOOP, [("n", dup)])
        assert [r.occ for r in residuals(rx((1,)), rx((), dup))] == [(1,), (2, 1)]
        assert reduce(rat("f(a)"), rx((), dup)).unravel(4) == t("p(a, g(a))")

    round_of_calls()
    first = dict(walks)
    assert first["lhs"] and first["rhs"]
    for _ in range(9):
        round_of_calls()
    assert walks == first


def sample(report, i):
    """The oracle's sample of chain index i (KeyError if it took none)."""
    return {s.index: s for s in report.samples}[i]


def test_oracle_on_the_f_loop():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=8)
    assert report.effective_depth == 8
    assert report.symbolic_limit == G_LOOP
    assert truncated_equal(report.limit, G_LOOP, 8)
    assert sample(report, 2).developed.unravel(8) == t("g(g(_|_))")


def test_oracle_on_the_collapsing_loop():
    rs = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
    report = infinite_parallel_reduce(rs, depth=6)
    assert report.limit.unravel(6) == BOTTOM
    for s in report.samples:
        assert s.developed.unravel(6) == BOTTOM


def test_oracle_on_an_empty_set():
    chain = TermGraph.of(
        ["n1", "n2"], {"n1": "a", "n2": "f"}, {"n2": ("n1",)}
    )
    rs = RationalRedexSet(chain, "n1", "n2", R_F)
    report = infinite_parallel_reduce(rs, depth=4)
    assert report.occurrences == 0
    assert report.limit.unravel(4) == t("a")


def test_oracle_budget_lowers_effective_depth():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=16, budget=8)
    assert report.effective_depth == 8
    assert report.occurrences == 8
    assert truncated_equal(report.limit, G_LOOP, report.effective_depth)


def test_oracle_min_occurrences():
    # more members than the depth needs may be supplied, and all are kept
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    occs = enumerate_occurrences(rs, count=40)
    report = infinite_parallel_reduce(rs, depth=2, occurrences=occs)
    assert report.occurrences == 40 and report.effective_depth == 2


def test_oracle_supplied_enumeration():
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    report = infinite_parallel_reduce(rs, depth=4, occurrences=[(), (1,)])
    assert report.effective_depth == 2
    with pytest.raises(ValueError, match="prefix-respecting"):
        infinite_parallel_reduce(rs, depth=4, occurrences=[(), (1, 1)])
    with pytest.raises(ValueError, match="not in the redex set"):
        infinite_parallel_reduce(rs, depth=4, occurrences=[(2,)])


def test_oracle_sample_selection():
    """`sample_at` counts chain positions, and a sample's index is its
    length: on a 3-node f ring the cut grows at lengths 1, 4, 7, ..., one
    past each member's, and only there is a sample taken."""
    ids = ["n0", "n1", "n2"]
    ring = TermGraph.of(
        ids, dict.fromkeys(ids, "f"), {"n0": ("n1",), "n1": ("n2",), "n2": ("n0",)}
    )
    rs = RationalRedexSet(ring, "n0", "n0", R_F)
    report = infinite_parallel_reduce(rs, depth=12, sample_at=[0, 2])
    assert [s.index for s in report.samples] == [0, 4, 10]
    assert report.occurrences == 4
    report = infinite_parallel_reduce(rs, depth=12)
    assert [s.index for s in report.samples] == [0, 1, 4, 7, 10]
    with pytest.raises(KeyError):
        sample(report, 2)


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


# ---------------------------------------------------------------------------
# The shared cuts against the string trie they replaced


def kept_paths(cuts, cut):
    """The paths from a view's point to the redex nodes it reaches, in
    order: a walk that enters no past node, since none reaches one."""
    past, redexes = set(cuts.past.values()), set(cuts.redexes)
    out, todo = [], [((), cut.point)]
    while todo:
        w, n = todo.pop()
        if n not in past:
            if n in redexes:
                out.append(w)
            todo += [(w + (k,), s) for k, s in enumerate(cut.graph.succs[n], 1)]
    return sorted(out)


def shared_ring(n, label, rule):
    """An n-node ring whose second node carries `label` and whose third is a
    binary node with both edges on the fourth, so paths double every lap."""
    ids = [f"n{i}" for i in range(n)]
    labels = {m: "g" for m in ids}
    succs = {m: (ids[(i + 1) % n],) for i, m in enumerate(ids)}
    labels[ids[1]] = label
    labels[ids[2]] = "p"
    succs[ids[2]] = (ids[3 % n], ids[3 % n])
    return RationalRedexSet(TermGraph.of(ids, labels, succs), ids[0], ids[1], rule)


def generated_sets(seeds=range(300)):
    """Every oracle-ready induced redex set of the suite's random hosts."""
    for seed in seeds:
        case = gen_case(random.Random(seed))
        for m in find_matches(case.host.graph, case.tgrs()):
            rs = induced_parallel_redex(case.host, m, case.sig)
            if not is_infinite_copying(rs.rule):
                yield rs


@functools.cache
def oracle_cases():
    """(redex set, depth, budget), built once: the generated sets with a
    member the start reaches, at a budget of 16 cut nodes that caps about
    one in nine of them, the first one without (a chain of one empty cut),
    shared 4- and 5-node rings whose depth-48 chains need more cut
    nodes than the budget (one per length: 46 and 62) and stop at 2,047
    members, the cdr/cons cycle and a hole below the target."""
    sets = list(generated_sets())
    empty = [rs for rs in sets if not enumerate_occurrences(rs, count=1)]
    cases = [(empty[0], 12, 16)]
    cases += [(rs, 12, 16) for rs in sets if enumerate_occurrences(rs, count=1)]
    cases += [
        (shared_ring(4, "f", R_F), 48, 42),
        (shared_ring(5, "I", R_I), 48, 52),
        (CDR_CONS, 16, 2048),
        (HOLE_BEHIND_TARGET, 12, 16),
    ]
    return tuple(cases)


# cdr(cons(a, .)) on a cycle: a collapsing rule with a two-node pattern
CDR_CONS = RationalRedexSet(
    TermGraph.of(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    ),
    "c",
    "c",
    R_CDR,
)
# an f loop through p(., hole): the hole is met only below the target
HOLE_BEHIND_TARGET = RationalRedexSet(
    TermGraph.of(
        ["n", "m", "h"], {"n": "f", "m": "p"}, {"n": ("m",), "m": ("n", "h")}
    ),
    "n",
    "n",
    R_F,
    frozenset(["h"]),
)


def shorter_than(rs, length):
    """The members shorter than `length`, which the default chain's
    approximant `length` keeps."""
    return enumerate_occurrences(rs, maxlen=length - 1)


def table_needs(rs, depth):
    """(length, nodes) for each length up to the threshold of `depth` at
    which the default chain's cut grows, one past a member's length, with
    the nodes of the table that holds the cuts of all of them up to it
    (`ref_table_sizes`)."""
    bound = threshold_length(rs, depth)
    counts = [rs.count_below(n) for n in range(bound + 1)]
    lengths = [n for n in range(1, bound + 1) if counts[n] > counts[n - 1]]
    return list(zip(lengths, ref_table_sizes(rs, lengths)))


def ref_decision(rs, depth, budget, needs):
    """The effective depth and the final length of the default chain under
    a budget of cut-table nodes, from `table_needs`: a depth fits when the
    table holding the cut of every growth length up to its threshold does,
    and the chain ends at the last growth length up to the asked depth's
    threshold that fits."""

    def fits(d):
        bound = threshold_length(rs, d)
        return all(n <= budget for length, n in needs if length <= bound)

    bound = threshold_length(rs, depth)
    lengths = [length for length, n in needs if n <= budget and length <= bound]
    return ref_scan(depth, fits), max(lengths, default=0)


def test_cut_graphs_match_the_string_trie(monkeypatch):
    """The oracle's report and every sampled approximant and development
    equal those of the oracle running on the per-cut route it replaced
    (`ref_route`): on the suite's sets, with `sample_at`, with supplied
    enumerations; under a crippled threshold both routes raise alike.
    The effective depth and final length are those `ref_decision` reads
    off the table sizes.  The same views built one index at a time, the
    table growing between calls, are equal too, and the paths from each
    point to the redex nodes it reaches are exactly the kept members, each
    once."""

    def compare(rs, depth, budget, occurrences=None, sample_at=None, may_raise=False):
        def kept(i):
            return shorter_than(rs, i) if occurrences is None else occurrences[:i]

        def old_cut(rs, cuts, i):
            return ref_route(rs, kept(i))

        def outcome():  # the report, or the ConvergenceError raised
            try:
                return infinite_parallel_reduce(rs, depth, **args)
            except ConvergenceError as e:
                return e

        args = dict(budget=budget, occurrences=occurrences, sample_at=sample_at)
        report = outcome()
        with monkeypatch.context() as mp:
            mp.setattr(parallel, "_cut_graph", old_cut)
            old = outcome()
        if isinstance(report, ConvergenceError) or isinstance(old, ConvergenceError):
            assert may_raise and str(report) == str(old), (report, old)
            return report
        assert report.effective_depth == old.effective_depth
        assert report.occurrences == old.occurrences
        assert [s.index for s in report.samples] == [s.index for s in old.samples]
        assert report.limit == old.limit
        if occurrences is None:
            cuts = _Cuts(rs)
        else:
            cuts = _Cuts(rs, _prefix_respecting_trie(rs, occurrences))
        for new, ref in zip(report.samples, old.samples):
            assert new.approximant == ref.approximant
            assert new.developed == ref.developed
            cut, developed = _cut_graph(rs, cuts, new.index)
            assert cut == new.approximant and developed == new.developed
            assert kept_paths(cuts, cut) == sorted(kept(new.index))
        assert report.occurrences == len(kept(report.samples[-1].index))
        return report

    for rs, depth, budget in oracle_cases():
        report = compare(rs, depth, budget)
        decision = report.effective_depth, report.samples[-1].index
        assert decision == ref_decision(rs, depth, budget, table_needs(rs, depth))
        assert report.nodes <= budget
    picked = oracle_cases()[-6:] + oracle_cases()[1:40:6]
    for rs, depth, budget in picked:
        compare(rs, depth, budget, sample_at=[3, 1, 40, 17])
        occs = enumerate_occurrences(rs, count=48)
        reordered = sorted(occs, key=lambda w: (len(w), [-i for i in w]))
        compare(rs, min(depth, 4), budget, occurrences=reordered)
    with monkeypatch.context() as mp:
        mp.setattr(parallel, "threshold_length", lambda rs, depth: 1)
        reports = [
            compare(rs, min(depth, 8), budget, may_raise=True)
            for rs, depth, budget in picked
        ]
    assert sum(isinstance(r, ConvergenceError) for r in reports) >= 4


def test_cut_graphs_share_their_finite_part():
    """The cuts that keep 2,047 members (those shorter than 42 and 52 on
    the shared rings, whose unshared trees have 7,167 and 9,214 nodes)
    reach as few nodes as `minimize` leaves; on the one-node I loop, where
    nothing repeats, each kept position keeps its own node.  Each cut and
    its development equal the per-cut route's."""
    loop = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
    for rs, length, most, redexes in (
        (shared_ring(4, "f", R_F), 42, 64, 11),
        (shared_ring(5, "I", R_I), 52, 64, 11),
        (loop, 2047, 2048, 2047),
    ):
        cuts = _Cuts(rs)
        cut, developed = _cut_graph(rs, cuts, length)
        kept = shorter_than(rs, length)
        assert len(kept) == 2047
        ref_cut, ref_developed = ref_route(rs, kept)
        assert cut == ref_cut and developed == ref_developed
        reach = cut.trimmed().graph
        assert len(reach.nodes) <= most
        assert len(set(cuts.redexes).intersection(reach.nodes)) <= redexes
        assert len(reach.nodes) == len(minimize(reach)[0].nodes)
    assert (len(reach.nodes), len(cuts.redexes)) == (2048, 2047)


def test_supplied_trie_matches_the_root_walk():
    """The trie of a caller-supplied enumeration equals one that walks each
    occurrence from the root, and counts its members per length: on the
    suite's sets in length-lex order and reordered (shorter members still
    first), and on the one-node I loop to 300 members."""
    sets = [(rs, 200) for rs, _, _ in oracle_cases()]
    sets.append((RationalRedexSet(I_LOOP.graph, "n", "n", R_I), 300))
    for rs, count in sets:
        occs = enumerate_occurrences(rs, count=count)
        for lst in (occs, sorted(occs, key=lambda w: (len(w), [-i for i in w]))):
            trie = _prefix_respecting_trie(rs, lst)
            assert (trie.child, trie.at, trie.size) == ref_trie(rs, [lst])
            lengths = [len(w) for w in lst]
            longest = max(lengths, default=-1)
            assert trie.lengths == [lengths.count(r) for r in range(longest + 1)]


def test_cuts_match_the_reference():
    """Cuts and their developments equal the per-cut route's at every
    sampled index: those of supplied enumerations (trie states) on the
    suite's sets, listed with shorter members first but otherwise
    reordered; and those of the default chain (states (m, r)) at every
    length up to 24 that keeps at most 64 members on the same sets, built
    longest first, and at the
    sampled lengths up to 2,047 on the one-node I loop, where each cut is
    one path.  The paths to the redex nodes each cut reaches are its kept
    members.  The oracle's own cuts are compared in the tests above."""
    for rs, _, _ in oracle_cases():
        occs = enumerate_occurrences(rs, count=64)
        reordered = sorted(occs, key=lambda w: (len(w), [-i for i in w]))
        cuts = _Cuts(rs, _prefix_respecting_trie(rs, reordered))
        for i in parallel._sample_indices(len(occs)):
            cut, developed = _cut_graph(rs, cuts, i)
            ref_cut, ref_developed = ref_route(rs, reordered[:i])
            assert cut == ref_cut and developed == ref_developed
            assert kept_paths(cuts, cut) == sorted(reordered[:i])
        cuts = _Cuts(rs)
        most = max(n for n in range(25) if rs.count_below(n) <= 64)
        for length in range(most, -1, -1):
            cut, developed = _cut_graph(rs, cuts, length)
            ref_cut, ref_developed = ref_route(rs, shorter_than(rs, length))
            assert cut == ref_cut and developed == ref_developed
            assert kept_paths(cuts, cut) == sorted(shorter_than(rs, length))
    loop = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
    cuts = _Cuts(loop)
    for length in parallel._sample_indices(2047):
        cut, developed = _cut_graph(loop, cuts, length)
        ref_cut, ref_developed = ref_route(loop, shorter_than(loop, length))
        assert cut == ref_cut and developed == ref_developed
        assert kept_paths(cuts, cut) == shorter_than(loop, length)


def test_the_default_chain_builds_no_trie(monkeypatch):
    """On the shared 5-ring at depth 48 the oracle constructs no prefix
    trie, and builds fewer position nodes (states (m, r), one `_Cuts.node`
    call each) than the trie of its members has states."""
    rs = shared_ring(5, "I", R_I)
    tries, built = [], []
    node = _Cuts.node

    def counted_node(self, m, ss):
        built.append(m)
        return node(self, m, ss)

    with monkeypatch.context() as mp:
        mp.setattr(parallel, "PrefixTrie", lambda *a: tries.append(a))
        mp.setattr(_Cuts, "node", counted_node)
        report = infinite_parallel_reduce(rs, 48, budget=2048)
    assert not tries
    trie = _prefix_respecting_trie(
        rs, enumerate_occurrences(rs, count=report.occurrences)
    )
    assert report.occurrences > 1000 and len(trie.child) > 5000
    assert 0 < len(built) <= len(trie.child)


def test_the_budget_is_a_hard_cap():
    """The cut table never holds more nodes than the budget, counted on
    the approximants' graphs (the table as one term, less its past nodes):
    on the one-node I loop, where not even depth 1 fits the smallest
    budgets and each node keeps one member, down to none; and on the
    shared 4-ring and the generated sets at every budget up to 40, where
    a chain stopped by the budget fills it to the last node."""
    rs = RationalRedexSet(I_LOOP.graph, "n", "n", R_I)
    assert threshold_length(rs, 0) == 3
    for budget in range(4):
        report = infinite_parallel_reduce(rs, depth=16, budget=budget)
        assert (report.effective_depth, report.occurrences) == (0, budget)
        assert report.limit.unravel(4) == BOTTOM
    sets = [(shared_ring(4, "f", R_F), 32)]
    sets += [(rs, 12) for rs in generated_sets(range(40))]
    for rs, depth in sets:
        past = len(rs.carrier.reachable(rs.start))
        for budget in range(41):
            report = infinite_parallel_reduce(rs, depth, budget=budget)
            built = len(report.samples[-1].approximant.graph.nodes) - past
            assert built == report.nodes <= budget
            if report.effective_depth < depth:
                assert built == budget


def test_the_chain_checks_catch_a_skipped_target(monkeypatch):
    """Developments are not trimmed, and the checks still see every target.
    Each sample's development equals the per-cut route's and is bisimilar
    to its trimmed copy.  With `develop_rational` skipping the last target
    of the table (the newest redex node, which only the last cuts reach),
    the oracle refuses wherever the skip changes the last development to
    the effective depth (its answer would be wrong), and the monotonicity
    check catches most of the rest; the others are rules that leave the
    skipped target's term as it was (`f(x) -> f(f(x))` on an f loop)."""
    develop = parallel.develop_rational
    errors = []
    for rs, depth, budget in oracle_cases():
        made = []  # the oracle's own table

        def keep(*args, **kwargs):
            made.append(_Cuts(*args, **kwargs))
            return made[-1]

        with monkeypatch.context() as mp:
            mp.setattr(parallel, "_Cuts", keep)
            report = infinite_parallel_reduce(rs, depth, budget=budget)
        d = min(report.effective_depth, 10)
        for s in report.samples:
            trimmed = s.developed.trimmed()
            ref = ref_route(rs, shorter_than(rs, s.index))[1]
            assert s.developed == trimmed == ref
            assert s.developed.unravel(d) == trimmed.unravel(d)
        if not report.occurrences:
            continue

        def skip_last(rt, components, carrier=rs.carrier):
            if rt.graph is not carrier:  # the table, not the symbolic limit
                components = components[:-1]
            return develop(rt, components)

        (cuts,) = made
        last = cuts.point(report.samples[-1].index)
        table = cuts.chain[1]
        skipped, resolved = skip_last(table, [(n, rs.rule) for n in cuts.redexes])
        skipped = RationalTerm(
            skipped.graph, resolved.get(last, last), skipped.bottoms, skipped.var_names
        )
        wrong = not truncated_equal(skipped, report.limit, report.effective_depth)
        with monkeypatch.context() as mp:
            mp.setattr(parallel, "develop_rational", skip_last)
            try:
                infinite_parallel_reduce(rs, depth, budget=budget)
            except OracleError as e:  # ConvergenceError included
                errors.append(type(e))
            else:
                assert not wrong
    assert len(errors) >= 100
    assert set(errors) == {OracleError, ConvergenceError}


def sample_pairs(report):
    """The pairs the oracle compares, in its order: consecutive approximants
    and developments, then every development against the symbolic limit;
    each followed by its reverse, which mostly fails."""
    pairs, s = [], report.samples
    for prev, cur in zip(s, s[1:]):
        pairs += [(prev.approximant, cur.approximant), (prev.developed, cur.developed)]
    pairs += [(x.developed, report.symbolic_limit) for x in s]
    return [q for a, b in pairs for q in ((a, b), (b, a))]


def grouped_verdicts(pairs, rng):
    """`all_approx_leq` decides lists of the pairs as `rational_approx_leq`
    on each pair does: all of them, the ones that hold, and for each pair
    that fails a random sublist of those, alone and with it put in at a
    random place.  Returns the numbers of lists that hold and that fail."""
    verdicts = [rational_approx_leq(a, b) for a, b in pairs]
    holding = [i for i, v in enumerate(verdicts) if v]
    lists = [range(len(pairs)), holding]
    for bad in (i for i, v in enumerate(verdicts) if not v):
        some = rng.sample(holding, rng.randint(0, len(holding)))
        lists.append(some)
        lists.append(some[:])
        lists[-1].insert(rng.randint(0, len(some)), bad)
    held = failed = 0
    for lst in lists:
        want = all(verdicts[i] for i in lst)
        assert all_approx_leq([pairs[i] for i in lst]) == want
        held, failed = held + want, failed + (not want)
    return held, failed


BENCH_SIG = Signature.of({"a": 0, "d": 1, "p": 2, "cdr": 1, "cons": 2})
BENCH_RULES = {
    "f": R_F,
    "I": R_I,
    "d": RewriteRule.of(
        "Rd", parse_term(BENCH_SIG, "d(x)"), parse_term(BENCH_SIG, "p(x, x)")
    ),
    "cdr": R_CDR,
}
# The oracle inputs of the benchmark: (shape, ring size, depth, rule root).
# Of the shared 4- and 5-rings at depth 32, the cdr one exceeds the member
# budget; at depth 48 all six do.
BENCH_ROOTS = ("f", "I", "d", "cdr")
BENCH_SHAPES = (
    [
        ("unary", 4 + i % 13, 16 if i % 2 else 32, BENCH_ROOTS[i % 4])
        for i in range(16)
    ]
    + [("shared", n, 16, r) for n, r in zip((8, 10, 12, 14), BENCH_ROOTS)]
    + [("shared", n, 32, r) for n, r in zip((4, 5) * 3, BENCH_ROOTS * 2)]
)


def bench_host(rng, shape, n, root):
    """A ring n0..n<n-1> matched at n1, its other labels drawn by rng.  On a
    shared host the node after the match is binary with both edges on the
    next one, so paths double every lap; under a cdr, that node is a cons
    (on a unary ring, with a constant first child)."""
    ids = [f"n{i}" for i in range(n)]
    labels = {m: rng.choice(["f", "g", "h", "I", "d"]) for m in ids}
    succs = {m: (ids[(i + 1) % n],) for i, m in enumerate(ids)}
    labels["n1"], after, nxt = root, ids[2], ids[3 % n]
    if shape == "shared":
        labels[after] = "cons" if root == "cdr" else "p"
        succs[after] = (nxt, nxt)
    elif root == "cdr":
        ids.append("c")
        labels["c"], labels[after], succs[after] = "a", "cons", ("c", nxt)
    carrier = TermGraph.of(ids, labels, succs)
    return RationalRedexSet(carrier, "n0", "n1", BENCH_RULES[root])


def test_the_threshold_settles_the_limit():
    """Developing the members shorter than `threshold_length` agrees with
    the symbolic limit (the rule developed on the untouched carrier, built
    here) to the depth: on the suite's sets at every depth up to 32 whose
    cut fits 2,048 nodes, and on the benchmark's oracle inputs at their
    depths.  The oracle, given just the cut-table nodes its chain needs
    there, returns at the depth, and given one node fewer below it
    (checked at every fourth depth)."""
    rng = random.Random(5)
    cases = [(rs, range(33)) for rs in generated_sets()]
    cases += [
        (bench_host(rng, shape, n, root), [depth])
        for shape, n, depth, root in BENCH_SHAPES
    ]
    checked = 0
    for rs, depths in cases:
        carrier = RationalTerm(rs.carrier, rs.start, rs.bottoms, rs.var_names)
        symbolic, _ = develop_rational(carrier, [(rs.target, rs.rule)])
        cuts = _Cuts(rs, budget=2048)
        for depth in depths:
            length = threshold_length(rs, depth)
            if len(depths) > 1 and cuts.point(length) is None:
                break
            _, developed = _cut_graph(rs, cuts, length)
            assert truncated_equal(developed, symbolic, depth), (rs, depth)
            checked += 1
            if depth % 4 == 0 or len(depths) == 1:
                need = max([n for _, n in table_needs(rs, depth)], default=0)
                report = infinite_parallel_reduce(rs, depth, budget=need)
                assert report.effective_depth == depth
                if depth and need:
                    report = infinite_parallel_reduce(rs, depth, budget=need - 1)
                    assert report.effective_depth < depth
    assert checked > 10000


def test_grouped_walks_match_the_single_ones():
    """One walk per pair of views from many start pairs decides what the
    walks from each pair decide, on the pairs the oracle compares and their
    reverses (on the suite's sets at depth 24 or more, under the default
    budget, and on the benchmark's oracle inputs, whose six shared rings
    run at depth 48) and on random views with holes and names, some of one
    graph and some alike."""
    rng = random.Random(5)
    held = failed = 0
    for rs, depth, _ in oracle_cases():
        report = infinite_parallel_reduce(rs, max(depth, 24))
        h, f = grouped_verdicts(sample_pairs(report), rng)
        held, failed = held + h, failed + f
    assert len(BENCH_SHAPES) == 26
    for shape, n, depth, root in BENCH_SHAPES:
        rs = bench_host(rng, shape, n, root)
        deeper = 48 if (shape, depth) == ("shared", 32) else depth
        report = infinite_parallel_reduce(rs, deeper, budget=2048)
        h, f = grouped_verdicts(sample_pairs(report), rng)
        held, failed = held + h, failed + f
    assert held > 3000 and failed > 3000, (held, failed)
    random_held = random_failed = 0
    for _ in range(300):
        views = []
        for g in (random_carrier(rng, 6), random_carrier(rng, 6)):
            empty = [n for n in g.nodes if not g.is_labelled(n)]
            for _ in range(3):
                holes = frozenset(n for n in empty if rng.random() < 0.5)
                names = tuple((n, rng.choice("xy")) for n in empty if n not in holes)
                for p in rng.sample(list(g.nodes), min(3, len(g.nodes))):
                    views.append(RationalTerm(g, p, holes, names))
        pairs = [(rng.choice(views), rng.choice(views)) for _ in range(20)]
        h, f = grouped_verdicts(pairs, rng)
        random_held, random_failed = random_held + h, random_failed + f
    assert random_held > 4000 and random_failed > 4000, (random_held, random_failed)


def test_views_that_differ_in_holes_or_names_get_walks_of_their_own():
    """Pairs between views of the same graphs whose holes or names differ
    are not decided by one walk over either's views, in either order."""
    g = TermGraph.of(
        ["u", "h", "v", "c", "w", "k"],
        {"u": "f", "v": "f", "c": "a", "w": "f"},
        {"u": ("h",), "v": ("c",), "w": ("k",)},
    )
    u, v = RationalTerm(g, "u"), RationalTerm(g, "v")
    holed = replace(u, bottoms=frozenset("h"))
    assert rational_approx_leq(holed, v)
    assert not rational_approx_leq(u, v)  # h is a variable here
    x, y = (("h", "x"), ("k", "x")), (("h", "y"), ("k", "x"))
    w = RationalTerm(g, "w", var_names=x)
    assert rational_approx_leq(replace(u, var_names=x), w)
    assert not rational_approx_leq(replace(u, var_names=y), w)
    for pairs in (
        [(holed, v), (u, v)],
        [(u, v), (holed, v)],
        [(replace(u, var_names=x), w), (replace(u, var_names=y), w)],
        [(replace(u, var_names=y), w), (replace(u, var_names=x), w)],
    ):
        assert not all_approx_leq(pairs)
    assert all_approx_leq([(holed, v), (replace(u, var_names=x), w)])


def test_the_upper_bound_check_catches_a_shallow_limit(monkeypatch):
    """With the symbolic limit replaced by its truncation just below the
    effective depth, the last development still agrees with it to that
    depth, so only the check that every development lies below the limit
    can tell.  The oracle raises `ConvergenceError` naming the first
    sampled index whose development has a symbol where the truncation has
    a hole (found on unravelings), and returns wherever there is none: on
    the suite's sets and on the benchmark's oracle inputs."""
    develop = parallel.develop_rational
    rng = random.Random(5)
    bench = [
        (bench_host(rng, shape, n, root), depth, 2048)
        for shape, n, depth, root in BENCH_SHAPES
    ]
    caught = 0
    for rs, depth, budget in [*oracle_cases(), *bench]:
        report = infinite_parallel_reduce(rs, depth, budget=budget)
        cut = report.effective_depth + 1
        shallow_term = report.symbolic_limit.unravel(cut)
        shallow = rational_of_term(shallow_term)
        assert truncated_equal(report.limit, shallow, report.effective_depth)
        above = [
            s.index
            for s in report.samples
            if not approx_leq(s.developed.unravel(cut + 1), shallow_term)
        ]

        def shallow_limit(rt, components, carrier=rs.carrier, shallow=shallow):
            if rt.graph is carrier:
                return shallow, {}
            return develop(rt, components)

        with monkeypatch.context() as mp:
            mp.setattr(parallel, "develop_rational", shallow_limit)
            if above:
                with pytest.raises(ConvergenceError, match=f"element {above[0]} is"):
                    infinite_parallel_reduce(rs, depth, budget=budget)
                caught += 1
            else:
                infinite_parallel_reduce(rs, depth, budget=budget)
    assert caught >= 50


def test_prefix_check_matches_the_quadratic_one():
    """Caller-supplied enumerations, accepted or refused with the same
    message as the check on every prefix: generated ones reordered, with a
    member dropped, moved late or repeated, or followed by a non-member, and
    hand-built lists on the f loop and a hole."""
    cases = []
    for rs, _, _ in oracle_cases():
        occs = enumerate_occurrences(rs, count=24)
        lists = [
            occs,
            sorted(occs, key=lambda w: (len(w), tuple(-i for i in w))),
            occs[::-1],
            occs + occs[-1:],
            occs[:1] + occs,
            occs + [(9,)],
            occs + [occs[-1] + (9,)] if occs else [(9,)],
        ]
        lists += [occs[:j] + occs[j + 1:] for j in range(min(len(occs), 6))]
        for j in range(0, len(occs), 4):
            lists.append(occs[:j] + occs[j + 1:] + occs[j:j + 1])
            lists.append(occs[: j + 1] + occs[j:])
        cases += [(rs, lst) for lst in lists]
    f_loop = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    ones = [(1,) * k for k in range(40)]
    cases += [(f_loop, ones), (f_loop, ones[::2]), (f_loop, ones[:20] + ones[21:])]
    cases += [(f_loop, ones[:30] + ones[29:30] + ones[30:])]
    cases += [(f_loop, ones + [(1,) * 39 + (2,)]), (f_loop, [(), (1, 1)])]
    cases += [
        (HOLE_BEHIND_TARGET, lst)
        for lst in (
            [(), (1, 1), (1, 1, 1, 1)],
            [(), (1, 1, 1, 1)],
            [(1, 1)],
            [(), (1, 1), (1, 2, 1)],
            [(), (1, 1), (1, 1, 1, 3)],
            [(), (1, 1), (1, 1), (1, 1, 1, 1)],
        )
    ]
    refusals = set()
    for rs, lst in cases:
        want = got = None
        try:
            ref_prefix_check(rs, lst)
        except ValueError as e:
            want = str(e)
        try:
            _prefix_respecting_trie(rs, lst)
        except ValueError as e:
            got = str(e)
        assert got == want, lst
        if want is not None:
            refusals.add(want.split(":")[0].split()[-1])
    assert refusals == {"set", "prefix-respecting", "twice"}


def test_the_trie_walk_tests_membership():
    """Non-members, lists that are not prefix-respecting and lists that are
    neither are refused by the trie walk alone, membership first, with the
    message of the check on every prefix: steps past a leaf and past an
    arity, and walks that end off the target."""
    rs = HOLE_BEHIND_TARGET  # n: f(m), m: p(n, hole); members (1, 1)^k
    missing = "enumeration is not prefix-respecting: {} missing before {}"
    absent = "{} is not in the redex set"
    cases = [
        ([(), (1, 2, 1)], absent, [(1, 2, 1)]),  # past the hole, a leaf
        ([(), (1, 1), (1, 3)], absent, [(1, 3)]),  # past p's arity
        ([(), (0, 1)], absent, [(0, 1)]),  # letters count from 1
        ([(), (1,)], absent, [(1,)]),  # ends at m
        ([(), (1, 1, 1, 1)], missing, [(1, 1), (1, 1, 1, 1)]),
        ([(1, 1)], missing, [(), (1, 1)]),
        ([(), (1, 1, 1, 1, 1)], absent, [(1, 1, 1, 1, 1)]),  # both
        ([(1, 1, 1, 3)], absent, [(1, 1, 1, 3)]),  # both, past an arity
    ]
    for lst, message, occs in cases:
        want = message.format(*map(occ_format, occs))
        for check in (_prefix_respecting_trie, ref_prefix_check):
            with pytest.raises(ValueError) as refused:
                check(rs, lst)
            assert str(refused.value) == want


def test_a_repeated_occurrence_is_refused():
    """A supplied enumeration lists each member once.  A repeat is refused
    by name rather than counted as a member the list lacks: on the f loop
    at depth 4, that count trusts the first list below to depth 2, below
    its own subset's depth 3, and the last to depth 1, below its subset's
    depth 2."""
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    for lst, twice in (
        ([(), (1,), (1, 1), (1, 1)], "11"),
        ([(), ()], "λ"),
        ([(), (1,), (1,)], "1"),
    ):
        for check in (_prefix_respecting_trie, ref_prefix_check):
            with pytest.raises(ValueError) as refused:
                check(rs, lst)
            assert str(refused.value) == f"{twice} is listed twice"
        with pytest.raises(ValueError, match=f"^{twice} is listed twice$"):
            infinite_parallel_reduce(rs, 4, occurrences=lst)
    for lst, depth in (
        ([(), (1,)], 2),
        ([(), (1,), (1, 1)], 3),
        ([(), (1,), (1, 1), (1, 1, 1)], 4),
    ):
        assert infinite_parallel_reduce(rs, 4, occurrences=lst).effective_depth == depth


def test_the_depth_decision_matches_the_linear_scan(monkeypatch):
    """The oracle's effective depth, final length and kept members are
    those of a one-step scan over its two predicates: the budget admits
    the cut-table nodes the depth needs (`ref_table_sizes`), or a supplied
    enumeration lists every member it needs.  Every layer past the
    decision is stubbed out on all 147,560 inputs; the tests above check
    those layers.  No set here needs more than 260 nodes, so past 377 only
    2,048 is tried."""
    sets = [RationalRedexSet(I_LOOP.graph, "n", "n", R_I)]
    sets += generated_sets(range(100))
    budgets = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 2048]
    with monkeypatch.context() as mp:
        mp.setattr(parallel, "develop_rational", lambda rt, components: (rt, {}))
        mp.setattr(_Cuts, "point", lambda cuts, i: None)
        mp.setattr(parallel, "_cut_graph", lambda rs, cuts, i: (None, None))
        mp.setattr(parallel, "all_approx_leq", lambda pairs: True)
        mp.setattr(parallel, "truncated_equal", lambda a, b, depth: True)
        for rs in sets:
            counts = [rs.count_below(threshold_length(rs, d)) for d in range(65)]
            needs = table_needs(rs, 64)
            lengths, sizes = [n for n, _ in needs], [n for _, n in needs]
            # the growth lengths each depth needs, and their table's size
            within = [bisect_right(lengths, threshold_length(rs, d)) for d in range(65)]
            need = [sizes[k - 1] if k else 0 for k in within]
            for depth in range(65):
                for budget in budgets:
                    want = ref_scan(depth, lambda d: need[d] <= budget)
                    k = min(within[depth], bisect_right(sizes, budget))
                    final = lengths[k - 1] if k else 0
                    report = infinite_parallel_reduce(
                        rs, depth, budget=budget, sample_at=[]
                    )
                    assert report.effective_depth == want
                    assert report.samples[-1].index == final
                    assert report.occurrences == rs.count_below(final)
            for c in (0, 1, 2, 5, 17):
                occs = enumerate_occurrences(rs, count=c)
                for depth in range(0, 65, 3):

                    def complete(d):
                        bound = threshold_length(rs, d)
                        have = sum(1 for w in occs if len(w) < bound)
                        return have == counts[d]

                    report = infinite_parallel_reduce(
                        rs, depth, occurrences=occs, sample_at=[]
                    )
                    assert report.effective_depth == ref_scan(depth, complete)
                    assert report.occurrences == len(occs)
