"""Term graphs, rational terms, bisimulation, and the graph/term bridges."""

import random
from itertools import product, takewhile

import pytest

from tgr.graphs import (
    RationalTerm,
    TermGraph,
    bisim_equal,
    check_wellformed,
    count_paths,
    cycle_nodes,
    find_tree_morphisms,
    graph_of_terms,
    induced_substitution,
    is_tree,
    minimize,
    morphism_errors,
    node_key,
    occurrences_to,
    rational_approx_leq,
    rational_of_term,
    truncated_equal,
    unravel,
)
from tgr.harness import gen_case
from tgr.terms import BOTTOM, Signature, format_term, parse_term, truncate

SIG = Signature.of({"a": 0, "b": 0, "f": 1, "g": 1, "p": 2})


def t(text):
    return parse_term(SIG, text)


def g_of(nodes, labels, succs):
    return TermGraph.of(nodes, labels, succs)


F_LOOP = RationalTerm(g_of(["m"], {"m": "f"}, {"m": ("m",)}), "m")
F_LOOP2 = RationalTerm(
    g_of(["u", "v"], {"u": "f", "v": "f"}, {"u": ("v",), "v": ("u",)}), "u"
)


def random_graph(rng, max_nodes=7):
    ids = [f"n{i}" for i in range(1, rng.randint(2, max_nodes) + 1)]
    labels, succs = {}, {}
    pool = [("a", 0), ("b", 0), ("f", 1), ("g", 1), ("p", 2)]
    for n in ids:
        if rng.random() < 0.8:
            sym, k = rng.choice(pool)
            labels[n] = sym
            succs[n] = tuple(rng.choice(ids) for _ in range(k))
    return RationalTerm(g_of(ids, labels, succs), rng.choice(ids))


# ---------------------------------------------------------------------------
# Wellformedness and basic structure


def test_wellformed_accepts_cycles():
    check_wellformed(F_LOOP.graph, SIG)


def test_wellformed_rejects_arity_mismatch():
    bad = g_of(["n"], {"n": "f"}, {"n": ("n", "n")})
    with pytest.raises(ValueError):
        check_wellformed(bad, SIG)


def test_wellformed_rejects_dangling_successor():
    with pytest.raises(ValueError):
        TermGraph.of(["n"], {"n": "f"}, {"n": ("ghost",)})


def test_node_key_orders_by_length_then_lexicographically():
    assert sorted(["n10", "n2", "x"], key=node_key) == ["x", "n2", "n10"]


# ---------------------------------------------------------------------------
# Unraveling


def test_unravel_cyclic_truncates():
    assert unravel(F_LOOP.graph, "m", 3) == t("f(f(f(_|_)))")
    assert unravel(F_LOOP.graph, "m", 0) is BOTTOM


def test_unravel_names_empty_nodes():
    g = g_of(["n", "x"], {"n": "f"}, {"n": ("x",)})
    assert format_term(unravel(g, "n", 5)) == "f(x)"
    assert format_term(unravel(g, "n", 5, var_names={"x": "y"})) == "f(y)"
    assert unravel(g, "n", 5, bottoms=frozenset({"x"})) == t("f(_|_)")


def test_unravel_size_guard():
    g = g_of(["n"], {"n": "p"}, {"n": ("n", "n")})
    with pytest.raises(ValueError):
        unravel(g, "n", 64, max_size=1000)


def test_paths_to_length_lex():
    g = g_of(
        ["r", "m"], {"r": "p", "m": "f"}, {"r": ("m", "r"), "m": ("r",)}
    )
    got = list(occurrences_to(g, "r", "r", 3))
    assert got == [(), (2,), (1, 1), (2, 2), (1, 1, 2), (2, 1, 1), (2, 2, 2)]
    assert got == sorted(got, key=lambda w: (len(w), w))


# Brute-force references for the path kernels, on the random hosts of the
# property suite (up to 8 nodes, arity up to 2, cycles and holes included).

KERNEL_SEEDS = range(300)
MAXLEN = 7  # one less than the largest host, so finite sets are listed whole


def all_paths(g, src, maxlen):
    """Every path from src of length <= maxlen, length-lex, by trying all
    index sequences and keeping those that `walk` can follow."""
    arity = max((len(s) for s in g.succs.values()), default=0)
    return [
        w
        for k in range(maxlen + 1)
        for w in product(range(1, arity + 1), repeat=k)
        if g.walk(src, w) is not None
    ]


def returns_home(g, n):
    """Does some path of length 1..|nodes| lead from n back to n?"""
    return any(g.walk(n, w) == n for w in all_paths(g, n, len(g.nodes))[1:])


def kernel_hosts():
    for seed in KERNEL_SEEDS:
        yield gen_case(random.Random(seed)).host


def test_occurrences_to_against_brute_force():
    for host in kernel_hosts():
        g, src = host.graph, host.point
        paths = all_paths(g, src, MAXLEN)
        cyclic = [n for n in g.reachable(src) if returns_home(g, n)]
        for dst in g.nodes:
            want = [w for w in paths if g.walk(src, w) == dst]
            assert list(occurrences_to(g, src, dst, MAXLEN)) == want
            unbounded = occurrences_to(g, src, dst)
            if any(dst in g.reachable(c) for c in cyclic):
                got = list(takewhile(lambda w: len(w) <= MAXLEN, unbounded))
            else:  # finite: no member repeats a node, so all are listed
                got = list(unbounded)
            assert got == want


def test_cycle_nodes_against_closed_paths():
    for host in kernel_hosts():
        g = host.graph
        home = {n for n in g.nodes if returns_home(g, n)}
        for start in g.nodes:
            assert cycle_nodes(g, start) == home & g.reachable(start)


def test_count_paths_against_enumeration():
    for host in kernel_hosts():
        g, src = host.graph, host.point
        paths = all_paths(g, src, MAXLEN)
        for bound in range(MAXLEN + 2):
            assert count_paths(g, src, bound) == sum(
                1 for w in paths if len(w) < bound
            )
            for dst in g.nodes:
                assert count_paths(g, src, bound, dst) == len(
                    list(occurrences_to(g, src, dst, bound - 1))
                )


# ---------------------------------------------------------------------------
# Trees and morphisms


def test_tree_detection():
    assert is_tree(rational_of_term(t("p(f(x), y)")).graph, "t")
    assert not is_tree(F_LOOP.graph, "m")


def test_tree_morphisms_unique_per_root_image():
    L = rational_of_term(t("f(x)"), prefix="l")
    H = g_of(
        ["h1", "h2", "h3"],
        {"h1": "f", "h2": "f", "h3": "a"},
        {"h1": ("h2",), "h2": ("h3",)},
    )
    morphs = find_tree_morphisms(L.graph, "l", H)
    assert [m.mapping["l"] for m in morphs] == ["h1", "h2"]
    only = find_tree_morphisms(L.graph, "l", H, root_image="h2")
    assert len(only) == 1 and only[0].mapping["x"] == "h3"
    for m in morphs:
        assert morphism_errors(m) == []


def test_tree_morphisms_variables_map_anywhere():
    L = rational_of_term(t("f(x)"), prefix="l")
    morphs = find_tree_morphisms(L.graph, "l", F_LOOP.graph)
    assert len(morphs) == 1 and morphs[0].mapping["x"] == "m"


# ---------------------------------------------------------------------------
# Bisimulation


def test_bisim_loop_sizes():
    assert bisim_equal(F_LOOP, F_LOOP2)
    assert F_LOOP == F_LOOP2  # RationalTerm equality is bisimulation


def test_bisim_is_pointed():
    g = g_of(
        ["u", "v"], {"u": "f", "v": "g"}, {"u": ("u",), "v": ("v",)}
    )
    assert not bisim_equal(RationalTerm(g, "u"), RationalTerm(g, "v"))


def test_bisim_distinguishes_holes_from_variables():
    g = g_of(["n", "e"], {"n": "f"}, {"n": ("e",)})
    as_var = RationalTerm(g, "n")
    as_hole = RationalTerm(g, "n", frozenset({"e"}))
    assert not bisim_equal(as_var, as_hole)


def test_bisim_variables_by_rendered_name():
    g1 = g_of(["n", "e1"], {"n": "f"}, {"n": ("e1",)})
    g2 = g_of(["n", "e2"], {"n": "f"}, {"n": ("e2",)})
    assert not bisim_equal(RationalTerm(g1, "n"), RationalTerm(g2, "n"))
    renamed = RationalTerm(g2, "n", frozenset(), (("e2", "e1"),))
    assert bisim_equal(RationalTerm(g1, "n"), renamed)


def test_bisim_agrees_with_deep_truncation():
    rng = random.Random(17)
    for _ in range(150):
        x, y = random_graph(rng), random_graph(rng)
        d = 2 * max(len(x.graph.nodes), len(y.graph.nodes)) + 1
        assert bisim_equal(x, y) == (x.unravel(d) == y.unravel(d))


def test_truncated_equal_matches_unravel():
    rng = random.Random(19)
    for _ in range(150):
        x, y = random_graph(rng), random_graph(rng)
        for d in (0, 1, 3):
            assert truncated_equal(x, y, d) == (x.unravel(d) == y.unravel(d))


def test_minimize_preserves_unraveling():
    rng = random.Random(13)
    for _ in range(100):
        x = random_graph(rng)
        q, rep = minimize(x.graph)
        assert bisim_equal(x, RationalTerm(q, rep[x.point]))
        q2, rep2 = minimize(q)
        assert len(q2.nodes) == len(q.nodes)


def test_minimize_merges_bisimilar_loop():
    q, rep = minimize(F_LOOP2.graph)
    assert len(q.nodes) == 1
    assert rep["u"] == rep["v"] == "u"  # least id survives


def test_minimize_keeps_empty_nodes_apart():
    g = g_of(["n", "x", "y"], {"n": "p"}, {"n": ("x", "y")})
    q, _ = minimize(g)
    assert len(q.nodes) == 3


# ---------------------------------------------------------------------------
# The approximation order on rational terms


def test_rational_approx_holes_below_everything():
    hole = RationalTerm(
        g_of(["e"], {}, {}), "e", frozenset({"e"})
    )
    assert rational_approx_leq(hole, F_LOOP)
    assert not rational_approx_leq(F_LOOP, hole)


def test_rational_approx_reflexive_on_random():
    rng = random.Random(43)
    for _ in range(100):
        x = random_graph(rng)
        assert rational_approx_leq(x, x)


def test_rational_approx_implies_truncation_order():
    from tgr.terms import approx_leq

    rng = random.Random(47)
    for _ in range(150):
        x, y = random_graph(rng, 4), random_graph(rng, 4)
        if rational_approx_leq(x, y):
            for d in (2, 6, 12):
                assert approx_leq(
                    truncate(x.unravel(d), d), truncate(y.unravel(d), d)
                )


def test_rational_approx_finite_cut_below_loop():
    cut = RationalTerm(
        g_of(["m", "e"], {"m": "f"}, {"m": ("e",)}),
        "m",
        frozenset({"e"}),
    )
    assert rational_approx_leq(cut, F_LOOP)
    assert not rational_approx_leq(F_LOOP, cut)


# ---------------------------------------------------------------------------
# Term <-> graph bridges


def test_rational_of_term_roundtrip():
    rng = random.Random(53)
    from tests.test_terms import random_term

    for _ in range(100):
        s = random_term(rng)
        rt = rational_of_term(s)
        assert rt.unravel(10) == s


def test_rational_of_term_shares_variables():
    rt = rational_of_term(t("p(x, x)"))
    kids = rt.graph.succs[rt.point]
    assert kids[0] == kids[1] == "x"


def test_graph_of_terms_points_present_terms():
    u = rational_of_term(t("p(f(a), f(a))"))
    g, points, _ = graph_of_terms([u])
    assert bisim_equal(RationalTerm(g, points[0]), u)
    # the two f(a) subterms share one class
    kids = g.succs[points[0]]
    assert kids[0] == kids[1]


def test_graph_of_terms_shares_across_inputs():
    u = rational_of_term(t("f(a)"))
    v = rational_of_term(t("g(f(a))"))
    g, points, _ = graph_of_terms([u, v])
    assert g.succs[points[1]] == (points[0],)


def test_graph_of_terms_class_maps_commute():
    u = random_graph(random.Random(59))
    g, points, maps = graph_of_terms([u])
    for n in u.graph.reachable(u.point):
        if u.graph.is_labelled(n):
            assert bisim_equal(
                RationalTerm(u.graph, n), RationalTerm(g, maps[0][n])
            )


def test_induced_substitution_reads_target():
    L = rational_of_term(t("f(x)"), prefix="l")
    H = g_of(["h", "ha"], {"h": "f", "ha": "a"}, {"h": ("ha",)})
    f = find_tree_morphisms(L.graph, "l", H, root_image="h")[0]
    sigma = induced_substitution(f)
    assert sigma["x"].unravel(4) == t("a")
