"""Term graphs, rational terms, bisimulation, and the graph/term bridges."""

import random
import sys
from dataclasses import replace
from itertools import permutations, product, takewhile

import pytest

from tgr import graphs
from tgr.graphs import (
    FreshIds,
    GraphMorphism,
    PathCounts,
    RationalTerm,
    TermGraph,
    bisim_equal,
    check_morphism,
    check_wellformed,
    find_tree_morphisms,
    graph_of_terms,
    induced_substitution,
    infinitely_reached,
    is_tree,
    minimize,
    morphism_errors,
    node_key,
    rational_approx_leq,
    rational_of_term,
    tree_match,
    truncated_equal,
    unravel,
)
from tgr.harness import gen_case
from tgr.terms import (
    BOTTOM,
    Signature,
    format_term,
    parse_term,
)
from tests.test_terms import approx_leq, truncate
from tests.reference import (
    ref_approx_leq,
    ref_bisim,
    ref_eq,
    ref_fresh_namer,
    ref_minimize,
    ref_termgraph_of,
    ref_truncated_equal,
    ref_unravel,
)

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


_V = TermGraph.of(["n", "v"], {"n": "f"}, {"n": ("v",)})  # f(v)


def raw(nodes, labels, succs):
    """check_wellformed on a TermGraph built without `of`'s checks."""
    return lambda: check_wellformed(TermGraph(nodes, labels, succs), SIG)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TermGraph.of(["n"], {"m": "a"}, {}),
         "labelled node m not in node set"),
        (lambda: TermGraph.of(["n"], {}, {"n": ()}),
         "successors on unlabelled node n"),
        (raw(("n", "n"), {}, {}), "duplicate node ids"),
        (raw(("",), {}, {}), "bad node id ''"),
        (raw(("n",), {"n": "a"}, {}),
         "label/successor domains differ at ['n']"),
        (raw(("n",), {"m": "a"}, {"m": ()}),
         "labelled node m not in node set"),
        (raw(("n",), {"n": "f"}, {"n": ("m",)}),
         "dangling successor m at node n"),
        (lambda: RationalTerm(_V, "x"), "point x not a node"),
        (lambda: RationalTerm(_V, "n", frozenset(["n"])),
         "bottom tag on non-empty node n"),
        (lambda: RationalTerm(_V, "n", var_names=(("n", "y"),)),
         "variable renaming on non-empty node n"),
        (lambda: find_tree_morphisms(F_LOOP.graph, "m", _V),
         "find_tree_morphisms requires a tree with the given root"),
    ],
    ids=[
        "of-label-outside", "of-succs-unlabelled", "duplicate-ids", "bad-id",
        "domains", "label-outside", "dangling", "point", "bottom", "renaming",
        "non-tree",
    ],
)
def test_graph_errors(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def random_of_input(rng):
    """Arguments for `TermGraph.of`: 1-30 nodes with ids of mixed lengths
    and shapes, repeats in the node list, constants with and without a
    successor entry, and none, one or several defects (a labelled non-node,
    successors on an unlabelled node, a dangling successor) placed anywhere
    in the dicts' key order."""
    shapes = ["n{}", "a{}", "g#{}", "s@{}", "m@{}", "{}", "b#{}"]
    size, ids = rng.randint(1, 30), set()
    while len(ids) < size:
        ids.add(rng.choice(shapes).format(rng.choice(["", "*", rng.randint(0, 120)])))
    ids = sorted(ids)
    rng.shuffle(ids)
    strangers = ["s@*", "n10", "zz", "g#7", "q"]
    strangers = [x for x in strangers if x not in ids]
    labelled = [n for n in ids if rng.random() < 0.7]
    labels = [(n, rng.choice("afgp")) for n in labelled]
    succs = [
        (n, [rng.choice(ids) for _ in range(rng.randint(0, 3))])
        for n in labelled
        if rng.random() < 0.85
    ]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind, x = rng.randrange(3), rng.choice(strangers)
        unlabelled = [n for n in ids if n not in labelled] + strangers
        if kind == 0:
            labels.insert(rng.randint(0, len(labels)), (x, "a"))
        elif kind == 1:
            succs.insert(rng.randint(0, len(succs)), (rng.choice(unlabelled), []))
        elif succs:
            n, ss = rng.choice(succs)
            ss.insert(rng.randint(0, len(ss)), x)
    rng.shuffle(succs)
    nodes = ids + rng.sample(ids, rng.randint(0, len(ids)))
    return nodes, dict(labels), dict(succs)


def outcome(build, *args):
    """The graph's fields with the dicts' key order, or the error message."""
    try:
        g = build(*args)
    except ValueError as e:
        return str(e)
    return tuple(g.nodes), list(g.labels.items()), list(g.succs.items())


def test_termgraph_of_matches_the_reference():
    """Same node tuple, same dicts in the same key order, or the same first
    error, on well-formed and defective inputs alike."""
    rng = random.Random(11)
    errors = set()
    for _ in range(3000):
        args = random_of_input(rng)
        want = outcome(ref_termgraph_of, *args)
        assert outcome(TermGraph.of, *args) == want
        if isinstance(want, str):
            errors.add(want.split()[0])
    assert errors == {"labelled", "successors", "dangling"}


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
    got = list(PathCounts(g, "r", ["r"]).paths(3))
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
    # into each node, into pairs and the whole node set, and into every
    # node the source reaches (None)
    for host in kernel_hosts():
        g, src = host.graph, host.point
        paths = all_paths(g, src, MAXLEN)
        cyclic = [n for n in g.reachable(src) if returns_home(g, n)]
        nodes = list(g.nodes)
        target_sets = [[n] for n in nodes] + [nodes[::2], nodes[1::3], nodes]
        for dsts in [*target_sets, None]:
            ends = g.reachable(src) if dsts is None else set(dsts)
            want = [w for w in paths if g.walk(src, w) in ends]
            assert list(PathCounts(g, src, dsts).paths(MAXLEN)) == want
            unbounded = PathCounts(g, src, dsts).paths()
            if any(ends & g.reachable(c) for c in cyclic):
                got = list(takewhile(lambda w: len(w) <= MAXLEN, unbounded))
            else:  # finite: no member repeats a node, so all are listed
                got = list(unbounded)
            assert got == want


def test_infinitely_reached_against_closed_paths():
    for host in kernel_hosts():
        g = host.graph
        home = {n for n in g.nodes if returns_home(g, n)}
        for start in g.nodes:
            below = {m for n in home & g.reachable(start) for m in g.reachable(n)}
            assert infinitely_reached(g, start) == below


def test_count_paths_against_enumeration():
    # one table per source and target, read at every bound in turn
    for host in kernel_hosts():
        g, src = host.graph, host.point
        paths = all_paths(g, src, MAXLEN)
        tables = {None: PathCounts(g, src)}
        tables.update((dst, PathCounts(g, src, [dst])) for dst in g.nodes)
        for bound in range(MAXLEN + 2):
            assert tables[None].count(bound) == sum(
                1 for w in paths if len(w) < bound
            )
            for dst in g.nodes:
                assert tables[dst].count(bound) == len(
                    list(PathCounts(g, src, [dst]).paths(bound - 1))
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
    assert tree_match(L.graph, "l", H, "h2") == {"l": "h2", "x": "h3"}
    assert tree_match(L.graph, "l", H, "h3") is None
    for m in morphs:
        assert morphism_errors(m) == []


def test_tree_morphisms_variables_map_anywhere():
    L = rational_of_term(t("f(x)"), prefix="l")
    morphs = find_tree_morphisms(L.graph, "l", F_LOOP.graph)
    assert len(morphs) == 1 and morphs[0].mapping["x"] == "m"
    # an unlabelled root matches every node, labelled or empty
    X = rational_of_term(t("x"), prefix="l")
    H = g_of(["h1", "v"], {"h1": "f"}, {"h1": ("v",)})
    morphs = find_tree_morphisms(X.graph, X.point, H)
    assert [m.mapping[X.point] for m in morphs] == list(H.nodes)
    assert len(morphs) == 2


def test_an_unmapped_successor_breaks_the_morphism():
    """A labelled source node whose successor the node map leaves out is a
    violation, also when the check leaves that successor out."""
    L = rational_of_term(t("f(x)"), prefix="l").graph
    f = GraphMorphism(L, F_LOOP.graph, {"l": "m"})
    with pytest.raises(ValueError) as whole:
        check_morphism(f)
    assert str(whole.value) == (
        "not a graph morphism: successors not preserved at l; node x unmapped"
    )
    with pytest.raises(ValueError) as partial:
        check_morphism(f, ["l"])
    assert str(partial.value) == "not a graph morphism: successors not preserved at l"
    assert morphism_errors(f, ["x"]) == ["node x unmapped"]


# ---------------------------------------------------------------------------
# Fresh node ids


def test_fresh_ids_match_the_namer_they_replaced():
    """With nothing released, `FreshIds(prefix)` takes the ids the old
    namer gave for that prefix, in the same order: random node sets that
    hold some of its ids (with leading zeros and other prefixes' ids among
    them), one or two prefixes drawn from one set, and nodes added between
    takes."""
    rng = random.Random(30)
    for _ in range(400):
        prefixes = rng.sample(["h#", "s#", "g#", "b#", "n"], rng.randint(1, 2))
        nodes = {f"{rng.choice(prefixes)}{rng.randint(0, 12)}" for _ in range(8)}
        nodes |= {f"{prefixes[0]}0{rng.randint(0, 9)}", "a", "h#x", "s#-1"}
        used = set(nodes)
        fresh, ids = ref_fresh_namer(used), {p: FreshIds(p) for p in prefixes}
        for _ in range(rng.randint(1, 20)):
            if rng.random() < 0.3:  # the graph grows between takes
                extra = f"{rng.choice(prefixes)}{rng.randint(0, 30)}"
                nodes.add(extra)
                used.add(extra)
            p = rng.choice(prefixes)
            got = ids[p].take(nodes)
            assert got == fresh(p)
            nodes.add(got)
        assert nodes == used


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


def with_holes_and_names(rng, g):
    """g pointed at its first node, each empty node a hole or a variable
    named x or y."""
    empty = g.varnodes()
    holes = frozenset(n for n in empty if rng.random() < 0.3)
    names = tuple((n, rng.choice("xy")) for n in empty if n not in holes)
    return RationalTerm(g, list(g.nodes)[0], holes, names)


def unfolded(rng, rt):
    """rt's graph in two copies `n~0` and `n~1`, each successor edge to a
    random copy, so both copies of a node are bisimilar to it."""
    g, twice = rt.graph, lambda n: (f"{n}~0", f"{n}~1")
    succs = {
        m: tuple(f"{s}~{rng.randrange(2)}" for s in ss)
        for n, ss in g.succs.items()
        for m in twice(n)
    }
    labels = {m: l for n, l in g.labels.items() for m in twice(n)}
    return RationalTerm(
        g_of([m for n in g.nodes for m in twice(n)], labels, succs),
        f"{rt.point}~0",
        frozenset(m for n in rt.bottoms for m in twice(n)),
        tuple((m, x) for n, x in rt.var_names for m in twice(n)),
    )


SWAP = {"a": "b", "b": "a", "f": "g", "g": "f"}  # symbols of one arity


def changed_once(rng, rt):
    """rt with one label, successor or variable name changed."""
    g = rt.graph
    labels, succs, names = dict(g.labels), dict(g.succs), dict(rt.var_names)
    n = rng.choice([*g.labels, *names])
    if n in names:
        names[n] = "xy"[names[n] == "x"]
    elif succs[n] and rng.random() < 0.5:
        i = rng.randrange(len(succs[n]))
        succs[n] = succs[n][:i] + (rng.choice(list(g.nodes)),) + succs[n][i + 1:]
    elif labels[n] in SWAP:
        labels[n] = SWAP[labels[n]]
    else:  # p is alone at its arity: swap its successors instead
        succs[n] = succs[n][::-1]
    return RationalTerm(
        g_of(g.nodes, labels, succs), rt.point, rt.bottoms,
        tuple(sorted(names.items())),
    )


def test_truncation_to_both_sizes_decides_equality():
    # Moore's bound ("Gedanken-experiments on sequential machines", 1956):
    # two pointed graphs with n nodes between them that differ, differ at
    # an occurrence shorter than n.  Pairs at every two points of a random
    # graph and of an unfolding of it, with one change in half of them, so
    # that equal pairs and pairs differing only deep both occur.
    rng = random.Random(23)
    equal = deep = 0
    for _ in range(400):
        a = with_holes_and_names(rng, random_graph(rng, 6).graph)
        b = unfolded(rng, a)
        if rng.random() < 0.5:
            b = changed_once(rng, b)
        n = len(a.graph.nodes) + len(b.graph.nodes)
        for x in a.graph.nodes:
            for y in b.graph.nodes:
                left = RationalTerm(a.graph, x, a.bottoms, a.var_names)
                right = RationalTerm(b.graph, y, b.bottoms, b.var_names)
                same = left == right
                assert truncated_equal(left, right, n) == same
                equal += same
                deep += not same and truncated_equal(left, right, 3)
    assert equal > 1000 and deep > 20


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


# Differential test of the pair walk (`bisim_equal`, `rational_approx_leq`,
# `truncated_equal`) and the splitter refinement (`minimize`) against the
# Moore refinement by rounds over a disjoint union and the recursive
# closures they replaced, kept as references in `tests/reference.py`.


def decorated(g, bottoms=frozenset()):
    """Variants of a carrier: as given, with the non-hole empty nodes renamed
    onto the names x and y (so distinct nodes render alike), and with every
    empty node a hole."""
    empty = [n for n in g.nodes if n not in g.labels]
    free = [n for n in empty if n not in bottoms]
    if not empty:
        return [(bottoms, ())]
    names = tuple((n, "xy"[i % 2]) for i, n in enumerate(free))
    return [(bottoms, ()), (bottoms, names), (frozenset(empty), ())]


def ring(n, pattern="f", prefix="r"):
    ids = [f"{prefix}{i}" for i in range(n)]
    return g_of(
        ids,
        {m: pattern[i % len(pattern)] for i, m in enumerate(ids)},
        {m: (ids[(i + 1) % n],) for i, m in enumerate(ids)},
    )


def lasso(tail, loop, last="f"):
    """A chain of `tail` f-nodes into a ring of `loop` nodes whose last node
    is labelled `last`."""
    ids = [f"s{i}" for i in range(tail + loop)]
    labels = {m: "f" for m in ids}
    labels[ids[-1]] = last
    succs = {m: (ids[i + 1],) for i, m in enumerate(ids[:-1])}
    succs[ids[-1]] = (ids[tail],)
    return g_of(ids, labels, succs)


def chain(n, end=None, pattern="f"):
    """n nodes labelled by `pattern` (f-nodes by default) ending in an
    `end`-node, or in an empty node if end is None."""
    ids = [f"c{i}" for i in range(n + 1)]
    labels = {m: pattern[i % len(pattern)] for i, m in enumerate(ids[:-1])}
    if end is not None:
        labels[ids[-1]] = end
    return g_of(ids, labels, {m: (ids[i + 1],) for i, m in enumerate(ids[:-1])})


def binary_ring(n, k):
    """p-nodes on a ring whose second edge jumps k ahead."""
    ids = [f"b{i}" for i in range(n)]
    return g_of(
        ids,
        {m: "p" for m in ids},
        {m: (ids[(i + 1) % n], ids[(i + k) % n]) for i, m in enumerate(ids)},
    )


def marker(n, at=-1):
    """A word of n letters, all f but one g at index `at`: refinement by
    rounds needs about n of them to tell its rotations apart."""
    w = ["f"] * n
    w[at] = "g"
    return "".join(w)


def two_arities(n):
    """A ring of f-nodes where every third node also points to itself, so
    one label is used at two arities."""
    ids = [f"t{i}" for i in range(n)]
    return g_of(
        ids,
        {m: "f" for m in ids},
        {m: (ids[(i + 1) % n],) + ((m,) if i % 3 == 0 else ()) for i, m in enumerate(ids)},
    )


def ladder(n):
    """p-nodes l_i = p(l_i+1, r_i+1) and r_i = p(l_i+1, l_i+1) over a-leaves:
    binary nodes whose two successors are shared."""
    ls, rs = [f"l{i}" for i in range(n + 1)], [f"m{i}" for i in range(n + 1)]
    labels = {m: "p" for m in ls[:-1] + rs[:-1]}
    labels.update({ls[-1]: "a", rs[-1]: "a"})
    succs = {ls[i]: (ls[i + 1], rs[i + 1]) for i in range(n)}
    succs.update({rs[i]: (ls[i + 1], ls[i + 1]) for i in range(n)})
    return g_of(ls + rs, labels, succs)


def with_empty_nodes(n, k):
    """A ring of n p-nodes whose second successors cycle through k empty
    nodes."""
    ids, xs = [f"e{i}" for i in range(n)], [f"x{j}" for j in range(k)]
    return g_of(
        ids + xs,
        {m: "p" for m in ids},
        {m: (ids[(i + 1) % n], xs[i % k]) for i, m in enumerate(ids)},
    )


def marked_larger_half(f, g, e):
    """f1 = f2 = f(a), f3 = f(f(...)), g1 = g(f1), g4 = g(g1) and
    g2 = g3 = g(g(...)).  The leaf's block splits the f-block into the
    marked {f1, f2} and the smaller {f3}, and only the marked, larger part
    tells g1 from g2 and g3.  The prefixes f, g, e of the node ids set the
    order in which the blocks first appear."""
    labels = {f"{f}1": "f", f"{f}2": "f", f"{f}3": "f", f"{e}1": "a"}
    labels.update((f"{g}{i}", "g") for i in range(1, 5))
    succs = {f"{f}1": (f"{e}1",), f"{f}2": (f"{e}1",), f"{f}3": (f"{f}3",)}
    succs.update({f"{g}1": (f"{f}1",), f"{g}2": (f"{g}2",), f"{g}3": (f"{g}2",)})
    succs[f"{g}4"] = (f"{g}1",)
    return g_of(sorted(labels), labels, succs)


def split_carriers():
    """Carriers on which the splitter refinement splits many times: marker
    rings, lassos and chains up to 200 nodes, shared successors, one label
    at two arities, and several empty nodes."""
    for n in (7, 50, 120):
        yield ring(n, marker(n))
        yield ring(n, marker(n, 0))
        yield ring(n, marker(n, n // 2))
        yield chain(n, "a", marker(n))
        yield chain(n, None, marker(n, 0))
    yield ring(200, marker(200))
    yield ring(200, marker(25))
    for tail, loop in ((100, 100), (60, 40), (20, 100)):
        yield lasso(tail, loop, "g")
    yield lasso(1, 99)
    for n in (6, 40):
        yield binary_ring(n, 0)
        yield binary_ring(n, 1)
    yield binary_ring(40, 7)
    yield ladder(30)
    for n in (3, 9, 40):
        yield two_arities(n)
    yield g_of(
        ["a0", "a1", "h", "k", "x"],
        {"a0": "f", "a1": "f", "h": "p", "k": "p"},
        {"a0": (), "a1": ("a0",), "h": ("a0", "a1"), "k": ("a1", "x")},
    )
    for n, k in ((6, 3), (12, 4), (30, 7)):
        yield with_empty_nodes(n, k)
    for prefixes in permutations("abc"):
        yield marked_larger_half(*prefixes)
    yield g_of(["x", "y", "z"], {}, {})


def shape_carriers():
    yield ring(1)
    for n in (2, 3, 4, 5, 6):  # equal, coprime and non-minimal lengths
        yield ring(n)
        yield ring(n, "fg")
        yield ring(n, "ffg")
        yield binary_ring(n, 2)
    for tail, loop in ((0, 3), (1, 2), (2, 3), (3, 1), (1, 4)):
        yield lasso(tail, loop)
        yield lasso(tail, loop, "g")
    for n in (0, 1, 3, 4):
        yield chain(n)
        yield chain(n, "a")


def differential_groups():
    """(a, b, point pairs), up to swapping a and b: each gen_case host with
    its decorations on either side, at every two of its nodes; and every
    two shape carriers with their decorations, at their first two nodes."""
    for host in kernel_hosts():
        g = host.graph
        variants = [RationalTerm(g, list(g.nodes)[0], *d) for d in decorated(g, host.bottoms)]
        for i, a in enumerate(variants):
            for j, b in enumerate(variants[i:]):
                pairs = list(product(g.nodes, repeat=2))
                yield a, b, pairs if j else [(p, q) for p, q in pairs if p <= q]
    shapes = list(shape_carriers())
    for i, ga in enumerate(shapes):
        for gb in shapes[i:]:
            for da, db in product(decorated(ga), decorated(gb)):
                pa, pb = list(ga.nodes)[:2], list(gb.nodes)[:2]
                a, b = RationalTerm(ga, pa[0], *da), RationalTerm(gb, pb[0], *db)
                yield a, b, list(product(pa, pb))


def test_pair_walk_matches_the_references():
    for a, b, pairs in differential_groups():
        same = ref_bisim(a, b)
        for p, q in pairs:
            x, y = replace(a, point=p), replace(b, point=q)
            assert bisim_equal(x, y) == bisim_equal(y, x) == same(p, q)
            assert rational_approx_leq(x, y) == ref_approx_leq(x, y)
            assert rational_approx_leq(y, x) == ref_approx_leq(y, x)
            ref_eq = ref_truncated_equal(x, y)
            for depth in range(2 * max(len(a.graph.nodes), len(b.graph.nodes)) + 1):
                assert truncated_equal(x, y, depth) == ref_eq(depth)


def test_class_map_minimize_matches_the_reference():
    carriers = [host.graph for host in kernel_hosts()]
    carriers += list(shape_carriers()) + list(split_carriers())
    for g in carriers:
        q, rep = minimize(g)
        ref_q, ref_rep = ref_minimize(g)
        assert rep == ref_rep
        assert list(q.nodes) == list(ref_q.nodes)
        assert (q.labels, q.succs) == (ref_q.labels, ref_q.succs)


def random_carrier(rng, max_nodes=14):
    """Few labels, f at two arities, and some empty nodes, so that classes
    merge and split."""
    ids = [f"n{i}" for i in range(1, rng.randint(2, max_nodes) + 1)]
    labels, succs = {}, {}
    for n in ids:
        if rng.random() < 0.85:
            labels[n], k = rng.choice([("f", 1), ("f", 2), ("g", 1), ("a", 0)])
            succs[n] = tuple(rng.choice(ids) for _ in range(k))
    return g_of(ids, labels, succs)


def test_reflexive_pairs_are_skipped_only_between_like_views():
    """Views of one graph with the same holes and names skip the pairs
    (x, x).  Their verdicts, in all three modes, equal those of the full
    walk, which a copy of the graph forces, on random views whose holes and
    names are the same or differ."""
    rng = random.Random(67)
    like = 0
    for _ in range(400):
        g = random_carrier(rng, 8)
        copy = g_of(g.nodes, g.labels, g.succs)
        empty = [n for n in g.nodes if not g.is_labelled(n)]

        def tags():
            holes = frozenset(n for n in empty if rng.random() < 0.5)
            names = tuple((n, rng.choice("xy")) for n in empty if rng.random() < 0.5)
            return holes, names

        ha, na = tags()
        hb, nb = tags()
        if rng.random() < 0.5:
            hb = ha
        if rng.random() < 0.5:
            nb = na
        like += (ha, na) == (hb, nb)
        for _ in range(4):
            p, q = rng.choice(list(g.nodes)), rng.choice(list(g.nodes))
            a = RationalTerm(g, p, ha, na)
            b, full = RationalTerm(g, q, hb, nb), RationalTerm(copy, q, hb, nb)
            assert bisim_equal(a, b) == bisim_equal(a, full)
            assert rational_approx_leq(a, b) == rational_approx_leq(a, full)
            assert rational_approx_leq(b, a) == rational_approx_leq(full, a)
            for depth in range(5):
                assert truncated_equal(a, b, depth) == truncated_equal(a, full, depth)
    assert like >= 50


def test_minimize_classes_are_the_pointed_bisimulation_classes():
    # the refinement against the independent pair walk behind ==
    rng = random.Random(61)
    for _ in range(150):
        g = random_carrier(rng)
        _, rep = minimize(g)
        labelled = [n for n in g.nodes if g.is_labelled(n)]
        for u, v in product(labelled, repeat=2):
            assert (rep[u] == rep[v]) == (RationalTerm(g, u) == RationalTerm(g, v))


def test_minimize_on_5000_node_marker_carriers():
    # class counts known from the construction; refinement by rounds takes
    # tens of seconds on each of these
    n = 5000
    for g, classes in (
        (chain(n - 1, "a", marker(n - 1)), n),
        (ring(n, marker(n)), n),
        (ring(n, marker(n, 0)), n),
        (ring(n, marker(100)), 100),
        (lasso(n // 2, n // 2, "g"), n),
    ):
        q, rep = minimize(g)
        assert len(q.nodes) == classes
        assert len(set(rep.values())) == classes


def refine_calls(g):
    """Builtin calls made in `_refine`'s own frame while it refines g's
    labels: a measure of its work that, unlike a timing, is the same on
    every machine."""
    code, calls = graphs._refine.__code__, 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call" and frame.f_code is code:
            calls += 1

    cls = {n: g.labels.get(n, (n,)) for n in g.nodes}
    sys.setprofile(count)
    try:
        graphs._refine(cls, g.succs)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "family",
    [
        lambda n: ring(n, marker(n)),
        lambda n: ring(n, marker(n, 0)),
        lambda n: chain(n, "a", marker(n)),
        lambda n: lasso(n // 2, n // 2, "g"),
        lambda n: ladder(n // 2),
    ],
    ids=["ring", "ring-marker-first", "chain", "lasso", "ladder"],
)
def test_refinement_work_grows_near_linearly(family):
    # O(m log n): doubling n at most a little more than doubles the work;
    # queueing the larger half of a split is quadratic on these families
    # and about quadruples it
    small, large = refine_calls(family(1000)), refine_calls(family(2000))
    assert large < 2.5 * small


def test_labels_of_different_arity_never_agree():
    # the old closures zipped successors, so f(x) and f(x, y) agreed on them
    one = RationalTerm(g_of(["n", "x"], {"n": "f"}, {"n": ("x",)}), "n")
    two = RationalTerm(g_of(["n", "x", "y"], {"n": "f"}, {"n": ("x", "y")}), "n")
    assert not bisim_equal(one, two)
    assert not rational_approx_leq(one, two)
    for d in range(4):
        assert truncated_equal(one, two, d) == (one.unravel(d) == two.unravel(d))


# Verdicts on 3,000-node carriers, read off their shape: the walk must not
# recurse, and equality must not cost time quadratic in the carrier.

BIG = 3000


def big_cases():
    """(a, b, bisimilar, first depth at which they differ or None)."""
    loop = RationalTerm(ring(1, prefix="l"), "l0")
    yield RationalTerm(ring(BIG), "r0"), loop, True, None
    yield RationalTerm(ring(BIG), "r0"), RationalTerm(ring(BIG // 2, prefix="q"), "q0"), True, None
    yield RationalTerm(ring(BIG, "f" * (BIG - 1) + "g"), "r0"), loop, False, BIG
    yield RationalTerm(lasso(BIG // 2, BIG // 2), "s0"), loop, True, None
    yield RationalTerm(lasso(BIG // 2, BIG // 2, "g"), "s0"), loop, False, BIG
    yield RationalTerm(chain(BIG - 1, "a"), "c0"), RationalTerm(chain(BIG - 1), "c0"), False, BIG
    yield RationalTerm(chain(BIG - 1, "a"), "c0"), RationalTerm(chain(BIG - 1, "a"), "c0"), True, None


def test_comparisons_on_3000_node_carriers():
    for a, b, same, differ_at in big_cases():
        assert bisim_equal(a, b) == same
        assert rational_approx_leq(a, b) == same
        assert rational_approx_leq(b, a) == same
        assert truncated_equal(a, b, 2 * BIG) == same
        if differ_at is not None:
            assert truncated_equal(a, b, differ_at - 1)
            assert not truncated_equal(a, b, differ_at)
    coprime = RationalTerm(ring(BIG), "r0"), RationalTerm(ring(BIG - 1, prefix="q"), "q0")
    assert bisim_equal(*coprime) and truncated_equal(*coprime, 2 * BIG)
    hole_end = RationalTerm(chain(BIG - 1), "c0", frozenset({f"c{BIG - 1}"}))
    full = RationalTerm(chain(BIG - 1, "a"), "c0")
    assert rational_approx_leq(hole_end, full)
    assert not rational_approx_leq(full, hole_end)
    assert truncated_equal(hole_end, full, BIG - 1)
    assert not truncated_equal(hole_end, full, BIG)


# ---------------------------------------------------------------------------
# The approximation order on rational terms


def counted(term):
    """The nodes of a term that `max_size` counts: all but the holes."""
    return 0 if term.is_bottom else 1 + sum(counted(c) for c in term.children)


def test_unravel_matches_the_recursive_reference():
    for host in kernel_hosts():
        g = host.graph
        for bottoms, names in decorated(g, host.bottoms):
            ren = dict(names)
            for n in g.nodes:
                for depth in range(6):
                    want = ref_unravel(g, n, depth, bottoms, ren)
                    assert unravel(g, n, depth, bottoms, ren) == want
            size = counted(want)  # the last node at depth 5
            for max_size in (max(size - 1, 0), size):
                outcomes = []
                for fn in (ref_unravel, unravel):
                    try:
                        outcomes.append(fn(g, n, 5, bottoms, ren, max_size))
                    except ValueError as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1]
                assert isinstance(outcomes[0], str) == (max_size < size)


def distinct_objects(term):
    seen, todo = {}, [term]
    while todo:
        s = todo.pop()
        if id(s) not in seen:
            seen[id(s)] = s
            todo.extend(s.children)
    return len(seen)


def test_unravel_shares_one_subterm_per_node_and_depth():
    # n = p(n, n): the unraveling to depth 18 is a tree of 2^18 - 1 operators
    g = g_of(["n"], {"n": "p"}, {"n": ("n", "n")})
    depth = 18
    term = unravel(g, "n", depth)
    assert distinct_objects(term) <= len(g.nodes) * (depth + 1)
    assert term == ref_unravel(g, "n", depth)
    size = 2**depth - 1
    assert unravel(g, "n", depth, max_size=size) == term
    with pytest.raises(ValueError, match="size budget"):
        unravel(g, "n", depth, max_size=size - 1)
    for host in kernel_hosts():
        g = host.graph
        for n in g.nodes:
            term = unravel(g, n, 12, host.bottoms)
            assert distinct_objects(term) <= len(g.nodes) * 13


def test_unravel_a_5000_node_ring_to_depth_5000():
    g = ring(5000)
    term = unravel(g, "r0", 5000)
    for _ in range(5000):
        assert term.symbol == "f" and len(term.children) == 1
        term = term.children[0]
    assert term is BOTTOM
    with pytest.raises(ValueError, match="size budget"):
        unravel(g, "r0", 5000, max_size=4999)


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
    f = GraphMorphism(L.graph, H, tree_match(L.graph, "l", H, "h"))
    sigma = induced_substitution(f)
    assert sigma["x"].unravel(4) == t("a")
