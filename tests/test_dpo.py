"""Double-pushout steps on small hosts, worked out by hand."""

import random
from collections import Counter

import pytest

import tgr.dpo
import tgr.graphs
from tgr.dpo import (
    EditableGraph,
    Stepper,
    derive,
    derive_rational,
    find_matches,
    match_at,
    pushout,
    pushout_complement,
    track_substitution,
)
from tgr.graphs import (
    FreshIds,
    RationalTerm,
    TermGraph,
    check_morphism,
    predecessors,
    sorted_nodes,
    unravel,
)
from tgr.harness import gen_case, induced_parallel_redex, rewrite_sequence
from tgr.parallel import enumerate_occurrences
from tgr.rules import (
    TGRS,
    TRS,
    EvaluationRule,
    RewriteRule,
    graph_of_rule,
    graph_trs,
)
from tgr.terms import BOTTOM, Signature, parse_term, var
from tests.reference import ref_rewrite

SIG = Signature.of(
    {"a": 0, "b": 0, "f": 1, "g": 1, "cdr": 1, "cons": 2, "p": 2}
)


def t(text):
    return parse_term(SIG, text)


def g_rule(name, lhs, rhs):
    return graph_of_rule(RewriteRule.of(name, t(lhs), t(rhs)), SIG)


R_F = g_rule("Rf", "f(x)", "g(x)")
R_CDR = g_rule("Rcdr", "cdr(cons(x, y))", "y")
R_FGG = g_rule("Rfgg", "f(x)", "g(g(x))")
R_FST = g_rule("Rfst", "p(x, y)", "x")


def graph(nodes, labels, succs):
    return TermGraph.of(nodes, labels, succs)


def the_match(rule, host, at):
    found = [m for m in find_matches(host, rule) if m.root_image == at]
    assert len(found) == 1
    return found[0]


# ---------------------------------------------------------------------------
# Matching


def test_find_matches_ordered_by_rule_then_node():
    host = graph(
        ["n1", "n2", "n3"], {"n1": "f", "n2": "f", "n3": "a"},
        {"n1": ("n2",), "n2": ("n3",)},
    )
    r_a = g_rule("Ra", "f(x)", "g(x)")
    r_b = g_rule("Rb", "f(x)", "a")
    ms = find_matches(host, TGRS(SIG, (r_b, r_a)))
    assert [(m.rule.name, m.root_image) for m in ms] == [
        ("Ra", "n1"), ("Ra", "n2"), ("Rb", "n1"), ("Rb", "n2"),
    ]


def test_match_maps_the_whole_lhs():
    host = graph(
        ["r", "k", "u", "v"], {"r": "cdr", "k": "cons", "u": "a"},
        {"r": ("k",), "k": ("u", "v")},
    )
    (m,) = find_matches(host, R_CDR)
    assert m.g.mapping == {"l": "r", "l.1": "k", "x": "u", "y": "v"}


def test_variables_may_match_labelled_nodes():
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    (m,) = find_matches(host, R_F)
    assert m.g.mapping["x"] == "c"


# ---------------------------------------------------------------------------
# Pushout complement


def editable(G):
    return EditableGraph(set(G.nodes), dict(G.labels), dict(G.succs))


def test_pushout_complement_erases_only_the_root_content():
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    g = editable(host)
    assert pushout_complement(R_F, {"l": "r", "x": "c"}, g) == ("c",)
    assert g == ({"r", "c"}, {"c": "a"}, {"c": ()})
    drv = derive(the_match(R_F, host, "r"))
    assert list(drv.D.nodes) == list(host.nodes)
    assert drv.D.is_empty_node("r")
    assert drv.D.labels["c"] == "a"
    assert drv.d.mapping == {"l": "r", "x": "c"}


def test_pushout_complement_identification_condition():
    loop = graph(["n"], {"n": "f"}, {"n": ("n",)})
    r_ff = g_rule("Rff", "f(f(x))", "a")
    (m,) = find_matches(loop, r_ff)  # root and inner f both land on n
    g = editable(loop)
    with pytest.raises(ValueError, match="identification"):
        pushout_complement(r_ff, m.g.mapping, g)
    assert g == editable(loop)  # raised before any edit


def test_variable_on_root_image_is_fine():
    # a variable (unlabelled in L) may share the root's image: cdr over
    # its own result, the step that produces a hole.
    host = graph(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    )
    m = the_match(R_CDR, host, "c")
    assert m.g.mapping["y"] == "c"
    assert derive(m).D.is_empty_node("c")


# ---------------------------------------------------------------------------
# Pushout


def test_pushout_square_commutes_and_covers():
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    m = the_match(R_F, host, "r")
    drv = derive(m)
    d, H, h, b = drv.d, drv.H, drv.h, drv.b
    for n in R_F.K.nodes:
        assert h.mapping[R_F.r[n]] == b.mapping[d.mapping[n]]
    assert set(h.mapping.values()) | set(b.mapping.values()) == set(H.nodes)


def test_pushout_fresh_nodes_for_new_structure():
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    drv = derive(the_match(R_FGG, host, "r"))
    assert list(drv.H.nodes) == ["c", "r", "h#0"]
    assert_node_order(drv.D, drv.H)
    assert drv.H.labels["r"] == "g"
    assert drv.H.succs["r"] == ("h#0",)
    assert drv.H.labels["h#0"] == "g"
    assert drv.H.succs["h#0"] == ("c",)


def test_pushout_merges_keep_least_host_id():
    # cdr(cons(a, b)): the root is glued onto the second argument, so the
    # class {r, yb} keeps id r but inherits yb's label.
    host = graph(
        ["r", "k", "xa", "yb"], {"r": "cdr", "k": "cons", "xa": "a", "yb": "b"},
        {"r": ("k",), "k": ("xa", "yb")},
    )
    drv = derive(the_match(R_CDR, host, "r"))
    assert drv.track["yb"] == "r"
    assert list(drv.H.nodes) == ["k", "r", "xa"]
    assert_node_order(drv.D, drv.H)
    assert drv.H.labels["r"] == "b"
    assert drv.H.succs["k"] == ("xa", "r")
    assert unravel(drv.H, "r", 4) == t("b")


def test_pushout_conflicting_content_rejected():
    # a hand-built rule whose right leg identifies both variables forces
    # a and b onto one node.
    L = graph(["l", "x", "y"], {"l": "p"}, {"l": ("x", "y")})
    K = graph(["l", "x", "y"], {}, {})
    R = graph(["v"], {}, {})
    er = EvaluationRule("bad", L, "l", K, R, {"l": "v", "x": "v", "y": "v"})
    host = graph(
        ["r", "u", "w"], {"r": "p", "u": "a", "w": "b"},
        {"r": ("u", "w")},
    )
    m = the_match(er, host, "r")
    g = editable(host)
    pushout_complement(er, m.g.mapping, g)
    D = editable(g)
    with pytest.raises(ValueError, match="conflicting"):
        pushout(er, m.g.mapping, g, predecessors(host), FreshIds())
    assert g == D  # raised before any edit
    with pytest.raises(ValueError, match="conflicting"):
        derive(m)


# ---------------------------------------------------------------------------
# Derivations


def test_derive_simple_step():
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    drv = derive(the_match(R_F, host, "r"))
    assert unravel(drv.H, "r", 4) == t("g(a)")
    assert drv.track == {"r": "r", "c": "c"}


def test_derive_inside_a_cycle():
    host = graph(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    )
    drv = derive(the_match(R_CDR, host, "c"))
    assert drv.H.is_empty_node("c")
    assert drv.H.succs["k"] == ("u", "c")
    assert drv.track == {"c": "c", "k": "k", "u": "u"}


def test_track_substitution_variables_and_holes():
    host = graph(["r", "v"], {"r": "f"}, {"r": ("v",)})
    drv = derive(the_match(R_F, host, "r"))
    assert track_substitution(drv) == {"v": var("v")}

    cyc = graph(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    )
    drv = derive(the_match(R_CDR, cyc, "c"))
    assert track_substitution(drv) == {"c": BOTTOM}


def test_track_substitution_respects_existing_holes():
    host = graph(["r", "v"], {"r": "f"}, {"r": ("v",)})
    drv = derive(the_match(R_F, host, "r"))
    assert track_substitution(drv, frozenset(["v"])) == {"v": BOTTOM}


def test_track_substitution_rejects_identified_variables():
    L = graph(["l", "x", "y"], {"l": "p"}, {"l": ("x", "y")})
    K = graph(["l", "x", "y"], {}, {})
    R = graph(["v"], {}, {})
    er = EvaluationRule("bad", L, "l", K, R, {"l": "v", "x": "v", "y": "v"})
    host = graph(["r", "u", "w"], {"r": "p"}, {"r": ("u", "w")})
    drv = derive(the_match(er, host, "r"))
    with pytest.raises(ValueError, match="same node"):
        track_substitution(drv)


def test_derive_rational_propagates_point_and_names():
    host = graph(["r", "v"], {"r": "f"}, {"r": ("v",)})
    rt = RationalTerm(host, "r", frozenset(), (("v", "acc"),))
    drv, after = derive_rational(rt, the_match(R_F, host, "r"))
    assert after.point == "r"
    assert after.var_names == (("v", "acc"),)
    assert after.unravel(4) == t("g(acc)")


def test_derive_rational_collapse_to_hole():
    host = graph(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    )
    rt = RationalTerm(host, "c")
    _, after = derive_rational(rt, the_match(R_CDR, host, "c"))
    assert after.point == "c"
    assert after.bottoms == frozenset(["c"])
    assert after.unravel(8) == BOTTOM


def test_derive_rational_rejects_foreign_host():
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    other = graph(["r", "c"], {"r": "f", "c": "b"}, {"r": ("c",)})
    m = the_match(R_F, other, "r")
    with pytest.raises(ValueError, match="carrier"):
        derive_rational(RationalTerm(host, "r"), m)


def test_induced_parallel_redex_on_a_loop():
    loop = graph(["n"], {"n": "f"}, {"n": ("n",)})
    rt = RationalTerm(loop, "n")
    (m,) = find_matches(loop, R_F)
    rs = induced_parallel_redex(rt, m, SIG)
    assert not rs.is_finite()
    assert rs.count_below(3) == 3  # (), (1,), (1, 1)


def test_induced_parallel_redex_finite_host():
    host = graph(
        ["n1", "n2", "n3"], {"n1": "f", "n2": "f", "n3": "a"},
        {"n1": ("n2",), "n2": ("n3",)},
    )
    rt = RationalTerm(host, "n1")
    m = the_match(R_F, host, "n2")
    rs = induced_parallel_redex(rt, m, SIG)
    assert rs.is_finite()
    assert enumerate_occurrences(rs, maxlen=8) == [(1,)]


# ---------------------------------------------------------------------------
# Local steps against the whole-graph reference


def assert_node_order(*graphs):
    """Each graph's node index iterates in node_key order."""
    for g in graphs:
        assert list(g.nodes) == sorted_nodes(g.nodes)


def assert_same_run(host, tgrs, max_steps):
    """The Stepper's run against `ref_rewrite`, step by step: each recorded
    step replayed by `derive_rational` must give the reference's H, h and
    track with a full morphism check, and the Stepper's final term must be
    both the replay's and the reference's, node order included.  Returns it
    with the steps."""
    got, steps, nf = rewrite_sequence(host, tgrs, max_steps)
    want, ref_steps, ref_nf = ref_rewrite(host, tgrs, max_steps)
    assert [(step.rule.name, step.at) for step in steps] == [
        (name, at) for name, at, _, _, _ in ref_steps
    ]
    replayed = host
    for step, (_, _, H, h, track) in zip(steps, ref_steps):
        m = match_at(step.rule, replayed.graph, step.at)
        drv, replayed = derive_rational(replayed, m)
        assert drv.track == track
        assert drv.h.mapping == h
        assert (list(drv.H.nodes), drv.H.labels, drv.H.succs) == (
            list(H.nodes), H.labels, H.succs,
        )
        assert_node_order(drv.D, drv.H)
        for f in (drv.match.g, drv.h, drv.b):
            check_morphism(f)  # the full check the step itself skips
    assert nf == ref_nf
    assert_node_order(got.graph)
    for other in (replayed, want):
        assert (list(got.graph.nodes), got.graph.labels, got.graph.succs) == (
            list(other.graph.nodes), other.graph.labels, other.graph.succs,
        )
        assert (got.point, got.bottoms, got.var_names) == (
            other.point, other.bottoms, other.var_names,
        )
    return got, steps


RING_SIG = Signature.of(
    {"a": 0, "f": 1, "g": 1, "I": 1, "d": 1, "p": 2, "cdr": 1, "cons": 2}
)
RING_TGRS = graph_trs(
    TRS(
        RING_SIG,
        tuple(
            RewriteRule.of(name, parse_term(RING_SIG, lhs), parse_term(RING_SIG, rhs))
            for name, lhs, rhs in (
                ("Rf", "f(x)", "g(x)"),
                ("RI", "I(x)", "x"),
                ("Rd", "d(x)", "p(x, x)"),
                ("Rcdr", "cdr(cons(x, y))", "y"),
            )
        ),
    )
)
# cdr-I-cons only becomes a cdr redex once the I below it collapses, which a
# match index must notice at the cdr although the cdr itself did not change.
RING_TOKENS = [["f"], ["g"], ["I"], ["d"], ["p"], ["cdr", "cons"], ["cdr", "I", "cons"]]


def ring_host(rng, family, n):
    """An n-node ring, lasso or DAG over the symbols of RING_TGRS: a body
    of n-2 nodes, a constant and a variable; p and cons add chords (forward
    only in a DAG, and in a lasso's tail)."""
    labels = []
    while len(labels) < n - 2:
        labels.extend(rng.choice(RING_TOKENS))
    body = [f"v{i}" for i in range(n - 2)]
    labels = labels[: len(body)]
    start = len(body) // 2 if family == "lasso" else 0
    leaves = ["c", "x"]

    def nxt(i):
        if i + 1 < len(body):
            return body[i + 1]
        return "c" if family == "dag" else body[start]

    def chord(i):
        if family == "ring":
            return rng.choice(body + leaves)
        low = start if family == "lasso" and i >= start else i + 1
        return rng.choice(body[low:] + leaves)

    spec = {}
    for i, (node, lbl) in enumerate(zip(body, labels)):
        arity = RING_SIG.arity(lbl)
        succ = [nxt(i)] + [chord(i) for _ in range(arity - 1)]
        rng.shuffle(succ)
        spec[node] = (lbl, tuple(succ))
    spec["c"] = ("a", ())
    graph = TermGraph.of(
        body + leaves,
        {n: lbl for n, (lbl, _) in spec.items()},
        {n: ss for n, (_, ss) in spec.items()},
    )
    return RationalTerm(graph, body[0])


@pytest.mark.parametrize("chunk", range(3))
def test_local_steps_match_the_reference_on_generated_cases(chunk):
    fresh = 0
    for seed in range(100 * chunk, 100 * chunk + 100):
        case = gen_case(random.Random(seed))
        got, _ = assert_same_run(case.host, case.tgrs(), 20)
        fresh += any(n.startswith("h#") for n in got.graph.nodes)
    assert fresh > 10  # steps added h#k nodes, whose place the order checks


def test_local_steps_match_the_reference_on_hand_built_rules():
    # p(x, y) -> g(g(w)) with x and y glued into w: the two a's merge, and
    # the fresh id must skip h#0, which the step merges away.
    L = graph(["l", "x", "y"], {"l": "p"}, {"l": ("x", "y")})
    R = graph(["v", "u", "w"], {"v": "g", "u": "g"}, {"v": ("u",), "u": ("w",)})
    merge = EvaluationRule(
        "Rm", L, "l", graph(L.nodes, {}, {}), R, {"l": "v", "x": "w", "y": "w"}
    )
    host = graph(
        ["r", "m", "h#0"], {"r": "p", "m": "a", "h#0": "a"},
        {"r": ("h#0", "m")},
    )
    got, _ = assert_same_run(RationalTerm(host, "r"), TGRS(SIG, (merge,)), 5)
    assert list(got.graph.nodes) == ["m", "r", "h#1"]

    # f(x) -> g(a) with x glued into the a: a hole gains content and must
    # lose its hole tag; the named variable beside it keeps its name.
    L = graph(["l", "x"], {"l": "f"}, {"l": ("x",)})
    R = graph(["v", "u"], {"v": "g", "u": "a"}, {"v": ("u",)})
    fill = EvaluationRule(
        "Rh", L, "l", graph(L.nodes, {}, {}), R, {"l": "v", "x": "u"}
    )
    host = graph(
        ["r", "z", "k", "y"], {"r": "p", "k": "f"},
        {"r": ("k", "y"), "k": ("z",)},
    )
    rt = RationalTerm(host, "r", frozenset(["z"]), (("y", "acc"),))
    got, _ = assert_same_run(rt, TGRS(SIG, (fill,)), 5)
    assert got.bottoms == frozenset() and got.var_names == (("y", "acc"),)
    assert got.unravel(3) == t("p(g(a), acc)")


def test_local_steps_reuse_the_fresh_ids_merges_free(monkeypatch):
    # f(x) -> g(g(g(x))) gives two fresh ids a step and g(x) -> x merges
    # them away again, the host's own h#1 among them: each step takes the
    # least ids D lacks, as the whole-graph reference names them.
    taken = []
    take = tgr.graphs.FreshIds.take
    monkeypatch.setattr(
        tgr.graphs.FreshIds,
        "take",
        lambda ids, nodes: taken.append(take(ids, nodes)) or taken[-1],
    )
    ids = ["a0", "a1", "h#1", "a3", "a4"]
    ring = graph(
        ids, {m: "f" for m in ids}, {m: (ids[(i + 1) % 5],) for i, m in enumerate(ids)}
    )
    rules = TGRS(SIG, (g_rule("Ra", "g(x)", "x"), g_rule("Rf3", "f(x)", "g(g(g(x)))")))
    assert_same_run(RationalTerm(ring, "a0"), rules, 40)
    assert taken[:6] == ["h#0", "h#2", "h#0", "h#2", "h#0", "h#1"]


def test_fresh_ids_cost_a_few_probes_per_step(monkeypatch):
    """Over 2,000 steps of f(x) -> g(h(x)) on an f-ring, each giving its h
    node a fresh id, the stepper asks its node set about h#k ids at most
    three times a step: it does not scan up from h#0 every time (which
    made 2,003,000 probes)."""
    probes = [0]

    class Counted(set):
        def __contains__(self, n):
            probes[0] += n.startswith("h#")
            return set.__contains__(self, n)

    editable_graph = tgr.dpo.EditableGraph
    monkeypatch.setattr(
        tgr.dpo,
        "EditableGraph",
        lambda nodes, labels, succs: editable_graph(Counted(nodes), labels, succs),
    )
    sig = Signature.of({"f": 1, "g": 1, "h": 1})
    rule = RewriteRule.of("Rf", parse_term(sig, "f(x)"), parse_term(sig, "g(h(x))"))
    ids = [f"n{i}" for i in range(2000)]
    succs = {m: (ids[(i + 1) % len(ids)],) for i, m in enumerate(ids)}
    ring = RationalTerm(TermGraph.of(ids, dict.fromkeys(ids, "f"), succs), "n0")
    _, steps, nf = rewrite_sequence(ring, graph_trs(TRS(sig, (rule,))), 2000)
    assert nf and len(steps) == 2000
    assert 2000 <= probes[0] <= 3 * 2000


def test_stepper_and_derive_reject_the_same_identification():
    loop = graph(["n"], {"n": "f"}, {"n": ("n",)})
    r_ff = g_rule("Rff", "f(f(x))", "g(x)")
    (m,) = find_matches(loop, r_ff)
    with pytest.raises(ValueError, match="identification") as via_derive:
        derive(m)
    run = Stepper(RationalTerm(loop, "n"), TGRS(SIG, (r_ff,)), 5)
    with pytest.raises(ValueError, match="identification") as via_stepper:
        list(run)
    assert str(via_stepper.value) == str(via_derive.value)
    with pytest.raises(RuntimeError, match="spent"):
        run.current
    with pytest.raises(RuntimeError, match="spent"):
        run.normal_form


def test_b_is_checked_at_the_predecessors_of_merged_away_nodes(monkeypatch):
    # the step merges yb into r, so q's edge is redirected: q is touched
    host = graph(
        ["r", "k", "xa", "yb", "q"],
        {"r": "cdr", "k": "cons", "xa": "a", "yb": "b", "q": "f"},
        {"r": ("k",), "k": ("xa", "yb"), "q": ("yb",)},
    )
    checked = []
    real = tgr.dpo.check_morphism

    def spy(f, among=None):
        checked.append(set(among))
        return real(f, among)

    monkeypatch.setattr(tgr.dpo, "check_morphism", spy)
    touched = {"r", "k", "xa", "yb", "q"}
    assert derive(the_match(R_CDR, host, "r")).H.succs["q"] == ("r",)
    assert touched in checked
    checked.clear()
    assert len(list(Stepper(RationalTerm(host, "q"), TGRS(SIG, (R_CDR,)), 5))) == 1
    assert touched in checked


def test_local_steps_match_the_reference_on_rings_lassos_and_dags():
    rng = random.Random("local-steps")
    collapses = 0
    for family in ("ring", "lasso", "dag"):
        for n in (50, 80, 130, 200):
            _, steps = assert_same_run(ring_host(rng, family, n), RING_TGRS, n)
            collapses += sum(step.rule.name in ("RI", "Rcdr") for step in steps)
    assert collapses > 100  # merges and redirected edges were exercised


def test_a_rule_keeps_one_gluing_plan_per_identification_pattern():
    # each rule matches at r injectively, then at k2 with x and y both sent
    # to c: the two shapes glue differently and get a plan each
    swap = g_rule("Rs", "cons(x, y)", "p(y, x)")
    first = g_rule("Rfst", "p(x, y)", "x")
    host = graph(
        ["r", "k1", "k2", "a1", "b1", "c"],
        {"r": "p", "k1": "cons", "k2": "cons", "a1": "a", "b1": "b", "c": "a"},
        {"r": ("k1", "k2"), "k1": ("a1", "b1"), "k2": ("c", "c")},
    )
    got, steps = assert_same_run(RationalTerm(host, "r"), TGRS(SIG, (swap, first)), 10)
    assert [(step.rule.name, step.at) for step in steps] == [
        ("Rfst", "r"), ("Rs", "r"), ("Rfst", "r"), ("Rs", "k2"), ("Rfst", "k2"),
    ]
    assert sorted(swap.plans) == [(0, 1, 1), (0, 1, 2)]
    assert sorted(first.plans) == [(0, 1, 1), (0, 1, 2)]


def test_rules_sharing_a_root_label_are_all_matched():
    # Ra and Rb both have root f, so the stepper's label index lists both
    # under f; Ra comes first by name wherever an f lies above a g
    ra = g_rule("Ra", "f(g(x))", "p(x, x)")
    rb = g_rule("Rb", "f(x)", "g(x)")
    labels = ["f", "f", "g", "f", "g", "g", "f", "f", "f", "g"]
    ids = [f"n{i}" for i in range(len(labels))]
    succs = {m: (ids[(i + 1) % len(ids)],) for i, m in enumerate(ids)}
    ring = graph(ids, dict(zip(ids, labels)), succs)
    _, steps = assert_same_run(RationalTerm(ring, "n0"), TGRS(SIG, (rb, ra)), 20)
    assert {step.rule.name for step in steps} == {"Ra", "Rb"}


def test_plans_live_on_their_rules():
    # 2,000 rules built and dropped one after another, each used once, with
    # the same left-hand side (so the same pattern) but four right-hand
    # sides: a plan cache keyed by object identity hands a new rule the plan
    # of a dropped one that lived at the same address
    host = RationalTerm(graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)}), "r")
    rhs = ["g(x)", "g(g(x))", "cons(x, x)", "p(x, g(x))"]
    for i in range(2000):
        rule = g_rule(f"R{i}", "f(x)", rhs[i % 4])
        got, steps = assert_same_run(host, TGRS(SIG, (rule,)), 1)
        assert len(steps) == 1
        assert got.unravel(4) == t(rhs[i % 4].replace("x", "a"))


def test_matching_and_gluing_cost_a_few_calls_per_step(monkeypatch):
    """400 steps of f(x) -> g(x) on a 1,000-node f-ring, beside a cdr rule
    the ring never matches.  Setting up tries each (node, rule) pair whose
    labels agree once, so 1,000 tree matches; the run builds one gluing
    plan, and each step matches once, at the f below it (the step's own
    match is the one the index holds).  Nothing calls
    `find_tree_morphisms`."""
    n = 1000
    ids = [f"v{i}" for i in range(n)]
    succs = {v: (w,) for v, w in zip(ids, ids[1:] + ids[:1])}
    ring = RationalTerm(graph(ids, dict.fromkeys(ids, "f"), succs), "v0")
    r_f, r_cdr = g_rule("Rf", "f(x)", "g(x)"), g_rule("Rcdr", "cdr(cons(x, y))", "y")
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for module, name in (
        (tgr.dpo, "tree_match"), (tgr.dpo, "_plan"),
        (tgr.dpo, "find_tree_morphisms"), (tgr.graphs, "find_tree_morphisms"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    run = Stepper(ring, TGRS(SIG, (r_cdr, r_f)), 400)
    assert calls == Counter({"tree_match": n})
    calls.clear()
    assert len(list(run)) == 400
    assert calls["_plan"] == 1 and list(r_f.plans) == [(0, 1)]
    assert calls["tree_match"] == 400
    assert calls["find_tree_morphisms"] == 0


def test_a_step_that_merges_nothing_builds_no_predecessor_index(monkeypatch):
    # derive finds the edges into merged-away nodes through an index of the
    # host's predecessors; a step that merges nothing has none to find
    built = []
    real = tgr.dpo.predecessors
    monkeypatch.setattr(tgr.dpo, "predecessors", lambda g: built.append(g) or real(g))
    host = graph(["r", "c"], {"r": "f", "c": "a"}, {"r": ("c",)})
    assert derive(the_match(R_F, host, "r")).H.labels["r"] == "g"
    assert built == []
    host = graph(
        ["r", "k", "xa", "yb", "q"],
        {"r": "cdr", "k": "cons", "xa": "a", "yb": "b", "q": "f"},
        {"r": ("k",), "k": ("xa", "yb"), "q": ("yb",)},
    )
    assert derive(the_match(R_CDR, host, "r")).H.succs["q"] == ("r",)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Scale: every step local, so thousands of nodes rewrite to normal form


SCALE_PATTERN = ["g", "f", "I", "d", "cdr", "cons", "g", "cdr", "I", "cons", "I", "f"]
SCALE_NF = {"f": "g", "d": "p", "g": "g"}  # I, cdr and cons leave the path


def scale_host(family, n):
    """A ring or lasso of n-1 body nodes plus a constant: SCALE_PATTERN
    repeated, padded with g; a lasso's cycle is the second half."""
    m = n - 1
    labels = (SCALE_PATTERN * (m // len(SCALE_PATTERN)))[:m]
    labels += ["g"] * (m - len(labels))
    body = [f"v{i}" for i in range(m)]
    start = len(body) // 2 if family == "lasso" else 0
    nxt = body[1:] + [body[start]]
    succs = {
        v: ("c", w) if lbl == "cons" else (w, w) if lbl == "p" else (w,)
        for v, lbl, w in zip(body, labels, nxt)
    }
    graph = TermGraph.of(body + ["c"], {**dict(zip(body, labels)), "c": "a"}, succs)
    return RationalTerm(graph, body[0]), labels, start


@pytest.mark.parametrize("family", ["ring", "lasso"])
def test_rewrite_sequence_to_normal_form_on_2000_nodes(family):
    host, labels, start = scale_host(family, 2000)
    result, steps, nf = rewrite_sequence(host, RING_TGRS, max_steps=2001)
    assert nf
    assert len(steps) == sum(lbl in ("f", "I", "d", "cdr") for lbl in labels)

    # walk first successors from the point until a node repeats
    g, path, seen = result.graph, [], {}
    node = result.point
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        assert g.labels[node] in ("g", "p")
        if g.labels[node] == "p":
            assert g.succs[node][0] == g.succs[node][1]
        node = g.succs[node][0]
    tail, cycle = path[: seen[node]], path[seen[node]:]

    def survivors(part):
        return [SCALE_NF[lbl] for lbl in part if lbl in SCALE_NF]

    assert [g.labels[v] for v in tail] == survivors(labels[:start])
    assert [g.labels[v] for v in cycle] == survivors(labels[start:])


def test_a_step_is_local(monkeypatch):
    # 400 steps on a 20,000-node ring build no graph, predecessor index or
    # sorted node list; only reading `current` at the end does.
    n = 20_000
    ids = [f"v{i}" for i in range(n)]
    succs = {v: (w,) for v, w in zip(ids, ids[1:] + ids[:1])}
    ring = graph(ids, dict.fromkeys(ids, "f"), succs)
    run = Stepper(RationalTerm(ring, "v0"), TGRS(SIG, (R_F,)), 400)
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    init = counted("TermGraph", TermGraph.__init__)
    monkeypatch.setattr(TermGraph, "__init__", init)
    for module, name in (
        (tgr.graphs, "predecessors"), (tgr.dpo, "predecessors"),
        (tgr.graphs, "sorted_nodes"),  # `TermGraph.of` sorts through it
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert len(list(run)) == 400
    assert calls == Counter()
    monkeypatch.undo()
    labels = run.current.graph.labels
    assert [labels[f"v{i}"] for i in (0, 399, 400)] == ["g", "g", "f"]
    assert sum(lbl == "g" for lbl in labels.values()) == 400
