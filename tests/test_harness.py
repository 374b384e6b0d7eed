"""The verification harness: checkers, generators, suite, and mutation tests.

The mutation tests deliberately break an engine function and assert the suite
notices; they are what make "the suite passes" mean something.
"""

import random

import pytest

import tgr.dpo
import tgr.harness
import tgr.parallel
from tgr.dpo import find_matches
from tgr.graphs import RationalTerm, TermGraph, truncated_equal
from tgr.harness import (
    PROPERTIES,
    check_cofinality_step,
    check_weak_normal_form_preservation,
    gen_case,
    gen_graph,
    gen_rules,
    gen_signature,
    rewrite_sequence,
    run_property_suite,
    shrink_case,
    verify_soundness,
)
from tgr.parallel import (
    ConvergenceError,
    RationalRedexSet,
    infinite_parallel_reduce,
    threshold_length,
)
from tgr.rules import (
    TRS,
    RewriteRule,
    graph_trs,
    orthogonality_conflicts,
)
from tgr.terms import Signature, parse_term
from tests.reference import ref_gen_case

SIG = Signature.of({"a": 0, "f": 1, "g": 1, "cdr": 1, "cons": 2})


def t(text):
    return parse_term(SIG, text)


R_F = RewriteRule.of("Rf", t("f(x)"), t("g(x)"))
R_CDR = RewriteRule.of("Rcdr", t("cdr(cons(x, y))"), t("y"))
TRS1 = TRS(SIG, (R_F, R_CDR))
TGRS1 = graph_trs(TRS1)

F_LOOP = RationalTerm(TermGraph.of(["n"], {"n": "f"}, {"n": ("n",)}), "n")
CY = RationalTerm(
    TermGraph.of(
        ["c", "k", "u"], {"c": "cdr", "k": "cons", "u": "a"},
        {"c": ("k",), "k": ("u", "c")},
    ),
    "c",
)


# ---------------------------------------------------------------------------
# The three checkers


def test_verify_soundness_on_the_loop():
    (m,) = find_matches(F_LOOP.graph, TGRS1.rule("Rf"))
    report = verify_soundness(SIG, F_LOOP, m, depth=8)
    assert report.ok
    assert report.symbolic_ok and report.chain_ok
    assert report.summary().startswith("ok: Rf at n")


def test_verify_soundness_all_matches():
    reports = [
        verify_soundness(SIG, CY, m, depth=8)
        for m in find_matches(CY.graph, TGRS1)
    ]
    assert len(reports) == 1  # only Rcdr matches
    assert all(r.ok for r in reports)


def test_nf_preservation_report_fields():
    # reachable part is a plain stream, but a garbage node holds a redex:
    # graph-level normal form fails while the term is in normal form.
    g = TermGraph.of(
        ["s", "z", "u", "v"],
        {"s": "cons", "z": "a", "u": "f", "v": "a"},
        {"s": ("z", "s"), "u": ("v",)},
    )
    rep = check_weak_normal_form_preservation(TRS1, TGRS1, RationalTerm(g, "s"))
    assert not rep.graph_nf
    assert rep.graph_witness is not None
    assert rep.term_nf
    assert rep.ok  # the implication is vacuous in this direction

    quiet = RationalTerm(TermGraph.of(["z"], {"z": "a"}, {}), "z")
    rep = check_weak_normal_form_preservation(TRS1, TGRS1, quiet)
    assert rep.graph_nf and rep.term_nf and rep.ok


def two_f_redexes():
    """f(f(a)) with its two matches of TGRS1."""
    host = RationalTerm(
        TermGraph.of(
            ["n1", "n2", "n3"], {"n1": "f", "n2": "f", "n3": "a"},
            {"n1": ("n2",), "n2": ("n3",)},
        ),
        "n1",
    )
    return host, find_matches(host.graph, TGRS1)


def test_cofinality_step_routes_agree():
    host, matches = two_f_redexes()
    assert len(matches) == 2
    rep = check_cofinality_step(SIG, host, matches)
    assert rep.ok
    assert rep.stages
    rep = check_cofinality_step(SIG, host, matches, phi=[1])
    assert rep.ok


def test_cofinality_step_rejects_a_phi_index_out_of_range():
    # an index outside the family is an error, not a stage of its own
    host, matches = two_f_redexes()
    for phi in ([-1], [2], [0, 5]):
        message = f"phi index {phi[-1]} out of range for 2 matches"
        with pytest.raises(ValueError, match=message):
            check_cofinality_step(SIG, host, matches, phi=phi)


def test_cofinality_step_sees_a_difference_below_depth_16(monkeypatch):
    # the routes are compared exactly: a sequential result that is the
    # chain g^20(a) where the developments give the g loop agrees with
    # them to depth 20, and still disagrees
    chain = TermGraph.of(
        [f"c{i}" for i in range(21)],
        {**{f"c{i}": "g" for i in range(20)}, "c20": "a"},
        {f"c{i}": (f"c{i + 1}",) for i in range(20)},
    )
    deep = RationalTerm(chain, "c0")
    g_loop = RationalTerm(TermGraph.of(["z"], {"z": "g"}, {"z": ("z",)}), "z")
    assert truncated_equal(deep, g_loop, 20) and deep != g_loop
    real = tgr.harness.derive_rational
    monkeypatch.setattr(
        tgr.harness,
        "derive_rational",
        lambda host, match: (real(host, match)[0], deep),
    )
    matches = find_matches(F_LOOP.graph, TGRS1)
    rep = check_cofinality_step(SIG, F_LOOP, matches)
    assert rep.one_shot == g_loop and rep.staged == g_loop
    assert not rep.ok
    assert rep.failures == [
        "sequential derivation disagrees with the simultaneous development"
    ]


def test_rewrite_sequence():
    host = RationalTerm(
        TermGraph.of(
            ["n1", "n2", "n3"], {"n1": "f", "n2": "f", "n3": "a"},
            {"n1": ("n2",), "n2": ("n3",)},
        ),
        "n1",
    )
    result, steps, nf = rewrite_sequence(host, TGRS1)
    assert nf and len(steps) == 2
    assert result.unravel(4) == t("g(g(a))")


def test_rewrite_sequence_stops_at_normal_form():
    result, steps, nf = rewrite_sequence(F_LOOP, TGRS1, max_steps=5)
    assert nf and len(steps) == 1  # one step turns the f-loop into a g-loop
    assert result.unravel(3) == t("g(g(g(_|_)))")


# ---------------------------------------------------------------------------
# Generators


def test_generators_are_deterministic():
    a = gen_case(random.Random("k:7"))
    b = gen_case(random.Random("k:7"))
    assert a.describe() == b.describe()
    assert a.host == b.host


def test_generated_rules_are_orthogonal():
    for i in range(25):
        rng = random.Random(f"orth:{i}")
        sig = gen_signature(rng)
        trs = gen_rules(rng, sig)
        assert orthogonality_conflicts(trs) == []


def test_gen_case_matches_the_whole_system_reference():
    for k in range(128):  # the suite seeds of the bench window
        for prop in PROPERTIES:
            seed = f"{k}:{prop}:0"
            got = gen_case(random.Random(seed))
            want = ref_gen_case(random.Random(seed))
            assert got.describe() == want.describe(), seed
            assert got.sig == want.sig, seed
            assert (got.host.graph, got.host.point, got.host.bottoms) == (
                want.host.graph, want.host.point, want.host.bottoms
            ), seed


def test_generated_graphs_are_wellformed_and_pointed():
    from tgr.graphs import check_wellformed

    for i in range(25):
        rng = random.Random(f"g:{i}")
        sig = gen_signature(rng)
        host = gen_graph(rng, sig, 8)
        check_wellformed(host.graph, sig)
        assert host.point in host.graph.nodes
        assert all(b in host.graph.nodes for b in host.bottoms)


def test_generated_cases_translate_to_graph_rules():
    case = gen_case(random.Random(11))
    tgrs = case.tgrs()
    assert [r.name for r in tgrs.rules] == [r.name for r in case.trs.rules]
    assert case.describe()


def test_shrink_case_drops_rules_and_nodes():
    case = gen_case(random.Random(23))
    assert len(case.trs.rules) >= 1
    small = shrink_case(case, lambda c: len(c.trs.rules) >= 1)
    assert len(small.trs.rules) == 1
    assert len(small.host.graph.nodes) <= len(case.host.graph.nodes)
    assert small.host.point in small.host.graph.nodes


# ---------------------------------------------------------------------------
# The suite


def test_suite_runs_clean():
    rep = run_property_suite(seed=101, cases=6)
    assert rep.ok
    assert {o.name for o in rep.outcomes} == {
        "soundness", "enumerations", "confluence", "development-order",
        "nf-preservation", "morphism-substitution", "redex-correspondence",
        "cofinality",
    }
    for line in rep.lines():
        assert line.startswith("pass ")


def test_suite_rejects_unknown_property():
    with pytest.raises(ValueError, match="unknown property"):
        run_property_suite(cases=1, properties=["soundness", "zzz"])


@pytest.mark.parametrize(
    "selection, message",
    [([], "no property selected"), (["soundness", "soundness"], "selected twice")],
)
def test_suite_rejects_empty_and_repeated_selections(selection, message):
    with pytest.raises(ValueError, match=message):
        run_property_suite(cases=1, properties=selection)


def test_suite_without_a_selection_runs_every_property():
    rep = run_property_suite(cases=0, properties=None)
    assert [o.name for o in rep.outcomes] == list(PROPERTIES)


# ---------------------------------------------------------------------------
# Mutation tests: break the engine, expect the suite to notice


def test_suite_catches_a_broken_pushout_complement(monkeypatch):
    # "forget" to erase the matched root's content — the classic DPO mistake;
    # downstream that makes the pushout see conflicting content and blow up,
    # which the suite must record as failures, not crash on.
    def keep_everything(match):
        from tgr.graphs import GraphMorphism

        G = match.host
        return G, GraphMorphism(match.rule.K, G, dict(match.g.mapping))

    monkeypatch.setattr(tgr.dpo, "pushout_complement", keep_everything)
    rep = run_property_suite(seed=0, cases=6, properties=["soundness"])
    assert not rep.ok
    assert rep.outcomes[0].failures


def test_suite_catches_a_silently_wrong_step(monkeypatch):
    # leave the derivation intact but hand back the unrewritten term: every
    # comparison against the oracle must now disagree (no crash anywhere).
    real = tgr.harness.derive_rational

    def unchanged(rt, match):
        drv, _ = real(rt, match)
        return drv, rt

    monkeypatch.setattr(tgr.harness, "derive_rational", unchanged)
    rep = run_property_suite(seed=0, cases=8, properties=["soundness"])
    assert not rep.ok
    messages = " ".join(rep.outcomes[0].failures)
    assert "disagrees" in messages or "FAIL" in messages


def test_a_step_that_does_nothing_fails_below_the_depth(monkeypatch):
    # f(x) -> g(x) at n25 of a 30-node f ring pointed at n0: the redex's
    # shortest occurrence is 25 deep, past the chain leg's depth 16, so only
    # the exact symbolic leg sees an engine that leaves the host unchanged.
    ids = [f"n{i}" for i in range(30)]
    succs = {a: (b,) for a, b in zip(ids, ids[1:] + ids[:1])}
    ring = RationalTerm(TermGraph.of(ids, dict.fromkeys(ids, "f"), succs), "n0")
    (m,) = [
        m for m in find_matches(ring.graph, TGRS1.rule("Rf")) if m.root_image == "n25"
    ]
    assert verify_soundness(SIG, ring, m).ok
    real = tgr.harness.derive_rational
    monkeypatch.setattr(
        tgr.harness, "derive_rational", lambda rt, match: (real(rt, match)[0], rt)
    )
    report = verify_soundness(SIG, ring, m)
    assert report.chain_ok and not report.symbolic_ok and not report.ok


def host_scale_ring(n):
    """An n-node f ring pointed at n0 with a binary p(next, next-but-one) at
    every seventh node from n0, and the match of Rf at node n/2."""
    ids = [f"n{i}" for i in range(n)]
    labels = dict.fromkeys(ids, "f")
    succs = {a: (b,) for a, b in zip(ids, ids[1:] + ids[:1])}
    for i in range(0, n, 7):
        labels[ids[i]] = "p"
        succs[ids[i]] = (ids[(i + 1) % n], ids[(i + 2) % n])
    ring = RationalTerm(TermGraph.of(ids, labels, succs), "n0")
    (m,) = [
        m
        for m in find_matches(ring.graph, TGRS1.rule("Rf"))
        if m.root_image == f"n{n // 2}"
    ]
    return ring, m


def test_the_depth_decision_reads_rows_only_to_the_budget(monkeypatch):
    # asked for depth 1,016 on a 1,000-node ring, the default budget caps
    # the chain leg at depth 446, its cut table full at 8,192 nodes; the
    # count table then holds no row past the length depth 447 would need
    # (probing the asked depth first would fill 1,016 rows).
    ring, m = host_scale_ring(1000)
    sets = []
    real = tgr.harness.induced_parallel_redex
    monkeypatch.setattr(
        tgr.harness,
        "induced_parallel_redex",
        lambda *args: sets.append(real(*args)) or sets[-1],
    )
    report = verify_soundness(
        Signature.of({"f": 1, "g": 1, "p": 2}), ring, m, depth=1016
    )
    assert (report.effective_depth, report.nodes, report.ok) == (446, 8192, True)
    assert report.occurrences == 19220104372823340
    (rs,) = sets
    assert len(rs.table.rows) <= threshold_length(rs, 447)


def test_a_crippled_threshold_raises_convergence_error(monkeypatch):
    # cripple the occurrence-length bound: the oracle keeps too few members,
    # finds the chain limit disagreeing with the symbolic development, and
    # refuses in its one round, naming both depths, the threshold length,
    # the chain's final length and its cut-table nodes.
    monkeypatch.setattr(
        tgr.parallel, "threshold_length", lambda rs, depth: 1
    )
    rs = RationalRedexSet(F_LOOP.graph, "n", "n", R_F)
    message = (
        r"chain limit disagrees with the symbolic limit to effective depth 4 "
        r"\(asked 4, threshold length 1, final length 1, 1 cut nodes\)"
    )
    with pytest.raises(ConvergenceError, match=message):
        infinite_parallel_reduce(rs, depth=4)


def test_threshold_is_actually_sufficient():
    # a chain limit that disagrees raises; on the standard rules the
    # oracle returns.
    for rule, host in ((R_F, F_LOOP), (R_CDR, CY)):
        (m,) = [
            n
            for n in host.graph.nodes
            if tgr.parallel.rule_matches_at(host.graph, n, rule)
        ]
        rs = RationalRedexSet(host.graph, host.point, m, rule)
        infinite_parallel_reduce(rs, depth=12)
