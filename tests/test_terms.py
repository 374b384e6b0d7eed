"""Finite partial terms: the walk, positions, literals, matching, and the
approximation order that the rational one is checked against."""

import os
import random
import re
import subprocess
import sys

import pytest

import tgr
from tgr.graphs import (
    RationalTerm,
    TermGraph,
    apply_subst_rational,
    rational_of_term,
)
from tgr.parallel import rule_matches_at
from tgr.rules import RewriteRule, check_rule
from tgr.terms import (
    BOTTOM,
    Signature,
    format_term,
    is_linear,
    is_total,
    occ_format,
    occ_leq,
    op,
    parse_term,
    rebuild,
    subterms,
    var,
    vars_of,
)
from tests.reference import (
    ref_apply_subst_rational,
    ref_eq,
    ref_format,
    ref_is_total,
    ref_occurrences,
    ref_rational_of_term,
    ref_var_names,
    ref_var_positions,
)

SIG = Signature.of({"a": 0, "b": 0, "f": 1, "g": 1, "p": 2})


def t(text):
    return parse_term(SIG, text)


def random_term(rng, depth=4):
    """Random partial term over SIG, bottoms and variables included."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return BOTTOM
    if roll < 0.3:
        return var(rng.choice("xyz"))
    sym, k = rng.choice([("a", 0), ("b", 0), ("f", 1), ("g", 1), ("p", 2)])
    return op(sym, [random_term(rng, depth - 1) for _ in range(k)])


# ---------------------------------------------------------------------------
# The approximation order on finite terms, by its definition.  `tgr` decides
# it on rational terms (`rational_approx_leq`); these are the references.


def approx_leq(s, u):
    """s <= u in the approximation order: u extends s on s's domain."""
    if s.is_bottom:
        return True
    if s.is_var:
        return u.is_var and u.symbol == s.symbol
    if not u.is_op or u.symbol != s.symbol or len(u.children) != len(s.children):
        return False
    return all(approx_leq(a, b) for a, b in zip(s.children, u.children))


def truncate(s, depth):
    """Restrict s to occurrences of length < depth; truncate(s, 0) is bottom."""
    if depth <= 0 or s.is_bottom:
        return BOTTOM
    if s.is_var or not s.children:
        return s
    return op(s.symbol, [truncate(c, depth - 1) for c in s.children])


# ---------------------------------------------------------------------------
# The occurrence-map view of a term, read off the one walk


def occurrences(s):
    """Defined positions and their symbols."""
    return {at: u.symbol for at, u in subterms(s) if not u.is_bottom}


def subterm(s, w):
    """s/w; bottom when w is outside the domain of s."""
    for i in w:
        if s.is_bottom or s.is_var or i > len(s.children):
            return BOTTOM
        s = s.children[i - 1]
    return s


# ---------------------------------------------------------------------------
# The one walk against the recursive walkers it replaced (tests/reference.py)


F_LOOP = RationalTerm(TermGraph.of(["n"], {"n": "f"}, {"n": ("n",)}), "n")


def test_walk_matches_the_recursive_references():
    sigma = {"x": F_LOOP, "y": rational_of_term(t("p(a, _|_)"))}
    for seed in range(1000):
        rng = random.Random(seed)
        s, u = random_term(rng), random_term(rng, 2)
        names = ref_var_names(s)
        assert occurrences(s) == ref_occurrences(s)
        assert list(occurrences(s)) == list(ref_occurrences(s))
        assert vars_of(s) == list(dict.fromkeys(names))
        assert is_linear(s) == (len(names) == len(set(names)))
        assert is_total(s) == ref_is_total(s)
        rule = RewriteRule("R", s, F_LOOP)
        assert list(rule.var_positions.items()) == list(
            ref_var_positions(s).items()
        )
        text = format_term(s)
        assert text == ref_format(s)
        copy = parse_term(SIG, text)
        assert ref_eq(copy, s) and copy == s
        assert (s == u) == ref_eq(s, u) and (s != u) == (not ref_eq(s, u))
        if s.children:  # same symbols in preorder, one child fewer
            short = op(s.symbol, s.children[:-1])
            assert s != short and short != s
        for d in range(6):
            cut = truncate(s, d)
            assert (cut == s) == ref_eq(cut, s)
            assert ref_eq(
                apply_subst_rational(s, sigma, d),
                ref_apply_subst_rational(s, sigma, d),
            )
        got, want = rational_of_term(s, "q"), ref_rational_of_term(s, "q")
        assert got.graph == want.graph
        assert (got.point, got.bottoms) == (want.point, want.bottoms)


def _chain(depth, bottom, wrap):
    s = bottom
    for _ in range(depth):
        s = wrap(s)
    return s


def test_terms_5000_deep_need_no_recursion():
    n = 5000
    deep = _chain(n, t("a"), lambda s: op("f", [s]))
    text = "f(" * n + "a" + ")" * n
    assert format_term(deep) == text
    assert parse_term(SIG, text) == deep
    assert not (parse_term(SIG, "f(" * n + "b" + ")" * n) == deep)
    assert _chain(n, t("a"), lambda s: op("g", [s])) != deep
    occs = occurrences(deep)
    assert len(occs) == n + 1 and occs[(1,) * n] == "a"
    rt = rational_of_term(deep)
    assert len(rt.graph.nodes) == n + 1
    assert format_term(rt.unravel(n + 1)) == text
    right = "p(_|_, " * n + "x" + ")" * n
    assert format_term(parse_term(SIG, right)) == right


def test_terms_are_unhashable():
    with pytest.raises(TypeError):
        hash(t("f(a)"))


def test_rebuild_replaces_and_keeps():
    s = t("p(f(x), g(_|_))")
    assert rebuild(s, lambda u, d: None) == s
    primed = rebuild(s, lambda u, d: var("y") if u.is_var else None)
    assert primed == t("p(f(y), g(_|_))")
    assert rebuild(s, lambda u, d: BOTTOM if d >= 2 else None) == truncate(s, 2)


# ---------------------------------------------------------------------------
# Equality on shared terms


LEAVES = [BOTTOM, var("x"), var("y"), op("a"), op("b")]


def random_dag(rng, levels=8, width=3):
    """A random term with shared subterms: each level's operators take their
    children from a small pool built by the level below."""
    pool = list(LEAVES)
    for _ in range(levels):
        layer = []
        for _ in range(width):
            sym, k = rng.choice([("f", 1), ("g", 1), ("p", 2), ("p", 2)])
            layer.append(op(sym, [rng.choice(pool) for _ in range(k)]))
        pool = layer + [rng.choice(pool)]
    return rng.choice(pool)


def replace_at(s, w, new):
    """s with the subterm at w replaced, the rest still shared."""
    spine = [s]
    for i in w:
        spine.append(spine[-1].children[i - 1])
    for parent, i in zip(reversed(spine[:-1]), reversed(w)):
        kids = list(parent.children)
        kids[i - 1] = new
        new = op(parent.symbol, kids)
    return new


def deepest_leaf(s):
    w = []
    while s.children:
        i = max(range(len(s.children)), key=lambda j: s.children[j].children != ())
        w.append(i + 1)
        s = s.children[i]
    return tuple(w), s


def test_equality_agrees_with_the_printed_terms():
    rng = random.Random(13)
    pairs = 0
    for _ in range(300):
        s = random_dag(rng, rng.randint(1, 10))
        u = random_dag(rng, rng.randint(1, 10))
        copy = parse_term(SIG, format_term(s))  # the same tree, unshared
        w, leaf = deepest_leaf(s)
        other = next(x for x in LEAVES if format_term(x) != format_term(leaf))
        near = replace_at(s, w, other)  # differs at one deep leaf only
        for a, b in [(s, u), (s, copy), (copy, s), (s, s), (s, near), (near, copy)]:
            same = format_term(a) == format_term(b)
            assert (a == b) == same and (a != b) == (not same)
            pairs += same
        left, right = random_term(rng), random_term(rng)
        assert (left == right) == (format_term(left) == format_term(right))
    assert pairs > 600


def test_equality_on_a_doubling_dag_costs_its_distinct_pairs():
    n = 60  # 2^60 leaves as a tree, 61 objects as a DAG; never printed
    s, u = t("a"), t("a")
    for _ in range(n):
        s, u = op("p", [s, s]), op("p", [u, u])
    verdicts = [
        s == u,
        s == replace_at(u, (2,) * n, t("b")),
        s == replace_at(u, (1,) * (n - 1) + (2,), t("b")),
    ]
    assert verdicts == [True, False, False]


def test_repr_of_a_doubling_dag_is_cut_off():
    s = t("a")
    for _ in range(60):  # 2^60 leaves as a tree
        s = op("p", [s, s])
    text = repr(s)
    assert text.startswith("FiniteTerm('p(p(") and text.endswith("…')")
    assert len(text) < 400
    assert repr(t("p(x, _|_)")) == "FiniteTerm('p(x, _|_)')"


# ---------------------------------------------------------------------------
# Occurrences


def test_occ_prefix_order():
    assert occ_leq((), (1, 2))
    assert occ_leq((1,), (1, 2))
    assert not occ_leq((2,), (1, 2))
    assert not occ_leq((1, 2), (1,))


def test_occ_format_parse_roundtrip():
    assert occ_format(()) == "λ"
    assert occ_format((1, 2, 3)) == "123"
    assert occ_format((12, 1)) == "12.1"


# ---------------------------------------------------------------------------
# Term structure


def test_parse_format_roundtrip():
    for text in ["a", "f(a)", "p(f(x), g(b))", "_|_", "p(_|_, y)"]:
        assert format_term(t(text)) == text


def test_parse_errors():
    for text, message in [
        ("", "unexpected end"),
        ("f(a", "unexpected end"),
        ("f(a b)", "expected ')'"),
        ("p(a,)", "unexpected ')'"),
        ("f(a, b)", "arity 1, applied to 2"),
        ("x(a)", "undeclared operator"),
        ("f(a) b", "trailing tokens"),
        ("f(a) $", "unexpected character"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            t(text)


def test_literals_are_tokenized_as_workspaces_are():
    # one tokenizer: `#` comments are skipped, and errors name their line
    assert t("p(x, # the first argument\n  f(y))  # done") == t("p(x, f(y))")
    with pytest.raises(tgr.ParseError) as e:
        t("p(x,\n  y z)")
    assert e.value.line == 2
    assert str(e.value) == "line 2: expected ')', found 'z'"
    assert tgr.ParseError is tgr.parsing.ParseError is tgr.terms.ParseError


def test_constants_parse_with_or_without_parens():
    assert t("a") == t("a()")
    assert t("f(a)") == t("f(a())")


def test_undeclared_identifiers_are_variables():
    s = t("p(x, longname)")
    assert s.children[0].is_var and s.children[1].is_var


def test_occurrences_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        s = random_term(rng)
        occs = occurrences(s)
        for w, sym in occs.items():
            assert subterm(s, w).symbol == sym
            assert not w or w[:-1] in occs  # prefix-closed
        for w in occs:
            assert subterm(s, w + (3,)) is BOTTOM


def test_subterm_outside_domain_is_bottom():
    s = t("f(a)")
    assert subterm(s, (1, 1)) is BOTTOM
    assert subterm(s, (2,)) is BOTTOM
    assert subterm(t("_|_"), (1,)) is BOTTOM


# ---------------------------------------------------------------------------
# The approximation order


def test_bottom_least_and_reflexivity():
    rng = random.Random(23)
    for _ in range(100):
        s = random_term(rng)
        assert approx_leq(BOTTOM, s)
        assert approx_leq(s, s)


def test_antisymmetry():
    rng = random.Random(29)
    for _ in range(300):
        s, u = random_term(rng, 3), random_term(rng, 3)
        if approx_leq(s, u) and approx_leq(u, s):
            assert s == u


def test_transitivity_via_truncation_chain():
    rng = random.Random(31)
    for _ in range(100):
        s = random_term(rng)
        for d in range(4):
            assert approx_leq(truncate(s, d), truncate(s, d + 1))
            assert approx_leq(truncate(s, d), s)


def test_truncate_laws():
    rng = random.Random(41)
    for _ in range(100):
        s = random_term(rng)
        assert truncate(s, 0) is BOTTOM
        assert truncate(s, 10) == s  # depth beyond the term
        assert truncate(truncate(s, 3), 2) == truncate(s, 2)


def test_truncate_keeps_strictly_shorter_occurrences():
    s = t("f(f(a))")
    assert truncate(s, 1) == t("f(_|_)")
    assert truncate(s, 2) == t("f(f(_|_))")
    assert truncate(s, 3) == s


# ---------------------------------------------------------------------------
# Substitution and matching: substitution is applied on rational terms, and a
# left-hand side is matched against a graph with `rule_matches_at`


def test_apply_subst():
    s = t("p(x, f(y))")
    sigma = {"x": rational_of_term(t("a")), "y": rational_of_term(t("g(b)"))}
    assert apply_subst_rational(s, sigma, 8) == t("p(a, f(g(b)))")
    assert apply_subst_rational(BOTTOM, sigma, 8) is BOTTOM
    assert apply_subst_rational(s, {"x": F_LOOP}, 3) == t("p(f(f(_|_)), f(y))")


def _matches(pattern, text):
    host = rational_of_term(t(text))
    lhs = RewriteRule.of("R", t(pattern), t("a"))
    return rule_matches_at(host.graph, host.point, lhs, host.bottoms)


def test_match_linear_captures_verbatim():
    # a pattern variable matches whatever lies below it
    assert _matches("p(x, y)", "p(f(_|_), b)")
    assert _matches("p(f(x), y)", "p(f(p(a, b)), g(a))")


def test_match_linear_bottom_binds():
    assert _matches("f(x)", "f(_|_)")


def test_match_linear_requires_skeleton():
    assert not _matches("f(x)", "g(a)")
    assert not _matches("f(x)", "_|_")
    assert not _matches("p(f(x), y)", "p(_|_, a)")


def test_match_linear_rejects_nonlinear_pattern():
    assert not is_linear(t("p(x, x)"))
    with pytest.raises(ValueError, match="linear"):
        check_rule(RewriteRule.of("R", t("p(x, x)"), t("a")), SIG)


def test_match_linear_rejects_partial_pattern():
    with pytest.raises(ValueError, match="total"):
        check_rule(RewriteRule.of("R", t("f(_|_)"), t("a")), SIG)



def test_a_fresh_import_leaves_nothing_behind():
    """Type aliases name the package's classes as strings, so `typing`'s
    cache holds no class of an old import: re-importing `tgr` four times
    keeps the count of gc-tracked objects flat."""
    script = (
        "import gc, importlib, sys\n"
        "counts = []\n"
        "for _ in range(5):\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'tgr']:\n"
        "        del sys.modules[m]\n"
        "    importlib.import_module('tgr')\n"
        "    gc.collect()\n"
        "    counts.append(len(gc.get_objects()))\n"
        "print(*counts)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgr.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    counts = [int(c) for c in run.stdout.split()]
    assert max(counts[1:]) - min(counts[1:]) <= 10, counts
