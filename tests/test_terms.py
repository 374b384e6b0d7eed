"""Finite partial terms: the approximation order, positions, and matching."""

import random

import pytest

from tgr.terms import (
    BOTTOM,
    Signature,
    apply_subst,
    approx_leq,
    chain_lub,
    format_term,
    from_occurrences,
    is_linear,
    match_linear,
    occ_disjoint,
    occ_format,
    occ_leq,
    occurrences,
    op,
    parse_term,
    replace,
    subterm,
    term_glb,
    truncate,
    var,
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
# Occurrences


def test_occ_prefix_order():
    assert occ_leq((), (1, 2))
    assert occ_leq((1,), (1, 2))
    assert not occ_leq((2,), (1, 2))
    assert not occ_leq((1, 2), (1,))


def test_occ_disjoint_trichotomy():
    rng = random.Random(7)
    for _ in range(200):
        u = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
        w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
        related = occ_leq(u, w) or occ_leq(w, u)
        assert occ_disjoint(u, w) == (not related)


def test_occ_format_parse_roundtrip():
    assert occ_format(()) == "λ"
    assert occ_format((1, 2, 3)) == "123"
    assert occ_format((12, 1)) == "12.1"


# ---------------------------------------------------------------------------
# Term structure


def test_parse_format_roundtrip():
    for text in ["a", "f(a)", "p(f(x), g(b))", "_|_", "p(_|_, y)"]:
        assert format_term(t(text)) == text


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
        assert from_occurrences(SIG, occurrences(s)) == s


def test_from_occurrences_rejects_non_prefix_closed():
    with pytest.raises(ValueError):
        from_occurrences(SIG, {(): "f", (1, 1): "a"})
    with pytest.raises(ValueError):
        from_occurrences(SIG, {(): "f", (2,): "a"})


def test_subterm_outside_domain_is_bottom():
    s = t("f(a)")
    assert subterm(s, (1, 1)) is BOTTOM
    assert subterm(s, (2,)) is BOTTOM
    assert subterm(t("_|_"), (1,)) is BOTTOM


def test_replace_at_undefined_position_is_identity():
    s = t("f(_|_)")
    assert replace(s, (1, 1), t("a")) == s
    assert replace(t("_|_"), (1,), t("a")) is BOTTOM


def test_replace_subterm_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        s = random_term(rng)
        spots = list(occurrences(s))
        if not spots:
            continue
        w = rng.choice(spots)
        r = random_term(rng, 2)
        out = replace(s, w, r)
        assert subterm(out, w) == r
        # everything disjoint from w is untouched
        for u, sym in occurrences(s).items():
            if occ_disjoint(u, w):
                assert subterm(out, u) == subterm(s, u)


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


def test_glb_is_a_lower_bound_and_greatest():
    rng = random.Random(37)
    for _ in range(300):
        s, u = random_term(rng, 3), random_term(rng, 3)
        g = term_glb(s, u)
        assert approx_leq(g, s) and approx_leq(g, u)
        w = term_glb(truncate(s, 2), g)  # some other lower bound of s, u
        assert approx_leq(w, g)


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


def test_chain_lub():
    s = t("p(f(a), g(b))")
    chain = [truncate(s, d) for d in range(5)]
    assert chain_lub(chain) == s
    assert chain_lub([]) is BOTTOM


def test_chain_lub_rejects_non_chains():
    with pytest.raises(ValueError):
        chain_lub([t("a"), t("b")])


# ---------------------------------------------------------------------------
# Substitution and matching


def test_apply_subst():
    s = t("p(x, f(y))")
    out = apply_subst(s, {"x": t("a"), "y": t("g(b)")})
    assert out == t("p(a, f(g(b)))")
    assert apply_subst(BOTTOM, {"x": t("a")}) is BOTTOM


def test_match_linear_captures_verbatim():
    pat = t("p(x, y)")
    sigma = match_linear(pat, t("p(f(_|_), b)"))
    assert sigma == {"x": t("f(_|_)"), "y": t("b")}
    assert apply_subst(pat, sigma) == t("p(f(_|_), b)")


def test_match_linear_bottom_binds():
    sigma = match_linear(t("f(x)"), t("f(_|_)"))
    assert sigma is not None and sigma["x"] is BOTTOM


def test_match_linear_requires_skeleton():
    assert match_linear(t("f(x)"), t("g(a)")) is None
    assert match_linear(t("f(x)"), t("_|_")) is None


def test_match_linear_rejects_nonlinear_pattern():
    assert not is_linear(t("p(x, x)"))
    with pytest.raises(ValueError):
        match_linear(t("p(x, x)"), t("p(a, a)"))


def test_match_linear_rejects_partial_pattern():
    with pytest.raises(ValueError):
        match_linear(t("f(_|_)"), t("f(a)"))
