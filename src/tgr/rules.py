"""Rewrite rules over terms and over graphs, and the translations between.

Two layers of rule:

- `RewriteRule`: a term-level rule ``lhs -> rhs`` with a linear, total,
  operator-rooted left-hand side and a rational right-hand side whose
  variables all occur in the left-hand side.  A rule whose right-hand side is
  a bare variable is *collapsing*.
- `EvaluationRule`: the graph-level counterpart, a span ``L <- K -> R`` in
  which K is L with the root's label and successors removed, the left leg is
  that inclusion, and the right leg r maps K into R preserving structure.
  r need not be injective: collapsing rules identify the root with the
  surviving variable.

`graph_of_rule` and `unravel_rule` translate between the layers and are
mutually inverse up to bisimilarity of the graphs involved.

Orthogonality here is the usual syntactic condition — left-linear rules with
no overlaps, detected by first-order unification with occurs check — and
guarantees that distinct redexes in one graph never interfere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graphs import (
    GraphMorphism,
    NodeId,
    RationalTerm,
    TermGraph,
    check_morphism,
    check_wellformed,
    cycle_nodes,
    graph_of_terms,
    is_tree,
    node_key,
    rational_of_term,
    unravel,
)
from .terms import (
    FiniteTerm,
    Occurrence,
    Signature,
    Substitution,
    is_linear,
    is_total,
    occ_sort_key,
    occurrences,
    subterm,
    var,
    vars_of,
)


# ---------------------------------------------------------------------------
# Term-level rules


@dataclass(frozen=True)
class RewriteRule:
    """A term rewrite rule; see the module docstring for the conditions."""

    name: str
    lhs: FiniteTerm
    rhs: RationalTerm

    @staticmethod
    def of(name: str, lhs: FiniteTerm, rhs: FiniteTerm) -> "RewriteRule":
        """Convenience constructor for a finite right-hand side."""
        return RewriteRule(name, lhs, rational_of_term(rhs, prefix=f"{name}.r"))

    def is_collapsing(self) -> bool:
        return self.rhs.graph.is_empty_node(self.rhs.point)

    def collapse_variable(self) -> Optional[str]:
        """The variable a collapsing rule rewrites to, else None."""
        if not self.is_collapsing():
            return None
        return self.rhs.render_name(self.rhs.point)


@dataclass(frozen=True)
class TRS:
    """A signature together with named term rewrite rules."""

    sig: Signature
    rules: Tuple[RewriteRule, ...]

    def rule(self, name: str) -> RewriteRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(f"no rule named {name}")


def check_rule(rule: RewriteRule, sig: Signature) -> None:
    """Raise ValueError unless the rule satisfies all side conditions."""
    lhs = rule.lhs
    if lhs.is_var or lhs.is_bottom:
        raise ValueError(f"rule {rule.name}: left-hand side must be operator-rooted")
    if not is_total(lhs):
        raise ValueError(f"rule {rule.name}: left-hand side must be total")
    if not is_linear(lhs):
        raise ValueError(f"rule {rule.name}: left-hand side must be linear")
    for w in occurrences(lhs):
        s = subterm(lhs, w)
        if not s.is_op:
            continue
        if not sig.is_operator(s.symbol):
            raise ValueError(f"rule {rule.name}: unknown operator {s.symbol}")
        if sig.arity(s.symbol) != len(s.children):
            raise ValueError(
                f"rule {rule.name}: {s.symbol} used with {len(s.children)} "
                f"arguments, declared arity {sig.arity(s.symbol)}"
            )
    check_wellformed(rule.rhs.graph, sig)
    if any(n in rule.rhs.bottoms for n in rule.rhs.graph.reachable(rule.rhs.point)):
        raise ValueError(f"rule {rule.name}: right-hand side must be total")
    lhs_vars = set(vars_of(lhs))
    extra = [v for v in rule.rhs.variables() if v not in lhs_vars]
    if extra:
        raise ValueError(
            f"rule {rule.name}: right-hand side variables {extra} "
            "do not occur on the left"
        )


def check_trs(trs: TRS) -> None:
    names = [r.name for r in trs.rules]
    if len(names) != len(set(names)):
        raise ValueError("duplicate rule names")
    for r in trs.rules:
        check_rule(r, trs.sig)


# ---------------------------------------------------------------------------
# Unification and overlap detection


def _resolve(t: FiniteTerm, subst: Substitution) -> FiniteTerm:
    while t.is_var and t.symbol in subst:
        t = subst[t.symbol]  # type: ignore[index]
    return t


def _occurs(name: str, t: FiniteTerm, subst: Substitution) -> bool:
    t = _resolve(t, subst)
    if t.is_var:
        return t.symbol == name
    return any(_occurs(name, c, subst) for c in t.children)


def unify(
    s: FiniteTerm, t: FiniteTerm, subst: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Most general unifier of two total terms, or None.

    Triangular form: bindings may mention other bound variables; use
    `_resolve` (or apply repeatedly) to read values off.  Includes the occurs
    check, so the result is always a finite unifier.
    """
    subst = dict(subst) if subst else {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = _resolve(a, subst), _resolve(b, subst)
        if a.is_var and b.is_var and a.symbol == b.symbol:
            continue
        if a.is_var:
            if _occurs(a.symbol, b, subst):  # type: ignore[arg-type]
                return None
            subst[a.symbol] = b  # type: ignore[index]
            continue
        if b.is_var:
            if _occurs(b.symbol, a, subst):  # type: ignore[arg-type]
                return None
            subst[b.symbol] = a  # type: ignore[index]
            continue
        if a.symbol != b.symbol or len(a.children) != len(b.children):
            return None
        stack.extend(zip(a.children, b.children))
    return subst


def _primed(t: FiniteTerm) -> FiniteTerm:
    """Rename every variable apart (x becomes x')."""
    if t.is_var:
        return var(t.symbol + "'")  # type: ignore[operator]
    if t.is_bottom:
        return t
    return FiniteTerm(t.symbol, tuple(_primed(c) for c in t.children))


def _nonvar_positions(t: FiniteTerm) -> List[Occurrence]:
    return sorted(
        (w for w, _ in occurrences(t).items() if not subterm(t, w).is_var),
        key=occ_sort_key,
    )


def orthogonality_conflicts(trs: TRS) -> List[str]:
    """Human-readable reasons the system fails to be orthogonal."""
    conflicts = []
    for r in trs.rules:
        if not is_linear(r.lhs):
            conflicts.append(f"rule {r.name} is not left-linear")
    for r1 in trs.rules:
        for r2 in trs.rules:
            fresh = _primed(r2.lhs)
            for w in _nonvar_positions(r1.lhs):
                if r1.name == r2.name and not w:
                    continue
                if unify(subterm(r1.lhs, w), fresh) is not None:
                    at = "the root" if not w else f"position {w}"
                    conflicts.append(
                        f"rules {r1.name} and {r2.name} overlap at {at} of "
                        f"{r1.name}'s left-hand side"
                    )
    return conflicts


def is_infinite_copying(rule: RewriteRule) -> bool:
    """Does the right-hand side place a variable under a cycle?

    Such a rule duplicates a subterm infinitely often in one step; the
    parallel-reduction machinery refuses them (the graph engine does not).
    """
    g = rule.rhs.graph
    return any(
        g.is_empty_node(m) and m not in rule.rhs.bottoms
        for n in cycle_nodes(g, rule.rhs.point)
        for m in g.reachable(n)
    )


# ---------------------------------------------------------------------------
# Graph-level rules


@dataclass(frozen=True)
class EvaluationRule:
    """A graph rewrite rule L <- K -> R (see the module docstring).

    The left leg is the identity inclusion of K into L, so it is not stored;
    `r` sends each K node to its R image.
    """

    name: str
    L: TermGraph
    root: NodeId
    K: TermGraph
    R: TermGraph
    r: Dict[NodeId, NodeId]

    def is_collapsing(self) -> bool:
        return self.R.is_empty_node(self.r[self.root])


@dataclass(frozen=True)
class TGRS:
    """A signature together with named evaluation rules."""

    sig: Signature
    rules: Tuple[EvaluationRule, ...]

    def rule(self, name: str) -> EvaluationRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(f"no rule named {name}")


def check_evaluation_rule(er: EvaluationRule, sig: Signature) -> None:
    """Raise ValueError unless L <- K -> R is a well-formed rule span."""
    check_wellformed(er.L, sig)
    check_wellformed(er.R, sig)
    if not er.L.is_labelled(er.root):
        raise ValueError(f"rule {er.name}: root must be labelled in L")
    if not is_tree(er.L, er.root):
        raise ValueError(f"rule {er.name}: L must be a tree rooted at {er.root}")
    # K is exactly L with the root's label and successors removed.
    if set(er.K.nodes) != set(er.L.nodes):
        raise ValueError(f"rule {er.name}: K must have the same nodes as L")
    expect_labels = {n: l for n, l in er.L.labels.items() if n != er.root}
    expect_succs = {n: s for n, s in er.L.succs.items() if n != er.root}
    if er.K.labels != expect_labels or er.K.succs != expect_succs:
        raise ValueError(
            f"rule {er.name}: K must be L with the root's content removed"
        )
    if set(er.r) != set(er.K.nodes):
        raise ValueError(f"rule {er.name}: r must be defined on exactly K's nodes")
    check_morphism(GraphMorphism(er.K, er.R, dict(er.r)))
    covered = set()
    for n in er.r.values():
        covered |= er.R.reachable(n)
    if covered != set(er.R.nodes):
        stray = sorted(set(er.R.nodes) - covered)
        raise ValueError(f"rule {er.name}: unreachable nodes {stray} in R")


def graph_of_rule(rule: RewriteRule, sig: Signature) -> EvaluationRule:
    """Translate a term rule into its evaluation-rule presentation.

    L is the tree of the (linear) left-hand side, with operator nodes at
    occurrence-derived ids and variable nodes named by the variable.  K drops
    the root's content.  R presents the right-hand side jointly with every
    proper subterm of the left-hand side, so r can send each K node to the
    class of the subterm it denotes.
    """
    check_rule(rule, sig)
    left = rational_of_term(rule.lhs, prefix="l")
    L, root = left.graph, left.point
    K = TermGraph.of(
        L.nodes,
        {n: l for n, l in L.labels.items() if n != root},
        {n: s for n, s in L.succs.items() if n != root},
    )
    rest = [n for n in L.nodes if n != root]
    L_minus_root = L.restricted(rest)
    items = [rule.rhs] + [RationalTerm(L_minus_root, n) for n in rest]
    R, points, _ = graph_of_terms(items)
    r = {root: points[0]}
    for n, p in zip(rest, points[1:]):
        r[n] = p
    er = EvaluationRule(rule.name, L, root, K, R, r)
    check_evaluation_rule(er, sig)
    return er


def unravel_rule(er: EvaluationRule, sig: Signature) -> RewriteRule:
    """Translate an evaluation rule back to the term level.

    The left-hand side is the unraveling of L (a finite tree, so any depth
    beyond its node count is exact); the right-hand side is R pointed at the
    image of the root, with variables renamed back to L's variable names via
    r (which is injective on variable nodes for a well-formed rule).
    """
    check_evaluation_rule(er, sig)
    lhs = unravel(er.L, er.root, len(er.L.nodes) + 1)
    renames: Dict[NodeId, str] = {}
    for v in er.L.varnodes():
        img = er.r[v]
        if img in renames and renames[img] != v:
            raise ValueError(
                f"rule {er.name}: r identifies variables "
                f"{renames[img]} and {v}; cannot unravel"
            )
        renames[img] = v
    rhs = RationalTerm(
        er.R,
        er.r[er.root],
        frozenset(),
        tuple(sorted(renames.items(), key=lambda kv: node_key(kv[0]))),
    )
    rule = RewriteRule(er.name, lhs, rhs)
    check_rule(rule, sig)
    return rule


def graph_trs(trs: TRS) -> TGRS:
    return TGRS(trs.sig, tuple(graph_of_rule(r, trs.sig) for r in trs.rules))
