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
no overlaps, found by one walk over operator positions (`overlaps`) — and
guarantees that distinct redexes in one graph never interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .graphs import (
    GraphMorphism,
    NodeId,
    PathCounts,
    RationalTerm,
    TermGraph,
    check_morphism,
    check_wellformed,
    graph_of_terms,
    infinitely_reached,
    is_tree,
    node_key,
    rational_of_term,
    sorted_nodes,
    unravel,
)
from .terms import (
    FiniteTerm,
    Occurrence,
    Signature,
    is_linear,
    is_total,
    occ_sort_key,
    subterms,
    vars_of,
)


# ---------------------------------------------------------------------------
# Term-level rules


def is_infinite_copying(rule: "RewriteRule") -> bool:
    """Does the right-hand side place a variable under a cycle?

    Such a rule duplicates a subterm infinitely often in one step; the
    parallel-reduction machinery refuses them (the graph engine does not).
    """
    g = rule.rhs.graph
    return any(
        g.is_empty_node(m) and m not in rule.rhs.bottoms
        for m in infinitely_reached(g, rule.rhs.point)
    )


Pattern = Tuple[Tuple[Occurrence, str, int], ...]


def pattern(t: FiniteTerm) -> Pattern:
    """The non-variable positions of t in preorder, as (occurrence, symbol,
    arity): what matching and overlap detection compare."""
    return tuple(
        (w, s.symbol, len(s.children)) for w, s in subterms(t) if not s.is_var
    )


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

    @cached_property
    def lhs_pattern(self) -> Pattern:
        """The left-hand side's `pattern`, computed once."""
        return pattern(self.lhs)

    @cached_property
    def var_positions(self) -> Dict[str, Occurrence]:
        """Position of each variable in the (linear) left-hand side."""
        return {s.symbol: w for w, s in subterms(self.lhs) if s.is_var}

    @cached_property
    def rhs_nodes(
        self,
    ) -> Tuple[Tuple[NodeId, Optional[str], Tuple[NodeId, ...], str], ...]:
        """The right-hand side's reachable nodes in node order, as (node,
        label or None for a variable, successors, rendered name)."""
        g, ren = self.rhs.graph, self.rhs.renaming()
        return tuple(
            (n, g.labels.get(n), g.successors(n), ren.get(n, n))
            for n in sorted_nodes(g.reachable(self.rhs.point))
        )

    @cached_property
    def rhs_var_occurrences(self) -> Dict[str, Tuple[Occurrence, ...]]:
        """Each right-hand-side variable's occurrences there, length-lex.

        Finite and complete for rules that are not infinite copying: a path
        longer than the carrier revisits a node, which would put the
        variable under a cycle.
        """
        g, point = self.rhs.graph, self.rhs.point
        names = {n: name for n, lbl, _, name in self.rhs_nodes if lbl is None}
        out: Dict[str, List[Occurrence]] = {x: [] for x in names.values()}
        for w in PathCounts(g, point, names).paths(len(g.nodes)):
            out[names[g.walk(point, w)]].append(w)
        return {x: tuple(ws) for x, ws in out.items()}

    @cached_property
    def lift(self) -> int:
        """How far one contraction can lift a position below a variable x:
        the most |lhs position of x| - |shortest rhs occurrence of x|, or 0."""
        vpos, occs = self.var_positions, self.rhs_var_occurrences.items()
        return max([0, *(len(vpos[x]) - len(ws[0]) for x, ws in occs)])

    copies_infinitely = cached_property(is_infinite_copying)

    def is_collapsing(self) -> bool:
        return self.rhs.graph.is_empty_node(self.rhs.point)


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
    for _, s in subterms(lhs):
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


# ---------------------------------------------------------------------------
# Overlap detection


def overlaps(p1: Pattern, p2: Pattern, same: bool) -> Iterator[Occurrence]:
    """The positions of pattern `p1` where `p2` overlaps it, in length-lex
    order; the root is skipped when `same` (a left-hand side always overlaps
    itself there).  Both are of linear, total terms, their variables kept
    apart, so `p2` unifies with `p1` at w iff each operator position v of
    `p2` that is one of `p1` at w.v carries the same symbol and arity."""
    ops1 = {w: (f, k) for w, f, k in p1}
    ops2 = [(v, (f, k)) for v, f, k in p2]
    for w in sorted(ops1, key=occ_sort_key):
        if (w or not same) and all(ops1.get(w + v, f) == f for v, f in ops2):
            yield w


def orthogonality_conflicts(trs: TRS) -> List[str]:
    """Human-readable reasons the system fails to be orthogonal.  A rule
    that is not left-linear is reported as that alone: `overlaps` is exact
    only on linear patterns."""
    linear = [r for r in trs.rules if is_linear(r.lhs)]
    conflicts = [
        f"rule {r.name} is not left-linear"
        for r in trs.rules
        if not is_linear(r.lhs)
    ]
    for r1 in linear:
        for r2 in linear:
            for w in overlaps(r1.lhs_pattern, r2.lhs_pattern, r1.name == r2.name):
                at = "the root" if not w else f"position {w}"
                conflicts.append(
                    f"rules {r1.name} and {r2.name} overlap at {at} of "
                    f"{r1.name}'s left-hand side"
                )
    return conflicts


# ---------------------------------------------------------------------------
# Graph-level rules


@dataclass(frozen=True)
class EvaluationRule:
    """A graph rewrite rule L <- K -> R (see the module docstring).

    The left leg is the identity inclusion of K into L, so it is not stored;
    `r` sends each K node to its R image, `term_rules` caches `unravel_rule`
    and `plans` caches `dpo`'s gluing plans, one per identification pattern.
    """

    name: str
    L: TermGraph
    root: NodeId
    K: TermGraph
    R: TermGraph
    r: Dict[NodeId, NodeId]
    term_rules: Dict[Signature, RewriteRule] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    plans: Dict[Tuple[int, ...], Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


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
    er = EvaluationRule(rule.name, L, root, K, R, dict(zip([root, *rest], points)))
    check_evaluation_rule(er, sig)
    return er


def unravel_rule(er: EvaluationRule, sig: Signature) -> RewriteRule:
    """Translate an evaluation rule back to the term level.

    The left-hand side is the unraveling of L (a finite tree, so any depth
    beyond its node count is exact); the right-hand side is R pointed at the
    image of the root, with variables renamed back to L's variable names via
    r (which is injective on variable nodes for a well-formed rule).  Both
    rules are checked once per signature: a later call returns the same rule.
    """
    if sig in er.term_rules:
        return er.term_rules[sig]
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
    er.term_rules[sig] = rule
    return rule


def graph_trs(trs: TRS) -> TGRS:
    return TGRS(trs.sig, tuple(graph_of_rule(r, trs.sig) for r in trs.rules))
