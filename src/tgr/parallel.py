"""Parallel rewriting of rational terms, finite and infinite.

This module implements term-level rewriting where the term is presented as a
pointed graph but the semantics is positional: a redex is an *occurrence*
(a path from the point) together with a rule, not a node.  Sharing in the
carrier is representation only — reducing one occurrence of a shared node
leaves its other occurrences alone, which is exactly where term rewriting
and graph rewriting part ways.

The pieces:

- `Redex`, `find_redexes`, `reduce`: single-step rewriting at one occurrence,
  implemented by copying the spine from the point down to the redex so the
  rest of the carrier keeps its sharing.
- `residuals`, `complete_development`: what happens to other redexes when one
  is contracted, and the (finite, order-independent) development of a finite
  redex set.  Requires orthogonality.
- `RationalRedexSet`: the possibly infinite set of occurrences of one matched
  node, membership decided by walking the carrier.  These are the redex sets
  a single graph-rewrite step stands for.
- `infinite_parallel_reduce`: the oracle.  It develops an infinite redex set
  as the limit of an ascending chain of finite approximants, each computed
  exactly as a rational term (no depth truncation), and cross-checks the
  chain limit against an independently built symbolic limit graph.
- `develop_rational`: simultaneous development of whole node-induced redex
  sets directly on the carrier (graft for ordinary rules, redirect for
  collapsing ones, with divergent redirect cycles becoming holes).

Rules whose right-hand side repeats a variable infinitely often (a variable
under a cycle) have no finite developments at all; everything here refuses
them up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .graphs import (
    NodeId,
    RationalTerm,
    TermGraph,
    count_paths,
    cycle_nodes,
    node_key,
    occurrences_to,
    rational_approx_leq,
    truncated_equal,
)
from .rules import RewriteRule, TRS, is_infinite_copying
from .terms import (
    FiniteTerm,
    Occurrence,
    occ_format,
    occ_leq,
    occ_sort_key,
    occurrences,
    subterm,
)


class OracleError(Exception):
    """The parallel-reduction oracle could not produce a trusted answer."""


class UnsupportedRuleError(OracleError):
    """Raised for rules with no finite developments (see module docstring)."""


def _refuse_infinite_copying(rule: RewriteRule) -> None:
    if is_infinite_copying(rule):
        raise UnsupportedRuleError(
            f"rule {rule.name} copies a variable infinitely often; "
            "its developments are not finite"
        )


# ---------------------------------------------------------------------------
# Redexes


@dataclass(frozen=True, eq=False)
class Redex:
    """A rule occurrence in a term: position plus rule."""

    occ: Occurrence
    rule: RewriteRule

    @property
    def key(self) -> Tuple[Tuple[int, ...], str]:
        return (self.occ, self.rule.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Redex):
            return NotImplemented
        return self.key == other.key

    __hash__ = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"({occ_format(self.occ)}, {self.rule.name})"


def var_positions(rule: RewriteRule) -> Dict[str, Occurrence]:
    """Position of each variable in the (linear) left-hand side."""
    out: Dict[str, Occurrence] = {}
    for w in occurrences(rule.lhs):
        s = subterm(rule.lhs, w)
        if s.is_var:
            out[s.symbol] = w  # type: ignore[index]
    return out


def rule_matches_at(
    g: TermGraph,
    n: NodeId,
    rule: RewriteRule,
    bottoms: FrozenSet[NodeId] = frozenset(),
) -> bool:
    """Does the left-hand side match the term the graph presents at n?

    Pattern variables match anything, including holes and empty nodes; every
    operator position of the pattern must find the same label.
    """

    def walk(pat: FiniteTerm, at: NodeId) -> bool:
        if pat.is_var:
            return True
        if at in bottoms or g.labels.get(at) != pat.symbol:
            return False
        return all(walk(c, s) for c, s in zip(pat.children, g.succs[at]))

    return walk(rule.lhs, n)


def matching_nodes(
    rt: RationalTerm, rule: RewriteRule
) -> List[NodeId]:
    """Reachable nodes where the rule's left-hand side matches."""
    return [
        n
        for n in sorted(rt.graph.reachable(rt.point), key=node_key)
        if rule_matches_at(rt.graph, n, rule, rt.bottoms)
    ]


def find_redexes(
    rt: RationalTerm,
    rules: "Sequence[RewriteRule] | TRS",
    maxlen: int,
    max_count: Optional[int] = None,
) -> List[Redex]:
    """All redexes at occurrences of length <= maxlen, length-lex order.

    Ties at one position are ordered by rule name (in an orthogonal system
    they cannot arise, but the order is total regardless).
    """
    if isinstance(rules, TRS):
        rules = rules.rules
    out: List[Redex] = []
    for rule in rules:
        for n in matching_nodes(rt, rule):
            for w in occurrences_to(rt.graph, rt.point, n, maxlen):
                out.append(Redex(w, rule))
    out.sort(key=lambda r: (occ_sort_key(r.occ), r.rule.name))
    if max_count is not None:
        out = out[:max_count]
    return out


# ---------------------------------------------------------------------------
# Single-step reduction (spine copy + splice)


def _fresh_namer(used: set) -> "callable":
    counters: Dict[str, int] = {}

    def fresh(base: str) -> NodeId:
        i = counters.get(base, 0)
        while f"{base}{i}" in used:
            i += 1
        counters[base] = i + 1
        nid = f"{base}{i}"
        used.add(nid)
        return nid

    return fresh


def _import_rhs(
    rule: RewriteRule,
    g: TermGraph,
    at: NodeId,
    labels: Dict[NodeId, str],
    succs: Dict[NodeId, Tuple[NodeId, ...]],
    new_id: Callable[[], NodeId],
    point_id: Optional[NodeId] = None,
) -> NodeId:
    """Copy the live right-hand side of a rule matched at `at` into the given
    label and successor maps; returns the image of its point.

    Pattern variables are bound by walking g from `at`.  Labelled nodes get
    `new_id()` in node order, except that the point takes `point_id` when
    given.  A collapsing rule copies nothing and returns its variable's image.
    """
    bind = {x: g.walk(at, v) for x, v in var_positions(rule).items()}
    rhs = rule.rhs
    live = sorted(rhs.graph.reachable(rhs.point), key=node_key)
    imported: Dict[NodeId, NodeId] = {}
    for n in live:
        if rhs.graph.is_empty_node(n):
            imported[n] = bind[rhs.render_name(n)]
        elif n == rhs.point and point_id is not None:
            imported[n] = point_id
        else:
            imported[n] = new_id()
    for n in live:
        lbl = rhs.graph.labels.get(n)
        if lbl is not None:
            labels[imported[n]] = lbl
            succs[imported[n]] = tuple(imported[s] for s in rhs.graph.succs[n])
    return imported[rhs.point]


def reduce(rt: RationalTerm, redex: Redex) -> RationalTerm:
    """Contract one redex occurrence; the term-level small step.

    The nodes along the path from the point to the redex are copied (so
    occurrences sharing them are untouched), and the right-hand side is
    spliced in at the bottom of the copied spine with the pattern's variables
    bound by walking from the redex node.
    """
    g, rule = rt.graph, redex.rule
    spine = [rt.point]
    for i in redex.occ:
        succ = g.succs.get(spine[-1])
        if succ is None or i > len(succ):
            raise ValueError(
                f"{occ_format(redex.occ)} is not an occurrence of the term"
            )
        spine.append(succ[i - 1])
    hub = spine[-1]
    if not rule_matches_at(g, hub, rule, rt.bottoms):
        raise ValueError(
            f"rule {rule.name} does not match at {occ_format(redex.occ)}"
        )

    used = set(g.nodes)
    fresh = _fresh_namer(used)
    labels = dict(g.labels)
    succs = dict(g.succs)
    point = _import_rhs(rule, g, hub, labels, succs, lambda: fresh("r#"))

    # Copy the spine bottom-up, rerouting one child per level.
    for depth in range(len(redex.occ) - 1, -1, -1):
        orig = spine[depth]
        copy = fresh("s#")
        ss = list(g.succs[orig])
        ss[redex.occ[depth] - 1] = point
        labels[copy] = g.labels[orig]
        succs[copy] = tuple(ss)
        point = copy

    out = TermGraph.of(used, labels, succs)
    return RationalTerm(out, point, rt.bottoms, rt.var_names)


# ---------------------------------------------------------------------------
# Residuals and finite developments


def _rhs_variable_occurrences(rule: RewriteRule, name: str) -> List[Occurrence]:
    """Occurrences of a left-hand-side variable in the right-hand side.

    Finite and complete for non-copying rules: a path longer than the carrier
    revisits a node, which would put the variable under a cycle.
    """
    _refuse_infinite_copying(rule)
    rhs = rule.rhs
    target = None
    ren = rhs.renaming()
    for n in rhs.graph.varnodes():
        if ren.get(n, n) == name:
            target = n
            break
    if target is None:
        return []
    return list(occurrences_to(rhs.graph, rhs.point, target, len(rhs.graph.nodes)))


def residuals(redex: Redex, contracted: Redex) -> List[Redex]:
    """What is left of one redex after contracting another.

    Three cases: the contracted redex itself vanishes; a redex not strictly
    below it is untouched; a redex under a pattern variable reappears at that
    variable's occurrences in the right-hand side.  A redex strictly below
    the contracted one that is *not* under a variable would be an overlap,
    which orthogonality rules out.
    """
    w, wp = redex.occ, contracted.occ
    if redex == contracted:
        return []
    if not (occ_leq(wp, w) and w != wp):
        return [redex]
    rest = w[len(wp):]
    for x, vx in var_positions(contracted.rule).items():
        if occ_leq(vx, rest):
            tail = rest[len(vx):]
            return [
                Redex(wp + hatx + tail, redex.rule)
                for hatx in _rhs_variable_occurrences(contracted.rule, x)
            ]
    raise OracleError(
        f"redex {redex.describe()} overlaps {contracted.describe()}; "
        "the system is not orthogonal"
    )


def _dedup_sorted(redexes: Sequence[Redex]) -> List[Redex]:
    out: List[Redex] = []
    seen = set()
    for r in sorted(redexes, key=lambda r: (occ_sort_key(r.occ), r.rule.name)):
        if r.key not in seen:
            seen.add(r.key)
            out.append(r)
    return out


def residuals_of_set(redexes: Sequence[Redex], contracted: Redex) -> List[Redex]:
    out: List[Redex] = []
    for r in redexes:
        out.extend(residuals(r, contracted))
    return _dedup_sorted(out)


@dataclass
class Development:
    """A finished complete development."""

    result: RationalTerm
    steps: List[Redex]
    extras: List[List[Redex]]  # residuals of the tracked sets


def complete_development(
    rt: RationalTerm,
    redexes: Sequence[Redex],
    order: str = "outermost",
    extras: Sequence[Sequence[Redex]] = (),
) -> Development:
    """Contract a finite redex set to completion.

    `order` picks which member to contract next ("outermost": length-lex
    first; "innermost": length-lex last); by orthogonality the result does
    not depend on it.  `extras` are additional redex sets carried through by
    residuals, e.g. to set up a confluence join.
    """
    if order not in ("outermost", "innermost"):
        raise ValueError(f"unknown order {order!r}")
    for r in redexes:
        _refuse_infinite_copying(r.rule)
    remaining = _dedup_sorted(redexes)
    tracked = [_dedup_sorted(e) for e in extras]
    current = rt
    steps: List[Redex] = []
    while remaining:
        pick = remaining[0] if order == "outermost" else remaining[-1]
        current = reduce(current, pick).trimmed()
        steps.append(pick)
        remaining = residuals_of_set([r for r in remaining if r != pick], pick)
        tracked = [residuals_of_set(t, pick) for t in tracked]
    return Development(current, steps, tracked)


def join_parallel(
    rt: RationalTerm,
    left: Sequence[Redex],
    right: Sequence[Redex],
    order: str = "outermost",
) -> "ParallelJoin":
    """The strong-confluence diamond for two finite redex sets.

    Develops each set, pushes the other through by residuals, develops the
    residuals, and reports both corners; for an orthogonal system the two
    final terms are equal.
    """
    dl = complete_development(rt, left, order, extras=[right])
    dr = complete_development(rt, right, order, extras=[left])
    join_l = complete_development(dl.result, dl.extras[0], order)
    join_r = complete_development(dr.result, dr.extras[0], order)
    ok = join_l.result.trimmed() == join_r.result.trimmed()
    return ParallelJoin(dl.result, dr.result, join_l.result, join_r.result, ok)


@dataclass
class ParallelJoin:
    left: RationalTerm
    right: RationalTerm
    left_then_right: RationalTerm
    right_then_left: RationalTerm
    commutes: bool


# ---------------------------------------------------------------------------
# Rational redex sets


@dataclass(frozen=True, eq=False)
class RationalRedexSet:
    """All occurrences of one matched node: the redex set of a graph step.

    Membership is positional — an occurrence belongs to the set exactly when
    walking it from the start node arrives at the target node — so the set is
    decidable, possibly infinite, and always rational.
    """

    carrier: TermGraph
    start: NodeId
    target: NodeId
    rule: RewriteRule
    bottoms: FrozenSet[NodeId] = frozenset()
    var_names: Tuple[Tuple[NodeId, str], ...] = ()

    def __post_init__(self):
        if not rule_matches_at(self.carrier, self.target, self.rule, self.bottoms):
            raise ValueError(
                f"rule {self.rule.name} does not match at node {self.target}"
            )

    def contains(self, w: Occurrence) -> bool:
        return self.carrier.walk(self.start, w) == self.target

    def is_finite(self) -> bool:
        """Finite iff no cycle node that the start reaches co-reaches the
        target."""
        return not any(
            self.target in self.carrier.reachable(n)
            for n in cycle_nodes(self.carrier, self.start)
        )

    def count_below(self, strict_len_bound: int) -> int:
        """|{w in the set : |w| < bound}| (see `count_paths`)."""
        return count_paths(self.carrier, self.start, strict_len_bound, self.target)


def enumerate_occurrences(
    rs: RationalRedexSet,
    count: Optional[int] = None,
    maxlen: Optional[int] = None,
) -> List[Occurrence]:
    """The first members of the set in length-lex order.

    At least one of `count` and `maxlen` is required (the set may be
    infinite).  Both prefixes of the same enumeration, so any two calls agree
    on their common length.
    """
    if count is None and maxlen is None:
        raise ValueError("need a count or a length bound")
    if count is not None and count <= 0:
        return []
    occs = occurrences_to(rs.carrier, rs.start, rs.target, maxlen)
    return list(islice(occs, count))


# ---------------------------------------------------------------------------
# Chain approximants, exactly


def _cut_graph(
    rs: RationalRedexSet, kept: Sequence[Occurrence]
) -> Tuple[RationalTerm, List[NodeId]]:
    """The approximant that keeps the given members and cuts the rest.

    The term agrees with the full unraveling except that every set member
    *not* in `kept` is replaced by a hole.  `kept` must be downward closed in
    the set under the prefix order (prefix-respecting enumerations guarantee
    this), which also guarantees no cut ever lands strictly inside a kept
    redex's pattern.

    Nodes are (carrier node, trie state) pairs, the trie being the prefix
    tree of `kept`; since a trie state *is* a path, the kept redex nodes are
    unshared and in bijection with `kept`.  Everything stays finite and
    exact — no depth truncation is involved.  Returns the term and the kept
    redex nodes in enumeration order.
    """
    g = rs.carrier
    ren = dict(rs.var_names)
    elements = set(kept)
    prefixes = {w[:i] for w in kept for i in range(len(w) + 1)}
    prefixes.add(())

    def node_id(m: NodeId, st: Optional[Occurrence]) -> NodeId:
        if st is None:
            return f"{m}@*"
        return f"{m}@" + ("e" if not st else "-".join(map(str, st)))

    nodes: List[NodeId] = []
    labels: Dict[NodeId, str] = {}
    succs: Dict[NodeId, Tuple[NodeId, ...]] = {}
    bottoms: List[NodeId] = []
    names: List[Tuple[NodeId, str]] = []

    todo: List[Tuple[NodeId, Optional[Occurrence]]] = [(rs.start, ())]
    seen = {(rs.start, ())}
    while todo:
        m, st = todo.pop()
        nid = node_id(m, st)
        nodes.append(nid)
        if m == rs.target and not (st is not None and st in elements):
            bottoms.append(nid)  # a member beyond the kept prefix: cut
            continue
        if m in rs.bottoms:
            bottoms.append(nid)
            continue
        lbl = g.labels.get(m)
        if lbl is None:
            names.append((nid, ren.get(m, m)))  # variable keeps its name
            continue
        ss = []
        for k, s in enumerate(g.succs[m], start=1):
            child_st: Optional[Occurrence] = None
            if st is not None and st + (k,) in prefixes:
                child_st = st + (k,)
            ss.append(node_id(s, child_st))
            if (s, child_st) not in seen:
                seen.add((s, child_st))
                todo.append((s, child_st))
        labels[nid] = lbl
        succs[nid] = tuple(ss)

    term = RationalTerm(
        TermGraph.of(nodes, labels, succs),
        node_id(rs.start, ()),
        frozenset(bottoms),
        tuple(sorted(names, key=lambda kv: node_key(kv[0]))),
    )
    redex_nodes = [node_id(rs.target, w) for w in kept]
    return term, redex_nodes


def chain_term(rs: RationalRedexSet, i: int, depth: int) -> FiniteTerm:
    """The i-th chain approximant, rendered to the given depth.

    Keeps the first i members of the length-lex enumeration and cuts the
    rest; `chain_term(rs, i, d)` for increasing i is an ascending chain whose
    least upper bound is the full unraveling.
    """
    kept = enumerate_occurrences(rs, count=i)
    cut, _ = _cut_graph(rs, kept)
    return cut.unravel(depth)


# ---------------------------------------------------------------------------
# Simultaneous development of node-induced redex sets


def develop_rational(
    rt: RationalTerm, components: Sequence[Tuple[NodeId, RewriteRule]]
) -> Tuple[RationalTerm, Dict[NodeId, NodeId]]:
    """Develop every occurrence of each target node at once, on the carrier.

    For an ordinary rule the target keeps its node id and takes over the
    right-hand side's root, with fresh copies of the right-hand side's inner
    nodes and variables bound by walking the *original* carrier from the
    target.  A collapsing rule turns its target into a redirection to the
    bound variable; chains of redirections resolve to their endpoint, and a
    redirection cycle (a term collapsing into itself forever) resolves to a
    fresh hole.

    Returns the developed term and the resolution map for redirected nodes.
    Orthogonality matters: targets must be distinct nodes, and no target may
    sit strictly inside another's pattern (that would be an overlap).
    """
    g = rt.graph
    targets: Dict[NodeId, RewriteRule] = {}
    for m, rule in components:
        if m in targets:
            raise ValueError(f"duplicate development target {m}")
        _refuse_infinite_copying(rule)
        if not rule_matches_at(g, m, rule, rt.bottoms):
            raise ValueError(f"rule {rule.name} does not match at node {m}")
        targets[m] = rule

    used = set(g.nodes)
    fresh = _fresh_namer(used)
    labels = {n: l for n, l in g.labels.items() if n not in targets}
    succs = {n: s for n, s in g.succs.items() if n not in targets}
    redirect: Dict[NodeId, NodeId] = {}

    for m in sorted(targets, key=node_key):
        rule = targets[m]
        image = _import_rhs(rule, g, m, labels, succs, lambda: fresh("g#"), m)
        if rule.is_collapsing():
            redirect[m] = image

    resolved: Dict[NodeId, NodeId] = {}
    fresh_holes: List[NodeId] = []

    def resolve(n0: NodeId) -> NodeId:
        path: List[NodeId] = []
        cur = n0
        while True:
            if cur in resolved:
                end = resolved[cur]
                break
            if cur not in redirect:
                end = cur
                break
            if cur in path:
                end = fresh("b#")  # divergent collapse: a hole
                fresh_holes.append(end)
                break
            path.append(cur)
            cur = redirect[cur]
        for p in path:
            resolved[p] = end
        return end

    for m in sorted(redirect, key=node_key):
        resolve(m)

    def final(n: NodeId) -> NodeId:
        return resolved.get(n, n)

    out = TermGraph.of(
        [n for n in used if n not in redirect],
        labels,
        {n: tuple(final(s) for s in ss) for n, ss in succs.items()},
    )
    developed = RationalTerm(
        out,
        final(rt.point),
        rt.bottoms | frozenset(fresh_holes),
        rt.var_names,
    )
    return developed, dict(resolved)


# ---------------------------------------------------------------------------
# The oracle


class ConvergenceError(OracleError):
    """The chain limit failed its independent cross-check.

    By the sufficiency of the occurrence threshold this indicates a bug, so
    the oracle refuses to return rather than hand back an untrusted value.
    """


def threshold_length(rule: RewriteRule, depth: int) -> int:
    """Occurrence length below which members must be developed so the
    approximant is settled on all positions shorter than `depth`.

    An ordinary rule moves a residual at least one level of its own depth per
    nesting level, losing at most the deepest used variable position each
    time; a collapsing rule instead *consumes* its variable's depth, so the
    bound grows by one extra round.  The bound is deliberately generous: a
    cheap over-approximation that the convergence cross-check backstops.
    """
    vpos = var_positions(rule)
    if rule.is_collapsing():
        return (depth + 1) * (len(vpos[rule.collapse_variable()]) + 1) + 1
    used = set(rule.rhs.variables())
    maxv = max((len(vpos[x]) for x in used), default=1)
    return max(depth * (maxv + 1), 1)


@dataclass
class ChainSample:
    """One inspected element of the approximating chain."""

    index: int
    approximant: RationalTerm  # the cut term, i members kept
    developed: RationalTerm  # its complete development


@dataclass
class OracleReport:
    """Everything `infinite_parallel_reduce` computed and checked."""

    redexes: RationalRedexSet
    depth: int
    effective_depth: int
    threshold: int
    occurrences: List[Occurrence]
    samples: List[ChainSample]
    limit: RationalTerm  # development of the last approximant
    symbolic_limit: RationalTerm  # independently developed on the carrier
    monotone_ok: bool
    limit_agrees: bool
    doublings: int

    def sample(self, i: int) -> ChainSample:
        for s in self.samples:
            if s.index == i:
                return s
        raise KeyError(f"index {i} was not sampled")


def _sample_indices(n: int, small: int) -> List[int]:
    out = list(range(0, min(n, small) + 1))
    i = max(small, 1) * 2
    while i < n:
        out.append(i)
        i *= 2
    if n not in out:
        out.append(n)
    return sorted(set(x for x in out if 0 <= x <= n))


def infinite_parallel_reduce(
    rs: RationalRedexSet,
    depth: int = 16,
    min_occurrences: Optional[int] = None,
    budget: int = 2048,
    approximants_up_to: int = 16,
    occurrences: Optional[Sequence[Occurrence]] = None,
    sample_at: Optional[Sequence[int]] = None,
) -> OracleReport:
    """Develop a rational redex set in full: the infinite parallel step.

    The result is the least upper bound of the developments of an ascending
    chain of finite approximants (`_cut_graph` of enumeration prefixes).  The
    number of members needed so the limit is exact on positions shorter than
    `depth` comes from `threshold_length`; when that many members would
    exceed `budget`, the largest depth whose requirement fits is used instead
    and reported as `effective_depth`.  `min_occurrences` raises the member
    count, never lowers it.

    `occurrences` overrides the enumeration with a caller-supplied one, which
    must be prefix-respecting (every member of the set that is a proper
    prefix of a listed occurrence appears earlier in the list).

    Three independent views must agree before anything is returned: the
    sampled chain must be ascending, and the last development must coincide
    with the symbolic limit (`develop_rational` on the untouched carrier) up
    to `effective_depth`.

    `sample_at` restricts which chain indices are inspected (0 and the final
    index are always included); by default every index up to
    `approximants_up_to` is inspected and then geometrically many more.
    """
    _refuse_infinite_copying(rs.rule)
    threshold = threshold_length(rs.rule, depth)

    if occurrences is not None:
        occs = [tuple(w) for w in occurrences]
        seen = set()
        for w in occs:
            if not rs.contains(w):
                raise ValueError(f"{occ_format(w)} is not in the redex set")
            for i in range(len(w)):
                p = w[:i]
                if p not in seen and rs.contains(p):
                    raise ValueError(
                        "enumeration is not prefix-respecting: "
                        f"{occ_format(p)} missing before {occ_format(w)}"
                    )
            seen.add(w)
        # Trust only the depth whose required members are all present.
        eff_depth = depth
        while eff_depth > 0:
            bound = threshold_length(rs.rule, eff_depth)
            have = sum(1 for w in occs if len(w) < bound)
            if have == rs.count_below(bound):
                break
            eff_depth -= 1
        allow_doubling = False
    else:
        eff_depth = depth
        needed = rs.count_below(threshold)
        if needed > budget:
            d = depth
            while d > 0 and rs.count_below(threshold_length(rs.rule, d)) > budget:
                d -= 1
            eff_depth = d
            needed = rs.count_below(threshold_length(rs.rule, eff_depth))
        n = max(needed, min_occurrences or 0)
        occs = enumerate_occurrences(rs, count=n)
        allow_doubling = True

    carrier_term = RationalTerm(rs.carrier, rs.start, rs.bottoms, rs.var_names)
    symbolic, _ = develop_rational(carrier_term, [(rs.target, rs.rule)])

    doublings = 0
    while True:
        if sample_at is not None:
            indices = sorted(
                {min(max(i, 0), len(occs)) for i in sample_at} | {0, len(occs)}
            )
        else:
            indices = _sample_indices(len(occs), approximants_up_to)
        samples: List[ChainSample] = []
        monotone_ok = True
        for i in indices:
            cut, redex_nodes = _cut_graph(rs, occs[:i])
            developed, _ = develop_rational(
                cut, [(nid, rs.rule) for nid in redex_nodes]
            )
            developed = developed.trimmed()
            if samples:
                prev = samples[-1]
                if not rational_approx_leq(prev.approximant, cut):
                    monotone_ok = False
                if not rational_approx_leq(prev.developed, developed):
                    monotone_ok = False
            samples.append(ChainSample(i, cut, developed))
        if not monotone_ok:
            raise OracleError(
                "approximating chain is not ascending; refusing the result"
            )
        limit = samples[-1].developed if samples else carrier_term
        limit_agrees = truncated_equal(limit, symbolic, eff_depth)
        if limit_agrees:
            return OracleReport(
                rs,
                depth,
                eff_depth,
                threshold,
                occs,
                samples,
                limit,
                symbolic,
                monotone_ok,
                limit_agrees,
                doublings,
            )
        # The threshold says this cannot happen; before concluding a bug,
        # rule out an off-by-a-few by taking more of the enumeration.
        if not allow_doubling or doublings >= 4:
            raise ConvergenceError(
                f"chain limit disagrees with the symbolic limit at depth "
                f"{eff_depth} after {doublings} extensions"
            )
        doublings += 1
        more = enumerate_occurrences(rs, count=max(2 * len(occs), 8))
        if len(more) == len(occs):  # the set was finite and fully developed
            raise ConvergenceError(
                "redex set exhausted but the developments still disagree"
            )
        occs = more
