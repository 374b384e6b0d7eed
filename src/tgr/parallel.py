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
  rest of the carrier keeps its sharing, and developing the copied redex.
- `residuals`, `complete_development`: what happens to other redexes when one
  is contracted, and the (finite, order-independent) development of a finite
  redex set.  Requires orthogonality.
- `RationalRedexSet`: the possibly infinite set of occurrences of one matched
  node, membership decided by walking the carrier.  These are the redex sets
  a single graph-rewrite step stands for.
- `infinite_parallel_reduce`: the oracle.  It develops an infinite redex set
  as the limit of an ascending chain of finite approximants, all exact views
  of one hash-consed table developed at once, and cross-checks the chain
  limit against an independently built symbolic limit graph.
- `develop_rational`: simultaneous development of whole node-induced redex
  sets directly on the carrier (graft for ordinary rules, redirect for
  collapsing ones, with divergent redirect cycles becoming holes).

Rules whose right-hand side repeats a variable infinitely often (a variable
under a cycle) have no finite developments at all; everything here refuses
them up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .graphs import (
    FreshIds,
    NodeId,
    PathCounts,
    PrefixTrie,
    RationalTerm,
    TermGraph,
    all_approx_leq,
    infinitely_reached,
    node_key,
    sorted_nodes,
    truncated_equal,
)
from .rules import RewriteRule, TRS
from .terms import Occurrence, occ_format, occ_leq, occ_sort_key


class OracleError(Exception):
    """The parallel-reduction oracle could not produce a trusted answer."""


class UnsupportedRuleError(OracleError):
    """Raised for rules with no finite developments (see module docstring)."""


def _refuse_infinite_copying(rule: RewriteRule) -> None:
    if rule.copies_infinitely:
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


def rule_matches_at(
    g: TermGraph,
    n: NodeId,
    rule: RewriteRule,
    bottoms: FrozenSet[NodeId] = frozenset(),
) -> bool:
    """Does the left-hand side match the term the graph presents at n?

    Pattern variables match anything, including holes and empty nodes; every
    operator position of the pattern must find the same label and as many
    successors as the pattern has children.
    """
    for w, symbol, arity in rule.lhs_pattern:
        # every operator above w has matched (preorder), label and successor
        # count alike, so the path to w exists
        m = g.walk(n, w)
        if m in bottoms or g.labels.get(m) != symbol or len(g.succs[m]) != arity:
            return False
    return True


def matching_nodes(
    rt: RationalTerm, rule: RewriteRule
) -> List[NodeId]:
    """Reachable nodes where the rule's left-hand side matches."""
    return [
        n
        for n in sorted_nodes(rt.graph.reachable(rt.point))
        if rule_matches_at(rt.graph, n, rule, rt.bottoms)
    ]


def find_redexes(
    rt: RationalTerm,
    rules: "Sequence[RewriteRule] | TRS",
    maxlen: int,
) -> List[Redex]:
    """All redexes at occurrences of length <= maxlen, length-lex order.

    Ties at one position are ordered by rule name (in an orthogonal system
    they cannot arise, but the order is total regardless).
    """
    if isinstance(rules, TRS):
        rules = rules.rules
    out: List[Redex] = []
    for rule in rules:
        nodes = matching_nodes(rt, rule)
        if nodes:  # one table into all of the rule's matching nodes
            table = PathCounts(rt.graph, rt.point, nodes)
            out += [Redex(w, rule) for w in table.paths(maxlen)]
    out.sort(key=lambda r: (occ_sort_key(r.occ), r.rule.name))
    return out


# ---------------------------------------------------------------------------
# Single-step reduction (spine copy + splice)


def reduce(rt: RationalTerm, redex: Redex) -> RationalTerm:
    """Contract one redex occurrence; the term-level small step.

    The nodes along the path from the point to the redex, the redex node
    included, are copied under fresh ids, each copy pointing at the next,
    so occurrences sharing them are untouched.  Only the redex occurrence
    reaches the copied redex node, so developing that node alone
    (`develop_rational`) contracts exactly this occurrence (Kennaway, Klop,
    Sleep & de Vries, TOPLAS 1994).
    """
    g, rule = rt.graph, redex.rule
    spine = [rt.point]
    for i in redex.occ:
        succ = g.succs.get(spine[-1])
        if succ is None or not 0 < i <= len(succ):
            raise ValueError(
                f"{occ_format(redex.occ)} is not an occurrence of the term"
            )
        spine.append(succ[i - 1])
    if not rule_matches_at(g, spine[-1], rule, rt.bottoms):
        raise ValueError(
            f"rule {rule.name} does not match at {occ_format(redex.occ)}"
        )

    ids = FreshIds("s#")
    copies = [ids.take(g.nodes) for _ in spine]
    labels, succs = dict(g.labels), dict(g.succs)
    for k, orig in enumerate(spine):
        ss = list(g.succs[orig])
        if k < len(redex.occ):  # each copy points at the next
            ss[redex.occ[k] - 1] = copies[k + 1]
        labels[copies[k]], succs[copies[k]] = g.labels[orig], tuple(ss)
    copied = TermGraph.of([*g.nodes, *copies], labels, succs)
    spined = RationalTerm(copied, copies[0], rt.bottoms, rt.var_names)
    return develop_rational(spined, [(copies[-1], rule)])[0]


# ---------------------------------------------------------------------------
# Residuals and finite developments


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
    rest, rule = w[len(wp):], contracted.rule
    for x, vx in rule.var_positions.items():
        if occ_leq(vx, rest):
            _refuse_infinite_copying(rule)
            tail = rest[len(vx):]
            return [
                Redex(wp + hatx + tail, redex.rule)
                for hatx in rule.rhs_var_occurrences.get(x, ())
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
    rt: RationalTerm, left: Sequence[Redex], right: Sequence[Redex]
) -> "ParallelJoin":
    """The strong-confluence diamond for two finite redex sets.

    Develops each set, pushes the other through by residuals, develops the
    residuals, and reports both corners; for an orthogonal system the two
    final terms are equal.
    """
    dl = complete_development(rt, left, extras=[right])
    dr = complete_development(rt, right, extras=[left])
    join_l = complete_development(dl.result, dl.extras[0])
    join_r = complete_development(dr.result, dr.extras[0])
    ok = join_l.result == join_r.result
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

    def is_finite(self) -> bool:
        """Finite iff finitely many paths from the start reach the target."""
        return self.target not in infinitely_reached(self.carrier, self.start)

    @cached_property
    def table(self) -> PathCounts:
        """The path counts of the set, extended as its readers need."""
        return PathCounts(self.carrier, self.start, [self.target])

    @cached_property
    def cycle(self) -> Optional[int]:
        """The length of the shortest cycle through the target, or None."""
        dist, succs = self.table.dist, self.carrier.successors(self.target)
        return min((dist[s] + 1 for s in succs if s in dist), default=None)

    def count_below(self, strict_len_bound: int) -> int:
        """|{w in the set : |w| < bound}|, read off the set's table."""
        return self.table.count(strict_len_bound)


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
    return list(islice(rs.table.paths(maxlen), count))


# ---------------------------------------------------------------------------
# Chain approximants, exactly


class _Cuts:
    """The nodes every cut of one oracle call shares, and where its kept
    members come from: the path counts of the default enumeration, or the
    trie of a caller-supplied one.

    A node is hash-consed on its carrier node and successor nodes, so equal
    keys mean equal unravelings, wherever in the chain they were built, and
    no node changes once built.  Past the kept prefixes each carrier node m
    has one node `m@*`: a hole where m is the target or a hole, a variable
    under its name where m is empty, and otherwise m's label over the past
    nodes of its successors.  `chain` caches what `_cut_graph` builds.
    """

    def __init__(
        self, rs: RationalRedexSet, trie: Optional[PrefixTrie] = None
    ) -> None:
        self.rs, self.trie = rs, trie
        self.table = rs.table
        self.labels: Dict[NodeId, str] = {}
        self.succs: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self.holes: Set[NodeId] = set()
        self.names: Dict[NodeId, str] = {}
        self.redexes: List[NodeId] = []  # kept nodes at the target, in order
        self.chain: Optional[Tuple[int, RationalTerm, RationalTerm, dict]] = None
        self._shared: Dict[Tuple[NodeId, Tuple[NodeId, ...]], NodeId] = {}
        self._states: Dict[Tuple[NodeId, int, int], NodeId] = {}
        self._points: Dict[int, NodeId] = {}
        g, ren = rs.carrier, dict(rs.var_names)
        self.past = {m: f"{m}@*" for m in g.reachable(rs.start)}
        self._points[0] = self.past[rs.start]
        for m, nid in self.past.items():
            if m == rs.target or m in rs.bottoms:
                self.holes.add(nid)  # a hole, or a member not kept: cut
            elif m not in g.labels:
                self.names[nid] = ren.get(m, m)  # a variable keeps its name
            else:
                self.labels[nid] = g.labels[m]
                self.succs[nid] = tuple([self.past[s] for s in g.succs[m]])

    def node(self, m: NodeId, ss: Tuple[NodeId, ...]) -> NodeId:
        """The node at carrier node m over the successor nodes ss."""
        nid = self._shared.get((m, ss))
        if nid is None:
            nid = self._shared[m, ss] = f"{m}@{len(self._shared)}"
            self.labels[nid] = self.rs.carrier.labels[m]
            self.succs[nid] = ss
            if m == self.rs.target:
                self.redexes.append(nid)
        return nid

    def state(self, m: NodeId, r: int, j: int) -> NodeId:
        """The node of the state (m, r, j): the subterm at carrier node m
        that keeps the set members below it shorter than r and the first j
        of length r, and cuts the rest.  It does not depend on the cut, so
        each state is built once per call, children first.  It is m's past
        node when nothing is kept: j is 0 and m's shortest path to the
        target is not shorter than r.

        A successor s whose members of length r - 1 all come before the
        j-th is left of the last kept member's path and keeps what is
        shorter than r; one after it is right of that path and keeps what
        is shorter than r - 1; the one holding it keeps the rest of the j.
        """
        memo, rows, dist = self._states, self.table.rows, self.table.dist
        succs, past = self.rs.carrier.succs, self.past
        new: Dict[tuple, list] = {}  # states to build, with their successors'
        todo = [(m, r, j)]
        while todo:
            state = todo.pop()
            if state in memo or state in new:
                continue
            here, bound, left = state
            if not left and dist.get(here, bound) >= bound:
                memo[state] = past[here]
                continue
            row, kids = rows[bound - 1], []
            for s in succs[here]:
                c = row.get(s, 0)
                if left >= c > 0:  # all of its members of length r - 1
                    kids.append((s, bound, 0))
                else:
                    kids.append((s, bound - 1, left if 0 < left < c else 0))
                left -= c
            new[state] = kids
            todo += kids
        # (r, j > 0) falls from every state to its successors' states
        for state in sorted(new, key=lambda st: (st[1], st[2] > 0)):
            ss = tuple([memo[kid] for kid in new[state]])
            memo[state] = self.node(state[0], ss)
        return memo[m, r, j]

    def point(self, i: int) -> NodeId:
        """The node of the cut that keeps the first i members: the start's
        past node for none, with the default enumeration the state that
        keeps them below the start, and with a supplied one the states of
        its trie below `size[i]`, built children first; each once a call."""
        if i in self._points:
            return self._points[i]
        if self.trie is None:
            self._points[i] = self.state(self.rs.start, *self.table.prefix(i))
            return self._points[i]
        succs, past = self.rs.carrier.succs, self.past
        child, at, limit = self.trie.child, self.trie.at, self.trie.size[i]
        ids: List[NodeId] = [""] * limit  # each trie state's node
        for st in range(limit - 1, -1, -1):
            kids, ss = child[st], []
            for k, s in enumerate(succs[at[st]], 1):
                c = kids.get(k, limit)
                ss.append(ids[c] if c < limit else past[s])
            ids[st] = self.node(at[st], tuple(ss))
        self._points[i] = ids[0]
        return self._points[i]


def _cut_graph(
    rs: RationalRedexSet, cuts: _Cuts, i: int
) -> Tuple[RationalTerm, RationalTerm]:
    """The approximant that keeps the first i members, every member not
    kept cut to a hole, and its complete development.  The kept members
    must be downward closed under the prefix order (prefix-respecting
    enumerations are), so no cut lands inside a kept redex's pattern.

    Both are exact views from `cuts.point(i)`: into the whole table as one
    term, and into its development by one `develop_rational` call at every
    redex node of the table, both rebuilt only once the table has grown
    (the oracle builds a round's states first, so one pair serves it).  The
    point reaches exactly the cut's nodes, the redex nodes among them are
    its kept members, so the view unravels as the cut developed alone
    would (Kennaway, Klop, Sleep & de Vries, TOPLAS 1994).
    """
    point = cuts.point(i)
    if cuts.chain is None or cuts.chain[0] != len(cuts.labels):
        nodes = [*cuts.labels, *cuts.holes, *cuts.names]
        graph = TermGraph.of(nodes, cuts.labels, cuts.succs)
        names = tuple(sorted(cuts.names.items(), key=lambda kv: node_key(kv[0])))
        table = RationalTerm(graph, cuts.past[rs.start], frozenset(cuts.holes), names)
        developed, resolved = develop_rational(
            table, [(n, rs.rule) for n in cuts.redexes]
        )
        cuts.chain = len(cuts.labels), table, developed, resolved
    _, table, developed, resolved = cuts.chain
    end = resolved.get(point, point)
    return (
        RationalTerm(table.graph, point, table.bottoms, table.var_names),
        RationalTerm(developed.graph, end, developed.bottoms, developed.var_names),
    )


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

    A target is a node, not an occurrence: a shared target develops every
    one of its occurrences at once.  (A redex node of `_Cuts` stands for
    kept occurrences only, so on a cut this develops exactly the kept set.)

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
    inner, holes = FreshIds("g#"), FreshIds("b#")
    labels = dict(g.labels)
    succs = dict(g.succs)
    for m in targets:
        del labels[m], succs[m]
    redirect: Dict[NodeId, NodeId] = {}

    for m in sorted_nodes(targets):
        # the right-hand side's point takes over m, its variables are bound
        # by walking g from m, and its other labelled nodes get fresh ids
        rule, image = targets[m], {}
        for n, lbl, _, name in rule.rhs_nodes:
            if lbl is None:
                image[n] = g.walk(m, rule.var_positions[name])
            else:
                image[n] = m if n == rule.rhs.point else inner.take(used)
        used.update(image.values())
        for n, lbl, ss, _ in rule.rhs_nodes:
            if lbl is not None:
                labels[image[n]] = lbl
                succs[image[n]] = tuple([image[s] for s in ss])
        if rule.is_collapsing():
            redirect[m] = image[rule.rhs.point]

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
                end = holes.take(used)  # divergent collapse: a hole
                fresh_holes.append(end)
                break
            path.append(cur)
            cur = redirect[cur]
        for p in path:
            resolved[p] = end
        return end

    for m in sorted_nodes(redirect):
        resolve(m)
    used.update(fresh_holes)
    if redirect:  # edges into a redirected node go to where it resolved
        used -= redirect.keys()
        succs = {
            n: tuple([resolved.get(s, s) for s in ss]) for n, ss in succs.items()
        }

    developed = RationalTerm(
        TermGraph.of(used, labels, succs),
        resolved.get(rt.point, rt.point),
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


def threshold_length(rs: RationalRedexSet, depth: int) -> int:
    """Occurrence length T such that developing the members shorter than T
    settles the limit on all positions shorter than `depth`.

    The developments part only below the residuals of the members left out.
    One of length L has at most ceil(L/g) enclosing members, g the set's
    shortest `cycle`, each lifting it by at most the rule's `lift`
    (Kennaway, Klop, Sleep & de Vries, Inf. & Comp. 1995), so it lands at
    depth >= L (g-lift)/g - lift.  So T is the depth d when nothing lifts or
    nests, ceil((d+lift) g/(g-lift)) when g > lift, else an older bound.
    """
    rule, g = rs.rule, rs.cycle
    if not rule.lift or g is None:
        return depth
    if g > rule.lift:
        return -(-(depth + rule.lift) * g // (g - rule.lift))
    if rule.is_collapsing():  # lift is the collapse variable's depth
        return (depth + 1) * (rule.lift + 1) + 1
    maxv = max(len(rule.var_positions[x]) for x in rule.rhs_var_occurrences)
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
    lift: int  # the rule's, as `threshold_length` read it
    cycle: Optional[int]  # the set's shortest cycle through the target
    occurrences: int  # members kept in the last approximant
    samples: List[ChainSample]
    limit: RationalTerm  # development of the last approximant
    symbolic_limit: RationalTerm  # independently developed on the carrier
    # Always 0: the oracle takes one round and raises when it fails.  Kept
    # because `bench/spans.py` counts it in traced runs; ROADMAP item 5
    # removes that counter and this constant together.
    doublings = 0


# The oracle inspects every chain index up to this one, then doubles.
EVERY_APPROXIMANT_UP_TO = 16


def _sample_indices(n: int) -> List[int]:
    out = list(range(min(n, EVERY_APPROXIMANT_UP_TO) + 1))
    i = 2 * EVERY_APPROXIMANT_UP_TO
    while i < n:
        out.append(i)
        i *= 2
    return sorted({*out, n})


def _prefix_respecting_trie(
    rs: RationalRedexSet, occs: Sequence[Occurrence]
) -> PrefixTrie:
    """The trie of a caller-supplied enumeration, which must list members
    of the set only, each once and after every member that is a proper
    prefix of it.

    One walk down the trie per occurrence, adding the states it lacks,
    finds every member prefix and whether it was listed, and whether the
    occurrence is a member: each new state is checked against its parent's
    successors, as `TermGraph.walk` checks a step.  A missing prefix is
    reported only once the occurrence is known to be a member, a repeat
    only once its prefixes are known to be listed.
    """
    trie = PrefixTrie(rs.start)
    child, at, succs, target = trie.child, trie.at, rs.carrier.succs, rs.target
    lengths = trie.lengths
    listed = set()  # trie states of the occurrences checked so far
    for w in occs:
        st, missing = 0, None
        for i, k in enumerate(w):
            if missing is None and at[st] == target and st not in listed:
                missing = w[:i]
            nxt = child[st].get(k)
            if nxt is None:
                ss = succs.get(at[st])
                if ss is None or not 0 < k <= len(ss):  # no such step
                    st = None
                    break
                nxt = child[st][k] = len(child)
                child.append({})
                at.append(ss[k - 1])
            st = nxt
        if st is None or at[st] != target:
            raise ValueError(f"{occ_format(w)} is not in the redex set")
        if missing is not None:
            raise ValueError(
                "enumeration is not prefix-respecting: "
                f"{occ_format(missing)} missing before {occ_format(w)}"
            )
        if st in listed:
            raise ValueError(f"{occ_format(w)} is listed twice")
        lengths += [0] * (len(w) + 1 - len(lengths))
        lengths[len(w)] += 1
        trie.size.append(len(child))
        listed.add(st)
    return trie


def infinite_parallel_reduce(
    rs: RationalRedexSet,
    depth: int = 16,
    budget: int = 2048,
    occurrences: Optional[Sequence[Occurrence]] = None,
    sample_at: Optional[Sequence[int]] = None,
) -> OracleReport:
    """Develop a rational redex set in full: the infinite parallel step.

    The result is the least upper bound of the developments of an ascending
    chain of finite approximants (`_cut_graph` of enumeration prefixes).  The
    number of members needed so the limit is exact on positions shorter than
    `depth` comes from `threshold_length`; when that many members would
    exceed `budget`, the largest depth whose requirement fits is used instead
    and reported as `effective_depth`.  The count table's rows are read only
    as far as the budget admits.

    `occurrences` overrides the enumeration with a caller-supplied one, which
    must list each member once and be prefix-respecting (every member of the
    set that is a proper prefix of a listed occurrence appears earlier in
    the list); the effective depth is then the largest whose required
    members are all listed.

    Three independent views must agree before anything is returned: the
    sampled chain must be ascending, every sampled development must lie
    below the symbolic limit (`develop_rational` on the untouched carrier),
    its least upper bound, and the last development must coincide with the
    symbolic limit up to `effective_depth`.  The first two checks take one
    walk per chain relation (`all_approx_leq`), three in all.  The threshold
    is proven, so there is one round: a failed check raises (`OracleError`
    for a chain that does not ascend, `ConvergenceError` otherwise).

    `sample_at` restricts which chain indices are inspected (0 and the final
    index are always included); by default every index up to
    `EVERY_APPROXIMANT_UP_TO` is inspected and then geometrically many
    more.
    """
    _refuse_infinite_copying(rs.rule)
    threshold = threshold_length(rs, depth)
    table = rs.table
    if occurrences is not None:
        trie = _prefix_respecting_trie(rs, [tuple(w) for w in occurrences])
        cuts, kept = _Cuts(rs, trie), len(trie.size) - 1
        # the members shorter than `settled` are all listed
        settled, have = 0, 0
        for c in trie.lengths:
            have += c
            if settled >= threshold or table.count(settled + 1) != have:
                break
            settled += 1
        else:  # past the longest listed length the next member is missing
            settled = table.within(have, threshold)
    else:
        cuts = _Cuts(rs)
        # the members shorter than `settled` all fit the budget
        settled = table.within(budget, threshold)
    eff_depth = depth  # trusted where every member it needs is kept
    while eff_depth > 0 and threshold_length(rs, eff_depth) > settled:
        eff_depth -= 1
    if occurrences is None:
        # at effective depth 0 the budget still caps the members
        kept = min(table.count(threshold_length(rs, eff_depth)), budget)

    carrier_term = RationalTerm(rs.carrier, rs.start, rs.bottoms, rs.var_names)
    symbolic, _ = develop_rational(carrier_term, [(rs.target, rs.rule)])

    if sample_at is not None:
        indices = sorted({min(max(i, 0), kept) for i in sample_at} | {0, kept})
    else:
        indices = _sample_indices(kept)
    for i in indices:  # the states first: one table serves every sample
        cuts.point(i)
    samples = [ChainSample(i, *_cut_graph(rs, cuts, i)) for i in indices]
    steps = list(zip(samples, samples[1:]))
    if not all_approx_leq(
        [(p.approximant, s.approximant) for p, s in steps]
        + [(p.developed, s.developed) for p, s in steps]
    ):
        raise OracleError(
            "approximating chain is not ascending; refusing the result"
        )
    uppers = [(s.developed, symbolic) for s in samples]
    if not all_approx_leq(uppers):  # name the first sample above the limit
        k = next(i for i, p in zip(indices, uppers) if not all_approx_leq([p]))
        raise ConvergenceError(
            f"development of chain element {k} is not below the symbolic limit"
        )
    limit = samples[-1].developed
    if not truncated_equal(limit, symbolic, eff_depth):
        raise ConvergenceError(
            f"chain limit disagrees with the symbolic limit to effective depth "
            f"{eff_depth} (asked {depth}, threshold length {threshold}, "
            f"{kept} members kept)"
        )
    return OracleReport(
        rs, depth, eff_depth, threshold, rs.rule.lift, rs.cycle, kept,
        samples, limit, symbolic,
    )
