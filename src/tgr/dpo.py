"""Graph rewriting by double pushout, with node tracking.

A rewrite step at a match ``g : L -> G`` of an evaluation rule L <- K -> R:

1. *Pushout complement*: D is G with the label and successors removed at the
   image of the root.  This requires the identification condition — no other
   labelled node of L may share the root's image — which holds automatically
   for matches of non-self-overlapping rules.
2. *Pushout*: H glues R and D along K, identifying r(n) with g(n) for every
   node n of K.  The gluing is computed with a union-find; merged classes
   keep the least involved D-node id, classes built only from R get fresh
   ids.

Because D keeps every node of G, the D-to-H leg of the pushout is a total
*track* function on G's nodes: it says where each old node went.  Collapsing
rules can merge several old nodes into one (for instance a self-application
collapsing onto itself), and the track function records exactly that.

`track_substitution` recovers the term-level substitution relating the
unravelings before and after a step: each variable of H is either a tracked
variable of G or undefined.

A step is local: only the matched region and the edges into nodes it merges
away are rebuilt, the rest of G is carried over by C-level dict and tuple
copies.  `Stepper` rewrites to normal form with a match index that re-checks
only what a step changed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import filterfalse
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from .graphs import (
    GraphMorphism,
    NodeId,
    RationalTerm,
    TermGraph,
    check_morphism,
    find_tree_morphisms,
    node_key,
    node_position,
    predecessors,
    sorted_nodes,
    tree_match,
)
from .parallel import RationalRedexSet
from .rules import TGRS, EvaluationRule, unravel_rule
from .terms import BOTTOM, FiniteTerm, Signature, var


# ---------------------------------------------------------------------------
# Matching


@dataclass(frozen=True)
class Match:
    """An occurrence of a rule's left-hand side in a host graph."""

    rule: EvaluationRule
    g: GraphMorphism  # L -> G

    @property
    def host(self) -> TermGraph:
        return self.g.dst

    @property
    def root_image(self) -> NodeId:
        return self.g.mapping[self.rule.root]

    def describe(self) -> str:
        return f"{self.rule.name} at {self.root_image}"


def match_at(rule: EvaluationRule, G: TermGraph, v: NodeId) -> Optional[Match]:
    """The match of the rule whose root image is v, if there is one."""
    mapping = tree_match(rule.L, rule.root, G, v)
    if mapping is None:
        return None
    return Match(rule, GraphMorphism(rule.L, G, mapping))


def find_matches(G: TermGraph, rules: Union[EvaluationRule, TGRS]) -> List[Match]:
    """All matches in G of one rule or of every rule of a system.

    Sorted by rule name, then by root image; a tree left-hand side has at
    most one match per root image, so this order is total.
    """
    rule_list = rules.rules if isinstance(rules, TGRS) else [rules]
    out = []
    for rule in sorted(rule_list, key=lambda r: r.name):
        for f in find_tree_morphisms(rule.L, rule.root, G):
            out.append(Match(rule, f))
    out.sort(key=lambda m: (m.rule.name, node_key(m.root_image)))
    return out


# ---------------------------------------------------------------------------
# The two pushouts


def pushout_complement(match: Match) -> Tuple[TermGraph, GraphMorphism]:
    """The host minus the matched root's content, with the K-to-D morphism.

    D shares G's node tuple; its dicts are copies without the root image's
    entry.  Raises ValueError if the match violates the identification
    condition (another labelled node of L mapped onto the root's image), in
    which case no pushout complement exists.
    """
    rule, g = match.rule, match.g
    hub = match.root_image
    for n in rule.L.labels:
        if n != rule.root and g.mapping[n] == hub:
            raise ValueError(
                f"match of {rule.name} at {hub} violates the identification "
                f"condition: labelled node {n} shares the root's image"
            )
    G = match.host
    labels, succs = G.labels.copy(), G.succs.copy()
    labels.pop(hub, None)
    succs.pop(hub, None)
    D = TermGraph(G.nodes, labels, succs)
    d = GraphMorphism(rule.K, D, dict(g.mapping))
    return D, d


class _UnionFind:
    def __init__(self):
        self.parent: Dict[Tuple[str, NodeId], Tuple[str, NodeId]] = {}

    def find(self, x: Tuple[str, NodeId]) -> Tuple[str, NodeId]:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Tuple[str, NodeId], b: Tuple[str, NodeId]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def pushout(
    rule: EvaluationRule,
    D: TermGraph,
    d: GraphMorphism,
    preds: Mapping[NodeId, Iterable[NodeId]],
) -> Tuple[TermGraph, GraphMorphism, GraphMorphism]:
    """Glue R and D along K; returns (H, h : R -> H, b : D -> H).

    Node ids: a class containing D nodes keeps its least D id; classes from R
    alone get fresh ids h#0, h#1, ... (skipping ids D already uses), assigned
    in order of their least R member.

    Only the matched region d(K) meets R, so the union-find runs over d(K)
    and R.  Every other D node is a class of its own: it keeps its id and its
    content, except that an edge into a region node merged away is redirected
    to the node's class.  `preds` (each node's predecessors in D, or a
    superset such as G's) finds those edges.
    """
    uf = _UnionFind()
    for n in rule.K.nodes:
        uf.union(("r", rule.r[n]), ("d", d.mapping[n]))

    classes: Dict[Tuple[str, NodeId], List[Tuple[str, NodeId]]] = {}
    for n in sorted_nodes(set(d.mapping.values())):
        classes.setdefault(uf.find(("d", n)), []).append(("d", n))
    for n in rule.R.nodes:
        classes.setdefault(uf.find(("r", n)), []).append(("r", n))

    fresh = 0
    fresh_ids: List[NodeId] = []
    names: Dict[Tuple[str, NodeId], NodeId] = {}
    ordered = sorted(
        classes.items(),
        key=lambda kv: min(
            (0 if side == "d" else 1, node_key(n)) for side, n in kv[1]
        ),
    )
    for key, members in ordered:
        d_ids = [n for side, n in members if side == "d"]
        if d_ids:
            names[key] = min(d_ids, key=node_key)
        else:
            while D.has_node(f"h#{fresh}"):
                fresh += 1
            names[key] = f"h#{fresh}"
            fresh_ids.append(names[key])
            fresh += 1

    def node_of(side: str, n: NodeId) -> NodeId:
        # a D node outside the region is its own class, named by itself
        return names.get(uf.find((side, n)), n)

    labels, succs = D.labels.copy(), D.succs.copy()
    gone: Dict[NodeId, NodeId] = {}  # merged-away D node -> its class
    for key, members in ordered:
        nid = names[key]
        content: Optional[Tuple[str, Tuple[NodeId, ...]]] = None
        for side, n in members:
            graph = D if side == "d" else rule.R
            if side == "d":
                labels.pop(n, None)
                succs.pop(n, None)
                if n != nid:
                    gone[n] = nid
            lbl = graph.labels.get(n)
            if lbl is None:
                continue
            ss = tuple(node_of(side, s) for s in graph.succs[n])
            if content is not None and content != (lbl, ss):
                raise ValueError(
                    f"pushout is not a term graph: node {nid} receives "
                    f"conflicting content {content[0]}{content[1]} vs {lbl}{ss}"
                )
            content = (lbl, ss)
        if content is not None:
            labels[nid], succs[nid] = content

    for x in gone:
        for p in preds.get(x, ()):
            if p in succs:
                succs[p] = tuple(gone.get(s, s) for s in succs[p])
    nodes = D.nodes
    if gone or fresh_ids:
        node_list = list(nodes)
        for x in gone:
            del node_list[node_position(node_list, x)]
        for x in fresh_ids:
            node_list.insert(node_position(node_list, x), x)
        nodes = tuple(node_list)

    H = TermGraph(nodes, labels, succs)
    h = GraphMorphism(rule.R, H, {n: node_of("r", n) for n in rule.R.nodes})
    track = dict(zip(D.nodes, D.nodes))
    track.update(gone)
    b = GraphMorphism(D, H, track)
    return H, h, b


# ---------------------------------------------------------------------------
# Direct derivations


@dataclass(frozen=True)
class DirectDerivation:
    """One double-pushout step G => H with its full diagram."""

    match: Match
    D: TermGraph
    d: GraphMorphism  # K -> D
    H: TermGraph
    h: GraphMorphism  # R -> H
    b: GraphMorphism  # D -> H

    @property
    def G(self) -> TermGraph:
        return self.match.host

    @property
    def rule(self) -> EvaluationRule:
        return self.match.rule

    @property
    def track(self) -> Dict[NodeId, NodeId]:
        """Where each host node went (D and G share their node set)."""
        return self.b.mapping

    def describe(self) -> str:
        return self.match.describe()


def touched_nodes(
    d: GraphMorphism, b: GraphMorphism, preds: Mapping[NodeId, Iterable[NodeId]]
) -> Set[NodeId]:
    """The D nodes a step may change: the matched region d(K), plus every
    predecessor (per `preds`) of a region node that b merges away."""
    region = set(d.mapping.values())
    out = set(region)
    for n in region:
        if b.mapping[n] != n:
            out.update(preds.get(n, ()))
    return out


def derive(
    match: Match, preds: Optional[Mapping[NodeId, Iterable[NodeId]]] = None
) -> DirectDerivation:
    """Perform one rewrite step at the given match.

    `preds` is the host's predecessor index (`graphs.predecessors`); a
    caller that keeps one across steps passes it, otherwise it is built.

    The morphism conditions are checked on g and h in full (they live on L
    and R) and on b only at `touched_nodes`.  That is enough: at every other
    D node b is the identity and the pushout copied the content unchanged,
    and none of its successors was merged away, since every predecessor of a
    merged-away node is touched.  So the conditions there reduce to the node
    surviving, which only merged-away nodes do not.  `check_morphism` on the
    whole diagram stays available to callers that want it.
    """
    if preds is None:
        preds = predecessors(match.host)
    check_morphism(match.g, match.rule.L.nodes)
    D, d = pushout_complement(match)
    H, h, b = pushout(match.rule, D, d, preds)
    check_morphism(h, match.rule.R.nodes)
    check_morphism(b, sorted_nodes(touched_nodes(d, b, preds)))
    return DirectDerivation(match, D, d, H, h, b)


def track_substitution(
    drv: DirectDerivation, host_bottoms: FrozenSet[NodeId] = frozenset()
) -> Dict[str, FiniteTerm]:
    """The substitution σ with U_G[n] = U_H[track n]·σ on unravelings.

    Keys are the empty nodes of H (as variable names).  An H variable that is
    the track image of a live G variable maps to that variable; every other H
    variable maps to the undefined term (it arose by emptying the root or
    from a hole).  At most one G variable can track to a given H node; a
    violation would mean the step identified two distinct variables, which no
    well-formed rule can do, so it raises.

    The empty nodes are filtered out of the node tuples at C level, so the
    Python-level work is proportional to their number, not to the graph.
    """
    G, H, track = drv.G, drv.H, drv.track
    sources: Dict[NodeId, List[NodeId]] = {}
    for n in filterfalse(G.labels.__contains__, G.nodes):
        if n not in host_bottoms:
            sources.setdefault(track[n], []).append(n)
    out: Dict[str, FiniteTerm] = {}
    for m in filterfalse(H.labels.__contains__, H.nodes):
        srcs = sources.get(m, [])
        if len(srcs) > 1:
            raise ValueError(
                f"step {drv.describe()} tracks variables {sorted(srcs)} "
                f"to the same node {m}"
            )
        out[m] = var(srcs[0]) if srcs else BOTTOM
    return out


def derive_rational(
    rt: RationalTerm,
    match: Match,
    preds: Optional[Mapping[NodeId, Iterable[NodeId]]] = None,
) -> Tuple[DirectDerivation, RationalTerm]:
    """Rewrite a pointed host, propagating the point, holes, and names.

    The result's point is the track image of the old point; empty result
    nodes keep the rendered name of the variable tracked onto them and become
    holes when no live variable arrives (per `track_substitution`).  `preds`
    is passed on to `derive`.
    """
    if match.host is not rt.graph and match.host != rt.graph:
        raise ValueError("match host differs from the term's carrier")
    drv = derive(match, preds)
    sigma = track_substitution(drv, rt.bottoms)
    renaming = rt.renaming()
    bottoms = []
    names = []
    for m, t in sigma.items():
        if t.is_bottom:
            bottoms.append(m)
        else:
            names.append((m, renaming.get(t.symbol, t.symbol)))
    out = RationalTerm(
        drv.H,
        drv.track[rt.point],
        frozenset(bottoms),
        tuple(sorted(names, key=lambda kv: node_key(kv[0]))),
    )
    return drv, out


# ---------------------------------------------------------------------------
# Rewriting to normal form


def _lhs_depth(rule: EvaluationRule) -> int:
    """The longest path in L from the root to a labelled node: a match at v
    reads the content of nodes at most this far below v."""
    depth, level = 0, [rule.root]
    while True:
        level = [s for n in level for s in rule.L.successors(n)]
        if not any(rule.L.is_labelled(n) for n in level):
            return depth
        depth += 1


class Stepper:
    """Derive with the first match (rule name, then node order) until no
    rule matches or `max_steps` steps are done.  Iterating yields each step
    as (derivation, result); afterwards `current` is the last result and
    `normal_form` says whether any rule still matches.

    Two indexes live here, not on the graphs, and follow each step:
    the current host's predecessors, and for each rule the set of nodes it
    matches at (with a heap for the least one).  A step changes content only
    at the touched nodes (`touched_nodes`) and at fresh nodes, so a match can
    appear or vanish only at those nodes and at their ancestors up to the
    left-hand side's depth; those are the only ones re-checked.  The first
    match is the one `find_matches(...)[0]` would return.
    """

    def __init__(self, host: RationalTerm, tgrs: TGRS, max_steps: int):
        self.current = host
        self.max_steps = max_steps
        self._rules = sorted(tgrs.rules, key=lambda r: r.name)
        self._depths = [_lhs_depth(r) for r in self._rules]
        self._preds = predecessors(host.graph)
        self._matched: List[Set[NodeId]] = []
        self._heaps: List[List[Tuple[int, NodeId]]] = []  # node_keys
        for rule in self._rules:
            roots = [
                f.mapping[rule.root]
                for f in find_tree_morphisms(rule.L, rule.root, host.graph)
            ]
            self._matched.append(set(roots))
            self._heaps.append([node_key(v) for v in roots])  # sorted

    def _first(self) -> Optional[Tuple[EvaluationRule, NodeId]]:
        best = None
        for i, (heap, live) in enumerate(zip(self._heaps, self._matched)):
            while heap and heap[0][1] not in live:
                heapq.heappop(heap)
            if heap:
                cand = (self._rules[i].name, heap[0], i)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return None
        return self._rules[best[2]], best[1][1]

    @property
    def normal_form(self) -> bool:
        return self._first() is None

    def __iter__(self) -> Iterator[Tuple[DirectDerivation, RationalTerm]]:
        for _ in range(self.max_steps):
            first = self._first()
            if first is None:
                return
            rule, v = first
            match = match_at(rule, self.current.graph, v)
            drv, self.current = derive_rational(self.current, match, self._preds)
            self._update(drv)
            yield drv, self.current

    def _update(self, drv: DirectDerivation) -> None:
        G, H, track, preds = drv.G, drv.H, drv.track, self._preds
        touched = touched_nodes(drv.d, drv.b, preds)
        changed = {track[n] for n in touched}
        changed.update(drv.h.mapping.values())
        for p in touched:
            for s in G.succs.get(p, ()):
                preds[s].discard(p)
        for q in changed:
            for s in H.succs.get(q, ()):
                preds.setdefault(s, set()).add(q)
        gone = [n for n in touched if track[n] != n]
        for x in gone:
            preds.pop(x, None)

        # levels[k]: the nodes k edges above a changed node, not seen before
        levels = [changed]
        seen = set(changed)
        for _ in range(max(self._depths, default=0)):
            up = {p for n in levels[-1] for p in preds.get(n, ()) if p not in seen}
            seen.update(up)
            levels.append(up)
        for rule, depth, live, heap in zip(
            self._rules, self._depths, self._matched, self._heaps
        ):
            live.difference_update(gone)
            for level in levels[: depth + 1]:
                for v in level:
                    if tree_match(rule.L, rule.root, H, v) is None:
                        live.discard(v)
                    elif v not in live:
                        live.add(v)
                        heapq.heappush(heap, node_key(v))


def induced_parallel_redex(
    rt: RationalTerm, match: Match, sig: Signature
) -> RationalRedexSet:
    """The set of term-level redexes a graph match stands for.

    A single matched node unravels to every occurrence of that node reachable
    from the point, so one graph step corresponds to a (possibly infinite,
    always rational) parallel term rewrite.
    """
    rule = unravel_rule(match.rule, sig)
    return RationalRedexSet(
        rt.graph, rt.point, match.root_image, rule, rt.bottoms, rt.var_names
    )
