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

Both pushouts edit an `EditableGraph` in place, touching only the matched
region and the edges into nodes it merges away.  `derive` runs a step on
copies of the host's dicts and wraps the diagram; `Stepper` runs the same
step on the graph it owns, so a step costs O(|L| + |R| + touched nodes) at
any host size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
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
    predecessors,
    tree_match,
)
from .rules import TGRS, EvaluationRule
from .terms import BOTTOM, FiniteTerm, var


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
# The two pushouts, in place


class EditableGraph(NamedTuple):
    """A term graph open to the pushouts' in-place edits.  Its node set
    answers `n in g.nodes` as a `TermGraph`'s node index does, so it has the
    part of `TermGraph`'s interface that `tree_match` and `check_morphism`
    read; it keeps no node order."""

    nodes: Set[NodeId]
    labels: Dict[NodeId, str]
    succs: Dict[NodeId, Tuple[NodeId, ...]]


class FreshIds:
    """The ids h#0, h#1, ... one graph lacks, least first, over a run of
    steps: each h#k below `high` is a node of it or in the heap `free`."""

    def __init__(self) -> None:
        self.high, self.free = 0, []

    def take(self, nodes: Set[NodeId]) -> NodeId:
        if self.free:
            return f"h#{heapq.heappop(self.free)}"
        while f"h#{self.high}" in nodes:
            self.high += 1
        self.high += 1
        return f"h#{self.high - 1}"

    def release(self, n: NodeId) -> None:  # n has left the graph
        k = n[2:]
        if k.isdecimal() and n == f"h#{int(k)}" and int(k) < self.high:
            heapq.heappush(self.free, int(k))


def pushout_complement(
    rule: EvaluationRule, mapping: Mapping[NodeId, NodeId], g: EditableGraph
) -> Tuple[NodeId, ...]:
    """Turn G into D in place: erase the content of the root's image under
    the match `mapping` (L -> G).  Returns the erased successors.  D keeps
    every node of G, and K -> D is the match's node map.

    Raises ValueError, before any edit, if the match violates the
    identification condition (another labelled node of L mapped onto the
    root's image), in which case no pushout complement exists.
    """
    hub = mapping[rule.root]
    for n in rule.L.labels:
        if n != rule.root and mapping[n] == hub:
            raise ValueError(
                f"match of {rule.name} at {hub} violates the identification "
                f"condition: labelled node {n} shares the root's image"
            )
    g.labels.pop(hub, None)
    return g.succs.pop(hub, ())


class Gluing(NamedTuple):
    """What `pushout` changed to turn D into H."""

    gone: Dict[NodeId, NodeId]  # merged-away D node -> its class
    fresh: List[NodeId]  # the ids of classes from R alone
    h: Dict[NodeId, NodeId]  # R -> H
    before: EditableGraph  # the touched nodes with their D content


def pushout(
    rule: EvaluationRule,
    dmap: Mapping[NodeId, NodeId],
    g: EditableGraph,
    preds: Mapping[NodeId, Iterable[NodeId]],
    ids: FreshIds,
) -> Gluing:
    """Glue R into D along K in place: g holds D on entry and H on exit, and
    `dmap` is d's node map.  b : D -> H is the identity except on `gone`.

    Node ids: a class containing D nodes keeps its least D id; classes from R
    alone get fresh ids h#0, h#1, ... (skipping every id D has, merged-away
    nodes included), assigned in order of their least R member by `ids`,
    which has seen every earlier step on g.

    Only the matched region d(K) meets R, so the union-find runs over d(K)
    and R.  Every other D node keeps its content, except that an edge into
    a region node merged away is redirected; `preds` (D's predecessor index,
    or a superset) finds those edges.  The region and those predecessors
    are the touched nodes.  A content conflict raises before any edit.  h is
    checked on R's nodes and b at the touched nodes, against their saved D
    content; elsewhere b is the identity on unchanged content.
    """
    parent: Dict[Tuple[str, NodeId], Tuple[str, NodeId]] = {}

    def find(x: Tuple[str, NodeId]) -> Tuple[str, NodeId]:
        while x in parent:  # a chain has at most |K| links: no compression
            x = parent[x]
        return x

    for n in rule.K.nodes:
        a, b = find(("r", rule.r[n])), find(("d", dmap[n]))
        if a != b:
            parent[a] = b

    # Members join in order (D region by node_key, then R's sorted nodes),
    # so each class lists its least member first and the classes come in
    # the order of their least members.
    region = set(dmap.values())
    classes: Dict[Tuple[str, NodeId], List[Tuple[str, NodeId]]] = {}
    for n in sorted(region, key=node_key):
        classes.setdefault(find(("d", n)), []).append(("d", n))
    for n in rule.R.nodes:
        classes.setdefault(find(("r", n)), []).append(("r", n))

    labels, succs = g.labels, g.succs
    fresh_ids: List[NodeId] = []
    names: Dict[Tuple[str, NodeId], NodeId] = {}
    gone: Dict[NodeId, NodeId] = {}
    touched = set(region)
    for key, members in classes.items():
        d_ids = [n for side, n in members if side == "d"]
        if d_ids:
            nid = d_ids[0]
            for n in d_ids[1:]:
                gone[n] = nid
                touched.update(preds.get(n, ()))
        else:
            nid = ids.take(g.nodes)
            fresh_ids.append(nid)
        names[key] = nid

    def node_of(side: str, n: NodeId) -> NodeId:
        # a D node outside the region is its own class, named by itself
        return names.get(find((side, n)), n)

    before = EditableGraph(
        touched,
        {n: labels[n] for n in touched if n in labels},
        {n: succs[n] for n in touched if n in succs},
    )
    content: Dict[NodeId, Tuple[str, Tuple[NodeId, ...]]] = {}
    for key, members in classes.items():
        nid = names[key]
        for side, n in members:
            graph = before if side == "d" else rule.R
            lbl = graph.labels.get(n)
            if lbl is None:
                continue
            ss = tuple(node_of(side, s) for s in graph.succs[n])
            old = content.setdefault(nid, (lbl, ss))
            if old != (lbl, ss):
                raise ValueError(
                    f"pushout is not a term graph: node {nid} receives "
                    f"conflicting content {old[0]}{old[1]} vs {lbl}{ss}"
                )

    for n in region:
        labels.pop(n, None)
        succs.pop(n, None)
    for nid, (lbl, ss) in content.items():
        labels[nid], succs[nid] = lbl, ss
    for x in gone:
        ids.release(x)
        for p in preds.get(x, ()):
            if p in succs:
                succs[p] = tuple(gone.get(s, s) for s in succs[p])
    g.nodes.difference_update(gone)
    g.nodes.update(fresh_ids)

    h = {n: node_of("r", n) for n in rule.R.nodes}
    check_morphism(GraphMorphism(rule.R, g, h), rule.R.nodes)
    reached = chain(touched, chain.from_iterable(before.succs.values()))
    track = {n: gone.get(n, n) for n in reached}
    check_morphism(GraphMorphism(before, g, track), touched)
    return Gluing(gone, fresh_ids, h, before)


def _step(
    rule: EvaluationRule,
    mapping: Mapping[NodeId, NodeId],
    g: EditableGraph,
    preds: Dict[NodeId, Set[NodeId]],
    ids: FreshIds,
) -> Tuple[Gluing, Set[NodeId]]:
    """One rewrite step at the match `mapping` (L -> g), in place: check g,
    run both pushouts, and bring `preds`, g's predecessor index, up to date.
    Returns the gluing and the changed nodes (the touched nodes' classes
    and R's images), the only H nodes whose content can differ from G's."""
    check_morphism(GraphMorphism(rule.L, g, mapping), rule.L.nodes)
    hub = mapping[rule.root]
    for s in pushout_complement(rule, mapping, g):
        preds[s].discard(hub)
    gluing = pushout(rule, mapping, g, preds, ids)
    gone = gluing.gone
    for p, ss in gluing.before.succs.items():
        for s in ss:
            preds[s].discard(p)
    changed = {gone.get(n, n) for n in gluing.before.nodes}
    changed.update(gluing.h.values())
    for q in changed:
        for s in g.succs.get(q, ()):
            preds.setdefault(s, set()).add(q)
    for x in gone:
        preds.pop(x, None)
    return gluing, changed


# ---------------------------------------------------------------------------
# Direct derivations


@dataclass(frozen=True)
class DirectDerivation:
    """One double-pushout step G => H with its diagram; D, d and b are built
    when read."""

    match: Match
    H: TermGraph
    h: GraphMorphism  # R -> H
    track: Dict[NodeId, NodeId]  # where each host node went: b's node map

    @property
    def G(self) -> TermGraph:
        return self.match.host

    @property
    def rule(self) -> EvaluationRule:
        return self.match.rule

    @cached_property
    def D(self) -> TermGraph:
        """G with the content of the root's image erased."""
        G, hub = self.G, self.match.root_image
        labels, succs = G.labels.copy(), G.succs.copy()
        labels.pop(hub, None)
        succs.pop(hub, None)
        return TermGraph.of(G.nodes, labels, succs)

    @cached_property
    def d(self) -> GraphMorphism:  # K -> D
        return GraphMorphism(self.rule.K, self.D, dict(self.match.g.mapping))

    @cached_property
    def b(self) -> GraphMorphism:  # D -> H
        return GraphMorphism(self.D, self.H, self.track)

    def describe(self) -> str:
        return self.match.describe()


def derive(match: Match) -> DirectDerivation:
    """Perform one rewrite step at the given match, with its diagram: a
    `Stepper` step, with its checks, on copies of the host's dicts.
    `check_morphism` on the whole diagram stays available to callers that
    want it."""
    rule, G = match.rule, match.host
    g = EditableGraph(set(G.nodes), G.labels.copy(), G.succs.copy())
    gluing, _ = _step(rule, match.g.mapping, g, predecessors(G), FreshIds())
    H = TermGraph.of(g.nodes, g.labels, g.succs)
    track = dict(zip(G.nodes, G.nodes))
    track.update(gluing.gone)
    return DirectDerivation(match, H, GraphMorphism(rule.R, H, gluing.h), track)


def _retag(
    rule: EvaluationRule,
    mapping: Mapping[NodeId, NodeId],
    old_labels: Mapping[NodeId, str],
    track: Mapping[NodeId, NodeId],
    h: Iterable[NodeId],
    labels: Mapping[NodeId, str],
    bottoms: Set[NodeId],
    names: Dict[NodeId, str],
) -> None:
    """Update a term's holes and names in place after a step at `mapping`
    (L -> G), given G's or D's labels, b's node map, R's images and H's labels.
    An empty H node that one live G variable tracks to is named after it,
    one that none tracks to is a hole; only the match's and R's images can
    change, so only those are read.  Two variables tracked together would
    mean the step identified them, which no well-formed rule can do."""
    hub, region = mapping[rule.root], set(mapping.values())
    sources: Dict[NodeId, List[NodeId]] = {}
    for n in region:
        if n != hub and n not in old_labels and n not in bottoms:
            sources.setdefault(track.get(n, n), []).append(n)
    spot = {track.get(n, n) for n in region}
    spot.update(h)
    bottoms.difference_update(region)  # R's other images are fresh
    for m in spot:
        srcs = sources.get(m)
        if m in labels:
            continue
        elif srcs is None:
            bottoms.add(m)
        elif len(srcs) > 1:
            raise ValueError(
                f"step {rule.name} at {hub} tracks variables {sorted(srcs)} "
                f"to the same node {m}"
            )
        else:  # a stale name is never read: only live empty nodes' are
            names[m] = names.get(srcs[0], srcs[0])


def track_substitution(
    drv: DirectDerivation, host_bottoms: FrozenSet[NodeId] = frozenset()
) -> Dict[str, FiniteTerm]:
    """The substitution σ with U_G[n] = U_H[track n]·σ on unravelings.

    Keys are the empty nodes of H (as variable names).  An H variable that is
    the track image of a live G variable maps to that variable; every other H
    variable maps to the undefined term (it arose by emptying the root or
    from a hole).  It is read off the holes and names that a step gives.
    """
    bottoms, names = set(host_bottoms), {}
    _retag(
        drv.rule, drv.match.g.mapping, drv.G.labels, drv.track,
        drv.h.mapping.values(), drv.H.labels, bottoms, names,
    )
    empties = filterfalse(drv.H.labels.__contains__, drv.H.nodes)
    return {m: BOTTOM if m in bottoms else var(names.get(m, m)) for m in empties}


def _rational(
    H: TermGraph, point: NodeId, bottoms: Set[NodeId], names: Mapping[NodeId, str]
) -> RationalTerm:
    """H pointed at `point`, with those holes; each other empty node is
    named by `names` (default: its id)."""
    empties = filterfalse(H.labels.__contains__, H.nodes)
    named = tuple((n, names.get(n, n)) for n in empties if n not in bottoms)
    return RationalTerm(H, point, frozenset(bottoms), named)


def derive_rational(
    rt: RationalTerm, match: Match
) -> Tuple[DirectDerivation, RationalTerm]:
    """Rewrite a pointed host, propagating the point, holes, and names.

    The result's point is the track image of the old point; empty result
    nodes keep the rendered name of the variable tracked onto them and become
    holes when no live variable arrives (per `track_substitution`).
    """
    if match.host is not rt.graph and match.host != rt.graph:
        raise ValueError("match host differs from the term's carrier")
    drv = derive(match)
    bottoms, names = set(rt.bottoms), rt.renaming()
    _retag(
        drv.rule, drv.match.g.mapping, drv.G.labels, drv.track,
        drv.h.mapping.values(), drv.H.labels, bottoms, names,
    )
    return drv, _rational(drv.H, drv.track[rt.point], bottoms, names)


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


class Step(NamedTuple):
    """One step of a `Stepper` run: the rule and its match's root image."""

    rule: EvaluationRule
    at: NodeId


class Stepper:
    """Rewrite with the first match (rule name, then node order) until no
    rule matches or `max_steps` steps are done.  Iterating yields each
    `Step`; `current` is the term reached so far, and `normal_form` says
    whether any rule still matches.

    It runs `derive`'s step, holes and names included, on the one
    `EditableGraph` it owns: a step costs O(|L| + |R| + touched nodes) and
    builds no diagram, which `derive_rational` at `match_at(step.rule, ...,
    step.at)` replays on request.  A step that raises leaves the stepper
    spent: every later use raises.

    It keeps each node's predecessors and, per rule, the nodes it matches
    at (with a heap for the least).  A match can appear or vanish only at
    the changed nodes and their ancestors up to the left-hand side's depth,
    so only those are re-checked; the first match is `find_matches(...)[0]`.
    """

    def __init__(self, host: RationalTerm, tgrs: TGRS, max_steps: int):
        G = host.graph
        self.max_steps = max_steps
        self._current: Optional[RationalTerm] = host
        self._spent = False
        self._g = EditableGraph(set(G.nodes), G.labels.copy(), G.succs.copy())
        self._ids = FreshIds()
        self._preds = predecessors(G)
        self._point = host.point
        self._bottoms = set(host.bottoms)
        self._names = host.renaming()
        self._rules = sorted(tgrs.rules, key=lambda r: r.name)
        self._depths = [_lhs_depth(r) for r in self._rules]
        self._matched: List[Set[NodeId]] = []
        self._heaps: List[List[Tuple[int, NodeId]]] = []  # node_keys
        for rule in self._rules:
            roots = [
                f.mapping[rule.root]
                for f in find_tree_morphisms(rule.L, rule.root, G)
            ]
            self._matched.append(set(roots))
            self._heaps.append([node_key(v) for v in roots])  # sorted

    def _check(self) -> None:
        if self._spent:
            raise RuntimeError("a step of this stepper raised; it is spent")

    @property
    def current(self) -> RationalTerm:
        """The term reached so far, built once per step."""
        self._check()
        if self._current is None:
            g = self._g
            H = TermGraph.of(g.nodes, g.labels, g.succs)
            self._current = _rational(H, self._point, self._bottoms, self._names)
        return self._current

    def _first(self) -> Optional[Tuple[EvaluationRule, NodeId]]:
        self._check()
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

    def __iter__(self) -> Iterator[Step]:
        g, bottoms, names = self._g, self._bottoms, self._names
        for _ in range(self.max_steps):
            first = self._first()
            if first is None:
                return
            rule, v = first
            self._current, self._spent = None, True
            mapping = tree_match(rule.L, rule.root, g, v)
            gluing, changed = _step(rule, mapping, g, self._preds, self._ids)
            gone, h, before = gluing.gone, gluing.h.values(), gluing.before
            _retag(rule, mapping, before.labels, gone, h, g.labels, bottoms, names)
            self._point = gone.get(self._point, self._point)
            self._rematch(gone, changed)
            self._spent = False
            yield Step(rule, v)

    def _rematch(self, gone: Mapping[NodeId, NodeId], changed: Set[NodeId]) -> None:
        g, preds = self._g, self._preds
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
                    if tree_match(rule.L, rule.root, g, v) is None:
                        live.discard(v)
                    elif v not in live:
                        live.add(v)
                        heapq.heappush(heap, node_key(v))
