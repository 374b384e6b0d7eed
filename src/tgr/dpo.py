"""Graph rewriting by double pushout, with node tracking.

A rewrite step at a match ``g : L -> G`` of an evaluation rule L <- K -> R:

1. *Pushout complement*: D is G with the label and successors removed at the
   image of the root.  This requires the identification condition — no other
   labelled node of L may share the root's image — which holds automatically
   for matches of non-self-overlapping rules.
2. *Pushout*: H glues R and D along K, identifying r(n) with g(n) for every
   node n of K.  Merged classes keep the least involved D-node id, classes
   built only from R get fresh ids.  Which classes form depends only on the
   rule and on which K nodes the match identifies, so a union-find works
   them out once per rule and identification pattern, as a `GluingPlan`
   the rule keeps.

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
any host size, and finds matches through an index of its rules by root
label.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse
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
    FreshIds,
    GraphMorphism,
    NodeId,
    RationalTerm,
    TermGraph,
    check_morphism,
    find_tree_morphisms,
    node_key,
    predecessors,
    sorted_nodes,
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


class GluingPlan(NamedTuple):
    """How R glues into D for one rule and one identification pattern: all
    that a step at a match of that shape shares with every other.

    D's slots are the matched region's nodes, numbered in order of the first
    K node (in K's node order) sent to each.  The classes of K and R are
    numbered with those holding slots first, by least slot, then those from
    R alone, by least R node.  A class with one slot and no labelled R node
    keeps its D content, edges into merged-away nodes aside, so only the
    others are written."""

    lead: Tuple[int, ...]  # each slot class's least slot
    merges: Tuple[Tuple[int, Tuple[int, ...]], ...]  # classes of 2+ slots
    fresh: int  # how many classes R alone makes
    writes: Tuple[Tuple[int, Tuple[Tuple[str, Tuple[int, ...]], ...]], ...]
    # ^ each written class with its labelled R nodes' (label, successor classes)
    h: Tuple[int, ...]  # each R node's class, in R's node order


def _plan(rule: EvaluationRule, pattern: Tuple[int, ...]) -> GluingPlan:
    """The gluing plan of `rule` for `pattern`, which gives for each K node
    the index of the first K node with the same image: one union-find over
    D's slots and R's nodes."""
    slot_of: Dict[int, int] = {}
    for p in pattern:
        slot_of.setdefault(p, len(slot_of))
    # slots are ints and R's nodes are ids, so one dict holds both
    parent: Dict[Union[int, NodeId], Union[int, NodeId]] = {}

    def find(x: Union[int, NodeId]) -> Union[int, NodeId]:
        while x in parent:  # a chain has at most |K| links: no compression
            x = parent[x]
        return x

    for n, p in zip(rule.K.nodes, pattern):
        a, b = find(rule.r[n]), find(slot_of[p])
        if a != b:
            parent[a] = b
    slots: Dict[Union[int, NodeId], List[int]] = {}
    for slot in range(len(slot_of)):
        slots.setdefault(find(slot), []).append(slot)
    cls = {key: c for c, key in enumerate(slots)}
    r_cls = {n: cls.setdefault(find(n), len(cls)) for n in rule.R.nodes}
    rside: List[List[Tuple[str, Tuple[int, ...]]]] = [[] for _ in cls]
    for n, c in r_cls.items():
        lbl = rule.R.labels.get(n)
        if lbl is not None:
            rside[c].append((lbl, tuple(map(r_cls.__getitem__, rule.R.succs[n]))))
    ours = list(slots.values())
    merges = tuple((c, tuple(ss)) for c, ss in enumerate(ours) if len(ss) > 1)
    merged = {c for c, _ in merges}
    return GluingPlan(
        tuple(ss[0] for ss in ours),
        merges,
        len(cls) - len(ours),
        tuple((c, tuple(w)) for c, w in enumerate(rside) if w or c in merged),
        tuple(r_cls.values()),
    )


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
    preds: Optional[Mapping[NodeId, Iterable[NodeId]]],
    ids: FreshIds,
) -> Gluing:
    """Glue R into D along K in place: g holds D on entry and H on exit, and
    `dmap` is d's node map.  b : D -> H is the identity except on `gone`.

    Node ids: a class containing D nodes keeps its least D id; classes from R
    alone get fresh ids h#0, h#1, ... (skipping every id D has, merged-away
    nodes included), assigned in order of their least R member by `ids`,
    which has seen every earlier step on g.

    Only the matched region d(K) meets R.  Which classes K and R form there
    depends only on the rule and on which K nodes d identifies, its
    pattern, so the rule keeps one `GluingPlan` per pattern: a step computes
    the pattern, looks up the plan, names each class (the least D id of a
    merged class) and writes the content the plan lists.  Every other D
    node keeps its content, except that an edge into a region node merged
    away is redirected; `preds` (D's predecessor index, or a superset; None
    to build it from g, which then only a step that merges nodes does) finds
    those edges.  The region and those predecessors are the touched nodes.
    A content conflict raises before any edit, naming the first in the order
    of the classes' ids.  h is checked on R's nodes and b at the touched
    nodes, against their saved D content; elsewhere b is the identity on
    unchanged content.
    """
    first: Dict[NodeId, int] = {}
    pattern = tuple(map(first.setdefault, map(dmap.__getitem__, rule.K.nodes), count()))
    plan = rule.plans.get(pattern)
    if plan is None:
        plan = rule.plans[pattern] = _plan(rule, pattern)
    region = list(first)  # the slots' D nodes

    names = list(map(region.__getitem__, plan.lead))  # each class's H node
    gone: Dict[NodeId, NodeId] = {}
    members = {}  # each merged class's D nodes, least first
    for c, slots in plan.merges:
        ds = members[c] = sorted_nodes(map(region.__getitem__, slots))
        names[c] = ds[0]
        gone.update(dict.fromkeys(ds[1:], ds[0]))
    fresh_ids = [ids.take(g.nodes) for _ in range(plan.fresh)]
    names += fresh_ids

    touched = set(region)
    if gone:
        if preds is None:
            preds = predecessors(g)
        for n in gone:
            touched.update(preds.get(n, ()))
    labels, succs = g.labels, g.succs
    full = touched & labels.keys()  # g's labels and successors share keys
    before = EditableGraph(
        touched,
        dict(zip(full, map(labels.__getitem__, full))),
        dict(zip(full, map(succs.__getitem__, full))),
    )

    # the written classes' content, slot classes in the order of their ids
    # and then R's alone: a class's D nodes least first, then its R nodes
    writes = plan.writes
    if len(writes) > 1:
        m = len(plan.lead)  # the first class from R alone
        writes = sorted(writes, key=lambda w: (w[0] >= m, node_key(names[w[0]])))
    news = []  # (H node, label, successors)
    for c, rside in writes:
        nid = names[c]
        for n in members.get(c, (nid,)):
            if n in full:
                ss = tuple([gone.get(s, s) for s in before.succs[n]])
                news.append((nid, before.labels[n], ss))
        for lbl, ss in rside:
            news.append((nid, lbl, tuple(map(names.__getitem__, ss))))
    content: Dict[NodeId, Tuple[str, Tuple[NodeId, ...]]] = {}
    for nid, lbl, ss in news:
        old = content.setdefault(nid, (lbl, ss))
        if old != (lbl, ss):
            raise ValueError(
                f"pushout is not a term graph: node {nid} receives "
                f"conflicting content {old[0]}{old[1]} vs {lbl}{ss}"
            )

    for x in gone:
        labels.pop(x, None)
        succs.pop(x, None)
    for nid, (lbl, ss) in content.items():
        labels[nid], succs[nid] = lbl, ss
    for x in gone:
        ids.release(x)
        for p in preds.get(x, ()):
            if p in succs:
                succs[p] = tuple([gone.get(s, s) for s in succs[p]])
    g.nodes.difference_update(gone)
    g.nodes.update(fresh_ids)

    h = dict(zip(rule.R.nodes, map(names.__getitem__, plan.h)))
    check_morphism(GraphMorphism(rule.R, g, h), rule.R.nodes)
    reached = [*touched, *chain.from_iterable(before.succs.values())]
    track = dict(zip(reached, reached))
    track.update(gone)
    check_morphism(GraphMorphism(before, g, track), touched)
    return Gluing(gone, fresh_ids, h, before)


def _step(
    rule: EvaluationRule,
    mapping: Mapping[NodeId, NodeId],
    g: EditableGraph,
    preds: Optional[Mapping[NodeId, Iterable[NodeId]]],
    ids: FreshIds,
) -> Tuple[Tuple[NodeId, ...], Gluing]:
    """One rewrite step at the match `mapping` (L -> g), in place: check the
    match and run both pushouts.  `preds` is as for `pushout`.  Returns the
    successors the complement erased and the gluing."""
    check_morphism(GraphMorphism(rule.L, g, mapping), rule.L.nodes)
    erased = pushout_complement(rule, mapping, g)
    return erased, pushout(rule, mapping, g, preds, ids)


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
    `Stepper` step, with its checks, on copies of the host's dicts.  The
    host's predecessor index is built only for a step that merges nodes.
    `check_morphism` on the whole diagram stays available to callers that
    want it."""
    rule, G = match.rule, match.host
    g = EditableGraph(set(G.nodes), G.labels.copy(), G.succs.copy())
    _, gluing = _step(rule, match.g.mapping, g, None, FreshIds())
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
    """One step of a `Stepper` run: the rule, its match's root image, and
    each node the step merged away with the node it merged into."""

    rule: EvaluationRule
    at: NodeId
    gone: Dict[NodeId, NodeId]


class Stepper:
    """Rewrite with the first match (rule name, then node order) until no
    rule matches or `max_steps` steps are done.  Iterating yields each
    `Step`; `current` is the term reached so far, and `normal_form` says
    whether any rule still matches.

    It runs `derive`'s step, holes and names included, on the one
    `EditableGraph` it owns: a step costs O(|L| + |R| + touched nodes) and
    builds no diagram.  Its track is the identity on the nodes of `current`
    before it, updated with `Step.gone`.  A step that raises leaves the
    stepper spent: every later use raises.

    It keeps each node's predecessors and, per rule, the matches by root
    image, with one heap for the least by rule name and node order.  Set-up
    walks the host once and tries at each node only the rules whose root
    label it carries.  A match can appear, vanish or change only at the
    changed nodes and their ancestors up to the left-hand side's depth, so
    only those are re-checked, each against the rules whose root label it
    carries; the first match is `find_matches(...)[0]`.
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
        self._roots = [rule.L.labels[rule.root] for rule in self._rules]
        self._depths = [_lhs_depth(r) for r in self._rules]
        self._reach = max(self._depths, default=0)
        # per rule, each root image's match (L -> g's node map)
        self._matched: List[Dict[NodeId, Dict[NodeId, NodeId]]] = [
            {} for _ in self._rules
        ]
        by_label: Dict[str, List[int]] = {}  # the rules with each root label
        for i, lbl in enumerate(self._roots):
            by_label.setdefault(lbl, []).append(i)
        self._by_label = by_label
        for v, lbl in G.labels.items():
            for i in by_label.get(lbl, ()):
                rule = self._rules[i]
                mapping = tree_match(rule.L, rule.root, G, v)
                if mapping is not None:
                    self._matched[i][v] = mapping
        # (rule name, node_key, rule index) of each match, least first
        self._heap = [
            (self._rules[i].name, node_key(v), i)
            for i, live in enumerate(self._matched)
            for v in live
        ]
        heapq.heapify(self._heap)

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

    def _first(self) -> Optional[Tuple[int, NodeId]]:
        """The first match's rule index and root image."""
        self._check()
        heap, matched = self._heap, self._matched
        while heap and heap[0][1][1] not in matched[heap[0][2]]:
            heapq.heappop(heap)
        return (heap[0][2], heap[0][1][1]) if heap else None

    @property
    def normal_form(self) -> bool:
        return self._first() is None

    def __iter__(self) -> Iterator[Step]:
        g, bottoms, names = self._g, self._bottoms, self._names
        for _ in range(self.max_steps):
            first = self._first()
            if first is None:
                return
            i, v = first
            rule, mapping = self._rules[i], self._matched[i][v]
            self._current, self._spent = None, True
            erased, gluing = _step(rule, mapping, g, self._preds, self._ids)
            gone, h, before = gluing.gone, gluing.h.values(), gluing.before
            _retag(rule, mapping, before.labels, gone, h, g.labels, bottoms, names)
            self._point = gone.get(self._point, self._point)
            self._rematch(gone, self._reindex(v, erased, gluing))
            self._spent = False
            yield Step(rule, v, gone)

    def _reindex(
        self, hub: NodeId, erased: Iterable[NodeId], gluing: Gluing
    ) -> Set[NodeId]:
        """Bring the predecessor index up to date after a step at `hub`.
        Returns the changed nodes (the touched nodes' classes and R's
        images), the only H nodes whose content can differ from G's."""
        preds, gone = self._preds, gluing.gone
        for s in erased:
            preds[s].discard(hub)
        for p, ss in gluing.before.succs.items():
            for s in ss:
                preds[s].discard(p)
        changed = {gone.get(n, n) for n in gluing.before.nodes}
        changed.update(gluing.h.values())
        succs = self._g.succs
        for q in changed:
            for s in succs.get(q, ()):
                preds.setdefault(s, set()).add(q)
        for x in gone:
            preds.pop(x, None)
        return changed

    def _rematch(self, gone: Mapping[NodeId, NodeId], changed: Set[NodeId]) -> None:
        """Re-check every rule at the changed nodes, and at their ancestors up
        to a rule's depth the rules whose root label they carry."""
        g, preds, labels, heap = self._g, self._preds, self._g.labels, self._heap
        rules, roots, depths, matched = (
            self._rules, self._roots, self._depths, self._matched
        )
        for live in matched:
            for x in gone:
                live.pop(x, None)
        level, seen = changed, set(changed)  # the nodes k edges above them
        for k in range(self._reach + 1):
            if k:
                up: Set[NodeId] = set()
                for n in level:
                    up.update(preds.get(n, ()))
                up -= seen
                seen |= up
                level = up
            for v in level:
                lbl = labels.get(v)
                # a changed node may have lost a match under its old label
                for i in self._by_label.get(lbl, ()) if k else range(len(rules)):
                    if depths[i] < k:
                        continue
                    rule, live = rules[i], matched[i]
                    mapping = None
                    if roots[i] == lbl:
                        mapping = tree_match(rule.L, rule.root, g, v)
                    if mapping is None:
                        live.pop(v, None)
                    else:
                        if v not in live:
                            heapq.heappush(heap, (rule.name, node_key(v), i))
                        live[v] = mapping
