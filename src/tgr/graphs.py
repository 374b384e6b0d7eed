"""Term graphs, morphisms, unraveling, bisimulation, and rational terms.

A term graph is a set of nodes with two partial functions defined on the same
subset: an operator label and a successor list whose length matches the
label's arity.  Nodes outside that subset are *empty* and stand for variables
(their unraveled name is the node id).  A rational term is a pointed term
graph; its possibly-infinite unraveling has finitely many distinct subterms.

Two extras ride along on rational terms:

- ``bottoms``: empty nodes tagged as holes; unraveling renders them as the
  undefined term rather than as variables.  Collapsing rewrite steps create
  these.
- ``var_names``: an optional renaming applied to empty nodes when rendering,
  so a term can present its variables under another graph's names without
  rebuilding node ids.

Equality of rational terms is bisimulation (pointed, label-respecting, with
empty nodes matched by rendered name).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import (
    Container,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .terms import (
    BOTTOM,
    FiniteTerm,
    Occurrence,
    Signature,
    op,
    rebuild,
    subterms,
    var,
)

NodeId = str


def node_key(n: NodeId) -> Tuple[int, str]:
    """Deterministic node order: by id length, then lexicographic."""
    return (len(n), n)


def sorted_nodes(nodes: Iterable[NodeId]) -> List[NodeId]:
    """Nodes without repeats in node_key order, by two stable C-level sorts:
    lexicographic first, then by length."""
    out = sorted(nodes)
    out.sort(key=len)
    return out


class FreshIds:
    """The ids p0, p1, ... for one prefix p (default h#) that a graph lacks,
    least first, over a run of edits that may free some: each pk below
    `high` is a node of it or in the heap `free`.  The caller adds each id
    it takes to the graph and `release`s each node that leaves it."""

    def __init__(self, prefix: str = "h#") -> None:
        self.prefix, self.high, self.free = prefix, 0, []

    def take(self, nodes: Container[NodeId]) -> NodeId:
        if self.free:
            return f"{self.prefix}{heapq.heappop(self.free)}"
        while f"{self.prefix}{self.high}" in nodes:
            self.high += 1
        self.high += 1
        return f"{self.prefix}{self.high - 1}"

    def release(self, n: NodeId) -> None:  # n has left the graph
        k = n[len(self.prefix):]
        if k.isdecimal() and n == f"{self.prefix}{int(k)}" and int(k) < self.high:
            heapq.heappush(self.free, int(k))


# ---------------------------------------------------------------------------
# Term graphs


@dataclass(frozen=True)
class TermGraph:
    """Nodes with partial label/successor structure (see module docstring).

    `nodes` is the graph's one node index: a dict from each node to None,
    inserted in node_key order, so iterating it gives that order and `n in
    g.nodes` is a hash lookup.  `of` is the only constructor.  The dict
    fields are never mutated after construction; every operation returns a
    new graph.
    """

    nodes: Dict[NodeId, None]
    labels: Dict[NodeId, str]
    succs: Dict[NodeId, Tuple[NodeId, ...]]

    @staticmethod
    def of(
        nodes: Iterable[NodeId],
        labels: Mapping[NodeId, str],
        succs: Mapping[NodeId, Sequence[NodeId]],
    ) -> "TermGraph":
        """Construct, normalizing constants (missing successor entries on
        labelled nodes become ()) and rejecting references to non-nodes.
        Arity against a signature is `check_wellformed`'s business.

        The references are checked by set inclusion; only a failed check
        walks the entries, to name the first offender."""
        nodeset = set(nodes)
        node_d = dict.fromkeys(sorted_nodes(nodeset))
        labels_d = dict(labels)
        succs_d = dict(zip(succs, map(tuple, succs.values())))
        if not (
            labels_d.keys() <= nodeset
            and succs_d.keys() <= labels_d.keys()
            and nodeset.issuperset(chain.from_iterable(succs_d.values()))
        ):
            _raise_first_defect(nodeset, labels_d, succs_d)
        if len(succs_d) < len(labels_d):  # some constant has no entry
            for n in labels_d:
                succs_d.setdefault(n, ())
        return TermGraph(node_d, labels_d, succs_d)

    def is_labelled(self, n: NodeId) -> bool:
        return n in self.labels

    def is_empty_node(self, n: NodeId) -> bool:
        return n not in self.labels

    def varnodes(self) -> List[NodeId]:
        return [n for n in self.nodes if n not in self.labels]

    def successors(self, n: NodeId) -> Tuple[NodeId, ...]:
        return self.succs.get(n, ())

    def walk(self, n: NodeId, occ: Occurrence) -> Optional[NodeId]:
        """Follow the path with the given occurrence, if it exists."""
        for i in occ:
            s = self.succs.get(n)
            if s is None or not 0 < i <= len(s):
                return None
            n = s[i - 1]
        return n

    def reachable(self, n: NodeId) -> FrozenSet[NodeId]:
        seen = {n}
        todo = [n]
        while todo:
            m = todo.pop()
            for s in self.succs.get(m, ()):
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        return frozenset(seen)

    def restricted(self, keep: Iterable[NodeId]) -> "TermGraph":
        keep = set(keep)
        return TermGraph.of(
            keep,
            {n: l for n, l in self.labels.items() if n in keep},
            {n: s for n, s in self.succs.items() if n in keep},
        )


def _raise_first_defect(
    nodeset: Set[NodeId],
    labels: Dict[NodeId, str],
    succs: Dict[NodeId, Tuple[NodeId, ...]],
) -> None:
    """Name the first reference to a non-node in `TermGraph.of`'s order:
    labels first, then each successor entry with its successors."""
    for n in labels:
        if n not in nodeset:
            raise ValueError(f"labelled node {n} not in node set")
    for n, ss in succs.items():
        if n not in labels:
            raise ValueError(f"successors on unlabelled node {n}")
        for s in ss:
            if s not in nodeset:
                raise ValueError(f"dangling successor {s} at node {n}")


def check_wellformed(g: TermGraph, sig: Signature) -> None:
    """Raise ValueError on any structural defect or arity mismatch."""
    nodeset = set(g.nodes)
    if len(g.nodes) != len(nodeset):
        raise ValueError("duplicate node ids")
    for n in g.nodes:
        if not isinstance(n, str) or not n:
            raise ValueError(f"bad node id {n!r}")
    if set(g.labels) != set(g.succs):
        odd = set(g.labels) ^ set(g.succs)
        raise ValueError(f"label/successor domains differ at {sorted(odd)}")
    for n, l in g.labels.items():
        if n not in nodeset:
            raise ValueError(f"labelled node {n} not in node set")
        if not sig.is_operator(l):
            raise ValueError(f"unknown operator {l} at node {n}")
        if len(g.succs[n]) != sig.arity(l):
            raise ValueError(
                f"node {n}: {l} has arity {sig.arity(l)}, "
                f"got {len(g.succs[n])} successors"
            )
        for s in g.succs[n]:
            if s not in nodeset:
                raise ValueError(f"dangling successor {s} at node {n}")


def unravel(
    g: TermGraph,
    n: NodeId,
    depth: int,
    bottoms: FrozenSet[NodeId] = frozenset(),
    var_names: Optional[Mapping[NodeId, str]] = None,
    max_size: int = 500_000,
) -> FiniteTerm:
    """The depth-truncated unraveling of g at n as a finite term.

    Occurrences of length < depth are kept.  Empty nodes become variables
    named by node id (through var_names if given); bottom-tagged nodes become
    the undefined term.

    The result shares its subterms: there is one `FiniteTerm` per node and
    remaining depth, so the work and the memory are at most nodes x
    (depth + 1) although the tree may be exponentially larger.  Terms are
    immutable, so the sharing cannot be observed except through `is`.
    `max_size` still bounds the tree: it raises ValueError exactly when the
    tree has more than `max_size` nodes, holes not counted.

    A forward pass collects the nodes at each distance k < depth from n,
    holes left out; a backward pass builds distance k's terms from
    distance k + 1's, so no recursion is needed.
    """
    if depth <= 0 or n in bottoms:
        return BOTTOM
    too_big = "unraveling exceeds size budget; lower the depth"
    labels, succs = g.labels, g.succs
    layers: List[Set[NodeId]] = []
    layer = {n}
    pairs = 0  # each (node, distance) pair stands for at least one tree node
    while layer and len(layers) < depth:
        pairs += len(layer)
        if pairs > max_size:
            raise ValueError(too_big)
        layers.append(layer)
        layer = {s for m in layer if m in labels for s in succs[m]} - bottoms
    # term and tree size of every node at the distance below; a successor
    # missing there is a hole (bottom-tagged, or at the depth bound)
    below: Dict[NodeId, Tuple[FiniteTerm, int]] = {}
    hole = (BOTTOM, 0)
    for layer in reversed(layers):
        here: Dict[NodeId, Tuple[FiniteTerm, int]] = {}
        for m in layer:
            lbl = labels.get(m)
            if lbl is None:
                here[m] = (var(var_names.get(m, m) if var_names else m), 1)
                continue
            kids = [below.get(s, hole) for s in succs[m]]
            size = 1 + sum(k[1] for k in kids)
            if size > max_size:
                raise ValueError(too_big)
            here[m] = (op(lbl, [k[0] for k in kids]), size)
        below = here
    return below[n][0]


class PrefixTrie:
    """The prefix tree of a list of paths from src.  States are numbered in
    insertion order, each after its parent, from 0 at the empty path, so
    the first i paths span exactly the states below `size[i]`.  `child[k]`
    maps a successor index to a state, `at[k]` is the node that state k's
    path walks to, and `lengths[r]` how many of the paths have length r."""

    def __init__(self, src: NodeId) -> None:
        self.child: List[Dict[int, int]] = [{}]
        self.at: List[NodeId] = [src]
        self.size = [1]
        self.lengths: List[int] = []


class PathCounts:
    """Path counts per length, into any of the targets (into any node if
    targets is None), over the nodes src reaches.  `rows[r]` maps each node
    with a path of length exactly r to a target to the number of such
    paths, and `dist` each node to the length of its shortest path to a
    target: one backward breadth-first walk over the predecessors finds it,
    and a node without any such path is absent.  Rows are added on demand,
    one dynamic-programming step over the predecessors each: no path is
    enumerated, so exponentially many cost nothing extra.  A row without
    entries ends them all, and then finitely many paths exist.

    `count` gives how many paths from src are shorter than a bound, adding
    rows only up to it, and `paths` lists them in length-lex order."""

    def __init__(
        self, g: TermGraph, src: NodeId, targets: Optional[Iterable[NodeId]] = None
    ) -> None:
        self.src, self._succs = src, g.succs
        reach = g.reachable(src)
        preds: Dict[NodeId, List[NodeId]] = {}
        for m in reach:
            for s in g.successors(m):  # one entry per edge
                preds.setdefault(s, []).append(m)
        self._preds = preds
        first = dict.fromkeys(reach if targets is None else targets, 1)
        self.rows: List[Dict[NodeId, int]] = [first]
        self._below = [0, first.get(src, 0)]  # paths from src shorter than r
        dist = self.dist = dict.fromkeys(first, 0)
        order = list(first)
        for s in order:  # breadth first, so each distance found is the least
            for p in preds.get(s, ()):
                if p not in dist:
                    dist[p] = dist[s] + 1
                    order.append(p)

    def paths(self, maxlen: Optional[int] = None) -> Iterator[Occurrence]:
        """The paths from src into the targets in length-lex order, none
        longer than maxlen if given.  Breadth first, children in index
        order, over cells `(node, parent cell, index)` that share prefixes;
        a successor is entered only while its shortest path to a target
        still fits, so without maxlen the walk ends exactly when the paths
        are finite."""
        dist, succs, ends = self.dist, self._succs, self.rows[0]
        room = float("inf") if maxlen is None else maxlen
        src = self.src
        frontier = [(src, None, 0)] if src in dist and dist[src] <= room else []
        while frontier:
            for cell in frontier:
                if cell[0] in ends:
                    occ = []
                    while cell[1] is not None:
                        occ.append(cell[2])
                        cell = cell[1]
                    yield tuple(reversed(occ))
            room -= 1
            frontier = [
                (s, cell, i)
                for cell in frontier
                for i, s in enumerate(succs.get(cell[0], ()), start=1)
                if s in dist and dist[s] <= room
            ]

    def count(self, bound: int) -> int:
        """The number of paths from src of length < bound.  Rows are added
        here only, and only while there are fewer than bound."""
        rows, below, preds = self.rows, self._below, self._preds
        while len(rows) < bound and rows[-1]:
            row: Dict[NodeId, int] = {}
            for s, c in rows[-1].items():
                for p in preds.get(s, ()):
                    row[p] = row.get(p, 0) + c
            rows.append(row)
            below.append(below[-1] + row.get(self.src, 0))
        return below[max(min(bound, len(rows)), 0)]


def predecessors(g: TermGraph) -> Dict[NodeId, Set[NodeId]]:
    """Each node's predecessors (nodes with an edge to it); nodes without
    any are absent."""
    preds: Dict[NodeId, Set[NodeId]] = {}
    for n, ss in g.succs.items():
        for s in ss:
            preds.setdefault(s, set()).add(n)
    return preds


def infinitely_reached(g: TermGraph, start: NodeId) -> FrozenSet[NodeId]:
    """The nodes on or below a cycle that start reaches: those infinitely
    many paths from start reach.  One walk counts in-degrees over what start
    reaches; Kahn's peel (CACM 1962) then strips those that drop to zero."""
    indeg = {start: 0}
    todo = [start]
    while todo:
        for s in g.successors(todo.pop()):
            if s not in indeg:
                todo.append(s)
            indeg[s] = indeg.get(s, 0) + 1
    todo = [n for n, d in indeg.items() if d == 0]
    while todo:
        n = todo.pop()
        del indeg[n]
        for s in g.successors(n):
            indeg[s] -= 1
            if not indeg[s]:
                todo.append(s)
    return frozenset(indeg)


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class GraphMorphism:
    """A node map preserving labels and successors on labelled nodes."""

    src: TermGraph
    dst: TermGraph
    mapping: Dict[NodeId, NodeId]


def morphism_errors(
    f: GraphMorphism, among: Optional[Iterable[NodeId]] = None
) -> List[str]:
    """The morphism conditions violated at the source nodes `among` (all
    source nodes by default).  Images are looked up in the target's node
    index (a `TermGraph`'s dict or an `EditableGraph`'s set), so a partial
    check's cost does not grow with the target.  An unmapped successor of a
    labelled node breaks that node's successor condition."""
    src, dst, mapping = f.src, f.dst, f.mapping
    if among is None:
        among = src.nodes
    src_labels, src_succs = src.labels, src.succs
    nodes, labels, succs = dst.nodes, dst.labels, dst.succs
    errs = []
    for n in among:
        m = mapping.get(n)
        if m is None:
            errs.append(f"node {n} unmapped")
        elif m not in nodes:
            errs.append(f"image {m} of {n} not a node")
        else:
            lbl = src_labels.get(n)
            if lbl is None:
                continue
            if labels.get(m) != lbl:
                errs.append(f"label not preserved at {n}: {lbl} vs {labels.get(m)}")
            elif tuple(map(mapping.get, src_succs[n])) != succs[m]:
                errs.append(f"successors not preserved at {n}")
    return errs


def check_morphism(
    f: GraphMorphism, among: Optional[Iterable[NodeId]] = None
) -> None:
    errs = morphism_errors(f, among)
    if errs:
        raise ValueError("not a graph morphism: " + "; ".join(errs))


def is_tree(g: TermGraph, root: NodeId) -> bool:
    """Exactly one path from root to every node (and every node reached):
    root has no predecessor, no node has two, and root reaches them all,
    which rules out cycles."""
    targets = list(chain.from_iterable(g.succs.values()))
    return (
        root not in targets
        and len(set(targets)) == len(targets)
        and g.reachable(root) == set(g.nodes)
    )


def tree_match(
    L: TermGraph, root: NodeId, H: TermGraph, root_image: NodeId
) -> Optional[Dict[NodeId, NodeId]]:
    """The node map of the morphism from the tree L into H that sends root
    to root_image, or None if there is none.  L must be a tree at root (see
    `find_tree_morphisms`); one walk over L decides it."""
    mapping: Dict[NodeId, NodeId] = {root: root_image}
    todo = [root]
    while todo:
        n = todo.pop()
        lbl = L.labels.get(n)
        if lbl is None:
            continue
        m = mapping[n]
        if H.labels.get(m) != lbl or len(H.succs[m]) != len(L.succs[n]):
            return None
        for child, img in zip(L.succs[n], H.succs[m]):
            mapping[child] = img
            todo.append(child)
    return mapping


def find_tree_morphisms(
    L: TermGraph, root: NodeId, H: TermGraph
) -> List[GraphMorphism]:
    """All morphisms from a tree L into H, in ascending root-image order.

    The image of the root determines the whole morphism, so candidates are
    tried by walking the tree once per node of H (`tree_match`) that
    carries the root's label, if it has one.
    """
    if not is_tree(L, root):
        raise ValueError("find_tree_morphisms requires a tree with the given root")
    out: List[GraphMorphism] = []
    lbl, labels = L.labels.get(root), H.labels
    cands = H.nodes if lbl is None else [n for n in H.nodes if labels.get(n) == lbl]
    for cand in cands:
        mapping = tree_match(L, root, H, cand)
        if mapping is not None:
            out.append(GraphMorphism(L, H, mapping))
    return out


# ---------------------------------------------------------------------------
# Partition refinement, minimization, bisimulation


def _refine(
    cls: Dict[NodeId, Hashable], succ: Mapping[NodeId, Tuple[NodeId, ...]]
) -> Dict[NodeId, int]:
    """The coarsest refinement of an initial class map stable under successors.

    Two nodes share a final class iff they share an initial class, have as
    many successors, and at each position their successors share a final
    class.  Hopcroft's splitter refinement, for partial transition functions
    as in Valmari & Lehtinen (STACS 2008): the blocks start keyed by (class,
    successor count), and a worklist holds splitter blocks.  For a splitter
    and a position, the nodes whose successor there lies in the splitter are
    marked (one inverse-successor index per position), and each touched
    block moves its marked part to a new block, in time linear in the marks.
    A split block already queued has both halves queued, any other only its
    smaller half, so a node joins O(log n) splitters and the whole costs
    O(m log n) for m edges.  Classes are numbered in order of first
    appearance over `cls`, so the result does not depend on the split order.
    """
    index = {n: i for i, n in enumerate(cls)}
    keys: Dict[Hashable, int] = {}
    blocks: List[Set[int]] = []
    block_of: List[int] = []
    for n, i in index.items():
        b = keys.setdefault((cls[n], len(succ.get(n, ()))), len(keys))
        if b == len(blocks):
            blocks.append({i})
        else:
            blocks[b].add(i)
        block_of.append(b)
    if len(blocks) == len(index):  # all singletons: nothing can split
        return dict(zip(cls, block_of))
    inverse: List[Dict[int, List[int]]] = []
    for n, i in index.items():
        for pos, s in enumerate(succ.get(n, ())):
            if pos == len(inverse):
                inverse.append({})
            inverse[pos].setdefault(index[s], []).append(i)
    # Every block but a largest one starts queued.  A node has a successor
    # at a position iff its block does, so stability under the whole node
    # set holds from the start, and with it under the block left out.
    sizes = list(map(len, blocks))
    largest = sizes.index(max(sizes))
    work = list(range(len(blocks)))
    del work[largest]
    queued = [True] * len(blocks)
    queued[largest] = False
    while work:
        b = work.pop()
        queued[b] = False
        splitter = list(blocks[b])
        for inv in inverse:
            touched: Dict[int, List[int]] = {}
            for s in splitter:
                for p in inv.get(s, ()):
                    touched.setdefault(block_of[p], []).append(p)
            for t, marked in touched.items():
                if len(marked) == len(blocks[t]):
                    continue
                new = len(blocks)
                part = set(marked)
                blocks[t] -= part
                blocks.append(part)
                for p in marked:
                    block_of[p] = new
                queued.append(False)
                if not queued[t] and len(blocks[t]) < len(part):
                    new = t
                work.append(new)
                queued[new] = True
    ids: Dict[int, int] = {}
    return {n: ids.setdefault(b, len(ids)) for n, b in zip(cls, block_of)}


def minimize(g: TermGraph) -> Tuple[TermGraph, Dict[NodeId, NodeId]]:
    """Quotient by bisimilarity of labelled nodes.

    Empty nodes are never merged (not with each other, not with labelled
    nodes): each stays a singleton block.  Returns the quotient graph and the
    node-to-representative map; representatives are the node_key-least class
    members, so the result is deterministic.
    """
    cls = _refine({n: g.labels.get(n, (n,)) for n in g.nodes}, g.succs)
    first: Dict[int, NodeId] = {}
    rep = {n: first.setdefault(c, n) for n, c in cls.items()}
    out = TermGraph.of(
        first.values(),
        {rep[n]: l for n, l in g.labels.items()},
        {rep[n]: tuple(rep[s] for s in ss) for n, ss in g.succs.items()},
    )
    return out, rep


# ---------------------------------------------------------------------------
# Rational terms


@dataclass(frozen=True, eq=False)
class RationalTerm:
    """A pointed term graph with hole tags and an optional variable renaming.

    Equality is pointed bisimulation (see `bisim_equal`), per the convention
    that a rational term *is* its unraveling.
    """

    graph: TermGraph
    point: NodeId
    bottoms: FrozenSet[NodeId] = frozenset()
    var_names: Tuple[Tuple[NodeId, str], ...] = ()

    def __post_init__(self):
        g = self.graph
        if self.point not in g.nodes:
            raise ValueError(f"point {self.point} not a node")
        for n in self.bottoms:
            if n not in g.nodes or g.is_labelled(n):
                raise ValueError(f"bottom tag on non-empty node {n}")
        for n, _ in self.var_names:
            if n not in g.nodes or g.is_labelled(n):
                raise ValueError(f"variable renaming on non-empty node {n}")

    def renaming(self) -> Dict[NodeId, str]:
        return dict(self.var_names)

    def unravel(self, depth: int) -> FiniteTerm:
        return unravel(
            self.graph, self.point, depth, self.bottoms, self.renaming()
        )

    def variables(self) -> List[str]:
        """Rendered names of reachable, non-hole empty nodes."""
        names = []
        ren = self.renaming()
        for n in sorted_nodes(self.graph.reachable(self.point)):
            if self.graph.is_empty_node(n) and n not in self.bottoms:
                names.append(ren.get(n, n))
        return names

    def trimmed(self) -> "RationalTerm":
        """Drop nodes unreachable from the point (presentation only)."""
        keep = self.graph.reachable(self.point)
        return RationalTerm(
            self.graph.restricted(keep),
            self.point,
            frozenset(b for b in self.bottoms if b in keep),
            tuple((n, v) for n, v in self.var_names if n in keep),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalTerm):
            return NotImplemented
        return bisim_equal(self, other)

    __hash__ = None  # type: ignore[assignment]


def rational_of_term(t: FiniteTerm, prefix: str = "t") -> RationalTerm:
    """Represent a finite term as a pointed tree graph.

    Operator nodes get occurrence-derived ids under the prefix; variables
    become empty nodes named by the variable, shared across occurrences (so
    the result is a tree only for linear terms); holes become bottom-tagged
    empty nodes.
    """
    labels: Dict[NodeId, str] = {}
    succs: Dict[NodeId, Tuple[NodeId, ...]] = {}
    nodes: List[NodeId] = []
    bottoms: List[NodeId] = []
    root = t.symbol if t.is_var else prefix
    # the ids of the subterms the walk is still to reach, last one next: the
    # id at occurrence w.i extends the id at w by ".i"
    ids = [root]
    for _, s in subterms(t):
        nid = ids.pop()
        nodes.append(nid)
        if s.is_bottom:
            bottoms.append(nid)
        elif not s.is_var:
            labels[nid] = s.symbol  # type: ignore[assignment]
            succs[nid] = tuple(
                c.symbol if c.is_var else f"{nid}.{i}"
                for i, c in enumerate(s.children, 1)
            )
            ids.extend(reversed(succs[nid]))
    return RationalTerm(
        TermGraph.of(nodes, labels, succs), root, frozenset(bottoms)
    )


def _agree(
    a: RationalTerm,
    b: RationalTerm,
    depth: Optional[int] = None,
    below: bool = False,
    starts: Optional[Sequence[Tuple[NodeId, NodeId]]] = None,
) -> bool:
    """Do the unravelings of a and b agree on all occurrences (of length <
    depth, if given)?  With `below`, agreement is a <= b in the
    approximation order.  With `starts`, node pairs of a's and b's views
    (graph, holes and names), it decides that for every pair at once, as
    if each were the two points.

    One breadth-first walk over the node pairs that one occurrence reaches
    from the start pairs.  Holes match holes, empty nodes match on rendered
    name, labelled nodes on label and arity, and their successor pairs make
    the next level; with `below`, a hole of a matches anything and is not
    descended.  A mismatch is a difference at that occurrence below the
    start pair that reached it.

    No pair is expanded twice.  In the equality modes each checked pair is
    united in a union-find over (side, node) keys, and a pair already in one
    class is skipped (Hopcroft & Karp 1971; Bonchi & Pous 2013), so at most
    |a| + |b| pairs are expanded.  That is sound because agreement to a
    given depth is an equivalence and breadth-first order takes every pair
    at distance d before any at d + 1: by induction on j, a pair united at
    distance d agrees to depth min(j, depth - d), since its successor pairs
    lie in classes of pairs at distance <= d + 1.  The order is not
    symmetric (x <= y >= z does not give x <= z), so with `below` a pair is
    skipped only if it was seen before, at no larger distance.  Without a
    depth, the pairs a successful `below` walk has seen form a simulation,
    together with the reflexive and hole-on-the-left pairs it skips: every
    successor pair of one lies in it.  So every start pair holds.  Views of
    one graph with the same holes and names skip every pair (x, x): it
    holds in all three modes.
    """
    ga, gb = a.graph, b.graph
    same = ga is gb and a.bottoms == b.bottoms and a.var_names == b.var_names
    labels_a, labels_b, succs_a, succs_b = ga.labels, gb.labels, ga.succs, gb.succs
    holes_a, holes_b, ren_a, ren_b = a.bottoms, b.bottoms, a.renaming(), b.renaming()
    parent: Dict[Tuple[int, NodeId], Tuple[int, NodeId]] = {}
    seen: Set[Tuple[NodeId, NodeId]] = set()
    level = [(a.point, b.point)] if starts is None else list(starts)
    d = 0
    while level and (depth is None or d < depth):
        nxt: List[Tuple[NodeId, NodeId]] = []
        for x, y in level:
            if same and x == y:
                continue
            if below:
                if x in holes_a or (x, y) in seen:
                    continue
                seen.add((x, y))
            else:  # find both roots, halving the paths: roots have no entry
                rx, ry = (0, x), (1, y)
                while rx in parent:
                    p = parent[rx]
                    parent[rx] = rx = parent.get(p, p)
                while ry in parent:
                    p = parent[ry]
                    parent[ry] = ry = parent.get(p, p)
                if rx == ry:
                    continue
                parent[rx] = ry
            hole = x in holes_a
            if hole != (y in holes_b):
                return False
            if hole:
                continue
            lx, ly = labels_a.get(x), labels_b.get(y)
            if lx is None or ly is None:
                if lx != ly or ren_a.get(x, x) != ren_b.get(y, y):
                    return False
                continue
            sx, sy = succs_a[x], succs_b[y]
            if lx != ly or len(sx) != len(sy):
                return False
            nxt.extend(zip(sx, sy))
        level = nxt
        d += 1
    return True


def bisim_equal(a: RationalTerm, b: RationalTerm) -> bool:
    """Pointed bisimulation equality of two rational terms.

    Labelled nodes must match labels and successor classes; holes match holes;
    variables match when their rendered names agree.
    """
    return _agree(a, b)


def rational_approx_leq(a: RationalTerm, b: RationalTerm) -> bool:
    """Unraveling of a <= unraveling of b in the approximation order.

    Coinductive simulation: hole positions of a are below anything; defined
    positions must agree exactly.
    """
    return _agree(a, b, below=True)


def all_approx_leq(pairs: Iterable[Tuple[RationalTerm, RationalTerm]]) -> bool:
    """Is a <= b for every pair (a, b)?  One `_agree` walk per pair of views
    (graph, holes and names on each side) from the points of all the pairs
    between them, so a node pair that several of them reach is checked once."""
    groups: Dict[tuple, Tuple[RationalTerm, RationalTerm, list]] = {}
    for a, b in pairs:  # a group keeps its graphs, so no other takes their ids
        view = (a.bottoms, a.var_names, b.bottoms, b.var_names)
        key = (id(a.graph), id(b.graph), view)
        groups.setdefault(key, (a, b, []))[2].append((a.point, b.point))
    return all(_agree(a, b, below=True, starts=s) for a, b, s in groups.values())


def truncated_equal(a: RationalTerm, b: RationalTerm, depth: int) -> bool:
    """Do the unravelings agree on all occurrences of length < depth?

    Equivalent to a.unravel(depth) == b.unravel(depth) but polynomial in the
    graph sizes rather than in the (possibly exponential) tree size.
    """
    return _agree(a, b, depth)


# ---------------------------------------------------------------------------
# From terms to graphs


def graph_of_terms(
    items: Sequence[RationalTerm],
) -> Tuple[TermGraph, List[NodeId], List[Dict[NodeId, NodeId]]]:
    """The canonical graph presenting a family of rational terms jointly.

    Builds the disjoint union of the (reachable parts of the) carriers,
    identifying variables by rendered name across inputs, then quotients by
    bisimilarity.  Returns the quotient graph, the image of each input's
    point, and each input's node-to-class map.  Labelled classes are renamed
    c0, c1, ... in deterministic order; variable classes keep their name.
    """
    nodes: List[NodeId] = []
    seen = set()
    labels: Dict[NodeId, str] = {}
    succs: Dict[NodeId, Tuple[NodeId, ...]] = {}
    unions: List[Dict[NodeId, NodeId]] = []

    for k, rt in enumerate(items):
        ren = rt.renaming()
        keep = rt.graph.reachable(rt.point)
        umap: Dict[NodeId, NodeId] = {}
        for n in sorted_nodes(keep):
            if rt.graph.is_empty_node(n) and n not in rt.bottoms:
                uid = "v:" + ren.get(n, n)
            else:
                uid = f"u{k}:{n}"
            umap[n] = uid
            if uid not in seen:
                seen.add(uid)
                nodes.append(uid)
        for n in keep:
            lbl = rt.graph.labels.get(n)
            if lbl is not None:
                labels[umap[n]] = lbl
                succs[umap[n]] = tuple(umap[s] for s in rt.graph.succs[n])
        unions.append(umap)

    union_graph = TermGraph.of(nodes, labels, succs)
    quotient, rep = minimize(union_graph)

    final = {n: n[2:] if n.startswith("v:") else n for n in quotient.nodes}
    labelled = [n for n in quotient.nodes if quotient.is_labelled(n)]
    final.update((n, f"c{i}") for i, n in enumerate(labelled))
    out = TermGraph.of(
        [final[n] for n in quotient.nodes],
        {final[n]: l for n, l in quotient.labels.items()},
        {final[n]: tuple(final[s] for s in ss) for n, ss in quotient.succs.items()},
    )
    class_maps = [
        {n: final[rep[u]] for n, u in umap.items()} for umap in unions
    ]
    points = [class_maps[k][rt.point] for k, rt in enumerate(items)]
    return out, points, class_maps


def induced_substitution(f: GraphMorphism) -> Dict[str, RationalTerm]:
    """The substitution a morphism induces on its source's variables.

    Maps each empty source node (as a variable name) to the rational term the
    target presents at its image.
    """
    return {n: RationalTerm(f.dst, f.mapping[n]) for n in f.src.varnodes()}


def apply_subst_rational(
    t: FiniteTerm, sigma: Mapping[str, RationalTerm], depth: int
) -> FiniteTerm:
    """tσ truncated at depth, for σ binding variables to rational terms."""

    def leaf(s: FiniteTerm, d: int) -> Optional[FiniteTerm]:
        if s.is_bottom or d >= depth:
            return BOTTOM
        bound = sigma.get(s.symbol) if s.is_var else None  # type: ignore[arg-type]
        return bound.unravel(depth - d) if bound is not None else None

    return rebuild(t, leaf)
