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
empty nodes matched by rendered name unless a correspondence is supplied).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .terms import (
    BOTTOM,
    FiniteTerm,
    Occurrence,
    Signature,
    op,
    var,
)

NodeId = str


def node_key(n: NodeId) -> Tuple[int, str]:
    """Deterministic node order: by id length, then lexicographic."""
    return (len(n), n)


# ---------------------------------------------------------------------------
# Term graphs


@dataclass(frozen=True)
class TermGraph:
    """Nodes with partial label/successor structure (see module docstring).

    The dict fields are never mutated after construction; every operation
    returns a new graph.
    """

    nodes: Tuple[NodeId, ...]
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
        Arity against a signature is `check_wellformed`'s business."""
        node_t = tuple(sorted(set(nodes), key=node_key))
        nodeset = set(node_t)
        labels_d = dict(labels)
        succs_d = {n: tuple(s) for n, s in succs.items()}
        for n in labels_d:
            if n not in nodeset:
                raise ValueError(f"labelled node {n} not in node set")
            succs_d.setdefault(n, ())
        for n, ss in succs_d.items():
            if n not in labels_d:
                raise ValueError(f"successors on unlabelled node {n}")
            for s in ss:
                if s not in nodeset:
                    raise ValueError(f"dangling successor {s} at node {n}")
        return TermGraph(node_t, labels_d, succs_d)

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
            if s is None or i > len(s):
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


def check_wellformed(g: TermGraph, sig: Optional[Signature] = None) -> None:
    """Raise ValueError on any structural defect."""
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
        if sig is not None:
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
    the undefined term.  The result is a tree, so this is only meant for
    modest depths — deeper comparisons should use `truncated_equal`.
    """
    budget = [max_size]

    def go(m: NodeId, d: int) -> FiniteTerm:
        if d <= 0 or m in bottoms:
            return BOTTOM
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError("unraveling exceeds size budget; lower the depth")
        lbl = g.labels.get(m)
        if lbl is None:
            name = var_names.get(m, m) if var_names else m
            return var(name)
        return op(lbl, [go(s, d - 1) for s in g.succs[m]])

    return go(n, depth)


def occurrences_to(
    g: TermGraph, src: NodeId, dst: NodeId, maxlen: Optional[int] = None
) -> Iterator[Occurrence]:
    """Occurrences of the paths src -> dst in length-lex order, none longer
    than maxlen if given.

    Breadth first with children in index order, which is already length-lex.
    Each level keeps only nodes that can still reach dst (one reverse search
    up front), so without maxlen the generator ends exactly when the set of
    paths is finite; callers bound it otherwise.
    """
    if maxlen is not None and maxlen < 0:
        return
    preds: Dict[NodeId, List[NodeId]] = {}
    for n in g.reachable(src):
        for s in g.successors(n):
            preds.setdefault(s, []).append(n)
    co = {dst}
    todo = [dst]
    while todo:
        for p in preds.get(todo.pop(), ()):
            if p not in co:
                co.add(p)
                todo.append(p)
    frontier: List[Tuple[NodeId, Occurrence]] = [(src, ())] if src in co else []
    while frontier:
        for node, occ in frontier:
            if node == dst:
                yield occ
        if maxlen is not None and len(frontier[0][1]) >= maxlen:
            return
        frontier = [
            (s, occ + (i,))
            for node, occ in frontier
            for i, s in enumerate(g.successors(node), start=1)
            if s in co
        ]


def count_paths(
    g: TermGraph, src: NodeId, bound: int, dst: Optional[NodeId] = None
) -> int:
    """Number of paths from src of length < bound (only those ending at dst,
    if given), by dynamic programming over path counts per length: no
    enumeration, so exponentially many paths cost nothing extra."""
    counts: Dict[NodeId, int] = {src: 1}
    total = 0
    for _ in range(bound):
        total += sum(counts.values()) if dst is None else counts.get(dst, 0)
        nxt: Dict[NodeId, int] = {}
        for node, c in counts.items():
            for s in g.successors(node):
                nxt[s] = nxt.get(s, 0) + c
        counts = nxt
    return total


def cycle_nodes(g: TermGraph, start: NodeId) -> FrozenSet[NodeId]:
    """The nodes reachable from start that lie on a cycle: those reachable
    from one of their own successors."""
    return frozenset(
        n
        for n in g.reachable(start)
        if any(n in g.reachable(s) for s in g.successors(n))
    )


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class GraphMorphism:
    """A node map preserving labels and successors on labelled nodes."""

    src: TermGraph
    dst: TermGraph
    mapping: Dict[NodeId, NodeId]


def morphism_errors(f: GraphMorphism) -> List[str]:
    errs = []
    for n in f.src.nodes:
        if n not in f.mapping:
            errs.append(f"node {n} unmapped")
            continue
        m = f.mapping[n]
        if m not in set(f.dst.nodes):
            errs.append(f"image {m} of {n} not a node")
            continue
        lbl = f.src.labels.get(n)
        if lbl is None:
            continue
        if f.dst.labels.get(m) != lbl:
            errs.append(f"label not preserved at {n}: {lbl} vs {f.dst.labels.get(m)}")
        elif tuple(f.mapping[s] for s in f.src.succs[n]) != f.dst.succs[m]:
            errs.append(f"successors not preserved at {n}")
    return errs


def check_morphism(f: GraphMorphism) -> None:
    errs = morphism_errors(f)
    if errs:
        raise ValueError("not a graph morphism: " + "; ".join(errs))


def is_tree(g: TermGraph, root: NodeId) -> bool:
    """Exactly one path from root to every node (and every node reached)."""
    indeg: Dict[NodeId, int] = {n: 0 for n in g.nodes}
    for n in g.labels:
        for s in g.succs[n]:
            indeg[s] += 1
    if indeg[root] != 0:
        return False
    if any(indeg[n] > 1 for n in g.nodes):
        return False
    if g.reachable(root) != set(g.nodes):
        return False
    # in-degree <= 1 + reachability + finite rules out cycles except self-loops
    # through root, which in-degree 0 already excludes.
    return True


def find_tree_morphisms(
    L: TermGraph,
    root: NodeId,
    H: TermGraph,
    root_image: Optional[NodeId] = None,
) -> List[GraphMorphism]:
    """All morphisms from a tree L into H, in ascending root-image order.

    The image of the root determines the whole morphism, so candidates are
    tried by walking the tree once per root image.
    """
    if not is_tree(L, root):
        raise ValueError("find_tree_morphisms requires a tree with the given root")
    candidates = (
        [root_image] if root_image is not None else sorted(H.nodes, key=node_key)
    )
    out: List[GraphMorphism] = []
    for cand in candidates:
        mapping: Dict[NodeId, NodeId] = {root: cand}
        ok = True
        todo = [root]
        while todo and ok:
            n = todo.pop()
            lbl = L.labels.get(n)
            if lbl is None:
                continue
            m = mapping[n]
            if H.labels.get(m) != lbl:
                ok = False
                break
            for child, img in zip(L.succs[n], H.succs[m]):
                mapping[child] = img
                todo.append(child)
        if ok:
            out.append(GraphMorphism(L, H, mapping))
    return out


# ---------------------------------------------------------------------------
# Partition refinement, minimization, bisimulation


def _refine(
    blocks: List[FrozenSet[NodeId]],
    succ: Mapping[NodeId, Tuple[NodeId, ...]],
) -> List[FrozenSet[NodeId]]:
    """Moore-style refinement of an initial partition by successor blocks."""
    while True:
        index: Dict[NodeId, int] = {}
        for i, b in enumerate(blocks):
            for n in b:
                index[n] = i
        new: List[FrozenSet[NodeId]] = []
        changed = False
        for b in blocks:
            groups: Dict[Tuple[int, ...], List[NodeId]] = {}
            for n in sorted(b, key=node_key):
                sig_vec = tuple(index[s] for s in succ.get(n, ()))
                groups.setdefault(sig_vec, []).append(n)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                new.append(frozenset(groups[key]))
        blocks = new
        if not changed:
            return blocks


def minimize(g: TermGraph) -> Tuple[TermGraph, Dict[NodeId, NodeId]]:
    """Quotient by bisimilarity of labelled nodes.

    Empty nodes are never merged (not with each other, not with labelled
    nodes): each stays a singleton block.  Returns the quotient graph and the
    node-to-representative map; representatives are the node_key-least class
    members, so the result is deterministic.
    """
    blocks: List[FrozenSet[NodeId]] = []
    by_label: Dict[str, List[NodeId]] = {}
    for n in g.nodes:
        lbl = g.labels.get(n)
        if lbl is None:
            blocks.append(frozenset([n]))
        else:
            by_label.setdefault(lbl, []).append(n)
    for lbl in sorted(by_label):
        blocks.append(frozenset(by_label[lbl]))
    blocks = _refine(blocks, g.succs)
    rep: Dict[NodeId, NodeId] = {}
    for b in blocks:
        r = min(b, key=node_key)
        for n in b:
            rep[n] = r
    out = TermGraph.of(
        sorted(set(rep.values()), key=node_key),
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
        nodeset = set(self.graph.nodes)
        if self.point not in nodeset:
            raise ValueError(f"point {self.point} not a node")
        for n in self.bottoms:
            if n not in nodeset or self.graph.is_labelled(n):
                raise ValueError(f"bottom tag on non-empty node {n}")
        for n, _ in self.var_names:
            if n not in nodeset or self.graph.is_labelled(n):
                raise ValueError(f"variable renaming on non-empty node {n}")

    def renaming(self) -> Dict[NodeId, str]:
        return dict(self.var_names)

    def render_name(self, n: NodeId) -> str:
        return self.renaming().get(n, n)

    def unravel(self, depth: int) -> FiniteTerm:
        return unravel(
            self.graph, self.point, depth, self.bottoms, self.renaming()
        )

    def variables(self) -> List[str]:
        """Rendered names of reachable, non-hole empty nodes."""
        names = []
        ren = self.renaming()
        for n in sorted(self.graph.reachable(self.point), key=node_key):
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

    def go(s: FiniteTerm, at: Occurrence) -> NodeId:
        if s.is_var:
            name = s.symbol or ""
            if name not in nodes:
                nodes.append(name)
            return name
        nid = prefix + "".join(f".{i}" for i in at) if at else prefix
        nodes.append(nid)
        if s.is_bottom:
            bottoms.append(nid)
            return nid
        labels[nid] = s.symbol  # type: ignore[assignment]
        succs[nid] = tuple(go(c, at + (i,)) for i, c in enumerate(s.children, 1))
        return nid

    root = go(t, ())
    return RationalTerm(
        TermGraph.of(nodes, labels, succs), root, frozenset(bottoms)
    )


def _initial_bisim_blocks(
    a: RationalTerm, b: RationalTerm, correspondence: Optional[Mapping[str, str]]
) -> Tuple[TermGraph, NodeId, NodeId, List[FrozenSet[NodeId]]]:
    """Disjoint union of the two carriers plus initial comparison blocks."""
    nodes = [f"a:{n}" for n in a.graph.nodes] + [f"b:{n}" for n in b.graph.nodes]
    labels = {f"a:{n}": l for n, l in a.graph.labels.items()}
    labels.update({f"b:{n}": l for n, l in b.graph.labels.items()})
    succs = {
        f"a:{n}": tuple(f"a:{s}" for s in ss) for n, ss in a.graph.succs.items()
    }
    succs.update(
        {f"b:{n}": tuple(f"b:{s}" for s in ss) for n, ss in b.graph.succs.items()}
    )
    union = TermGraph.of(nodes, labels, succs)

    blocks: List[FrozenSet[NodeId]] = []
    by_label: Dict[str, List[NodeId]] = {}
    for n, l in labels.items():
        by_label.setdefault(l, []).append(n)
    for lbl in sorted(by_label):
        blocks.append(frozenset(by_label[lbl]))

    holes: List[NodeId] = []
    by_name: Dict[str, List[NodeId]] = {}
    for side, rt in (("a", a), ("b", b)):
        ren = rt.renaming()
        for n in rt.graph.varnodes():
            key = f"{side}:{n}"
            if n in rt.bottoms:
                holes.append(key)
                continue
            name = ren.get(n, n)
            if side == "a" and correspondence is not None:
                name = correspondence.get(name, name)
            by_name.setdefault(name, []).append(key)
    if holes:
        blocks.append(frozenset(holes))
    for name in sorted(by_name):
        blocks.append(frozenset(by_name[name]))
    return union, f"a:{a.point}", f"b:{b.point}", blocks


def bisim_equal(
    a: RationalTerm,
    b: RationalTerm,
    correspondence: Optional[Mapping[str, str]] = None,
) -> bool:
    """Pointed bisimulation equality of two rational terms.

    Labelled nodes must match labels and successor classes; holes match holes;
    variables match when their rendered names agree (after applying the
    optional a-side-to-b-side correspondence).
    """
    union, pa, pb, blocks = _initial_bisim_blocks(a, b, correspondence)
    blocks = _refine(blocks, union.succs)
    index = {n: i for i, blk in enumerate(blocks) for n in blk}
    return index[pa] == index[pb]


def rational_approx_leq(a: RationalTerm, b: RationalTerm) -> bool:
    """Unraveling of a <= unraveling of b in the approximation order.

    Coinductive simulation: hole positions of a are below anything; defined
    positions must agree exactly.
    """
    ren_a, ren_b = a.renaming(), b.renaming()
    assumed = set()

    def sim(na: NodeId, nb: NodeId) -> bool:
        if na in a.bottoms:
            return True
        if (na, nb) in assumed:
            return True
        assumed.add((na, nb))
        la = a.graph.labels.get(na)
        if la is None:
            return (
                b.graph.is_empty_node(nb)
                and nb not in b.bottoms
                and ren_a.get(na, na) == ren_b.get(nb, nb)
            )
        if b.graph.labels.get(nb) != la:
            return False
        return all(
            sim(sa, sb) for sa, sb in zip(a.graph.succs[na], b.graph.succs[nb])
        )

    return sim(a.point, b.point)


def truncated_equal(a: RationalTerm, b: RationalTerm, depth: int) -> bool:
    """Do the unravelings agree on all occurrences of length < depth?

    Equivalent to a.unravel(depth) == b.unravel(depth) but polynomial in the
    graph sizes rather than in the (possibly exponential) tree size.
    """
    ren_a, ren_b = a.renaming(), b.renaming()
    memo: Dict[Tuple[NodeId, NodeId, int], bool] = {}

    def eq(na: NodeId, nb: NodeId, d: int) -> bool:
        if d <= 0:
            return True
        key = (na, nb, d)
        if key in memo:
            return memo[key]
        bot_a, bot_b = na in a.bottoms, nb in b.bottoms
        if bot_a or bot_b:
            ans = bot_a and bot_b
        else:
            la, lb = a.graph.labels.get(na), b.graph.labels.get(nb)
            if la is None or lb is None:
                ans = (
                    la is None
                    and lb is None
                    and ren_a.get(na, na) == ren_b.get(nb, nb)
                )
            elif la != lb:
                ans = False
            else:
                ans = all(
                    eq(sa, sb, d - 1)
                    for sa, sb in zip(a.graph.succs[na], b.graph.succs[nb])
                )
        memo[key] = ans
        return ans

    return eq(a.point, b.point, depth)


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
        for n in sorted(keep, key=node_key):
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

    final: Dict[NodeId, NodeId] = {}
    counter = 0
    for n in quotient.nodes:
        if quotient.is_labelled(n):
            final[n] = f"c{counter}"
            counter += 1
        elif n.startswith("v:"):
            final[n] = n[2:]
        else:
            final[n] = n
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


def induced_substitution(
    f: GraphMorphism, bottoms: FrozenSet[NodeId] = frozenset()
) -> Dict[str, RationalTerm]:
    """The substitution a morphism induces on its source's variables.

    Maps each empty source node (as a variable name) to the rational term the
    target presents at its image.
    """
    out: Dict[str, RationalTerm] = {}
    for n in f.src.varnodes():
        out[n] = RationalTerm(f.dst, f.mapping[n], bottoms)
    return out


def apply_subst_rational(
    t: FiniteTerm, sigma: Mapping[str, RationalTerm], depth: int
) -> FiniteTerm:
    """tσ truncated at depth, for σ binding variables to rational terms."""
    if t.is_bottom or depth <= 0:
        return BOTTOM
    if t.is_var:
        bound = sigma.get(t.symbol)  # type: ignore[arg-type]
        return bound.unravel(depth) if bound is not None else t
    return op(
        t.symbol,
        [apply_subst_rational(c, sigma, depth - 1) for c in t.children],
    )
