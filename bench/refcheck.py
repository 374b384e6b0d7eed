"""Answers the benchmark derives without the code under test.

Everything here reads the plain fields of a graph (`nodes`, `labels`,
`succs`) and nothing else from `tgr`, so a defect in the measured layers
cannot hide itself by also breaking the reference.  Every walk is iterative:
the inputs reach 600 nodes and the reference must not hit the recursion
limit that the measured kernels hit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple


class RefGraph:
    """A pointed graph in plain dicts: label None is a variable or a hole.

    `names` gives each variable node the name its unraveling shows; a node
    with label None that is missing from `names` is a hole.
    """

    def __init__(
        self,
        labels: Mapping[str, Optional[str]],
        succs: Mapping[str, Sequence[str]],
        point: str,
        names: Mapping[str, str],
    ):
        self.labels = dict(labels)
        self.succs = {n: tuple(s) for n, s in succs.items()}
        self.point = point
        self.names = dict(names)

    @staticmethod
    def of_rational(rt) -> "RefGraph":
        """Read a `tgr` rational term through its public fields only."""
        g = rt.graph
        renaming = dict(rt.var_names)
        labels = {n: g.labels.get(n) for n in g.nodes}
        names = {
            n: renaming.get(n, n)
            for n in g.nodes
            if n not in g.labels and n not in rt.bottoms
        }
        return RefGraph(labels, g.succs, rt.point, names)


def bisimilar(a: RefGraph, b: RefGraph) -> bool:
    """Pointed bisimilarity: the two graphs unravel to the same term.

    Hopcroft-Karp style: assume the point pair equal, then check each assumed
    pair locally, adding successor pairs; a union-find keeps every pair from
    being checked twice, so the cost is near-linear in the graph sizes.
    """
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(x: Tuple[str, str]) -> Tuple[str, str]:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    todo = [(a.point, b.point)]
    while todo:
        na, nb = todo.pop()
        ra, rb = find(("a", na)), find(("b", nb))
        if ra == rb:
            continue
        parent[ra] = rb
        la, lb = a.labels[na], b.labels[nb]
        if la is None or lb is None:
            if la != lb:
                return False
            if a.names.get(na) != b.names.get(nb):  # both holes: None == None
                return False
            continue
        if la != lb or len(a.succs[na]) != len(b.succs[nb]):
            return False
        todo.extend(zip(a.succs[na], b.succs[nb]))
    return True


# ---------------------------------------------------------------------------
# Normal forms of the rewrite workload's rule set


def normal_form(host: RefGraph) -> Tuple[RefGraph, int]:
    """The normal form of the rewrite workload's rules, and the step count.

    The rules are f(x)->g(x), I(x)->x, d(x)->p(x,x) and cdr(cons(x,y))->y.
    The two collapsing rules make a node stand for another one: an I node
    for its argument, a cdr node whose argument stands for a cons node for
    that cons node's second argument.  A node whose chain of stand-ins runs
    in a circle collapses forever and becomes a hole.  After resolving the
    stand-ins, f becomes g and d becomes p(x, x).

    The engine rewrites every match, garbage included, so the step count is
    one per f, d and I node plus one per cdr node that fires.
    """
    resolved: Dict[str, Optional[str]] = {}  # node -> stand-in (None: hole)

    def collapses_to(n: str) -> Optional[str]:
        """The node n collapses onto in one step, or None if it stays.
        Needs the stand-in of a cdr node's argument already resolved."""
        lbl = host.labels[n]
        if lbl == "I":
            return host.succs[n][0]
        if lbl == "cdr":
            arg = resolved[host.succs[n][0]]
            if arg is not None and host.labels[arg] == "cons":
                return host.succs[arg][1]
        return None

    def waits_on_argument(n: str) -> bool:
        return host.labels[n] == "cdr" and host.succs[n][0] not in resolved

    def resolve(n0: str) -> None:
        # Depth-first with an explicit stack: a cdr node waits for its
        # argument, and every node waits for the node it collapses to.  When
        # the next node is already on the stack the wait closes a circle.
        # A cdr waiting on its argument inside that circle never sees a
        # cons, so it stays; a circle of collapses alone is a hole.
        stack = [n0]
        depth_of = {n0: 0}
        while stack:
            n = stack[-1]
            if n in resolved:
                del depth_of[stack.pop()]
                continue
            if waits_on_argument(n):
                nxt = host.succs[n][0]
            else:
                nxt = collapses_to(n)
                if nxt is None:
                    resolved[n] = n
                    continue
            if nxt in resolved:
                resolved[n] = resolved[nxt]
            elif nxt in depth_of:
                circle = stack[depth_of[nxt]:]
                waiting = [m for m in circle if waits_on_argument(m)]
                if not waiting:
                    resolved[n] = None
                    continue
                for m in waiting:
                    resolved[m] = m
                # What sits above the lowest of them was pushed only for its
                # argument; the outer loop resolves it later on its own.
                for m in stack[depth_of[waiting[0]] + 1 :]:
                    del depth_of[m]
                del stack[depth_of[waiting[0]] + 1 :]
            else:
                depth_of[nxt] = len(stack)
                stack.append(nxt)

    for n in host.labels:
        if n not in resolved:
            resolve(n)

    fired = sum(
        1
        for n, lbl in host.labels.items()
        if lbl in ("f", "d", "I")
        or (lbl == "cdr" and resolved[n] != n)
    )

    hole = "#hole"
    labels: Dict[str, Optional[str]] = {hole: None}
    succs: Dict[str, Tuple[str, ...]] = {}

    def target(n: str) -> str:
        r = resolved[n]
        return hole if r is None else r

    for n, lbl in host.labels.items():
        if resolved[n] != n:
            continue  # collapsed onto another node (or into a hole)
        if lbl == "f":
            labels[n], succs[n] = "g", (target(host.succs[n][0]),)
        elif lbl == "d":
            x = target(host.succs[n][0])
            labels[n], succs[n] = "p", (x, x)
        else:
            labels[n] = lbl
            succs[n] = tuple(target(s) for s in host.succs.get(n, ()))
    names = {n: host.names[n] for n in host.names if resolved.get(n) == n}
    return RefGraph(labels, succs, target(host.point), names), fired

