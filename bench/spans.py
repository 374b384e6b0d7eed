"""The traced run: spans around each layer's functions, from outside `tgr`.

Modules of `tgr` import each other's names with `from .x import y`, so a
wrapper must replace every module-level binding of a function, not just the
one in its defining module: `tgr.dpo.pushout` and `tgr.dpo.check_morphism`
are both rebound.  `TermGraph.of` and `RationalRedexSet.count_below` are
wrapped on their classes, and the property functions in
`tgr.harness.PROPERTIES` in that dict.  Nothing under `src/` is edited.

A span records its name, start, end, parent span and op id in flat arrays;
per-layer metrics are derived from them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, function) wrapped under the span name "<module>.<function>".
FUNCTIONS = [
    ("dpo", "find_matches"),
    ("dpo", "derive"),
    ("dpo", "pushout_complement"),
    ("dpo", "pushout"),
    ("dpo", "track_substitution"),
    ("dpo", "derive_rational"),
    ("graphs", "check_morphism"),
    ("graphs", "find_tree_morphisms"),
    ("graphs", "rational_approx_leq"),
    ("graphs", "truncated_equal"),
    ("graphs", "bisim_equal"),
    ("graphs", "_refine"),
    ("graphs", "minimize"),
    ("graphs", "unravel"),
    ("parallel", "enumerate_occurrences"),
    ("parallel", "_cut_graph"),
    ("parallel", "develop_rational"),
    ("parallel", "infinite_parallel_reduce"),
    ("parallel", "join_parallel"),
    ("parallel", "complete_development"),
    ("parallel", "reduce"),
    ("parallel", "find_redexes"),
    ("rules", "unravel_rule"),
    ("rules", "graph_of_rule"),
    ("rules", "orthogonality_conflicts"),
    ("harness", "gen_case"),
    ("harness", "shrink_case"),
]


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: List[int] = []
        self.op_id = -1
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def span(self, name: str, fn: Callable, counter: Optional[Callable] = None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    # -- derived figures ---------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, List[float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, path: str) -> None:
        """One line per span: op, name, parent, start and end in µs."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\top\tname\tparent\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.parent[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\n"
                )


# -- counters at the same boundaries ------------------------------------------


def _count_find_matches(tr: Tracer, args, kwargs, result) -> None:
    tr.count("dpo.find_matches.matches", len(result))


def _count_tree_morphisms(tr: Tracer, args, kwargs, result) -> None:
    root_image = args[3] if len(args) > 3 else kwargs.get("root_image")
    tr.count(
        "graphs.find_tree_morphisms.candidates",
        1 if root_image is not None else len(args[2].nodes),
    )
    tr.count("graphs.find_tree_morphisms.hits", len(result))


def _count_termgraph(tr: Tracer, args, kwargs, result) -> None:
    tr.count("graphs.termgraph_of.nodes", len(result.nodes))


def _count_cut_graph(tr: Tracer, args, kwargs, result) -> None:
    tr.count("parallel._cut_graph.nodes", len(result[0].graph.nodes))


def _count_occurrences(tr: Tracer, args, kwargs, result) -> None:
    tr.count("parallel.enumerate_occurrences.occurrences", len(result))


def _count_oracle(tr: Tracer, args, kwargs, report) -> None:
    tr.count("oracle.samples", len(report.samples))
    tr.count("oracle.doublings", report.doublings)
    tr.count("oracle.budget_capped_ratio", report.effective_depth < report.depth)


def _count_minimize(tr: Tracer, args, kwargs, result) -> None:
    before = len(args[0].nodes)
    tr.count("graphs.minimize.shrink_ratio", len(result[0].nodes) / before if before else 1.0)


COUNTERS: Dict[str, Callable] = {
    "dpo.find_matches": _count_find_matches,
    "graphs.find_tree_morphisms": _count_tree_morphisms,
    "parallel._cut_graph": _count_cut_graph,
    "parallel.enumerate_occurrences": _count_occurrences,
    "parallel.infinite_parallel_reduce": _count_oracle,
    "graphs.minimize": _count_minimize,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function of the loaded `tgr`; returns the undo."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "tgr" or name.startswith("tgr."))
    }
    undo: List[Tuple[Any, str, Any]] = []

    def rebind(original: Any, replacement: Any) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    for mod_name, fn_name in FUNCTIONS:
        span_name = f"{mod_name}.{fn_name}"
        original = getattr(modules[f"tgr.{mod_name}"], fn_name)
        rebind(original, tracer.span(span_name, original, COUNTERS.get(span_name)))

    graphs = modules["tgr.graphs"]
    of = graphs.TermGraph.__dict__["of"]
    undo.append((graphs.TermGraph, "of", of))
    graphs.TermGraph.of = staticmethod(
        tracer.span("graphs.termgraph_of", of.__func__, _count_termgraph)
    )

    rrs = modules["tgr.parallel"].RationalRedexSet
    count_below = rrs.__dict__["count_below"]
    undo.append((rrs, "count_below", count_below))
    rrs.count_below = tracer.span("parallel.count_below", count_below)

    props = modules["tgr.harness"].PROPERTIES
    saved = dict(props)
    for name, fn in saved.items():
        props[name] = tracer.span(f"harness.property.{name}", fn)

    def uninstall() -> None:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)
        props.update(saved)

    return uninstall
