"""Graphviz rendering of term graphs and rewrite steps."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Union

from .dpo import DirectDerivation
from .graphs import NodeId, RationalTerm, TermGraph


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_lines(
    g: TermGraph,
    prefix: str,
    bottoms: FrozenSet[NodeId] = frozenset(),
    point: Optional[NodeId] = None,
    var_names: Optional[Dict[NodeId, str]] = None,
) -> List[str]:
    lines = []
    for n in g.nodes:
        nid = _quote(prefix + n)
        lbl = g.labels.get(n)
        extra = ", peripheries=2" if n == point else ""
        if lbl is not None:
            lines.append(f"  {nid} [label={_quote(f'{n}:{lbl}')}, shape=box{extra}];")
        elif n in bottoms:
            lines.append(
                f"  {nid} [label={_quote(n + ':⊥')}, shape=ellipse, "
                f"style=filled, fillcolor=lightgray{extra}];"
            )
        else:
            name = (var_names or {}).get(n, n)
            text = n if name == n else f"{n}:{name}"
            lines.append(
                f"  {nid} [label={_quote(text)}, shape=ellipse, style=dashed{extra}];"
            )
    for n in g.nodes:
        for i, s in enumerate(g.succs.get(n, ()), start=1):
            lines.append(
                f"  {_quote(prefix + n)} -> {_quote(prefix + s)} "
                f"[label={_quote(str(i))}];"
            )
    return lines


def _morphism_lines(
    mapping: Dict[NodeId, NodeId], src_prefix: str, dst_prefix: str, name: str
) -> List[str]:
    lines = []
    first = True
    for n, m in sorted(mapping.items()):
        attrs = "style=dashed, color=gray, constraint=false"
        if first:
            attrs += f", label={_quote(name)}"
            first = False
        lines.append(
            f"  {_quote(src_prefix + n)} -> {_quote(dst_prefix + m)} [{attrs}];"
        )
    return lines


def export_dot(obj: Union[RationalTerm, DirectDerivation], name: str = "G") -> str:
    """Render a pointed term or a whole rewrite step as DOT.

    A rewrite step becomes six clusters (the rule span on top, the host,
    context, and result below) with the span and occurrence morphisms drawn
    dashed in gray.
    """
    if isinstance(obj, DirectDerivation):
        return _derivation_dot(obj, name)
    body = _node_lines(obj.graph, "", obj.bottoms, obj.point, obj.renaming())
    return "\n".join(
        [f"digraph {name} {{", "  rankdir=TB;"] + body + ["}"]
    )


def _cluster(title: str, prefix: str, lines: List[str]) -> List[str]:
    return (
        [f"  subgraph cluster_{prefix.rstrip('_')} {{",
         f"    label={_quote(title)};"]
        + ["  " + l for l in lines]
        + ["  }"]
    )


def _derivation_dot(drv: DirectDerivation, name: str) -> str:
    rule = drv.rule
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  compound=true;"]
    lines += _cluster(f"L ({rule.name})", "L_", _node_lines(rule.L, "L_", point=rule.root))
    lines += _cluster("K", "K_", _node_lines(rule.K, "K_"))
    lines += _cluster("R", "R_", _node_lines(rule.R, "R_"))
    lines += _cluster("G", "G_", _node_lines(drv.G, "G_"))
    lines += _cluster("D", "D_", _node_lines(drv.D, "D_"))
    lines += _cluster("H", "H_", _node_lines(drv.H, "H_"))
    identity = {n: n for n in rule.K.nodes}
    lines += _morphism_lines(identity, "K_", "L_", "l")
    lines += _morphism_lines(dict(rule.r), "K_", "R_", "r")
    lines += _morphism_lines(drv.match.g.mapping, "L_", "G_", "g")
    lines += _morphism_lines(drv.d.mapping, "K_", "D_", "d")
    lines += _morphism_lines(drv.h.mapping, "R_", "H_", "h")
    lines += _morphism_lines(drv.b.mapping, "D_", "H_", "b")
    lines.append("}")
    return "\n".join(lines)
