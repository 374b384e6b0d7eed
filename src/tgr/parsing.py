"""The workspace file format: signatures, graphs, and rules in one file.

A workspace is plain text with `#` line comments and three kinds of
declaration, in any order as long as names are declared before use:

    sig f/1 cons/2 a/0

    graph G1 {
      n1: cons(n2, n1);   # successors are node ids
      n2: a();            # constants may drop the parens
      n3: ;               # an empty node (a variable)
      root n1;
      bottom n3;          # optional: tag empty nodes as holes
    }

    rule Rf: f(x) -> g(x)
    rule Ro: f(x) -> @G1.n1   # right-hand side taken from a graph

Rule sides are terms over the signature; identifiers not declared as
operators are variables.  A graph-valued right-hand side points into a
previously declared graph, whose empty nodes are its variables (matched to
the left-hand side's variables by name).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graphs import RationalTerm, TermGraph, check_wellformed
from .rules import (
    TGRS,
    TRS,
    RewriteRule,
    check_rule,
    check_trs,
    graph_trs,
)
from .terms import FiniteTerm, Signature, parse_term


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>[0-9]+)
  | (?P<punct>[{}():;,/@.])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup
        value = m.group()
        line += value.count("\n")
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        out.append((kind, value, line))
    return out


@dataclass
class Workspace:
    """A parsed workspace: the signature, named graphs, and the rule system.

    Graphs are stored as pointed rational terms (point = declared root).  The
    rules are kept at the term level; `tgrs()` translates them on demand.
    """

    sig: Signature
    graphs: Dict[str, RationalTerm]
    trs: TRS
    _tgrs: Optional[TGRS] = field(default=None, repr=False, compare=False)

    def graph(self, name: str) -> RationalTerm:
        if name not in self.graphs:
            raise KeyError(f"no graph named {name}")
        return self.graphs[name]

    def tgrs(self) -> TGRS:
        if self._tgrs is None:
            self._tgrs = graph_trs(self.trs)
        return self._tgrs


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1][2] if self.toks else 1
            raise ParseError("unexpected end of input", last)
        self.i += 1
        return tok

    def expect(self, value: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        return tok

    def expect_id(self) -> Tuple[str, int]:
        tok = self.next()
        if tok[0] != "id":
            raise ParseError(f"expected a name, found {tok[1]!r}", tok[2])
        return tok[1], tok[2]

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == value

    # -- declarations ------------------------------------------------------

    def parse(self) -> Workspace:
        arities: Dict[str, int] = {}
        graphs: Dict[str, RationalTerm] = {}
        pending_rules: List[Tuple[str, FiniteTerm, object, int]] = []

        while self.peek() is not None:
            kind, value, line = self.next()
            if value == "sig":
                self._parse_sig(arities)
            elif value == "graph":
                name, g = self._parse_graph(Signature.of(arities))
                if name in graphs:
                    raise ParseError(f"graph {name} declared twice", line)
                graphs[name] = g
            elif value == "rule":
                pending_rules.append(self._parse_rule(Signature.of(arities), graphs))
            else:
                raise ParseError(
                    f"expected sig, graph, or rule, found {value!r}", line
                )

        sig = Signature.of(arities)
        rules = []
        for name, lhs, rhs, line in pending_rules:
            rule = (
                RewriteRule(name, lhs, rhs)
                if isinstance(rhs, RationalTerm)
                else RewriteRule.of(name, lhs, rhs)
            )
            try:
                check_rule(rule, sig)
            except ValueError as e:
                raise ParseError(str(e), line) from None
            rules.append(rule)
        trs = TRS(sig, tuple(rules))
        try:
            check_trs(trs)
        except ValueError as e:
            raise ParseError(str(e), 1) from None
        return Workspace(sig, graphs, trs)

    def _parse_sig(self, arities: Dict[str, int]) -> None:
        # sig f/1 g/1 a/0  — runs until the next token is no longer `name/num`
        declared = False
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "id":
                break
            nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
            if nxt is None or nxt[1] != "/":
                break
            name, line = self.expect_id()
            self.expect("/")
            num = self.next()
            if num[0] != "num":
                raise ParseError(f"expected an arity, found {num[1]!r}", num[2])
            if name in arities and arities[name] != int(num[1]):
                raise ParseError(f"operator {name} redeclared with a different arity", line)
            arities[name] = int(num[1])
            declared = True
        if not declared:
            tok = self.peek()
            raise ParseError(
                "sig needs at least one name/arity pair",
                tok[2] if tok else 1,
            )

    def _parse_graph(self, sig: Signature) -> Tuple[str, RationalTerm]:
        name, header_line = self.expect_id()
        self.expect("{")
        nodes: List[str] = []
        labels: Dict[str, str] = {}
        succs: Dict[str, Tuple[str, ...]] = {}
        root: Optional[str] = None
        bottoms: List[str] = []

        while not self.at("}"):
            kind, value, line = self.next()
            if value == "root":
                if root is not None:
                    raise ParseError("root declared twice", line)
                root, _ = self.expect_id()
                self.expect(";")
            elif value == "bottom":
                while True:
                    b, _ = self.expect_id()
                    bottoms.append(b)
                    if self.at(","):
                        self.next()
                        continue
                    break
                self.expect(";")
            elif kind == "id":
                node = value
                if node in nodes:
                    raise ParseError(f"node {node} declared twice", line)
                nodes.append(node)
                self.expect(":")
                if self.at(";"):  # empty node
                    self.next()
                    continue
                label, _ = self.expect_id()
                args: List[str] = []
                if self.at("("):
                    self.next()
                    while not self.at(")"):
                        arg, _ = self.expect_id()
                        args.append(arg)
                        if self.at(","):
                            self.next()
                    self.expect(")")
                labels[node] = label
                succs[node] = tuple(args)
                self.expect(";")
            else:
                raise ParseError(f"unexpected {value!r} in graph body", line)
        self.expect("}")

        if root is None:
            raise ParseError(f"graph {name} has no root", header_line)
        for n in set(b for b in bottoms) | {root}:
            if n not in nodes:
                raise ParseError(f"graph {name} mentions unknown node {n}", header_line)
        for n in bottoms:
            if n in labels:
                raise ParseError(f"bottom tag on labelled node {n}", header_line)
        try:
            g = TermGraph.of(nodes, labels, succs)
            check_wellformed(g, sig)
        except ValueError as e:
            raise ParseError(f"graph {name}: {e}", header_line) from None
        return name, RationalTerm(g, root, frozenset(bottoms))

    def _parse_rule(
        self, sig: Signature, graphs: Dict[str, RationalTerm]
    ) -> Tuple[str, FiniteTerm, object, int]:
        name, line = self.expect_id()
        self.expect(":")
        lhs = self._parse_term(sig)
        self.expect("->")
        if self.at("@"):
            self.next()
            gname, gline = self.expect_id()
            self.expect(".")
            node, _ = self.expect_id()
            if gname not in graphs:
                raise ParseError(f"rule {name} uses unknown graph {gname}", gline)
            base = graphs[gname]
            if not base.graph.has_node(node):
                raise ParseError(f"graph {gname} has no node {node}", gline)
            rhs: object = RationalTerm(base.graph, node, base.bottoms, base.var_names)
        else:
            rhs = self._parse_term(sig)
        return name, lhs, rhs, line

    def _parse_term(self, sig: Signature) -> FiniteTerm:
        # Collect the token span of one term (an identifier, optionally a
        # balanced argument list) and reuse the term parser.
        start = self.i
        tok = self.next()
        if tok[0] != "id":
            raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])
        if self.at("("):
            depth = 0
            while True:
                t = self.next()
                if t[1] == "(":
                    depth += 1
                elif t[1] == ")":
                    depth -= 1
                    if depth == 0:
                        break
        text = _render_tokens(self.toks[start : self.i])
        try:
            return parse_term(sig, text)
        except ValueError as e:
            raise ParseError(str(e), tok[2]) from None


def _render_tokens(toks: List[Tuple[str, str, int]]) -> str:
    out = []
    for kind, value, _ in toks:
        out.append(value)
        out.append(" ")
    return "".join(out)


def parse_workspace(text: str) -> Workspace:
    """Parse a workspace file; raises ParseError with a line number."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Serialization (the same shape the parser reads)


def format_graph(rt: RationalTerm, name: Optional[str] = "G") -> str:
    """The graph as a workspace declaration `graph name { ... }`, one
    statement per line; with name=None, the one-line form used in traces:
    {n1: f(n2); n2: ; root n1;}."""
    g = rt.graph
    stmts = []
    for n in g.nodes:
        lbl = g.labels.get(n)
        if lbl is None:
            stmts.append(f"{n}: ;")
        else:
            stmts.append(f"{n}: {lbl}({', '.join(g.succs[n])});")
    stmts.append(f"root {rt.point};")
    if rt.bottoms:
        stmts.append(f"bottom {', '.join(sorted(rt.bottoms))};")
    if name is None:
        return "{" + " ".join(stmts) + "}"
    return "\n".join([f"graph {name} {{"] + [f"  {st}" for st in stmts] + ["}"])


def graph_to_json(rt: RationalTerm) -> Dict[str, object]:
    g = rt.graph
    return {
        "nodes": [
            {
                "id": n,
                "label": g.labels.get(n),
                "successors": list(g.succs.get(n, ())),
            }
            for n in g.nodes
        ],
        "root": rt.point,
        "bottom": sorted(rt.bottoms),
        "variables": {n: v for n, v in rt.var_names},
    }
