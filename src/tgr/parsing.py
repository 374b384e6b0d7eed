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

The text is split into tokens once, by `terms.tokenize`, the tokenizer of
term literals, and each rule side is read from those tokens by
`terms.read_term`, the reader behind `parse_term`; nothing is turned back
into text.  So `_|_` is a token here too: a rule side holding it reads,
and the rule check then refuses it as not total.  Every error is a
`ParseError` naming the line of the token at fault (for a rule that fails
its checks, the line of the rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graphs import RationalTerm, TermGraph, check_wellformed
from .rules import (
    TGRS,
    TRS,
    RewriteRule,
    check_rule,
    graph_trs,
)
from .terms import (
    ParseError,
    Signature,
    Token,
    end_of_input,
    read_term,
    tokenize,
)


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
        self.toks = tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def next(self) -> Token:
        if self.i == len(self.toks):
            raise end_of_input(self.toks)
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, value: str) -> Token:
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
        return self.i < len(self.toks) and self.toks[self.i][1] == value

    def _names(self) -> List[str]:
        """One or more names, one comma between each two."""
        names = [self.expect_id()[0]]
        while self.at(","):
            self.next()
            names.append(self.expect_id()[0])
        return names

    # -- declarations ------------------------------------------------------

    def parse(self) -> Workspace:
        arities: Dict[str, int] = {}
        graphs: Dict[str, RationalTerm] = {}
        # by name, with their lines; checked once the signature is whole
        pending_rules: Dict[str, Tuple[RewriteRule, int]] = {}

        while self.i < len(self.toks):
            kind, value, line = self.next()
            if value == "sig":
                self._parse_sig(arities)
            elif value == "graph":
                name, g = self._parse_graph(Signature.of(arities))
                if name in graphs:
                    raise ParseError(f"graph {name} declared twice", line)
                graphs[name] = g
            elif value == "rule":
                rule, rule_line = self._parse_rule(Signature.of(arities), graphs)
                if rule.name in pending_rules:
                    raise ParseError(f"rule {rule.name} declared twice", line)
                pending_rules[rule.name] = rule, rule_line
            else:
                raise ParseError(
                    f"expected sig, graph, or rule, found {value!r}", line
                )

        sig = Signature.of(arities)
        for rule, line in pending_rules.values():
            try:
                check_rule(rule, sig)
            except ValueError as e:
                raise ParseError(str(e), line) from None
        trs = TRS(sig, tuple(rule for rule, _ in pending_rules.values()))
        return Workspace(sig, graphs, trs)

    def _parse_sig(self, arities: Dict[str, int]) -> None:
        # sig f/1 g/1 a/0  — runs while the next two tokens are `name /`
        toks, start = self.toks, self.i
        while (
            self.i + 1 < len(toks)
            and toks[self.i][0] == "id"
            and toks[self.i + 1][1] == "/"
        ):
            name, line = self.expect_id()
            self.next()
            num = self.next()
            if num[0] != "num":
                raise ParseError(f"expected an arity, found {num[1]!r}", num[2])
            if name in arities and arities[name] != int(num[1]):
                raise ParseError(f"operator {name} redeclared with a different arity", line)
            arities[name] = int(num[1])
        if self.i == start:
            line = toks[min(start, len(toks) - 1)][2]  # `sig` itself at the end
            raise ParseError("sig needs at least one name/arity pair", line)

    def _parse_graph(self, sig: Signature) -> Tuple[str, RationalTerm]:
        name, header_line = self.expect_id()
        self.expect("{")
        nodes: Dict[str, None] = {}  # declared, in order
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
                bottoms += self._names()
                self.expect(";")
            elif kind == "id":
                node = value
                if node in nodes:
                    raise ParseError(f"node {node} declared twice", line)
                nodes[node] = None
                self.expect(":")
                if self.at(";"):  # empty node
                    self.next()
                    continue
                label, _ = self.expect_id()
                args: List[str] = []
                if self.at("("):
                    self.next()
                    if not self.at(")"):
                        args = self._names()
                    self.expect(")")
                labels[node] = label
                succs[node] = tuple(args)
                self.expect(";")
            else:
                raise ParseError(f"unexpected {value!r} in graph body", line)
        self.expect("}")

        if root is None:
            raise ParseError(f"graph {name} has no root", header_line)
        for n in {*bottoms, root}:
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
    ) -> Tuple[RewriteRule, int]:
        name, line = self.expect_id()
        self.expect(":")
        lhs, self.i = read_term(sig, self.toks, self.i)
        self.expect("->")
        if not self.at("@"):
            rhs, self.i = read_term(sig, self.toks, self.i)
            return RewriteRule.of(name, lhs, rhs), line
        self.next()
        gname, gline = self.expect_id()
        self.expect(".")
        node, _ = self.expect_id()
        if gname not in graphs:
            raise ParseError(f"rule {name} uses unknown graph {gname}", gline)
        base = graphs[gname]
        if node not in base.graph.nodes:
            raise ParseError(f"graph {gname} has no node {node}", gline)
        rhs_graph = RationalTerm(base.graph, node, base.bottoms, base.var_names)
        return RewriteRule(name, lhs, rhs_graph), line


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
