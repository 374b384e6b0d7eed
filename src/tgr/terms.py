"""Finite, possibly partial first-order terms, their occurrences, and term
literals.

Terms are finite, possibly partial: a term is a prefix-closed, arity-bounded
assignment of symbols to occurrences (sequences of positive child indices).
A position where the assignment is undefined below a defined operator is a
hole, written ``_|_`` and called bottom.  Bottom is also a term of its own,
the everywhere-undefined one.

Variables are leaves.  Whether an identifier is an operator or a variable is
decided by the signature: declared names are operators with a fixed arity,
undeclared names are variables.

The in-memory representation is a small immutable tree, whose subterms
may be shared objects.  `subterms` is the one walk over it: a preorder
stream of (occurrence, subterm) pairs, kept on an explicit stack.  Whatever
reads a term reads that stream, `rebuild` builds one term from another, and
`==`, the printer and the reader keep explicit stacks of their own, so no
term is too deep to handle.  The approximation order and the limits of
ascending chains live on rational terms: `graphs.rational_approx_leq` and
the oracle in `parallel`.

Term literals and workspace files (`parsing`) are one text format with one
tokenizer, `tokenize`, and one term reader, `read_term`, which reads a term
from a token list and says where it ended; `parse_term` reads a literal
that is one term and nothing else.  So a literal may hold `#` comments, as
a workspace may.  Their errors are `ParseError`s with the line at fault.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

Occurrence = Tuple[int, ...]
_REPR_PIECES = 200  # pieces of text (`_pieces`) a FiniteTerm's repr shows


# ---------------------------------------------------------------------------
# Occurrences


def occ_leq(u: Occurrence, w: Occurrence) -> bool:
    """Prefix order on occurrences: u <= w iff u is a prefix of w."""
    return len(u) <= len(w) and w[: len(u)] == u


def occ_format(w: Occurrence) -> str:
    if not w:
        return "λ"
    if all(i <= 9 for i in w):
        return "".join(str(i) for i in w)
    return ".".join(str(i) for i in w)


def occ_sort_key(w: Occurrence) -> Tuple[int, Occurrence]:
    """Length-lexicographic key; enumerating in this order respects prefixes."""
    return (len(w), w)


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    """A finite map from operator names to arities."""

    arities: Tuple[Tuple[str, int], ...]
    _index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", dict(self.arities))

    @staticmethod
    def of(mapping: Mapping[str, int] | Iterable[Tuple[str, int]]) -> "Signature":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        seen: Dict[str, int] = {}
        for name, arity in items:
            if arity < 0:
                raise ValueError(f"negative arity for {name}")
            if name in seen and seen[name] != arity:
                raise ValueError(f"operator {name} declared with two arities")
            seen[name] = arity
        return Signature(tuple(sorted(seen.items())))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._index)

    def is_operator(self, name: str) -> bool:
        return name in self._index

    def arity(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"{name} is not a declared operator")
        return self._index[name]


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, eq=False)
class FiniteTerm:
    """Immutable term node.

    symbol is None for bottom, a variable name when is_var, otherwise an
    operator name with exactly arity-many children (bottom children are the
    holes of a partial term).

    Equality is structural, decided by a walk over pairs of subterms at the
    same occurrence on an explicit stack: a pair agrees on symbol, is_var
    and arity, and its children pair up left to right.  Terms may share
    subterms (`graphs.unravel` builds them so), and since they are acyclic a
    pair of identical objects, or of objects already compared, needs no
    second look; the walk costs the distinct pairs, not the tree size.
    Terms are unhashable.
    """

    symbol: Optional[str]
    children: Tuple["FiniteTerm", ...] = ()
    is_var: bool = False

    def __post_init__(self):
        if self.symbol is None and (self.children or self.is_var):
            raise ValueError("bottom has no children")
        if self.is_var and self.children:
            raise ValueError("variables are leaves")

    @property
    def is_bottom(self) -> bool:
        return self.symbol is None

    @property
    def is_op(self) -> bool:
        return self.symbol is not None and not self.is_var

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteTerm):
            return NotImplemented
        seen = set()  # ids of the pairs compared; both terms keep them alive
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if (
                a.symbol != b.symbol
                or a.is_var != b.is_var
                or len(a.children) != len(b.children)
            ):
                return False
            todo.extend(zip(a.children, b.children))
        return True

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        # A shared term can be exponentially larger than its objects, so
        # the rendering stops after a fixed number of pieces.
        pieces = list(islice(_pieces(self), _REPR_PIECES + 1))
        text = "".join(pieces[:_REPR_PIECES])
        if len(pieces) > _REPR_PIECES:
            text += "…"
        return f"FiniteTerm({text!r})"


BOTTOM = FiniteTerm(None)


def var(name: str) -> FiniteTerm:
    return FiniteTerm(name, (), True)


def op(symbol: str, children: Iterable[FiniteTerm] = ()) -> FiniteTerm:
    return FiniteTerm(symbol, tuple(children), False)


def subterms(t: FiniteTerm) -> Iterator[Tuple[Occurrence, FiniteTerm]]:
    """Every occurrence of t with the subterm there, holes included, in
    preorder: a node before its children, children left to right.

    This is the one walk over finite terms.  It keeps an explicit stack, so
    a term of any depth is walked without recursion.  Each occurrence is a
    fresh tuple, so a walk costs the total length of the occurrences: linear
    in the size of a shallow term, quadratic in the depth of a chain.
    """
    todo: List[Tuple[Occurrence, FiniteTerm]] = [((), t)]
    while todo:
        at, s = todo.pop()
        yield at, s
        i = len(s.children)
        for c in reversed(s.children):  # the first child is popped first
            todo.append((at + (i,), c))
            i -= 1


def vars_of(t: FiniteTerm) -> List[str]:
    """Variable names in left-to-right order of first occurrence."""
    return list(dict.fromkeys(s.symbol for _, s in subterms(t) if s.is_var))


def is_linear(t: FiniteTerm) -> bool:
    names = [s.symbol for _, s in subterms(t) if s.is_var]
    return len(names) == len(set(names))


def is_total(t: FiniteTerm) -> bool:
    """No holes anywhere (bottom itself is not total)."""
    return not any(s.is_bottom for _, s in subterms(t))


def rebuild(
    t: FiniteTerm, leaf: Callable[[FiniteTerm, int], Optional[FiniteTerm]]
) -> FiniteTerm:
    """t with some subterms replaced, built without recursion.

    `leaf(s, d)` sees each subterm s at depth d, parents first.  A term it
    returns takes the place of s, and nothing below s is visited; None keeps
    s, rebuilding an operator from its children's results.
    """
    done: List[FiniteTerm] = []  # finished subterms, left to right
    # (s, d, False) visits s at depth d; (s, d, True) builds it once its
    # children are done
    todo: List[Tuple[FiniteTerm, int, bool]] = [(t, 0, False)]
    while todo:
        s, d, build = todo.pop()
        if build:
            k = len(done) - len(s.children)
            done[k:] = [FiniteTerm(s.symbol, tuple(done[k:]))]
            continue
        new = leaf(s, d)
        if new is not None or not s.children:
            done.append(s if new is None else new)
            continue
        todo.append((s, d, True))
        todo.extend((c, d + 1, False) for c in reversed(s.children))
    return done[0]


# ---------------------------------------------------------------------------
# Term literals


def _pieces(t: FiniteTerm) -> Iterator[str]:
    """The text of t in order: each symbol, with its opening parenthesis,
    and each separator and closing parenthesis as a piece of its own."""
    # an explicit stack of the subterms still to print and the text between
    # them, so terms of any depth print
    todo: List[FiniteTerm | str] = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, str):
            yield s
        elif s.children:
            yield f"{s.symbol}("
            todo.append(")")
            for c in reversed(s.children[1:]):
                todo += (c, ", ")
            todo.append(s.children[0])
        else:
            yield "_|_" if s.is_bottom else s.symbol  # type: ignore[misc]


def format_term(t: FiniteTerm) -> str:
    return "".join(_pieces(t))


class ParseError(ValueError):
    """Text that is not a term literal or a workspace, and the line of the
    first token (or character) at fault."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


Token = Tuple[str, str, int]  # (kind, text, line)

# One group per kind of token; whitespace before a token is skipped, and
# text is tokenized a line at a time, so no token spans a line.
_TOKEN = re.compile(
    r"""\s*(?:
        ([{}():;,/@.])              # punctuation
      | (_\|_)                      # bottom
      | ([A-Za-z_][A-Za-z0-9_]*)    # identifier
      | (->)                        # arrow
      | ([0-9]+)                    # number
      | (\#.*)                      # comment, to the end of the line
      | (\S)                        # anything else is an error
    )""",
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    """The tokens of a term literal or a workspace, with their lines:
    (kind, text, line), kind one of punct, bottom, id, arrow and num.
    Whitespace and `#` comments are skipped."""
    out: List[Token] = []
    for line, chars in enumerate(text.split("\n"), 1):
        for punct, bottom, ident, arrow, num, _, bad in _TOKEN.findall(chars):
            if punct:
                out.append(("punct", punct, line))
            elif ident:
                out.append(("id", ident, line))
            elif bottom:
                out.append(("bottom", bottom, line))
            elif arrow:
                out.append(("arrow", arrow, line))
            elif num:
                out.append(("num", num, line))
            elif bad:
                raise ParseError(f"unexpected character {bad!r}", line)
    return out


def end_of_input(tokens: List[Token]) -> ParseError:
    """The error for tokens that end too early, at the last token's line."""
    return ParseError("unexpected end of input", tokens[-1][2] if tokens else 1)


def _apply(
    sig: Signature, name: str, line: int, args: List[FiniteTerm]
) -> FiniteTerm:
    if not sig.is_operator(name):
        if args:
            raise ParseError(
                f"undeclared operator {name!r} applied to arguments", line
            )
        return var(name)
    if len(args) != sig.arity(name):
        raise ParseError(
            f"{name} has arity {sig.arity(name)}, applied to {len(args)} arguments",
            line,
        )
    return op(name, args)


def read_term(
    sig: Signature, tokens: List[Token], pos: int
) -> Tuple[FiniteTerm, int]:
    """Read one term from `tokens[pos:]`: the term and the position after it.

    A term is `_|_`, or an identifier with an optional parenthesised,
    comma-separated argument list.  Identifiers not declared in the
    signature are variables; declared ones must be applied to exactly
    arity-many arguments (``a`` and ``a()`` are both accepted for
    constants).  An explicit stack of the applications whose arguments are
    being read replaces recursion, so terms of any depth read.
    """
    n = len(tokens)
    open_apps: List[Tuple[str, int, List[FiniteTerm]]] = []  # name, line, args
    while True:
        if pos == n:
            raise end_of_input(tokens)
        kind, text, line = tokens[pos]
        pos += 1
        if kind == "bottom":
            done = BOTTOM
        elif kind != "id":
            what = "unexpected" if open_apps else "expected a term, found"
            raise ParseError(f"{what} {text!r}", line)
        elif pos < n and tokens[pos][1] == "(":
            pos += 1
            if pos == n or tokens[pos][1] != ")":
                open_apps.append((text, line, []))
                continue
            pos += 1
            done = _apply(sig, text, line, [])
        else:
            done = _apply(sig, text, line, [])
        while open_apps:  # done is an argument: close what it completes
            name, at, args = open_apps[-1]
            args.append(done)
            if pos == n:
                raise end_of_input(tokens)
            _, text, line = tokens[pos]
            pos += 1
            if text == ",":
                break
            if text != ")":
                raise ParseError(f"expected ')', found {text!r}", line)
            open_apps.pop()
            done = _apply(sig, name, at, args)
        if not open_apps:
            return done, pos


def parse_term(sig: Signature, text: str) -> FiniteTerm:
    """Parse a term literal like ``f(x, _|_)``: `read_term` over the whole
    text, which is tokenized as a workspace is, `#` comments included.
    Raises ParseError."""
    tokens = tokenize(text)
    term, pos = read_term(sig, tokens, 0)
    if pos < len(tokens):
        _, text, line = tokens[pos]
        raise ParseError(f"trailing tokens after the term: {text!r}", line)
    return term
