"""Possibly-partial first-order terms and the approximation order.

Terms are finite, possibly partial: a term is a prefix-closed, arity-bounded
assignment of symbols to occurrences (sequences of positive child indices).
A position where the assignment is undefined below a defined operator is a
hole, written ``_|_`` and called bottom.  Bottom is also a term of its own
(the everywhere-undefined one); it is the least element of the approximation
order, under which s <= t iff t agrees with s wherever s is defined.

Variables are leaves.  Whether an identifier is an operator or a variable is
decided by the signature: declared names are operators with a fixed arity,
undeclared names are variables.

The in-memory representation is a small immutable tree; the occurrence-map
view used by the definitions above is available through `occurrences` /
`from_occurrences`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

Occurrence = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Occurrences


def occ_leq(u: Occurrence, w: Occurrence) -> bool:
    """Prefix order on occurrences: u <= w iff u is a prefix of w."""
    return len(u) <= len(w) and w[: len(u)] == u


def occ_disjoint(u: Occurrence, w: Occurrence) -> bool:
    """Neither occurrence is a prefix of the other."""
    return not occ_leq(u, w) and not occ_leq(w, u)


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


@dataclass(frozen=True)
class FiniteTerm:
    """Immutable term node.

    symbol is None for bottom, a variable name when is_var, otherwise an
    operator name with exactly arity-many children (bottom children are the
    holes of a partial term).
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

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return f"FiniteTerm({format_term(self)!r})"


BOTTOM = FiniteTerm(None)


def var(name: str) -> FiniteTerm:
    return FiniteTerm(name, (), True)


def op(symbol: str, children: Iterable[FiniteTerm] = ()) -> FiniteTerm:
    return FiniteTerm(symbol, tuple(children), False)


def vars_of(t: FiniteTerm) -> List[str]:
    """Variable names in left-to-right order of first occurrence."""
    out: List[str] = []

    def walk(s: FiniteTerm) -> None:
        if s.is_var:
            if s.symbol not in out:
                out.append(s.symbol)  # type: ignore[arg-type]
        else:
            for c in s.children:
                walk(c)

    walk(t)
    return out


def is_linear(t: FiniteTerm) -> bool:
    seen = set()

    def walk(s: FiniteTerm) -> bool:
        if s.is_var:
            if s.symbol in seen:
                return False
            seen.add(s.symbol)
            return True
        return all(walk(c) for c in s.children)

    return walk(t)


def is_total(t: FiniteTerm) -> bool:
    """No holes anywhere (bottom itself is not total)."""
    if t.is_bottom:
        return False
    return all(is_total(c) for c in t.children)


def occurrences(t: FiniteTerm) -> Dict[Occurrence, str]:
    """The occurrence-map view: defined positions and their symbols."""
    out: Dict[Occurrence, str] = {}

    def walk(s: FiniteTerm, at: Occurrence) -> None:
        if s.is_bottom:
            return
        out[at] = s.symbol  # type: ignore[assignment]
        for i, c in enumerate(s.children, start=1):
            walk(c, at + (i,))

    walk(t, ())
    return out


def from_occurrences(sig: Signature, mapping: Mapping[Occurrence, str]) -> FiniteTerm:
    """Build a term from an occurrence map, validating the term conditions."""
    if not mapping:
        return BOTTOM
    for w, sym in mapping.items():
        if w:
            parent = w[:-1]
            if parent not in mapping:
                raise ValueError(f"domain not prefix-closed at {occ_format(w)}")
            psym = mapping[parent]
            if not sig.is_operator(psym):
                raise ValueError(
                    f"non-operator {psym} has a successor at {occ_format(w)}"
                )
            if w[-1] > sig.arity(psym):
                raise ValueError(
                    f"child index {w[-1]} exceeds arity of {psym} at {occ_format(w)}"
                )

    def build(at: Occurrence) -> FiniteTerm:
        sym = mapping.get(at)
        if sym is None:
            return BOTTOM
        if sig.is_operator(sym):
            return op(sym, [build(at + (i,)) for i in range(1, sig.arity(sym) + 1)])
        return var(sym)

    return build(())


def subterm(t: FiniteTerm, w: Occurrence) -> FiniteTerm:
    """t/w; bottom when w is outside the domain of t."""
    for i in w:
        if t.is_bottom or t.is_var or i > len(t.children):
            return BOTTOM
        t = t.children[i - 1]
    return t


def replace(t: FiniteTerm, w: Occurrence, s: FiniteTerm) -> FiniteTerm:
    """t[w <- s].

    When t/w is bottom the replacement is the identity (there is nothing at w
    to replace); in particular terms never grow at undefined positions.
    """
    if subterm(t, w).is_bottom:
        return t
    return _graft(t, w, s)


def _graft(t: FiniteTerm, w: Occurrence, s: FiniteTerm) -> FiniteTerm:
    # Internal: writes s at w unconditionally (caller ensures w is sensible).
    if not w:
        return s
    i = w[0]
    kids = list(t.children)
    kids[i - 1] = _graft(kids[i - 1], w[1:], s)
    return FiniteTerm(t.symbol, tuple(kids), t.is_var)


def approx_leq(s: FiniteTerm, t: FiniteTerm) -> bool:
    """s <= t in the approximation order: t extends s on s's domain."""
    if s.is_bottom:
        return True
    if s.is_var:
        return t.is_var and t.symbol == s.symbol
    if not t.is_op or t.symbol != s.symbol or len(t.children) != len(s.children):
        return False
    return all(approx_leq(a, b) for a, b in zip(s.children, t.children))


def term_glb(s: FiniteTerm, t: FiniteTerm) -> FiniteTerm:
    """Greatest lower bound: the pointwise intersection of the two maps."""
    if s.is_bottom or t.is_bottom or s.symbol != t.symbol or s.is_var != t.is_var:
        return BOTTOM
    if s.is_var:
        return s
    if len(s.children) != len(t.children):
        return BOTTOM
    return FiniteTerm(
        s.symbol,
        tuple(term_glb(a, b) for a, b in zip(s.children, t.children)),
        False,
    )


def _lub2(s: FiniteTerm, t: FiniteTerm) -> FiniteTerm:
    if s.is_bottom:
        return t
    if t.is_bottom:
        return s
    if s.is_var or t.is_var:
        if s == t:
            return s
        raise ValueError(f"terms are inconsistent at a variable: {s} vs {t}")
    if s.symbol != t.symbol or len(s.children) != len(t.children):
        raise ValueError(f"terms are inconsistent: {s.symbol} vs {t.symbol}")
    return op(s.symbol, [_lub2(a, b) for a, b in zip(s.children, t.children)])


def chain_lub(chain: Iterable[FiniteTerm]) -> FiniteTerm:
    """Least upper bound of an ascending chain of terms.

    Raises ValueError if the input is not actually a chain.
    """
    terms = list(chain)
    if not terms:
        return BOTTOM
    for a, b in zip(terms, terms[1:]):
        if not approx_leq(a, b):
            raise ValueError(f"not an ascending chain: {a} !<= {b}")
    out = terms[0]
    for t in terms[1:]:
        out = _lub2(out, t)
    return out


Substitution = Dict[str, FiniteTerm]


def apply_subst(t: FiniteTerm, sigma: Mapping[str, FiniteTerm]) -> FiniteTerm:
    """Homomorphic extension of sigma; bottom maps to bottom."""
    if t.is_bottom:
        return BOTTOM
    if t.is_var:
        return sigma.get(t.symbol, t)  # type: ignore[arg-type]
    return op(t.symbol, [apply_subst(c, sigma) for c in t.children])


def truncate(t: FiniteTerm, depth: int) -> FiniteTerm:
    """Restrict t to occurrences of length < depth; truncate(t, 0) is bottom."""
    if depth <= 0 or t.is_bottom:
        return BOTTOM
    if t.is_var or not t.children:
        return t
    return op(t.symbol, [truncate(c, depth - 1) for c in t.children])


def match_linear(pattern: FiniteTerm, t: FiniteTerm) -> Optional[Substitution]:
    """Match a linear, total pattern against t.

    Returns the realizing substitution or None.  Whatever t holds below a
    pattern variable is taken verbatim — including bottom, so partial terms
    match as long as the pattern's operator skeleton is present.
    """
    if not is_linear(pattern):
        raise ValueError("match_linear requires a linear pattern")
    if not is_total(pattern):
        raise ValueError("match_linear requires a total pattern")
    sigma: Substitution = {}

    def walk(p: FiniteTerm, s: FiniteTerm) -> bool:
        if p.is_var:
            sigma[p.symbol] = s  # type: ignore[index]
            return True
        if not s.is_op or s.symbol != p.symbol:
            return False
        return all(walk(pc, sc) for pc, sc in zip(p.children, s.children))

    return sigma if walk(pattern, t) else None


# ---------------------------------------------------------------------------
# Term literals


def format_term(t: FiniteTerm) -> str:
    if t.is_bottom:
        return "_|_"
    if t.is_var or not t.children:
        return t.symbol  # type: ignore[return-value]
    return f"{t.symbol}({', '.join(format_term(c) for c in t.children)})"


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("_|_", i):
            tokens.append("_|_")
            i += 3
        elif c in "(),":
            tokens.append(c)
            i += 1
        elif c in _IDENT_START:
            j = i
            while j < len(text) and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in term literal")
    return tokens


def parse_term(sig: Signature, text: str) -> FiniteTerm:
    """Parse a term literal like ``f(x, _|_)``.

    Identifiers not declared in the signature are variables; declared ones
    must be applied to exactly arity-many arguments (``a`` and ``a()`` are
    both accepted for constants).
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expect: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of term literal {text!r}")
        tok = tokens[pos]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def parse() -> FiniteTerm:
        tok = take()
        if tok == "_|_":
            return BOTTOM
        if tok in "(),":
            raise ValueError(f"unexpected {tok!r} in term literal {text!r}")
        args: List[FiniteTerm] = []
        if peek() == "(":
            take("(")
            if peek() != ")":
                args.append(parse())
                while peek() == ",":
                    take(",")
                    args.append(parse())
            take(")")
        if sig.is_operator(tok):
            if len(args) != sig.arity(tok):
                raise ValueError(
                    f"{tok} has arity {sig.arity(tok)}, applied to {len(args)} "
                    f"arguments in {text!r}"
                )
            return op(tok, args)
        if args:
            raise ValueError(f"undeclared operator {tok!r} applied to arguments")
        return var(tok)

    result = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after term in {text!r}")
    return result
