"""Verification harness: dual-route checks and the seeded property suite.

Every check here compares independent computations of the same mathematical
object and reports disagreements instead of trusting either side:

- `verify_soundness`: one graph step against the parallel-rewriting oracle.
  The step's result (pushout machinery) must unravel to the same term as the
  developed redex set (chain machinery), with tracked variables and holes
  lining up.
- `check_weak_normal_form_preservation`: a graph normal form (no rule
  matches at any node, garbage included) must unravel to a term normal form.
  The converse direction genuinely fails — a graph can carry a matchable
  node in garbage — and is reported, not asserted.
- `check_cofinality_step`: a whole family of matches, derived sequentially
  on the graph side, against the one-shot simultaneous development and
  against a staged development (a chosen sub-family first, its residuals
  after).  All three must agree.
- `run_property_suite`: seeded random workspaces thrown at all of the above
  plus confluence diamonds, development order independence, and the
  match/redex correspondence, with greedy shrinking of failures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .dpo import (
    Match,
    Stepper,
    derive_rational,
    find_matches,
    match_at,
)
from .graphs import (
    GraphMorphism,
    NodeId,
    PathCounts,
    RationalTerm,
    TermGraph,
    apply_subst_rational,
    induced_substitution,
    tree_match,
    truncated_equal,
)
from .parallel import (
    OracleError,
    RationalRedexSet,
    Redex,
    complete_development,
    enumerate_occurrences,
    find_redexes,
    infinite_parallel_reduce,
    join_parallel,
    matching_nodes,
    rule_matches_at,
    develop_rational,
)
from .parsing import format_graph
from .rules import (
    TGRS,
    TRS,
    Pattern,
    RewriteRule,
    check_rule,
    graph_trs,
    overlaps,
    unravel_rule,
)
from .terms import (
    FiniteTerm,
    Signature,
    format_term,
    occ_format,
    occ_sort_key,
    op,
    var,
)


# ---------------------------------------------------------------------------
# Soundness of single steps


@dataclass
class SoundnessReport:
    """Outcome of checking one graph step against the oracle."""

    match_description: str
    depth: int
    effective_depth: int
    result: RationalTerm  # the step's result, pointed at the tracked point
    symbolic_limit: RationalTerm
    chain_limit: RationalTerm
    symbolic_ok: bool  # result == symbolic development, at every depth
    chain_ok: bool  # result vs chain limit, at the effective depth
    occurrences: int

    @property
    def ok(self) -> bool:
        return self.symbolic_ok and self.chain_ok

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        detail = ""
        if not self.symbolic_ok:
            detail += " [disagrees with the symbolic development]"
        if not self.chain_ok:
            detail += " [disagrees with the chain limit]"
        return (
            f"{status}: {self.match_description}, depth {self.depth}"
            f" (chain checked to {self.effective_depth},"
            f" {self.occurrences} occurrences){detail}"
        )


def induced_parallel_redex(
    rt: RationalTerm, match: Match, sig: Signature
) -> RationalRedexSet:
    """The set of term-level redexes a graph match stands for.

    A single matched node unravels to every occurrence of that node reachable
    from the point, so one graph step corresponds to a (possibly infinite,
    always rational) parallel term rewrite.
    """
    rule = unravel_rule(match.rule, sig)
    return RationalRedexSet(
        rt.graph, rt.point, match.root_image, rule, rt.bottoms, rt.var_names
    )


def verify_soundness(
    sig: Signature,
    host: RationalTerm,
    match: Match,
    depth: int = 16,
    budget: int = 2048,
    sample_at: Optional[Sequence[int]] = None,
) -> SoundnessReport:
    """Check that one graph step is a correct infinite parallel term step.

    The graph route performs the step and reads the result's unraveling at
    the tracked point with the tracked substitution applied.  The term route
    asks the oracle to develop the match's induced redex set.  The step's
    result must equal the oracle's symbolic development exactly (`==`, at
    every depth), and agree with its chain limit to the oracle's effective
    depth: `depth`, unless `budget` lowers it on very dense hosts.  So
    `depth` bounds only the chain leg.
    """
    drv, after = derive_rational(host, match)
    rs = induced_parallel_redex(host, match, sig)
    report = infinite_parallel_reduce(
        rs, depth, budget=budget, sample_at=sample_at
    )
    symbolic_ok = after == report.symbolic_limit
    chain_ok = truncated_equal(after, report.limit, report.effective_depth)
    return SoundnessReport(
        match.describe(),
        depth,
        report.effective_depth,
        after,
        report.symbolic_limit,
        report.limit,
        symbolic_ok,
        chain_ok,
        report.occurrences,
    )


# ---------------------------------------------------------------------------
# Normal form preservation


@dataclass
class NormalFormReport:
    graph_nf: bool
    term_nf: bool
    graph_witness: Optional[str]  # a match, if any
    term_witness: Optional[str]  # a redex occurrence, if any

    @property
    def ok(self) -> bool:
        """The preserved direction: a graph normal form unravels to a term
        normal form.  (The converse can fail and is not asserted.)"""
        return not self.graph_nf or self.term_nf


def check_weak_normal_form_preservation(
    trs: TRS, tgrs: TGRS, host: RationalTerm
) -> NormalFormReport:
    """Decide both normal-form properties exactly (no depth bound needed).

    Graph: any match at any node, reachable or not.  Term: a redex exists in
    the unraveling iff some rule matches at a node reachable from the point —
    a shortest witnessing occurrence is no longer than the node count.
    """
    matches = find_matches(host.graph, tgrs)
    graph_witness = matches[0].describe() if matches else None

    term_witness = None
    for rule in trs.rules:
        nodes = matching_nodes(host, rule)
        if nodes:
            w = next(PathCounts(host.graph, host.point, [nodes[0]]).paths())
            term_witness = f"({occ_format(w)}, {rule.name})"
            break
    return NormalFormReport(
        graph_nf=not matches,
        term_nf=term_witness is None,
        graph_witness=graph_witness,
        term_witness=term_witness,
    )


# ---------------------------------------------------------------------------
# Cofinality of sequential derivation


@dataclass
class CofinalityReport:
    ok: bool
    stages: List[str]
    graph_result: Optional[RationalTerm]
    one_shot: Optional[RationalTerm]
    staged: Optional[RationalTerm]
    failures: List[str]


def check_cofinality_step(
    sig: Signature,
    host: RationalTerm,
    matches: Sequence[Match],
    phi: Optional[Sequence[int]] = None,
) -> CofinalityReport:
    """Check that sequential graph steps develop the whole match family.

    Three routes from the same host: (1) derive the matches one at a time,
    re-finding each surviving match through the track maps; (2) develop all
    induced redex sets simultaneously; (3) develop the sub-family `phi`
    (default: the first half) first and its residual family after.  All
    three are exact rational terms, so they must be equal (`==`, at every
    depth).  An index of `phi`
    outside range(len(matches)) raises ValueError.
    """
    if phi is None:
        phi = range((len(matches) + 1) // 2)
    for i in phi:
        if i not in range(len(matches)):
            raise ValueError(
                f"phi index {i} out of range for {len(matches)} matches"
            )
    failures: List[str] = []
    stages: List[str] = []

    term_rules = {m.rule.name: unravel_rule(m.rule, sig) for m in matches}
    components = []
    seen_targets = set()
    for m in matches:
        if m.root_image in seen_targets:
            failures.append(f"two matches share the node {m.root_image}")
            return CofinalityReport(False, stages, None, None, None, failures)
        seen_targets.add(m.root_image)
        components.append((m.root_image, term_rules[m.rule.name]))

    # Route 1: sequential derivation, tracking surviving matches.
    current = host
    pending: List[Tuple[str, NodeId]] = [
        (m.rule.name, m.root_image) for m in matches
    ]
    rules_by_name = {m.rule.name: m.rule for m in matches}
    while pending:
        rule_name, root = pending[0]
        rest = pending[1:]
        rule = rules_by_name[rule_name]
        match = match_at(rule, current.graph, root)
        if match is None:
            failures.append(
                f"match of {rule_name} did not survive at {root}"
            )
            return CofinalityReport(False, stages, None, None, None, failures)
        drv, current = derive_rational(current, match)
        stages.append(drv.describe())
        tracked = []
        seen = set()
        for name, r in rest:
            key = (name, drv.track[r])
            if key not in seen:  # merged matches develop once
                seen.add(key)
                tracked.append(key)
        pending = tracked

    # Route 2: one-shot simultaneous development.
    try:
        one_shot, _ = develop_rational(host, components)
    except (OracleError, ValueError) as e:
        failures.append(f"one-shot development failed: {e}")
        return CofinalityReport(False, stages, current, None, None, failures)

    # Route 3: a sub-family first, then its residual family.
    phi_set = set(phi)
    first = [components[i] for i in sorted(phi_set)]
    rest_comps = [
        c for i, c in enumerate(components) if i not in phi_set
    ]
    try:
        stage1, rho = develop_rational(host, first)
        residual = [(rho.get(t, t), r) for t, r in rest_comps]
        staged, _ = develop_rational(stage1, residual)
    except (OracleError, ValueError) as e:
        failures.append(f"staged development failed: {e}")
        return CofinalityReport(False, stages, current, one_shot, None, failures)

    if current != one_shot:
        failures.append(
            "sequential derivation disagrees with the simultaneous development"
        )
    if staged != one_shot:
        failures.append(
            "staged development disagrees with the simultaneous development"
        )
    return CofinalityReport(
        not failures, stages, current, one_shot, staged, failures
    )


# ---------------------------------------------------------------------------
# Rewriting driver


def rewrite_sequence(
    host: RationalTerm, tgrs: TGRS, max_steps: int = 100
):
    """Derive with the first match (rule name, then node order) until no rule
    matches or the step budget runs out.  Returns (result, steps, reached_nf),
    where steps are the `dpo.Step` records (rule, root image) taken.
    """
    run = Stepper(host, tgrs, max_steps)
    steps = list(run)
    return run.current, steps, run.normal_form


# ---------------------------------------------------------------------------
# Random workspaces


_CONSTANTS = ["a", "b", "c"]
_UNARY = ["f", "g", "h"]
_BINARY = ["p", "q"]
_VARS = ["x", "y", "z", "w"]


@dataclass
class RandomCase:
    """One generated workspace: signature, rules, and a host graph."""

    sig: Signature
    trs: TRS
    host: RationalTerm
    _tgrs: Optional[TGRS] = field(default=None, repr=False, compare=False)

    def tgrs(self) -> TGRS:
        if self._tgrs is None:
            self._tgrs = graph_trs(self.trs)
        return self._tgrs

    def describe(self) -> str:
        rules = "; ".join(
            f"{r.name}: {format_term(r.lhs)} -> {format_term(r.rhs.unravel(8))}"
            for r in self.trs.rules
        )
        return f"rules [{rules}] on {format_graph(self.host, name=None)}"


def gen_signature(rng: random.Random) -> Signature:
    ops: Dict[str, int] = {rng.choice(_CONSTANTS): 0}
    for name in rng.sample(_UNARY, rng.randint(1, 2)):
        ops[name] = 1
    if rng.random() < 0.7:
        ops[rng.choice(_BINARY)] = 2
    return Signature.of(ops)


def gen_term(
    rng: random.Random,
    sig: Signature,
    variables: Sequence[str],
    depth: int,
) -> FiniteTerm:
    """A random term over `sig` and `variables`, its leaves at most `depth`
    levels below the root.  Each node draws in preorder: `random()` for a
    variable (when there are any), then one `choice`; at the last level only
    variables and constants are drawn."""
    pairs = list(sig.as_dict().items())
    constants = [n for n, k in pairs if k == 0]
    names = list(variables)
    done: List[FiniteTerm] = []  # finished subterms, left to right
    # (d, None) draws a node with d levels left; (k, name) builds an
    # operator from the last k finished subterms
    todo: List[Tuple[int, Optional[str]]] = [(depth, None)]
    while todo:
        d, name = todo.pop()
        if name is not None:
            at = len(done) - d
            done[at:] = [op(name, done[at:])]
        elif names and rng.random() < (0.6 if d <= 0 else 0.25):
            done.append(var(rng.choice(names)))
        elif d <= 0:
            done.append(op(rng.choice(constants)))
        else:
            name, k = rng.choice(pairs)
            todo.append((k, name))
            todo.extend([(d - 1, None)] * k)
    return done[0]


def _gen_lhs(
    rng: random.Random, sig: Signature
) -> Tuple[FiniteTerm, Pattern, List[str]]:
    """A left-hand side of depth at most two, with its `pattern` and its
    variables in preorder, built as drawn; each variable is fresh (linear)."""
    pairs = list(sig.as_dict().items())
    roots = [(n, k) for n, k in pairs if k > 0] or pairs
    name, k = rng.choice(roots)
    fresh = iter(_VARS)
    args: List[FiniteTerm] = []
    pat = [((), name, k)]
    for i in range(1, k + 1):
        if rng.random() < 0.3:
            inner, ik = rng.choice(pairs)
            args.append(op(inner, [var(next(fresh)) for _ in range(ik)]))
            pat.append(((i,), inner, ik))
        else:
            args.append(var(next(fresh)))
    xs = [v.symbol for a in args for v in ((a,) if a.is_var else a.children)]
    return op(name, args), tuple(pat), xs


def _overlaps_any(pat: Pattern, accepted: Sequence[RewriteRule]) -> bool:
    """Does the pattern overlap itself below the root, or overlap an
    accepted left-hand side in either direction?"""
    pairs = [(pat, pat, True)]
    for r in accepted:
        pairs += [(pat, r.lhs_pattern, False), (r.lhs_pattern, pat, False)]
    # the root occurrence is (), which is falsy: test for any position at all
    return any(next(overlaps(*p), None) is not None for p in pairs)


def gen_rules(rng: random.Random, sig: Signature) -> TRS:
    """One to three rules, by generate-and-filter.  A candidate enters only
    if its left-hand side (linear as drawn) overlaps neither itself nor an
    accepted rule in either direction.  The accepted rules are orthogonal by
    induction, so this is the whole-system check, and the result is
    orthogonal by construction."""
    want = rng.randint(1, 3)
    rules: List[RewriteRule] = []
    for attempt in range(30):
        if len(rules) >= want:
            break
        name = f"R{len(rules) + 1}"
        lhs, pat, lhs_vars = _gen_lhs(rng, sig)
        if lhs_vars and rng.random() < 0.15:
            rhs: FiniteTerm = var(rng.choice(lhs_vars))
        else:
            rhs = gen_term(rng, sig, lhs_vars, rng.randint(1, 2))
        # every draw is made; the cheap test runs before any graph is built
        if _overlaps_any(pat, rules):
            continue
        candidate = RewriteRule.of(name, lhs, rhs)
        try:
            check_rule(candidate, sig)
        except ValueError:
            continue
        rules.append(candidate)
    if not rules:
        # Always possible: a lone collapsing rule on some operator.
        name, k = next(
            (n, k) for n, k in sig.as_dict().items() if k > 0
        )
        rules = [
            RewriteRule.of("R1", op(name, [var("x")] * k), var("x"))
        ]
    return TRS(sig, tuple(rules))


def gen_graph(
    rng: random.Random, sig: Signature, max_nodes: int = 8
) -> RationalTerm:
    k = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(1, k + 1)]
    labels: Dict[str, str] = {}
    succs: Dict[str, Tuple[str, ...]] = {}
    bottoms: List[str] = []
    pairs = list(sig.as_dict().items())
    for n in ids:
        if rng.random() < 0.8:
            name, arity = rng.choice(pairs)
            labels[n] = name
            succs[n] = tuple(rng.choice(ids) for _ in range(arity))
        elif rng.random() < 0.25:
            bottoms.append(n)
    return RationalTerm(
        TermGraph.of(ids, labels, succs),
        rng.choice(ids),
        frozenset(bottoms),
    )


def gen_case(rng: random.Random, max_nodes: int = 8) -> RandomCase:
    sig = gen_signature(rng)
    trs = gen_rules(rng, sig)
    host = gen_graph(rng, sig, max_nodes)
    return RandomCase(sig, trs, host)


# ---------------------------------------------------------------------------
# Properties


PropertyFn = Callable[["RandomCase", random.Random, int, int], Optional[str]]


def _prop_soundness(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """Every match in the workspace passes `verify_soundness`."""
    for m in find_matches(case.host.graph, case.tgrs()):
        try:
            rep = verify_soundness(
                case.sig, case.host, m, depth, budget, sample_at=(0, 1)
            )
        except OracleError as e:
            return f"{m.describe()}: oracle refused: {e}"
        if not rep.ok:
            return rep.summary()
    return None


def _prop_enumerations(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """The oracle's limit does not depend on the enumeration order, and its
    chains are monotone (checked internally, surfacing as an error here)."""
    matches = find_matches(case.host.graph, case.tgrs())
    if not matches:
        return None
    m = rng.choice(matches)
    rs = induced_parallel_redex(case.host, m, case.sig)
    try:
        rep1 = infinite_parallel_reduce(rs, depth, budget=budget)
        alt = sorted(
            enumerate_occurrences(rs, count=rep1.occurrences),
            key=lambda w: (len(w), tuple(-i for i in w)),
        )
        rep2 = infinite_parallel_reduce(rs, depth, occurrences=alt)
    except OracleError as e:
        return f"{m.describe()}: {e}"
    d = min(rep1.effective_depth, rep2.effective_depth)
    if not truncated_equal(rep1.limit, rep2.limit, d):
        return f"{m.describe()}: limits differ between enumerations at depth {d}"
    return None


def _pick_redexes(
    case: RandomCase, rng: random.Random, k: int
) -> List[Redex]:
    found = find_redexes(case.host, case.trs, maxlen=3)[:40]
    if not found:
        return []
    return rng.sample(found, min(len(found), rng.randint(1, k)))


def _prop_confluence(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """Two finite redex sets always close the strong-confluence diamond."""
    left = _pick_redexes(case, rng, 4)
    right = _pick_redexes(case, rng, 4)
    if not left and not right:
        return None
    try:
        j = join_parallel(case.host, left, right)
    except OracleError as e:
        return f"join failed: {e}"
    if not j.commutes:
        ls = ", ".join(r.describe() for r in left)
        rs = ", ".join(r.describe() for r in right)
        return f"diamond failed for [{ls}] vs [{rs}]"
    return None


def _prop_development_order(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """Complete developments are order independent, including the residuals
    they leave of a third redex set."""
    redexes = _pick_redexes(case, rng, 4)
    tracked = _pick_redexes(case, rng, 3)
    if not redexes:
        return None
    try:
        outer = complete_development(
            case.host, redexes, "outermost", extras=[tracked]
        )
        inner = complete_development(
            case.host, redexes, "innermost", extras=[tracked]
        )
    except OracleError as e:
        return f"development failed: {e}"
    if outer.result != inner.result:
        return "development results differ between orders"
    keys_outer = sorted(r.key for r in outer.extras[0])
    keys_inner = sorted(r.key for r in inner.extras[0])
    if keys_outer != keys_inner:
        return "residuals of the tracked set differ between orders"
    return None


def _prop_nf_preservation(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """A graph normal form always unravels to a term normal form."""
    rep = check_weak_normal_form_preservation(
        case.trs, case.tgrs(), case.host
    )
    if not rep.ok:
        return (
            "graph is a normal form but the term has the redex "
            f"{rep.term_witness}"
        )
    return None


def _prop_correspondence(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """Term redexes of the unraveling are exactly the occurrences induced by
    graph matches (both read in length-lex order, capped alike)."""
    maxlen = 16
    matches = find_matches(case.host.graph, case.tgrs())
    total = 0
    sets = []
    for m in matches:
        rs = induced_parallel_redex(case.host, m, case.sig)
        n = rs.count_below(maxlen + 1)
        total += n
        sets.append((m, rs, n))
    if total > 3000:
        return None  # too dense to enumerate; covered by other cases
    graph_route = []
    for m, rs, n in sets:
        if n == 0:
            continue
        graph_route += [
            (w, m.rule.name)
            for w in enumerate_occurrences(rs, maxlen=maxlen, count=n)
        ]
    graph_route.sort(key=lambda p: (occ_sort_key(p[0]), p[1]))
    term_route = [
        (r.occ, r.rule.name)
        for r in find_redexes(case.host, case.trs, maxlen=maxlen)
    ]
    if term_route != graph_route:
        return (
            f"{len(term_route)} term redexes vs "
            f"{len(graph_route)} match occurrences"
        )
    return None


def _substituted_graph(
    L: TermGraph, f: GraphMorphism, host: RationalTerm
) -> Dict[NodeId, RationalTerm]:
    """Graph realization of a substitution: the labelled part of L with
    every variable node replaced by the morphism's target at its image.
    Unraveling the result *is* applying the induced substitution, computed
    without consulting the morphism's labels, so it can cross-check them.
    Returns a function (as a dict) from L nodes to the substituted term."""
    H = f.dst
    renaming = host.renaming()

    def embed(n: NodeId) -> NodeId:
        if L.is_labelled(n):
            return f"p:{n}"
        return f"q:{f.mapping[n]}"

    nodes = []
    labels: Dict[NodeId, str] = {}
    succs: Dict[NodeId, Tuple[NodeId, ...]] = {}
    for n in L.nodes:
        if L.is_labelled(n):
            nodes.append(f"p:{n}")
            labels[f"p:{n}"] = L.labels[n]
            succs[f"p:{n}"] = tuple(embed(s) for s in L.succs[n])
    for h in H.nodes:
        nodes.append(f"q:{h}")
        if H.is_labelled(h):
            labels[f"q:{h}"] = H.labels[h]
            succs[f"q:{h}"] = tuple(f"q:{s}" for s in H.succs[h])
    glued = TermGraph.of(nodes, labels, succs)
    bottoms = frozenset(f"q:{b}" for b in host.bottoms)
    names = tuple(
        (f"q:{h}", renaming.get(h, h))
        for h in H.nodes
        if not H.is_labelled(h)
    )
    return {
        n: RationalTerm(glued, embed(n), bottoms, names) for n in L.nodes
    }


def _prop_morphism_subst(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """Tree morphisms and matching substitutions determine each other, and
    the square sigma_f(unravel(L at n)) = unravel(H at f(n)) commutes."""
    host = case.host
    H = host.graph
    for er, tr in zip(case.tgrs().rules, case.trs.rules):
        for n in H.nodes:
            mapping = tree_match(er.L, er.root, H, n)
            term_side = rule_matches_at(H, n, tr, host.bottoms)
            if (mapping is not None) != term_side:
                found = "no morphism" if mapping is None else "a morphism"
                match = "matches" if term_side else "does not match"
                return (
                    f"{tr.name} at {n}: {found}, but the pattern {match}"
                )
            if mapping is None:
                continue
            f = GraphMorphism(er.L, H, mapping)
            substituted = _substituted_graph(er.L, f, host)
            for m in er.L.nodes:
                if not er.L.is_labelled(m):
                    continue  # at a variable the square is definitional
                left = substituted[m]
                right = RationalTerm(
                    H, f.mapping[m], host.bottoms, host.var_names
                )
                if left != right:
                    return f"{tr.name} at {n}: square fails at {m}"
            # the path count is the node count of the materialized unraveling
            if PathCounts(H, n).count(depth) <= 4000:
                sigma = induced_substitution(f)
                left_t = apply_subst_rational(
                    RationalTerm(er.L, er.root).unravel(depth), sigma, depth
                )
                right_t = RationalTerm(H, n).unravel(depth)
                if left_t != right_t:
                    return f"{tr.name} at {n}: materialized square fails"
    return None


def _prop_cofinality(
    case: RandomCase, rng: random.Random, depth: int, budget: int
) -> Optional[str]:
    """Sequential derivation of all matches equals the one-shot and staged
    developments of the induced redex family."""
    matches = find_matches(case.host.graph, case.tgrs())
    if not matches:
        return None
    if len(matches) > 5:
        matches = matches[:5]
    k = len(matches)
    phi = rng.sample(range(k), rng.randint(0, k))
    rep = check_cofinality_step(case.sig, case.host, matches, phi)
    if not rep.ok:
        return "; ".join(rep.failures)
    return None


PROPERTIES: Dict[str, PropertyFn] = {
    "soundness": _prop_soundness,
    "enumerations": _prop_enumerations,
    "confluence": _prop_confluence,
    "development-order": _prop_development_order,
    "nf-preservation": _prop_nf_preservation,
    "morphism-substitution": _prop_morphism_subst,
    "redex-correspondence": _prop_correspondence,
    "cofinality": _prop_cofinality,
}


# ---------------------------------------------------------------------------
# The suite runner, with greedy shrinking


@dataclass
class PropertyOutcome:
    name: str
    cases: int
    failures: List[str]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    seed: int
    outcomes: List[PropertyOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def lines(self) -> List[str]:
        out = []
        for o in self.outcomes:
            status = "pass" if o.ok else "FAIL"
            out.append(
                f"{status} {o.name}: {o.cases} cases, "
                f"{len(o.failures)} failures, {o.seconds:.2f}s"
            )
            out.extend(f"    {f}" for f in o.failures)
        return out


def _drop_node(host: RationalTerm, n: NodeId) -> Optional[RationalTerm]:
    """Remove a node, emptying any node that referenced it (shrinking only:
    the result is a valid but semantically different workspace)."""
    if n == host.point or n not in host.graph.nodes:
        return None
    g = host.graph
    labels = {}
    succs = {}
    for m in g.nodes:
        if m == n:
            continue
        if m in g.labels and n not in g.succs[m]:
            labels[m] = g.labels[m]
            succs[m] = g.succs[m]
    nodes = [m for m in g.nodes if m != n]
    return RationalTerm(
        TermGraph.of(nodes, labels, succs),
        host.point,
        frozenset(b for b in host.bottoms if b != n),
        tuple((m, v) for m, v in host.var_names if m != n),
    )


def shrink_case(
    case: RandomCase, failing: Callable[[RandomCase], bool]
) -> RandomCase:
    """Greedy shrink: drop rules, then nodes, while the case still fails."""
    improved = True
    while improved:
        improved = False
        if len(case.trs.rules) > 1:
            for i in range(len(case.trs.rules)):
                rules = case.trs.rules[:i] + case.trs.rules[i + 1 :]
                cand = RandomCase(case.sig, TRS(case.sig, rules), case.host)
                if failing(cand):
                    case = cand
                    improved = True
                    break
        if improved:
            continue
        for n in case.host.graph.nodes:
            smaller = _drop_node(case.host, n)
            if smaller is None:
                continue
            cand = RandomCase(case.sig, case.trs, smaller)
            if failing(cand):
                case = cand
                improved = True
                break
    return case


def run_property_suite(
    seed: int = 0,
    cases: int = 50,
    depth: int = 16,
    budget: int = 512,
    properties: Optional[Sequence[str]] = None,
    max_nodes: int = 8,
) -> SuiteReport:
    """Run the seeded property suite; deterministic for a given seed.

    Each property sees `cases` independently generated workspaces.  Failures
    are shrunk greedily and reported with the shrunken workspace inline; a
    property stops after three failures.  `properties` None means all of
    them; an empty selection, an unknown name or a name given twice raises
    ValueError before anything runs.
    """
    names = list(PROPERTIES) if properties is None else list(properties)
    if not names:
        raise ValueError("no property selected")
    for i, name in enumerate(names):
        if name not in PROPERTIES:
            raise ValueError(f"unknown property {name!r}")
        if name in names[:i]:
            raise ValueError(f"property {name!r} selected twice")
    outcomes = []
    for name in names:
        prop = PROPERTIES[name]
        failures: List[str] = []
        started = time.monotonic()
        ran = 0
        for i in range(cases):
            rng = random.Random(f"{seed}:{name}:{i}")
            case = gen_case(rng, max_nodes)
            case_rng = random.Random(f"{seed}:{name}:{i}:inner")
            try:
                message = prop(case, case_rng, depth, budget)
            except Exception as e:  # a crash is a failing case, not a halt
                message = f"raised {type(e).__name__}: {e}"
            ran += 1
            if message is None:
                continue

            def still_fails(c: RandomCase) -> bool:
                r = random.Random(f"{seed}:{name}:{i}:inner")
                try:
                    return prop(c, r, depth, budget) is not None
                except Exception:
                    return True

            small = shrink_case(case, still_fails)
            failures.append(f"case {i}: {message} | {small.describe()}")
            if len(failures) >= 3:
                break
        outcomes.append(
            PropertyOutcome(name, ran, failures, time.monotonic() - started)
        )
    return SuiteReport(seed, outcomes)
