"""Reference kernels: the routes that faster or simpler code replaced,
kept only so that differential tests can compare the two.

Each `ref_*` function reproduces an older implementation (or a from-scratch
one) of a kernel in `src/tgr`; the test module named in its section compares
them on generated and hand-built inputs.  Nothing in `src/tgr` imports this
module.
"""

from tgr.dpo import derive_rational, find_matches
from tgr.graphs import GraphMorphism, PathCounts, RationalTerm, TermGraph, node_key
from tgr.harness import RandomCase, _gen_lhs, gen_graph, gen_signature
from tgr.parallel import Redex, develop_rational, matching_nodes
from tgr.parsing import graph_to_json
from tgr.rules import TRS, RewriteRule, check_rule, orthogonality_conflicts
from tgr.terms import BOTTOM, occ_format, occ_sort_key, op, rebuild, subterms, var


# ---------------------------------------------------------------------------
# Terms (`tests/test_terms.py`): the recursive walkers the one walk replaced


def ref_eq(s, u):
    return (
        s.symbol == u.symbol
        and s.is_var == u.is_var
        and len(s.children) == len(u.children)
        and all(ref_eq(a, b) for a, b in zip(s.children, u.children))
    )


def ref_occurrences(s, at=()):
    if s.is_bottom:
        return {}
    out = {at: s.symbol}
    for i, c in enumerate(s.children, start=1):
        out.update(ref_occurrences(c, at + (i,)))
    return out


def ref_var_names(s):
    """Variable names in preorder, repeats included."""
    if s.is_var:
        return [s.symbol]
    return [x for c in s.children for x in ref_var_names(c)]


def ref_is_total(s):
    return not s.is_bottom and all(ref_is_total(c) for c in s.children)


def ref_var_positions(s, at=()):
    if s.is_var:
        return {s.symbol: at}
    out = {}
    for i, c in enumerate(s.children, start=1):
        out.update(ref_var_positions(c, at + (i,)))
    return out


def ref_format(s):
    if s.is_bottom:
        return "_|_"
    if s.is_var or not s.children:
        return s.symbol
    return f"{s.symbol}({', '.join(ref_format(c) for c in s.children)})"


def ref_rational_of_term(s, prefix="t"):
    labels, succs, nodes, bottoms = {}, {}, [], []

    def go(u, at):
        if u.is_var:
            if u.symbol not in nodes:
                nodes.append(u.symbol)
            return u.symbol
        nid = prefix + "".join(f".{i}" for i in at) if at else prefix
        nodes.append(nid)
        if u.is_bottom:
            bottoms.append(nid)
            return nid
        labels[nid] = u.symbol
        succs[nid] = tuple(go(c, at + (i,)) for i, c in enumerate(u.children, 1))
        return nid

    root = go(s, ())
    return RationalTerm(TermGraph.of(nodes, labels, succs), root, frozenset(bottoms))


def ref_apply_subst_rational(s, sigma, depth):
    if s.is_bottom or depth <= 0:
        return BOTTOM
    if s.is_var:
        bound = sigma.get(s.symbol)
        return bound.unravel(depth) if bound is not None else s
    return op(
        s.symbol, [ref_apply_subst_rational(c, sigma, depth - 1) for c in s.children]
    )


# ---------------------------------------------------------------------------
# Graphs (`tests/test_graphs.py`): the former `TermGraph.of`, the Moore
# refinement by rounds and the recursive closures the pair walk and the
# splitter refinement replaced, the recursive `unravel`, and the fresh-id
# namer `FreshIds` replaced


def ref_termgraph_of(nodes, labels, succs):
    """The former `TermGraph.of`: a `node_key` sort, then one loop over the
    entries that checks every label and every edge."""
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


def ref_refine(blocks, succ):
    while True:
        index = {n: i for i, b in enumerate(blocks) for n in b}
        new, changed = [], False
        for b in blocks:
            groups = {}
            for n in sorted(b, key=node_key):
                key = tuple(index[s] for s in succ.get(n, ()))
                groups.setdefault(key, []).append(n)
            changed |= len(groups) > 1
            new.extend(frozenset(groups[k]) for k in sorted(groups))
        blocks = new
        if not changed:
            return blocks


def ref_minimize(g):
    blocks, by_label = [], {}
    for n in g.nodes:
        if n in g.labels:
            by_label.setdefault(g.labels[n], []).append(n)
        else:
            blocks.append(frozenset([n]))
    blocks += [frozenset(by_label[lbl]) for lbl in sorted(by_label)]
    rep = {}
    for b in ref_refine(blocks, g.succs):
        for n in b:
            rep[n] = min(b, key=node_key)
    out = TermGraph.of(
        set(rep.values()),
        {rep[n]: l for n, l in g.labels.items()},
        {rep[n]: tuple(rep[s] for s in ss) for n, ss in g.succs.items()},
    )
    return out, rep


def ref_bisim(a, b):
    """The old Moore refinement over the disjoint union of the carriers, as
    a function of the two points (one refinement for all of them)."""
    labels, succs, holes, by_name = {}, {}, [], {}
    for side, rt in (("a", a), ("b", b)):
        ren = rt.renaming()
        for n in rt.graph.nodes:
            key = f"{side}:{n}"
            if n in rt.graph.labels:
                labels[key] = rt.graph.labels[n]
                succs[key] = tuple(f"{side}:{s}" for s in rt.graph.succs[n])
            elif n in rt.bottoms:
                holes.append(key)
            else:
                by_name.setdefault(ren.get(n, n), []).append(key)
    by_label = {}
    for n, lbl in labels.items():
        by_label.setdefault(lbl, []).append(n)
    blocks = [frozenset(by_label[lbl]) for lbl in sorted(by_label)]
    blocks += [frozenset(holes)] if holes else []
    blocks += [frozenset(by_name[name]) for name in sorted(by_name)]
    index = {n: i for i, blk in enumerate(ref_refine(blocks, succs)) for n in blk}
    return lambda p, q: index[f"a:{p}"] == index[f"b:{q}"]


def ref_approx_leq(a, b):
    ren_a, ren_b, assumed = a.renaming(), b.renaming(), set()

    def sim(na, nb):
        if na in a.bottoms or (na, nb) in assumed:
            return True
        assumed.add((na, nb))
        la = a.graph.labels.get(na)
        if la is None:
            return (
                b.graph.is_empty_node(nb)
                and nb not in b.bottoms
                and ren_a.get(na, na) == ren_b.get(nb, nb)
            )
        return b.graph.labels.get(nb) == la and all(
            sim(sa, sb) for sa, sb in zip(a.graph.succs[na], b.graph.succs[nb])
        )

    return sim(a.point, b.point)


def ref_truncated_equal(a, b):
    """The old memoised closure, as a function of the depth (one memo for
    all depths)."""
    ren_a, ren_b, memo = a.renaming(), b.renaming(), {}

    def eq(na, nb, d):
        if d <= 0:
            return True
        if (na, nb, d) not in memo:
            bot_a, bot_b = na in a.bottoms, nb in b.bottoms
            la, lb = a.graph.labels.get(na), b.graph.labels.get(nb)
            if bot_a or bot_b:
                ans = bot_a and bot_b
            elif la is None or lb is None:
                ans = la == lb and ren_a.get(na, na) == ren_b.get(nb, nb)
            else:
                ans = la == lb and all(
                    eq(sa, sb, d - 1)
                    for sa, sb in zip(a.graph.succs[na], b.graph.succs[nb])
                )
            memo[na, nb, d] = ans
        return memo[na, nb, d]

    return lambda depth: eq(a.point, b.point, depth)


def ref_unravel(g, n, depth, bottoms=frozenset(), var_names=None, max_size=500_000):
    """The recursive `unravel` that the explicit stack replaced."""
    budget = [max_size]

    def go(m, d):
        if d <= 0 or m in bottoms:
            return BOTTOM
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError("unraveling exceeds size budget; lower the depth")
        lbl = g.labels.get(m)
        if lbl is None:
            return var(var_names.get(m, m) if var_names else m)
        return op(lbl, [go(s, d - 1) for s in g.succs[m]])

    return go(n, depth)


def ref_fresh_namer(used):
    """The former `parallel._fresh_namer`: per base, the ids base0, base1,
    ... that `used` lacks, scanning up from the last one given; each id given
    joins `used`."""
    counters = {}

    def fresh(base):
        i = counters.get(base, 0)
        while f"{base}{i}" in used:
            i += 1
        counters[base] = i + 1
        nid = f"{base}{i}"
        used.add(nid)
        return nid

    return fresh


# ---------------------------------------------------------------------------
# Rules (`tests/test_rules.py`): unification, which the compatibility
# walk of `overlaps` replaced


def ref_unify(left, right):
    """Most general unifier of two total terms in triangular form, or None:
    Robinson's algorithm with the occurs check."""
    subst = {}

    def resolve(a):
        while a.is_var and a.symbol in subst:
            a = subst[a.symbol]
        return a

    def occurs(name, a):
        todo = [a]  # bound variables stand for their bindings
        while todo:
            for _, b in subterms(todo.pop()):
                if b.is_var and b.symbol in subst:
                    todo.append(subst[b.symbol])
                elif b.is_var and b.symbol == name:
                    return True
        return False

    stack = [(left, right)]
    while stack:
        a, b = map(resolve, stack.pop())
        if a.is_var and b.is_var and a.symbol == b.symbol:
            continue
        if b.is_var:
            a, b = b, a
        if a.is_var:
            if occurs(a.symbol, b):
                return None
            subst[a.symbol] = b
        elif a.symbol != b.symbol or len(a.children) != len(b.children):
            return None
        else:
            stack.extend(zip(a.children, b.children))
    return subst


def ref_overlaps(l1, l2, same):
    """Unify a renamed-apart l2 at every operator position of l1, no filter."""
    fresh = rebuild(l2, lambda s, _: var(s.symbol + "'") if s.is_var else None)
    ops = sorted((w for w, s in subterms(l1) if s.is_op), key=occ_sort_key)
    return [
        w
        for w in ops
        if not (same and not w)
        and ref_unify(dict(subterms(l1))[w], fresh) is not None
    ]


# ---------------------------------------------------------------------------
# Graph rewriting (`tests/test_dpo.py`): the whole-graph pushout and
# rewriting from scratch, which the local steps replaced


def ref_pushout(rule, D, d):
    """The pushout over every node of D and R: one union-find over all of
    them, classes named as in `pushout` (least D id, else fresh h#k)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for n in rule.K.nodes:
        a, b = find(("r", rule.r[n])), find(("d", d.mapping[n]))
        if a != b:
            parent[a] = b
    classes = {}
    for side, graph in (("d", D), ("r", rule.R)):
        for n in graph.nodes:
            classes.setdefault(find((side, n)), []).append((side, n))
    names, fresh = {}, 0
    ordered = sorted(
        classes.items(),
        key=lambda kv: min((side != "d", node_key(n)) for side, n in kv[1]),
    )
    for key, members in ordered:
        d_ids = [n for side, n in members if side == "d"]
        if d_ids:
            names[key] = min(d_ids, key=node_key)
        else:
            while f"h#{fresh}" in D.nodes:
                fresh += 1
            names[key] = f"h#{fresh}"
            fresh += 1

    def node_of(side, n):
        return names[find((side, n))]

    labels, succs = {}, {}
    for side, graph in (("d", D), ("r", rule.R)):
        for n, lbl in graph.labels.items():
            labels[node_of(side, n)] = lbl
            succs[node_of(side, n)] = tuple(node_of(side, s) for s in graph.succs[n])
    H = TermGraph.of(names.values(), labels, succs)
    h = {n: node_of("r", n) for n in rule.R.nodes}
    return H, h, {n: node_of("d", n) for n in D.nodes}


def ref_rewrite(host, tgrs, max_steps):
    """`rewrite_sequence` from scratch: a full `find_matches` before every
    step, the whole-graph pushout, and the substitution read off all nodes."""
    rt, steps = host, []
    for _ in range(max_steps):
        ms = find_matches(rt.graph, tgrs)
        if not ms:
            return rt, steps, True
        m, G = ms[0], rt.graph
        hub = m.root_image
        D = TermGraph.of(
            G.nodes,
            {n: l for n, l in G.labels.items() if n != hub},
            {n: s for n, s in G.succs.items() if n != hub},
        )
        d = GraphMorphism(m.rule.K, D, dict(m.g.mapping))
        H, h, track = ref_pushout(m.rule, D, d)
        sources = {}
        for n in G.nodes:
            if G.is_empty_node(n) and n not in rt.bottoms:
                sources.setdefault(track[n], []).append(n)
        renaming = rt.renaming()
        holes, names = [], []
        for n in H.nodes:
            if H.is_empty_node(n):
                if n in sources:
                    (src,) = sources[n]
                    names.append((n, renaming.get(src, src)))
                else:
                    holes.append(n)
        rt = RationalTerm(H, track[rt.point], frozenset(holes), tuple(names))
        steps.append((m.rule.name, hub, H, h, track))
    return rt, steps, not find_matches(rt.graph, tgrs)


# ---------------------------------------------------------------------------
# Parallel rewriting (`tests/test_parallel.py`): the string-trie cuts the
# shared table replaced, the quadratic prefix check, and the linear depth scan


def member(rs, w):
    """Is w in the redex set: does walking it from the start reach the
    target?"""
    return rs.carrier.walk(rs.start, w) == rs.target


def ref_find_redexes(rt, rules, maxlen):
    """`find_redexes` as one walk per matching node."""
    out = [
        Redex(w, rule)
        for rule in rules
        for n in matching_nodes(rt, rule)
        for w in PathCounts(rt.graph, rt.point, [n]).paths(maxlen)
    ]
    out.sort(key=lambda r: (occ_sort_key(r.occ), r.rule.name))
    return out


def ref_cut_graph(rs, kept):
    """The old `_cut_graph`: a trie of prefix tuples, rebuilt per call, with
    one node per occurrence."""
    g = rs.carrier
    ren = dict(rs.var_names)
    elements = set(kept)
    prefixes = {()}
    for w in kept:  # the set stays prefix-closed: stop at a known prefix
        for i in range(len(w), 0, -1):
            if w[:i] in prefixes:
                break
            prefixes.add(w[:i])

    numbers = {}  # a number per occurrence, so ids stay short

    def node_id(m, st):
        if st is None:
            return f"{m}@*"
        return f"{m}@" + numbers.setdefault(st, str(len(numbers)))

    nodes, labels, succs, bottoms, names = [], {}, {}, [], []
    todo = [(rs.start, ())]
    seen = {(rs.start, ())}
    while todo:
        m, st = todo.pop()
        nid = node_id(m, st)
        nodes.append(nid)
        if m == rs.target and not (st is not None and st in elements):
            bottoms.append(nid)
            continue
        if m in rs.bottoms:
            bottoms.append(nid)
            continue
        lbl = g.labels.get(m)
        if lbl is None:
            names.append((nid, ren.get(m, m)))
            continue
        ss = []
        for k, s in enumerate(g.succs[m], start=1):
            child_st = None
            if st is not None and st + (k,) in prefixes:
                child_st = st + (k,)
            ss.append(node_id(s, child_st))
            if (s, child_st) not in seen:
                seen.add((s, child_st))
                todo.append((s, child_st))
        labels[nid] = lbl
        succs[nid] = tuple(ss)
    term = RationalTerm(
        TermGraph.of(nodes, labels, succs),
        node_id(rs.start, ()),
        frozenset(bottoms),
        tuple(sorted(names, key=lambda kv: node_key(kv[0]))),
    )
    return term, [node_id(rs.target, w) for w in kept]


def ref_route(rs, kept):
    """The per-cut route the shared table replaced: the string-trie cut of
    the kept members, and `develop_rational` on that cut alone."""
    cut, nodes = ref_cut_graph(rs, kept)
    developed, _ = develop_rational(cut, [(n, rs.rule) for n in nodes])
    return cut, developed


def ref_table_sizes(rs, lengths):
    """The nodes of a hash-consed cut table once the cuts that keep the
    members shorter than each of `lengths` are built in turn.  A node is a
    carrier node m with the nonempty set of members below m that a cut
    keeps there; that set holds those shorter than some bound, so its size
    names it.  Each node's successors are walked once."""
    tables, seen, sizes = {}, set(), []
    for length in lengths:
        todo = [(rs.start, length)]
        while todo:
            m, r = todo.pop()
            if m not in tables:
                tables[m] = PathCounts(rs.carrier, m, [rs.target])
            kept = tables[m].count(r)
            if kept and (m, kept) not in seen:
                seen.add((m, kept))
                todo += [(s, r - 1) for s in rs.carrier.successors(m)]
        sizes.append(len(seen))
    return sizes


def ref_prefix_check(rs, occs):
    """The old prefix-respecting check: every prefix of every occurrence."""
    seen = set()
    for w in occs:
        if not member(rs, w):
            raise ValueError(f"{occ_format(w)} is not in the redex set")
        for i in range(len(w)):
            p = w[:i]
            if p not in seen and member(rs, p):
                raise ValueError(
                    "enumeration is not prefix-respecting: "
                    f"{occ_format(p)} missing before {occ_format(w)}"
                )
        if w in seen:
            raise ValueError(f"{occ_format(w)} is listed twice")
        seen.add(w)


def ref_scan(depth, holds):
    """The old effective-depth search: one step down at a time."""
    d = depth
    while d > 0 and not holds(d):
        d -= 1
    return d


def ref_trie(rs, batches):
    """`child`, `at` and `size` of a trie that walks every occurrence from
    the root, in the trie and in the carrier."""
    child, at, size = [{}], [rs.start], [1]
    for batch in batches:
        for w in batch:
            st, m = 0, rs.start
            for k in w:
                m = rs.carrier.succs[m][k - 1]
                if k not in child[st]:
                    child[st][k] = len(child)
                    child.append({})
                    at.append(m)
                st = child[st][k]
            size.append(len(child))
    return child, at, size


# ---------------------------------------------------------------------------
# The harness (`tests/test_harness.py`): the recursive generator and the
# whole-system orthogonality filter


def ref_gen_term(rng, sig, variables, depth):
    """The recursive generator the explicit stack replaced."""
    pairs = list(sig.as_dict().items())
    constants = [n for n, k in pairs if k == 0]
    if depth <= 0:
        if variables and rng.random() < 0.6:
            return var(rng.choice(list(variables)))
        return op(rng.choice(constants))
    if variables and rng.random() < 0.25:
        return var(rng.choice(list(variables)))
    name, k = rng.choice(pairs)
    return op(name, [ref_gen_term(rng, sig, variables, depth - 1) for _ in range(k)])


def ref_gen_case(rng):
    """`gen_case` with every candidate rule built, checked and filtered by
    the whole-system `orthogonality_conflicts`, as before the pairwise test."""
    sig = gen_signature(rng)
    want = rng.randint(1, 3)
    rules = []
    for _ in range(30):
        if len(rules) >= want:
            break
        lhs = _gen_lhs(rng, sig)[0]
        lhs_vars = [s.symbol for _, s in subterms(lhs) if s.is_var]
        if lhs_vars and rng.random() < 0.15:
            rhs = var(rng.choice(lhs_vars))
        else:
            rhs = ref_gen_term(rng, sig, lhs_vars, rng.randint(1, 2))
        candidate = RewriteRule.of(f"R{len(rules) + 1}", lhs, rhs)
        try:
            check_rule(candidate, sig)
        except ValueError:
            continue
        if orthogonality_conflicts(TRS(sig, tuple(rules + [candidate]))):
            continue
        rules.append(candidate)
    if not rules:
        name, k = next((n, k) for n, k in sig.as_dict().items() if k > 0)
        rules = [RewriteRule.of("R1", op(name, [var("x")] * k), var("x"))]
    return RandomCase(sig, TRS(sig, tuple(rules)), gen_graph(rng, sig))


# ---------------------------------------------------------------------------
# The CLI (`tests/test_parsing_cli.py`): `tgr rewrite` replaying each step


def ref_rewrite_steps(host, tgrs, max_steps):
    """The steps `tgr rewrite --json` printed when it replayed each one: the
    first match by `find_matches`, run again on copies by `derive_rational`,
    with the diagram's track.  Returns the step records, the term reached and
    whether it is a normal form."""
    current, steps = host, []
    for _ in range(max_steps):
        matches = find_matches(current.graph, tgrs)
        if not matches:
            return steps, current, True
        drv, after = derive_rational(current, matches[0])
        steps.append(
            {
                "rule": drv.rule.name,
                "at": drv.match.root_image,
                "before": graph_to_json(current),
                "after": graph_to_json(after),
                "track": dict(drv.track),
            }
        )
        current = after
    return steps, current, not find_matches(current.graph, tgrs)
