"""The four workloads: seeded inputs, the op each one times, and its check.

Every input is generated as workspace text (`sig`/`graph`/`rule`) and read
back through `parse_workspace`, so parsing is part of set-up and a failed op
can be replayed with the `tgr` command.  Each workload is a fixed *pass* of
ops (the suite is a stream whose pass is one round of its properties); the
timed phase runs whole passes, so every run measures the same mix.

Sizes, shapes and classes are fixed per workload; the seed draws labels,
chords, random label words and distances inside that frame.  That keeps
runs with different seeds comparable while still varying the inputs.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from refcheck import RefGraph, bisimilar, normal_form

# A graph as the generators build it: node id -> (label or None, successors).
Spec = Dict[str, Tuple[Optional[str], Tuple[str, ...]]]


@dataclass
class Op:
    """One top-level call into the public API, with its independent check."""

    key: str  # names the input; a failure is written out once per key
    group: str  # row of the growth table the op falls in
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the result is right
    replay: Callable[[], str]  # workspace text with the command to replay
    steps: Callable[[Any], int] = lambda result: 1


@dataclass
class Plan:
    """What one set-up produces: ops by index, run in whole passes."""

    op_at: Callable[[int], Op]
    pass_len: int
    growth_unit: str  # how the growth table reads: per step, per op
    inputs: int = 0  # distinct inputs generated in set-up


def format_graph(
    name: str, spec: Spec, point: str, bottoms: Sequence[str] = ()
) -> str:
    lines = [f"graph {name} {{"]
    for n, (lbl, succs) in spec.items():
        if lbl is None:
            lines.append(f"  {n}: ;")
        elif succs:
            lines.append(f"  {n}: {lbl}({', '.join(succs)});")
        else:
            lines.append(f"  {n}: {lbl};")
    lines.append(f"  root {point};")
    if bottoms:
        lines.append(f"  bottom {', '.join(sorted(bottoms))};")
    lines.append("}")
    return "\n".join(lines)


def ref_of_spec(spec: Spec, point: str) -> RefGraph:
    return RefGraph(
        {n: lbl for n, (lbl, _) in spec.items()},
        {n: succs for n, (_, succs) in spec.items()},
        point,
        {n: n for n, (lbl, _) in spec.items() if lbl is None},
    )


def late(module, name: str, *args):
    """Call module.name(*args), looking the name up at call time, so that
    the traced run's wrappers are the ones called."""
    return getattr(module, name)(*args)


def replay_text(command: str, note: str, workspace: str) -> str:
    return f"# {note}\n# replay: {command}\n{workspace}\n"


# ---------------------------------------------------------------------------
# rewrite: normal forms of rings with chords, lassos and shared DAGs

SIG = "sig a/0 f/1 g/1 h/1 I/1 d/1 p/2 cdr/1 cons/2"
RULES = """rule Rf: f(x) -> g(x)
rule RI: I(x) -> x
rule Rd: d(x) -> p(x, x)
rule Rcdr: cdr(cons(x, y)) -> y"""
REWRITE_SIZES = (25, 50, 100, 200, 400)
REWRITE_FAMILIES = ("ring", "lasso", "dag")


def rewrite_host(rng: random.Random, family: str, n: int) -> Spec:
    """An n-node host: n-2 body nodes, a constant leaf and a variable leaf.

    Redex labels come in fixed numbers (f: n/20; d, I and cdr-over-cons:
    n/40 each), so the step count depends on n alone; p nodes (n/8) add
    chords.  A ring closes its body into one cycle, a lasso runs a tail of
    half the body into a cycle, and a DAG only points forward, so its
    sharing comes from chords and from d(x) -> p(x, x).
    """
    ids = [f"n{i}" for i in range(1, n + 1)]
    body, leaf_a, leaf_x = ids[:-2], ids[-2], ids[-1]
    m = len(body)
    tokens = (
        ["f"] * max(1, n // 20)
        + ["d"] * max(1, n // 40)
        + ["I"] * max(1, n // 40)
        + ["cc"] * max(1, n // 40)
        + ["p"] * (n // 8)
    )
    tokens += ["u"] * (m - len(tokens) - tokens.count("cc"))
    rng.shuffle(tokens)
    labels: List[str] = []
    for t in tokens:
        labels.extend(["cdr", "cons"] if t == "cc" else [t])

    loop_start = m // 2 if family == "lasso" else 0

    def nxt(i: int) -> str:
        if i + 1 < m:
            return body[i + 1]
        return leaf_a if family == "dag" else body[loop_start]

    def chord(i: int) -> str:
        if family == "ring":
            return rng.choice(ids)
        # forward only (lasso: anywhere inside the cycle once in it)
        low = loop_start if family == "lasso" and i >= loop_start else i + 1
        return rng.choice(body[low:] + [leaf_a, leaf_x])

    spec: Spec = {}
    for i, (node, lbl) in enumerate(zip(body, labels)):
        if lbl == "u":
            spec[node] = (rng.choice("gh"), (nxt(i),))
        elif lbl in ("p", "cons"):
            pair = [nxt(i), chord(i)]
            rng.shuffle(pair)
            spec[node] = (lbl, tuple(pair))
        else:  # f, d, I, and cdr, whose next node is its cons
            spec[node] = (lbl, (nxt(i),))
    spec[leaf_a] = ("a", ())
    spec[leaf_x] = (None, ())
    return spec


def build_rewrite(tgr: SimpleNamespace, seed: int) -> Plan:
    rng = random.Random(f"rewrite:{seed}")
    hosts = []
    for n in REWRITE_SIZES:
        for family in REWRITE_FAMILIES:
            hosts.append((f"{family}_{n}", n, rewrite_host(rng, family, n)))
    text = "\n\n".join(
        [SIG]
        + [format_graph(name, spec, "n1") for name, _, spec in hosts]
        + [RULES]
    )
    ws = tgr.parsing.parse_workspace(text)
    tgrs = ws.tgrs()

    ops = []
    for name, n, spec in hosts:
        host = ws.graph(name)
        expected, steps = normal_form(ref_of_spec(spec, "n1"))
        budget = n + 1  # every step removes one f, d, I or cdr label

        def call(host=host, budget=budget):
            return tgr.harness.rewrite_sequence(host, tgrs, max_steps=budget)

        def check(result, expected=expected, steps=steps):
            nf, derivation, reached = result
            if not reached:
                return f"step budget hit after {len(derivation)} steps"
            if len(derivation) != steps:
                return f"{len(derivation)} steps, expected {steps}"
            if not bisimilar(RefGraph.of_rational(nf), expected):
                return "normal form differs from the reference"
            return None

        def replay(name=name, budget=budget):
            return replay_text(
                f"tgr rewrite FILE --graph {name} --steps {budget}",
                "rewrite to normal form",
                text,
            )

        ops.append(
            Op(name, f"n={n}", call, check, replay, lambda r: len(r[1]))
        )
    return Plan(lambda i: ops[i % len(ops)], len(ops), "ms/step", len(ops))


# ---------------------------------------------------------------------------
# oracle: verify_soundness on dense cyclic hosts

ORACLE_RULE_ROOT = {"Rf": "f", "RI": "I", "Rd": "d", "Rcdr": "cdr"}
ORACLE_BUDGET = 2048

# (class, ring size, depth, rule) for one pass.  A *shared* host carries one
# binary node with both successors on the next node, so the number of paths
# doubles on every lap: rings of 4 and 5 nodes at depth 32 exceed the budget
# wherever the matched node sits (the heavy tail), larger rings at depth 16
# stay under it.  A *unary* host is a ring of unary nodes, with a constant
# leaf where Rcdr needs a cons.
ORACLE_CLASSES = (
    [
        ("unary", 4 + i % 13, 16 if i % 2 else 32, rule)
        for i, rule in zip(range(16), ["Rf", "RI", "Rd", "Rcdr"] * 4)
    ]
    + [("shared", n, 16, r) for n, r in zip((8, 10, 12, 14), ("Rf", "RI", "Rd", "Rcdr"))]
    + [
        ("shared", n, 32, r)
        for n, r in zip((4, 5, 4, 5, 4, 5), ("Rf", "RI", "Rd", "Rcdr", "Rf", "RI"))
    ]
)


def oracle_host(
    rng: random.Random, shape: str, n: int, rule: str
) -> Tuple[Spec, str]:
    """A ring n1..n<n> whose node n2 is matched.  The seed draws the other
    labels; the shape, and with it the cost of the check, is fixed."""
    ids = [f"n{i}" for i in range(1, n + 1)]
    t = 1
    spec: Spec = {}
    for i, node in enumerate(ids):
        spec[node] = (rng.choice(["f", "g", "h", "I", "d"]), (ids[(i + 1) % n],))
    target = ids[t]
    after = ids[(t + 1) % n]
    spec[target] = (ORACLE_RULE_ROOT[rule], (after,))
    if shape == "shared":
        # the binary node follows the matched one (under a cdr, a cons)
        nxt = ids[(t + 2) % n]
        spec[after] = ("cons" if rule == "Rcdr" else "p", (nxt, nxt))
    elif rule == "Rcdr":
        spec["c"] = ("a", ())
        spec[after] = ("cons", ("c", ids[(t + 2) % n]))
    return spec, target


def build_oracle(tgr: SimpleNamespace, seed: int) -> Plan:
    rng = random.Random(f"oracle:{seed}")
    entries = []
    for k, (shape, n, depth, rule) in enumerate(ORACLE_CLASSES):
        spec, target = oracle_host(rng, shape, n, rule)
        entries.append((f"h{k}", shape, n, depth, rule, spec, target))
    text = "\n\n".join(
        [SIG]
        + [format_graph(name, spec, "n1") for name, _, _, _, _, spec, _ in entries]
        + [RULES]
    )
    ws = tgr.parsing.parse_workspace(text)
    tgrs = ws.tgrs()

    ops = []
    for name, shape, n, depth, rule, spec, target in entries:
        host = ws.graph(name)
        (match,) = [
            m
            for m in tgr.dpo.find_matches(host.graph, tgrs.rule(rule))
            if m.root_image == target
        ]

        def call(host=host, match=match, depth=depth):
            return tgr.harness.verify_soundness(
                ws.sig, host, match, depth, ORACLE_BUDGET
            )

        def check(rep):
            return None if rep.ok else rep.summary()

        def replay(name=name, rule=rule, target=target, depth=depth):
            return replay_text(
                f"tgr verify-soundness FILE --graph {name} --rule {rule} "
                f"--at {target} --depth {depth} --budget {ORACLE_BUDGET}",
                "verify_soundness of one match",
                text,
            )

        ops.append(Op(f"{name}_{shape}_{n}_{rule}", f"depth={depth}", call, check, replay))
    return Plan(lambda i: ops[i % len(ops)], len(ops), "ms/op", len(ops))


# ---------------------------------------------------------------------------
# suite: one case of one property at a time

SUITE_PROPERTIES = (
    "soundness",
    "enumerations",
    "confluence",
    "development-order",
    "nf-preservation",
    "morphism-substitution",
    "redex-correspondence",
    "cofinality",
)
SUITE_DEEP = ("soundness", "enumerations")  # acceptance depth 32, else 16


def suite_workspace(tgr: SimpleNamespace, case) -> str:
    """A generated suite case as workspace text."""
    g = case.host.graph
    spec: Spec = {
        n: (g.labels.get(n), tuple(g.succs.get(n, ()))) for n in g.nodes
    }
    graph = format_graph("G", spec, case.host.point, case.host.bottoms)
    fmt = tgr.terms.format_term
    rules = [  # right-hand sides are finite: unravel them past their height
        f"rule {r.name}: {fmt(r.lhs)} -> {fmt(r.rhs.unravel(len(r.rhs.graph.nodes) + 1))}"
        for r in case.trs.rules
    ]
    sig = " ".join(f"{n}/{k}" for n, k in case.sig.arities)
    return "\n\n".join([f"sig {sig}", graph] + rules)


SUITE_WINDOW = 128  # suite seeds 0..127, each run through all properties


def build_suite(tgr: SimpleNamespace, seed: int) -> Plan:
    """Ops over a fixed window of suite seeds, like the acceptance runs; the
    benchmark seed picks where in the window a run starts.  A run covers
    the window several times, so its heaviest cases, which set the tail and
    the peak memory, are the same from seed to seed and each is timed more
    than once."""
    props = SUITE_PROPERTIES
    start = random.Random(f"suite:{seed}").randrange(SUITE_WINDOW)

    def op_at(i: int) -> Op:
        prop = props[i % len(props)]
        k = (start + i // len(props)) % SUITE_WINDOW
        depth = 32 if prop in SUITE_DEEP else 16

        def call():
            return tgr.harness.run_property_suite(
                seed=k, cases=1, depth=depth, properties=[prop]
            )

        def check(rep):
            if rep.outcomes[0].cases != 1:
                return f"{rep.outcomes[0].cases} cases ran, expected 1"
            return None if rep.ok else "; ".join(rep.lines())

        def replay():
            case = tgr.harness.gen_case(random.Random(f"{k}:{prop}:0"))
            return replay_text(
                f"tgr suite --seed {k} --cases 1 --depth {depth} "
                f"--properties {prop}",
                f"property {prop}; the workspace is the generated case",
                suite_workspace(tgr, case),
            )

        return Op(f"{prop}_{k}", prop, call, check, replay)

    return Plan(op_at, len(props), "ms/op")


# ---------------------------------------------------------------------------
# equal: comparison kernels on long carriers

EQUAL_SIZES = (50, 100, 200, 400, 600)
EQUAL_FAMILIES = ("ring", "lasso", "chain")
# Label pattern per size: a marker word (one g in a run of f) needs about n
# refinement rounds, a constant word one, and a random word about log n
# (unless its partner differs somewhere, which again takes about n).  Which
# pairs are bisimilar is fixed, alternating over families and sizes; a
# differing pair differs just past n/8 from the point.  So whether an
# op fails on today's recursion limit depends on the size, not the seed.
EQUAL_PATTERN = {50: "marker", 100: "constant", 200: "marker", 400: "marker", 600: "random"}


def word(rng: random.Random, pattern: str, n: int) -> List[str]:
    if pattern == "constant":
        return ["f"] * n
    if pattern == "marker":  # at the end: the rounds needed do not vary
        return ["f"] * (n - 1) + ["g"]
    return [rng.choice("fgh") for _ in range(n)]


def primitive_period(w: Sequence[str]) -> int:
    """Length of the shortest u with w a power of u."""
    s = "".join(w)
    return (s + s).find(s, 1)


def carrier(
    family: str, n: int, labels: Sequence[str], prefix: str
) -> Tuple[Spec, int, int]:
    """Spec of a unary carrier, its cycle length (0 for a chain) and the
    size `minimize` must return (known from the construction)."""
    ids = [f"{prefix}{i}" for i in range(1, n + 1)]
    spec: Spec = {}
    if family == "ring":
        for i, node in enumerate(ids):
            spec[node] = (labels[i], (ids[(i + 1) % n],))
        return spec, n, primitive_period(labels)
    if family == "lasso":
        t = n // 2
        for i, node in enumerate(ids):
            spec[node] = (labels[i], (ids[i + 1] if i + 1 < n else ids[t],))
        # tail nodes never merge with the cycle when the last letters of
        # tail and cycle differ, which the generator arranges
        return spec, n - t, t + primitive_period(labels[t:])
    for i, node in enumerate(ids[:-1]):
        spec[node] = (labels[i], (ids[i + 1],))
    spec[ids[-1]] = ("a", ())
    return spec, 0, n


def check_verdict(expected: bool, verdict: bool) -> Optional[str]:
    return None if verdict is expected else f"verdict {verdict}, expected {expected}"


def check_classes(expected: int, result) -> Optional[str]:
    quotient, _ = result
    if len(quotient.nodes) != expected:
        return f"{len(quotient.nodes)} classes, expected {expected}"
    return None


def equal_replay(text: str, name: str, note: str, expr: str) -> str:
    return replay_text(
        "python3 -c 'import tgr; ws = tgr.parse_workspace(open(\"FILE\").read()); "
        f"A, B = ws.graph(\"{name}_a\"), ws.graph(\"{name}_b\"); print({expr})'",
        f"{name}: the pair is {note}",
        text,
    )


def build_equal(tgr: SimpleNamespace, seed: int) -> Plan:
    rng = random.Random(f"equal:{seed}")
    pairs = []
    for fi, family in enumerate(EQUAL_FAMILIES):
        for si, n in enumerate(EQUAL_SIZES):
            labels = word(rng, EQUAL_PATTERN[n], n)
            if family == "lasso":
                t = n // 2
                cyc = labels[t:]
                if labels[t - 1] == cyc[-1]:
                    labels[t - 1] = "h" if cyc[-1] != "h" else "g"
            same = (fi + si) % 2 == 0
            other = list(labels)
            distance = None
            if not same:
                distance = n // 8 + rng.randrange(n // 50 + 1)
                other[distance] = rng.choice([c for c in "fgh" if c != labels[distance]])
            a, cycle, min_size = carrier(family, n, labels, "a")
            b, _, _ = carrier(family, n, other, "b")
            pairs.append(
                (f"{family}_{n}", family, n, a, b, cycle, min_size, same, distance)
            )
    text = "\n\n".join(
        [SIG]
        + [
            format_graph(f"{name}_{side}", spec, f"{side}1")
            for name, _, _, a, b, _, _, _, _ in pairs
            for side, spec in (("a", a), ("b", b))
        ]
    )
    ws = tgr.parsing.parse_workspace(text)

    ops = []
    for name, family, n, _, _, cycle, min_size, same, distance in pairs:
        A, B = ws.graph(f"{name}_a"), ws.graph(f"{name}_b")
        depth = 2 * (cycle or n)
        note = "bisimilar" if same else f"differ at distance {distance}"
        # The cheap kernels run in both orientations, so that more than half
        # of a pass is cheap and the median falls among ops of like cost.
        kernels = [("eq", partial(operator.eq, A, B), "A == B")]
        for x, y, X, Y in (("A", "B", A, B), ("B", "A", B, A)):
            kernels += [
                (
                    f"leq_{x}{y}",
                    partial(late, tgr.graphs, "rational_approx_leq", X, Y),
                    f"tgr.rational_approx_leq({x}, {y})",
                ),
                (
                    f"trunc_{x}{y}",
                    partial(late, tgr.graphs, "truncated_equal", X, Y, depth),
                    f"tgr.truncated_equal({x}, {y}, {depth})",
                ),
            ]
        for kind, call, expr in kernels:
            ops.append(
                Op(
                    f"{name}_{kind}",
                    f"{kind.split('_')[0]} n={n}",
                    call,
                    partial(check_verdict, same),
                    partial(equal_replay, text, name, note, expr),
                )
            )
        ops.append(
            Op(
                f"{name}_minimize",
                f"minimize n={n}",
                partial(late, tgr.graphs, "minimize", A.graph),
                partial(check_classes, min_size),
                partial(
                    equal_replay, text, name, note, "len(tgr.minimize(A.graph)[0].nodes)"
                ),
            )
        )
    rng.shuffle(ops)  # interleave sizes and kernels within a pass
    return Plan(lambda i: ops[i % len(ops)], len(ops), "ms/op", len(pairs) * 2)


WORKLOADS: Dict[str, Callable[[SimpleNamespace, int], Plan]] = {
    "rewrite": build_rewrite,
    "oracle": build_oracle,
    "suite": build_suite,
    "equal": build_equal,
}
