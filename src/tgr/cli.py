"""Command line front end.

One workspace file in, one analysis out.  Exit codes are uniform across
subcommands: 0 means the command ran and every checked property held, 1
means a verification failed (a chain was not monotone, routes disagreed, a
diamond did not close, ...), 2 means the input was unusable (parse error,
unreadable file, unknown name, rule does not match, unsupported rule, a
negative count or bound) or the program failed: any other error prints one
line, `error: internal: <type>: <message>`, and no traceback.

Every subcommand accepts `--json` to emit a machine-readable mirror of its
text output on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .dot import export_dot
from .dpo import Match, Stepper, derive_rational, find_matches, match_at
from .graphs import RationalTerm, infinitely_reached, sorted_nodes
from .harness import (
    check_cofinality_step,
    check_weak_normal_form_preservation,
    run_property_suite,
    verify_soundness,
)
from .parallel import (
    DEFAULT_BUDGET,
    OracleError,
    RationalRedexSet,
    UnsupportedRuleError,
    enumerate_occurrences,
    infinite_parallel_reduce,
)
from .parsing import (
    Workspace,
    format_graph,
    graph_to_json,
    parse_workspace,
)
from .rules import orthogonality_conflicts
from .terms import format_term, occ_format

DEFAULT_DEPTH = 16


# ---------------------------------------------------------------------------
# Helpers


def _load(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:  # read() decodes the whole file at once
            raise ValueError(
                f"{path}: not UTF-8 text "
                f"(byte 0x{e.object[e.start]:02x} at offset {e.start})"
            ) from None
    return parse_workspace(text)


def _emit(args, payload: Dict[str, object], lines: List[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _find_match(ws: Workspace, host: RationalTerm, rule_name: str, at: str) -> Match:
    er = ws.tgrs().rule(rule_name)
    if at not in host.graph.nodes:
        raise KeyError(f"no node named {at}")
    match = match_at(er, host.graph, at)
    if match is None:
        raise ValueError(f"{rule_name} does not match at {at}")
    return match


def _track_lines(track: Dict[str, str]) -> List[str]:
    out = ["  track:"]
    for n in sorted_nodes(track):
        out.append(f"    {n} -> {track[n]}")
    return out


def _show_rhs(rhs: RationalTerm) -> str:
    if infinitely_reached(rhs.graph, rhs.point):
        return format_graph(rhs, name=None)
    return format_term(rhs.unravel(64))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    ws = _load(args.file)
    conflicts = orthogonality_conflicts(ws.trs)
    lines = []
    sig = " ".join(
        f"{n}/{k}" for n, k in sorted(ws.sig.as_dict().items())
    )
    lines.append(f"signature: {sig}")
    graphs = []
    for name in sorted(ws.graphs):
        rt = ws.graphs[name]
        lines.append(
            f"graph {name}: {len(rt.graph.nodes)} nodes, "
            f"root {rt.point}, wellformed"
        )
        graphs.append({"name": name, "nodes": len(rt.graph.nodes)})
    rules = []
    for r in ws.trs.rules:
        tags = []
        if r.is_collapsing():
            tags.append("collapsing")
        if r.copies_infinitely:
            tags.append("not oracle-supported")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        lines.append(
            f"rule {r.name}: {format_term(r.lhs)} -> {_show_rhs(r.rhs)}{suffix}"
        )
        rules.append(
            {
                "name": r.name,
                "collapsing": r.is_collapsing(),
                "oracle_supported": not r.copies_infinitely,
            }
        )
    if conflicts:
        lines.append("orthogonal: no")
        lines.extend(f"  {c}" for c in conflicts)
    else:
        lines.append("orthogonal: yes")
    _emit(
        args,
        {
            "signature": ws.sig.as_dict(),
            "graphs": graphs,
            "rules": rules,
            "orthogonal": not conflicts,
            "conflicts": list(conflicts),
        },
        lines,
    )
    return 1 if conflicts else 0


def _cmd_unravel(args) -> int:
    ws = _load(args.file)
    rt = ws.graph(args.graph)
    term = format_term(rt.unravel(args.depth))
    _emit(
        args,
        {"graph": args.graph, "depth": args.depth, "term": term},
        [term],
    )
    return 0


def _cmd_matches(args) -> int:
    ws = _load(args.file)
    rt = ws.graph(args.graph)
    ms = find_matches(rt.graph, ws.tgrs())
    lines = [m.describe() for m in ms] or ["no matches"]
    _emit(
        args,
        {
            "graph": args.graph,
            "matches": [
                {"rule": m.rule.name, "at": m.root_image} for m in ms
            ],
        },
        lines,
    )
    return 0


def _cmd_rewrite(args) -> int:
    ws = _load(args.file)
    current = ws.graph(args.graph)
    lines: List[str] = []
    steps = []
    run = Stepper(current, ws.tgrs(), args.steps)
    for step in run:
        after = run.current
        track = dict(zip(current.graph.nodes, current.graph.nodes))
        track.update(step.gone)
        lines.append(
            f"STEP {step.rule.name} at {step.at} : "
            f"{format_graph(current, name=None)} => "
            f"{format_graph(after, name=None)}"
        )
        lines.extend(_track_lines(track))
        steps.append(
            {
                "rule": step.rule.name,
                "at": step.at,
                "before": graph_to_json(current),
                "after": graph_to_json(after),
                "track": track,
            }
        )
        current = after
    nf = run.normal_form
    unraveled = format_term(current.unravel(args.depth))
    lines.append(f"result: {format_graph(current, name=None)}")
    lines.append(f"unravel: {unraveled}")
    lines.append(f"normal form: {'yes' if nf else 'no'}")
    _emit(
        args,
        {
            "graph": args.graph,
            "steps": steps,
            "result": graph_to_json(current),
            "unravel": unraveled,
            "normal_form": nf,
        },
        lines,
    )
    return 0


def _cmd_derive(args) -> int:
    ws = _load(args.file)
    host = ws.graph(args.graph)
    match = _find_match(ws, host, args.rule, args.at)
    drv, after = derive_rational(host, match)
    interface = RationalTerm(
        drv.D, host.point, host.bottoms, host.var_names
    )
    lines = [
        f"derive {drv.describe()}",
        f"host:      {format_graph(host, name=None)}",
        f"interface: {format_graph(interface, name=None)}",
        f"result:    {format_graph(after, name=None)}",
    ]
    lines.extend(_track_lines(drv.track))
    unraveled = format_term(after.unravel(args.depth))
    lines.append(f"unravel: {unraveled}")
    _emit(
        args,
        {
            "rule": drv.rule.name,
            "at": drv.match.root_image,
            "host": graph_to_json(host),
            "interface": graph_to_json(interface),
            "result": graph_to_json(after),
            "track": dict(drv.track),
            "unravel": unraveled,
        },
        lines,
    )
    return 0


def _redex_set(ws: Workspace, args) -> RationalRedexSet:
    host = ws.graph(args.graph)
    rule = ws.trs.rule(args.rule)
    start = args.start or host.point
    for node in (start, args.at):
        if node not in host.graph.nodes:
            raise KeyError(f"no node named {node}")
    return RationalRedexSet(
        host.graph, start, args.at, rule, host.bottoms, host.var_names
    )


def _cmd_redex_set(args) -> int:
    ws = _load(args.file)
    rs = _redex_set(ws, args)
    count = args.count if args.count is not None else 20
    occs = enumerate_occurrences(rs, count=count, maxlen=args.maxlen)
    shown = [occ_format(w) for w in occs]
    finite = rs.is_finite()
    lines = [
        f"redex set of {args.rule} at {args.at} (from {rs.start})",
        f"finite: {'yes' if finite else 'no'}",
    ]
    if args.maxlen is not None:
        lines.append(
            f"occurrences of length <= {args.maxlen}: "
            f"{rs.count_below(args.maxlen + 1)}"
        )
    lines.append(
        "occurrences: " + (", ".join(shown) if shown else "(none)")
    )
    _emit(
        args,
        {
            "rule": args.rule,
            "at": args.at,
            "from": rs.start,
            "finite": finite,
            "occurrences": shown,
        },
        lines,
    )
    return 0


def _cmd_oracle(args) -> int:
    ws = _load(args.file)
    rs = _redex_set(ws, args)
    report = infinite_parallel_reduce(
        rs, depth=args.depth, budget=args.budget
    )
    eff = report.effective_depth
    developed = [format_term(s.developed.unravel(eff)) for s in report.samples]
    limit = format_term(report.limit.unravel(eff))
    symbolic = format_term(report.symbolic_limit.unravel(args.depth))
    lines = [
        f"occurrences kept: {report.occurrences} "
        f"(threshold length {report.threshold}, "
        f"effective depth {eff})",
    ]
    lines.extend(
        f"d_{s.index} = {d}" for s, d in zip(report.samples, developed)
    )
    lines.append(f"limit    = {limit}")
    lines.append(f"symbolic = {symbolic}")
    _emit(
        args,
        {
            "rule": args.rule,
            "at": args.at,
            "occurrences": report.occurrences,
            "nodes": report.nodes,
            "threshold": report.threshold,
            "lift": report.lift,
            "cycle": report.cycle,
            "depth": report.depth,
            "effective_depth": report.effective_depth,
            "samples": [
                {"index": s.index, "developed": d}
                for s, d in zip(report.samples, developed)
            ],
            "limit": limit,
            "symbolic": symbolic,
        },
        lines,
    )
    return 0


def _cmd_verify_soundness(args) -> int:
    ws = _load(args.file)
    host = ws.graph(args.graph)
    if (args.rule is None) != (args.at is None):
        raise ValueError("--rule and --at must be given together")
    if args.rule is not None:
        matches = [_find_match(ws, host, args.rule, args.at)]
    else:
        matches = find_matches(host.graph, ws.tgrs())
    reports = [
        verify_soundness(ws.sig, host, m, args.depth, args.budget)
        for m in matches
    ]
    lines = [r.summary() for r in reports] or ["no matches to verify"]
    ok = all(r.ok for r in reports)
    _emit(
        args,
        {
            "graph": args.graph,
            "ok": ok,
            "reports": [
                {
                    "match": r.match_description,
                    "ok": r.ok,
                    "symbolic_ok": r.symbolic_ok,
                    "chain_ok": r.chain_ok,
                    "depth": r.depth,
                    "effective_depth": r.effective_depth,
                    "occurrences": r.occurrences,
                    "nodes": r.nodes,
                }
                for r in reports
            ],
        },
        lines,
    )
    return 0 if ok else 1


def _cmd_verify_nf(args) -> int:
    ws = _load(args.file)
    host = ws.graph(args.graph)
    rep = check_weak_normal_form_preservation(ws.trs, ws.tgrs(), host)
    lines = [
        "graph normal form: "
        + ("yes" if rep.graph_nf else f"no ({rep.graph_witness})"),
        "term normal form:  "
        + ("yes" if rep.term_nf else f"no ({rep.term_witness})"),
        "graph-nf implies term-nf: " + ("holds" if rep.ok else "FAILS"),
    ]
    _emit(
        args,
        {
            "graph": args.graph,
            "graph_nf": rep.graph_nf,
            "term_nf": rep.term_nf,
            "graph_witness": rep.graph_witness,
            "term_witness": rep.term_witness,
            "ok": rep.ok,
        },
        lines,
    )
    return 0 if rep.ok else 1


def _cmd_verify_cofinality(args) -> int:
    ws = _load(args.file)
    host = ws.graph(args.graph)
    matches = find_matches(host.graph, ws.tgrs())
    rep = check_cofinality_step(ws.sig, host, matches, args.phi)
    lines = [f"matches: {len(matches)}"]
    lines.extend(f"STEP {s}" for s in rep.stages)
    lines.extend(rep.failures)
    lines.append("routes agree" if rep.ok else "routes DISAGREE")
    _emit(
        args,
        {
            "graph": args.graph,
            "matches": len(matches),
            "stages": rep.stages,
            "failures": rep.failures,
            "ok": rep.ok,
        },
        lines,
    )
    return 0 if rep.ok else 1


def _cmd_suite(args) -> int:
    props = None
    if args.properties is not None:
        props = [p for p in args.properties.split(",") if p]
    report = run_property_suite(
        seed=args.seed,
        cases=args.cases,
        depth=args.depth,
        budget=args.budget,
        properties=props,
    )
    _emit(
        args,
        {
            "seed": report.seed,
            "ok": report.ok,
            "properties": [
                {
                    "name": o.name,
                    "cases": o.cases,
                    "failures": len(o.failures),
                    "messages": o.failures,
                    "seconds": round(o.seconds, 3),
                }
                for o in report.outcomes
            ],
        },
        report.lines(),
    )
    return 0 if report.ok else 1


def _cmd_dot(args) -> int:
    ws = _load(args.file)
    host = ws.graph(args.graph)
    if (args.rule is None) != (args.at is None):
        raise ValueError("--rule and --at must be given together")
    if args.rule is not None:
        match = _find_match(ws, host, args.rule, args.at)
        drv, _ = derive_rational(host, match)
        text = export_dot(drv, name=args.graph)
    else:
        text = export_dot(host, name=args.graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


def natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def indices(text: str) -> Optional[List[int]]:
    """Comma-separated integers, empty items skipped; '' keeps the default."""
    out = []
    for x in filter(None, text.split(",")):
        try:
            out.append(int(x))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {x!r}") from None
    return out if text else None


def _add_common(p, file=True, graph=False, depth=False, budget=False):
    if file:
        p.add_argument("file", help="workspace file")
    if graph:
        p.add_argument("--graph", required=True, help="graph name")
    if depth:
        p.add_argument(
            "--depth", type=natural, default=DEFAULT_DEPTH, help="truncation depth"
        )
    if budget:
        p.add_argument(
            "--budget", type=natural, default=DEFAULT_BUDGET, help="cut-node budget"
        )
    p.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgr",
        description="cyclic term graph rewriting with an infinitary term oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a workspace")
    _add_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("unravel", help="unravel a graph to a term")
    _add_common(p, graph=True, depth=True)
    p.set_defaults(fn=_cmd_unravel)

    p = sub.add_parser("matches", help="list rule matches in a graph")
    _add_common(p, graph=True)
    p.set_defaults(fn=_cmd_matches)

    p = sub.add_parser("rewrite", help="derive until normal form")
    _add_common(p, graph=True, depth=True)
    p.add_argument("--steps", type=natural, default=20, help="step limit")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("derive", help="one double-pushout step")
    _add_common(p, graph=True, depth=True)
    p.add_argument("--rule", required=True, help="rule name")
    p.add_argument("--at", required=True, help="node matched by the root")
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("redex-set", help="occurrences induced by a match")
    _add_common(p, graph=True)
    p.add_argument("--rule", required=True, help="rule name")
    p.add_argument("--at", required=True, help="matched node")
    p.add_argument("--from", dest="start", help="start node (default: root)")
    p.add_argument("--maxlen", type=natural, help="occurrence length bound")
    p.add_argument("--count", type=natural, help="how many to list (default 20)")
    p.set_defaults(fn=_cmd_redex_set)

    p = sub.add_parser("oracle", help="develop an infinite redex set")
    _add_common(p, graph=True, depth=True, budget=True)
    p.add_argument("--rule", required=True, help="rule name")
    p.add_argument("--at", required=True, help="matched node")
    p.add_argument("--from", dest="start", help="start node (default: root)")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser(
        "verify-soundness", help="graph steps against the oracle"
    )
    _add_common(p, graph=True, depth=True, budget=True)
    p.add_argument("--rule", help="verify one rule (with --at)")
    p.add_argument("--at", help="verify one node (with --rule)")
    p.set_defaults(fn=_cmd_verify_soundness)

    p = sub.add_parser(
        "verify-nf", help="graph normal form implies term normal form"
    )
    _add_common(p, graph=True)
    p.set_defaults(fn=_cmd_verify_nf)

    p = sub.add_parser(
        "verify-cofinality", help="sequential steps develop all matches"
    )
    _add_common(p, graph=True)
    p.add_argument(
        "--phi", type=indices, help="comma-separated match indices to stage first"
    )
    p.set_defaults(fn=_cmd_verify_cofinality)

    p = sub.add_parser("suite", help="run the seeded property suite")
    _add_common(p, file=False, depth=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=natural, default=50)
    p.add_argument("--budget", type=natural, default=512)
    p.add_argument("--properties", help="comma-separated property names")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("dot", help="export a graph or derivation to DOT")
    p.add_argument("file", help="workspace file")
    p.add_argument("--graph", required=True, help="graph name")
    p.add_argument("--rule", help="render a derivation of this rule")
    p.add_argument("--at", help="node matched by the root")
    p.add_argument("-o", "--out", help="output file (default: stdout)")
    p.set_defaults(fn=_cmd_dot, json=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ParseError is a ValueError; UnsupportedRuleError (bad input, exit 2)
    # subclasses OracleError, so it is caught first
    except (KeyError, ValueError, UnsupportedRuleError) as e:
        message = e.args[0] if e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OracleError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            "error: the input nests too deeply for this depth; lower --depth",
            file=sys.stderr,
        )
        return 2
    except Exception as e:  # a fault of the program, not of the input
        message = " ".join(str(e).split())
        print(
            f"error: internal: {type(e).__name__}"
            + (f": {message}" if message else ""),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
