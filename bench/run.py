"""Benchmark of `tgr`: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or from any copy of it holding `src/tgr` and
`bench/`).  The workloads and the layer each one stresses are described in
`bench/workloads.json`.  With `--trace 0` the run sets up nine times (the
median is `setup_s`), then times whole passes of ops for at least S seconds
with tracing off.  With `--trace 1` it sets up once, times whole passes for
S/2 seconds untraced, then the same ops again traced, and reports per-layer
metrics and the tracing overhead.  Each op's result is checked against an
answer the benchmark derives itself; a failed op is counted, never aborts
the run, and its input is written under `bench/out/failures/` as workspace
text with the command that replays it.  Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import spans  # the script's own directory is first on sys.path
from workloads import WORKLOADS, Plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-ups per untraced run; setup_s is their median.  Each fresh import of
# tgr leaves about 0.7 MB behind, so peak_rss_mb includes a fixed share for
# the repeated set-ups.
SETUPS = 9
WARMUP_OPS = 4  # untimed ops before the timed phase
MODULES = ("dpo", "graphs", "harness", "parallel", "parsing", "rules", "terms")

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

_CALLS_AND_SELF = [
    "parallel.count_below",
    "parallel.enumerate_occurrences",
    "parallel._cut_graph",
    "parallel.develop_rational",
    "parallel.infinite_parallel_reduce",
    "graphs.rational_approx_leq",
    "graphs.truncated_equal",
    "graphs.bisim_equal",
    "graphs._refine",
    "graphs.minimize",
    "graphs.unravel",
    "rules.unravel_rule",
    "rules.graph_of_rule",
    "rules.orthogonality_conflicts",
]
PER_LAYER: List[Tuple[str, str]] = (
    [
        ("dpo.find_matches.calls", "calls/op"),
        ("dpo.find_matches.self_ms", "ms/op"),
        ("dpo.find_matches.used_ratio", "ratio"),
        ("dpo.derive.self_ms", "ms/op"),
        ("dpo.pushout_complement.self_ms", "ms/op"),
        ("dpo.pushout.self_ms", "ms/op"),
        ("dpo.track_substitution.self_ms", "ms/op"),
        ("dpo.derive_rational.calls", "calls/op"),
        ("graphs.check_morphism.calls", "calls/op"),
        ("graphs.check_morphism.self_ms", "ms/op"),
        ("graphs.find_tree_morphisms.self_ms", "ms/op"),
        ("graphs.find_tree_morphisms.candidates", "nodes/call"),
        ("graphs.find_tree_morphisms.hit_ratio", "ratio"),
        ("graphs.termgraph_of.calls", "calls/op"),
        ("graphs.termgraph_of.nodes", "nodes/call"),
        ("graphs.termgraph_of.self_ms", "ms/op"),
    ]
    + [(f"{n}.{m}", u) for n in _CALLS_AND_SELF for m, u in (("calls", "calls/op"), ("self_ms", "ms/op"))]
    + [
        ("parallel._cut_graph.nodes", "nodes/call"),
        ("parallel.enumerate_occurrences.occurrences", "occ/call"),
        ("oracle.samples", "samples/call"),
        ("oracle.doublings", "count/call"),
        ("oracle.budget_capped_ratio", "ratio"),
        ("graphs.minimize.shrink_ratio", "ratio"),
        ("harness.gen_case.self_ms", "ms/op"),
        ("harness.shrink_case.calls", "calls/op"),
    ]
    + [(f"harness.property.{p}.ms", "ms/call") for p in (
        "soundness",
        "enumerations",
        "confluence",
        "development-order",
        "nf-preservation",
        "morphism-substitution",
        "redex-correspondence",
        "cofinality",
    )]
    + [
        ("parallel.join_parallel.self_ms", "ms/op"),
        ("parallel.complete_development.self_ms", "ms/op"),
        ("parallel.reduce.self_ms", "ms/op"),
        ("parallel.find_redexes.self_ms", "ms/op"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class SetupError(Exception):
    """The checkout does not hold the program to measure."""


def load_tgr() -> SimpleNamespace:
    """Import `tgr` afresh from this checkout's `src` (never an installed
    copy), so every set-up pays the import."""
    src = ROOT / "src"
    if not (src / "tgr" / "__init__.py").is_file():
        raise SetupError(f"no tgr package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "tgr" or m.startswith("tgr.")]:
        del sys.modules[name]
    tgr = importlib.import_module("tgr")
    if Path(tgr.__file__).resolve().parent != (src / "tgr").resolve():
        raise SetupError(f"imported tgr from {tgr.__file__}, not from {src}")
    return SimpleNamespace(**{m: sys.modules[f"tgr.{m}"] for m in MODULES})


def set_up(workload: str, seed: int) -> Tuple[Plan, float]:
    t0 = time.perf_counter()
    tgr = load_tgr()
    plan = WORKLOADS[workload](tgr, seed)
    return plan, time.perf_counter() - t0


def environment() -> Dict[str, Any]:
    sha = "unknown"  # the checkout a benchmark runs in need not be a git repo
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "machine": platform.machine(),
    }


class Phase:
    """Outcome of running a sequence of ops: latencies, failures, checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.completed: List[Tuple[str, float]] = []  # (input key, latency)
        self.groups: Dict[str, List[Tuple[float, int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # ops that returned a result the check rejected
        self.failure_kinds: Dict[str, int] = {}
        self.written: set = set()
        self.elapsed = 0.0

    def run_op(self, plan: Plan, i: int) -> None:
        op = plan.op_at(i)
        error: Optional[BaseException] = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as e:  # a failing op is counted, never fatal
            error = e
        latency = time.perf_counter() - t0
        self.attempted += 1
        if error is not None:
            kind = describe_error(error)
            message = f"{type(error).__name__}: {error}"
        else:
            message = op.check(result)
            kind = "wrong result" if message else None
        if kind is None:
            self.completed.append((op.key, latency))
            self.groups.setdefault(op.group, []).append((latency, op.steps(result)))
            return
        self.failed += 1
        self.wrong += error is None
        self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1
        if op.key not in self.written:
            self.written.add(op.key)
            write_failure(self.workload, self.seed, op, message)

    def run(self, plan: Plan, seconds: float = 0.0, ops: Optional[int] = None) -> int:
        """Whole passes until `seconds` have gone by, or exactly `ops` ops."""
        start = time.perf_counter()
        i = 0
        while True:
            if ops is not None and i >= ops:
                break
            self.run_op(plan, i)
            i += 1
            if ops is None and i % plan.pass_len == 0:
                if time.perf_counter() - start >= seconds:
                    break
        self.elapsed = time.perf_counter() - start
        return i


def describe_error(e: BaseException) -> str:
    """Exception type plus the outermost and innermost `tgr` frames."""
    frames = [
        f for f in traceback.extract_tb(e.__traceback__)
        if f"{os.sep}tgr{os.sep}" in f.filename and not f.name.startswith("<")
    ]
    where = ""
    if frames:
        outer, inner = frames[0].name, frames[-1].name
        where = f" in {outer}" + (f" ({inner})" if inner != outer else "")
    return f"{type(e).__name__}{where}"


def write_failure(workload: str, seed: int, op, message: str) -> None:
    folder = OUT / "failures"
    folder.mkdir(parents=True, exist_ok=True)
    first = message.splitlines()[0] if message else ""
    text = f"# failed: {first}\n" + op.replay()
    (folder / f"{workload}-s{seed}-{op.key}.tgr").write_text(text)


def input_latencies(completed: List[Tuple[str, float]]) -> List[float]:
    """Each completed op's latency, taken as the mean over every run of the
    same input.  On a shared host the CPU speed can flip between two levels
    within seconds (measured on a 2-vCPU VM: the same pass took 1.1 s or
    1.9 s); the median of raw samples then jumps between the levels, while
    the mean over an input's repetitions moves smoothly with the slow share.
    """
    runs: Dict[str, List[float]] = {}
    for key, latency in completed:
        runs.setdefault(key, []).append(latency)
    mean = {key: statistics.fmean(xs) for key, xs in runs.items()}
    return [mean[key] for key, _ in completed]


def tail(latencies: List[float]) -> Tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else float("nan")), 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def growth(phase: Phase, unit: str) -> Dict[str, Dict[str, float]]:
    rows = {}
    for group, samples in phase.groups.items():
        ms = [lat * 1000 for lat, _ in samples]
        row = {"ops": len(samples), "median_ms": statistics.median(ms)}
        if unit == "ms/step":
            steps = sum(s for _, s in samples)
            row["steps_per_op"] = steps / len(samples)
            row["ms_per_step"] = sum(ms) / steps if steps else float("nan")
        rows[group] = row
    return dict(sorted(rows.items(), key=lambda kv: _group_key(kv[0])))


def _group_key(group: str):
    parts = group.replace("=", " ").split()
    return [int(p) if p.isdigit() else p for p in parts]


# Per-call means: the counter of the same name over the calls of a span.
PER_CALL = {
    "graphs.find_tree_morphisms.candidates": "graphs.find_tree_morphisms",
    "graphs.termgraph_of.nodes": "graphs.termgraph_of",
    "parallel._cut_graph.nodes": "parallel._cut_graph",
    "parallel.enumerate_occurrences.occurrences": "parallel.enumerate_occurrences",
    "oracle.samples": "parallel.infinite_parallel_reduce",
    "oracle.doublings": "parallel.infinite_parallel_reduce",
    "oracle.budget_capped_ratio": "parallel.infinite_parallel_reduce",
    "graphs.minimize.shrink_ratio": "graphs.minimize",
}


def per_layer(tracer: spans.Tracer, ops: int, untraced: Phase, traced: Phase) -> Dict[str, float]:
    """Per-layer metrics from the spans and counts of the traced phase."""
    totals = tracer.totals()  # span name -> (calls, inclusive s, self s)
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0  # 0 when the workload never calls it

    values = {
        "dpo.find_matches.used_ratio": ratio(
            calls("dpo.derive"), counts.get("dpo.find_matches.matches", 0)
        ),
        "graphs.find_tree_morphisms.hit_ratio": ratio(
            counts.get("graphs.find_tree_morphisms.hits", 0),
            counts.get("graphs.find_tree_morphisms.candidates", 0),
        ),
        "trace.untraced_ops_per_s": ops / untraced.elapsed,
        "trace.traced_ops_per_s": ops / traced.elapsed,
        "trace.overhead_ratio": traced.elapsed / untraced.elapsed,
    }
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        n, inclusive, own = totals.get(base, (0, 0.0, 0.0))
        if name in PER_CALL:
            values[name] = ratio(counts.get(name, 0), calls(PER_CALL[name]))
        elif stat == "calls":
            values[name] = n / ops
        elif stat == "self_ms":
            values[name] = own * 1000 / ops
        elif name.startswith("harness.property."):
            values[name] = ratio(inclusive * 1000, n)
    return values


def run_untraced(workload: str, seed: int, seconds: float):
    setups = []
    for _ in range(SETUPS):
        plan = None  # drop the previous set-up before building the next
        plan, took = set_up(workload, seed)
        setups.append(took)
    phase = Phase(workload, seed)
    Phase(workload, seed).run(plan, ops=min(WARMUP_OPS, plan.pass_len))
    phase.run(plan, seconds)
    xs = input_latencies(phase.completed)
    p_tail, pct = tail(xs)
    metrics = {
        "ops_per_s": len(xs) / phase.elapsed,
        "op_p50_ms": statistics.median(xs) * 1000 if xs else float("nan"),
        "op_tail_ms": p_tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "tail_percentile": pct,
        "samples": len(xs),
        "failed_ratio": phase.failed / phase.attempted,
        "setup_runs_s": setups,
        "timed_s": phase.elapsed,
        "passes": phase.attempted / plan.pass_len,
        "inputs": plan.inputs,
        "growth_unit": plan.growth_unit,
        "growth": growth(phase, plan.growth_unit),
    }
    return phase, metrics, detail


def run_traced(workload: str, seed: int, seconds: float):
    plan, _ = set_up(workload, seed)
    Phase(workload, seed).run(plan, ops=min(WARMUP_OPS, plan.pass_len))
    untraced = Phase(workload, seed)
    ops = untraced.run(plan, seconds / 2)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    traced = Phase(workload, seed)
    op_span = tracer.name_id(f"op.{workload}")
    inner = plan.op_at

    def traced_op_at(i: int):
        op = inner(i)
        call = op.call

        def wrapped():
            tracer.op_id = i
            idx = tracer.begin(op_span)
            try:
                return call()
            finally:
                tracer.finish(idx)

        return dataclasses.replace(op, call=wrapped)

    plan.op_at = traced_op_at
    try:
        traced.run(plan, ops=ops)
    finally:
        uninstall()
        plan.op_at = inner
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{workload}-s{seed}.tsv"
    tracer.write(str(span_file))
    metrics = per_layer(tracer, ops, untraced, traced)
    detail = {
        "ops": ops,
        "spans": len(tracer.start),
        "span_file": os.path.relpath(span_file, ROOT),
        "failed_ratio": traced.failed / traced.attempted,
    }
    return untraced, traced, metrics, detail


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = environment()
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha'][:12]}"
    )
    try:
        if args.trace:
            untraced, traced, metrics, detail = run_traced(args.workload, args.seed, args.seconds)
            phases = [untraced, traced]
            units = dict(PER_LAYER)
        else:
            phase, metrics, detail = run_untraced(args.workload, args.seed, args.seconds)
            phases = [phase]
            units = dict(END_TO_END)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    kinds: Dict[str, int] = {}
    for p in phases:
        for k, v in p.failure_kinds.items():
            kinds[k] = kinds.get(k, 0) + v
    for name, unit in units.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{detail['tail_percentile']:.2f}, {detail['samples']} samples)"
        elif name == "setup_s":
            extra = f"  (median of {SETUPS} set-ups)"
        print(f"{name:45s} {fmt(metrics[name]):>12s} {unit}{extra}")
    print(
        f"{'failed_ratio':45s} {fmt(failed / attempted):>12s} ratio"
        f"  ({failed} of {attempted} attempted)"
    )
    for kind, n in sorted(kinds.items()):
        print(f"  failure: {kind}: {n}")
    if "growth" in detail:
        print(f"growth ({detail['growth_unit']}):")
        for group, row in detail["growth"].items():
            cells = "  ".join(f"{k} {fmt(v)}" for k, v in row.items())
            print(f"  {group:24s} {cells}")

    OUT.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failure_kinds": kinds,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": detail,
    }
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    result = {
        "correct": all(p.wrong == 0 for p in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
