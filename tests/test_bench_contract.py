"""The traced benchmark reads `tgr` by name from outside (`bench/spans.py`):
the functions it wraps, two methods, the property table, and the oracle
report's attributes that its counter reads.  On a fresh import of `tgr`, as
the benchmark makes one, these tests check that each of those names still
exists and that one traced `verify_soundness` runs, so a simplification of
`src/tgr` cannot silently break the traced benchmark.  They only read
`bench/`."""

import ast
import dataclasses
import importlib
import sys
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """`bench/spans.py` as a module, compiled here so no bytecode cache is
    written beside it."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def tgr_modules():
    return [m for m in sys.modules if m == "tgr" or m.startswith("tgr.")]


@pytest.fixture
def tgr():
    """`tgr` imported afresh; the modules the other tests share are put
    back afterwards."""
    saved = {m: sys.modules.pop(m) for m in tgr_modules()}
    try:
        yield importlib.import_module("tgr")
    finally:
        for m in tgr_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def oracle_counter_reads():
    """The attributes `_count_oracle` reads off the oracle's report."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (fn,) = [
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == "_count_oracle"
    ]
    report = fn.args.args[-1].arg
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == report
    }


def test_every_name_the_traced_run_reads_exists(tgr):
    spans = load_spans()
    for module, name in spans.FUNCTIONS:
        assert callable(getattr(sys.modules[f"tgr.{module}"], name, None)), (
            f"tgr.{module}.{name}"
        )
    assert isinstance(tgr.graphs.TermGraph.__dict__["of"], staticmethod)
    assert callable(tgr.parallel.RationalRedexSet.__dict__["count_below"])
    assert isinstance(tgr.harness.PROPERTIES, dict) and tgr.harness.PROPERTIES
    report = tgr.parallel.OracleReport
    fields = {f.name for f in dataclasses.fields(report)}
    reads = oracle_counter_reads()
    assert reads >= {"samples", "depth", "effective_depth"}
    for attr in reads:
        assert attr in fields or hasattr(report, attr), f"OracleReport.{attr}"


def test_one_traced_soundness_check_runs_and_uninstalls(tgr):
    spans = load_spans()
    sig = tgr.Signature.of({"f": 1, "g": 1})
    rule = tgr.RewriteRule.of(
        "Rf", tgr.parse_term(sig, "f(x)"), tgr.parse_term(sig, "g(x)")
    )
    loop = tgr.RationalTerm(
        tgr.TermGraph.of(["n"], {"n": "f"}, {"n": ("n",)}), "n"
    )
    (match,) = tgr.find_matches(loop.graph, tgr.graph_of_rule(rule, sig))
    originals = {
        (module, name): getattr(sys.modules[f"tgr.{module}"], name)
        for module, name in spans.FUNCTIONS
    }
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        report = tgr.harness.verify_soundness(sig, loop, match, depth=8)
    finally:
        uninstall()
    assert report.ok
    calls = {name: row[0] for name, row in tracer.totals().items()}
    assert calls["parallel.infinite_parallel_reduce"] == 1
    assert calls["dpo.derive_rational"] == 1
    assert tracer.counts["oracle.samples"] > 0
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[f"tgr.{module}"], name) is fn
