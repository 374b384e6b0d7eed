"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py

The smoke runs shrink the workloads' size ladders so that a whole pass takes
a fraction of a second; the code paths are the ones a full run takes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "REWRITE_SIZES", (25, 50))
    monkeypatch.setattr(
        workloads,
        "ORACLE_CLASSES",
        [c for c in workloads.ORACLE_CLASSES if c[0] == "unary"][:4]
        + [("shared", 8, 16, "Rf")],
    )
    monkeypatch.setattr(workloads, "EQUAL_SIZES", (50, 100))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def run_main(capsys, *args: str):
    code = run.main(list(args))
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in SPEC["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in run.PER_LAYER]


# a layer metric each workload's traced run must see (the wrappers are live)
TRACED = {
    "rewrite": "dpo.pushout.self_ms",
    "oracle": "parallel._cut_graph.calls",
    "suite": "harness.property.cofinality.ms",
    "equal": "graphs.truncated_equal.calls",
}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_prints_every_metric(small, capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = run_main(
            capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
            "--trace", str(trace),
        )
        assert code == 0
        names = [m["name"] for m in SPEC[section]]
        assert list(result["metrics"]) == names
        for m in SPEC[section]:
            printed = [ln for ln in lines if ln.split()[:1] == [m["name"]]]
            assert printed and printed[0].split()[2] == m["unit"], m["name"]
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith("failed_ratio") for ln in lines)
        assert result["attempted"] >= 1
        assert result["correct"] is True
        if workload != "equal":
            assert result["failed"] == 0
    assert result["metrics"][TRACED[workload]]["value"] > 0
    assert (small / f"spans-{workload}-s3.tsv").is_file()


def test_equal_failures_are_recursion_errors_on_long_paths(small, capsys, monkeypatch):
    # with the full size ladder the 400- and 600-node carriers fail; here the
    # bisimilar 200-node ring compared to twice its length recurses 400 deep
    monkeypatch.setattr(workloads, "EQUAL_SIZES", (50, 100, 200))
    code, lines, result = run_main(
        capsys, "--workload", "equal", "--seed", "1", "--seconds", "0.01",
        "--trace", "0",
    )
    assert code == 0 and result["correct"] is True
    assert result["failed"] >= 1
    kinds = [ln for ln in lines if ln.strip().startswith("failure:")]
    assert kinds and all("RecursionError" in ln for ln in kinds)


def test_a_wrong_reference_is_counted_as_failed(small, capsys, monkeypatch):
    real = workloads.normal_form

    def off_by_one(host):
        expected, steps = real(host)
        return expected, steps + 1

    monkeypatch.setattr(workloads, "normal_form", off_by_one)
    code, lines, result = run_main(
        capsys, "--workload", "rewrite", "--seed", "1", "--seconds", "0.01",
        "--trace", "0",
    )
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    ratio = [ln for ln in lines if ln.startswith("failed_ratio")][0]
    assert float(ratio.split()[1]) == 1.0

    # every failed input was written out, and the tgr command replays it
    from tgr import cli

    files = sorted((small / "failures").glob("rewrite-s1-*.tgr"))
    assert len(files) == 2 * len(workloads.REWRITE_FAMILIES)
    text = files[0].read_text()
    command = [ln for ln in text.splitlines() if ln.startswith("# replay: ")][0]
    argv = command[len("# replay: tgr "):].replace("FILE", str(files[0])).split()
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_reference_normal_form_agrees_with_the_engine():
    import tgr

    arity = {"a": 0, "f": 1, "g": 1, "I": 1, "d": 1, "p": 2, "cdr": 1, "cons": 2, None: 0}
    for t in range(300):
        rng = random.Random(t)
        ids = [f"n{i}" for i in range(1, rng.randint(1, 8) + 1)]
        spec = {}
        for x in ids:
            lbl = rng.choice(["a", "f", "g", "I", "d", "p", "cdr", "cons", None])
            spec[x] = (lbl, tuple(rng.choice(ids) for _ in range(arity[lbl])))
        text = "\n".join(
            [workloads.SIG, workloads.format_graph("G", spec, "n1"), workloads.RULES]
        )
        ws = tgr.parse_workspace(text)
        result, steps, reached = tgr.rewrite_sequence(ws.graph("G"), ws.tgrs(), 50)
        expected, count = refcheck.normal_form(workloads.ref_of_spec(spec, "n1"))
        assert reached and len(steps) == count, spec
        assert refcheck.bisimilar(refcheck.RefGraph.of_rational(result), expected), spec


def test_reference_bisimilarity_tells_pairs_apart():
    a = refcheck.RefGraph({"x": "f", "y": "f"}, {"x": ("y",), "y": ("x",)}, "x", {})
    b = refcheck.RefGraph({"u": "f"}, {"u": ("u",)}, "u", {})
    c = refcheck.RefGraph({"u": "f", "v": "g"}, {"u": ("v",), "v": ("u",)}, "u", {})
    hole = refcheck.RefGraph({"u": "f", "h": None}, {"u": ("h",)}, "u", {})
    var = refcheck.RefGraph({"u": "f", "h": None}, {"u": ("h",)}, "u", {"h": "h"})
    assert refcheck.bisimilar(a, b)
    assert not refcheck.bisimilar(a, c)
    assert not refcheck.bisimilar(hole, var)
    assert refcheck.bisimilar(hole, hole)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rewrite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
