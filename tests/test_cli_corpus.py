"""A golden corpus of CLI runs: exit code, stdout and stderr, byte for byte.

`tests/corpus/cases.json` holds one record per invocation of `tgr` on the
workspaces beside it. The replay test runs each one in process and compares
all three outputs with the record. Wall-clock seconds in `tgr suite` output
are masked. To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_cli_corpus.py

which prints the argv of every record that is new or whose output changed.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
CASES = CORPUS / "cases.json"

_WORK = [
    ["check"],
    ["unravel", "--graph", "Loop", "--depth", "3"],
    ["unravel", "--graph", "Tail", "--depth", "5"],
    ["matches", "--graph", "Loop"],
    ["matches", "--graph", "Tail"],
    ["rewrite", "--graph", "Tail"],
    ["rewrite", "--graph", "Loop", "--steps", "3", "--depth", "4"],
    ["derive", "--graph", "Loop", "--rule", "Rf", "--at", "n"],
    ["derive", "--graph", "Tail", "--rule", "Rcdr", "--at", "c"],
    ["redex-set", "--graph", "Tail", "--rule", "Rcdr", "--at", "c",
     "--maxlen", "12"],
    ["redex-set", "--graph", "Loop", "--rule", "Rf", "--at", "n",
     "--count", "5"],
    ["redex-set", "--graph", "Tail", "--rule", "Rcdr", "--at", "c",
     "--from", "k", "--count", "4"],
    ["oracle", "--graph", "Loop", "--rule", "Rf", "--at", "n"],
    ["oracle", "--graph", "Tail", "--rule", "Rcdr", "--at", "c",
     "--depth", "8", "--budget", "64"],
    ["verify-soundness", "--graph", "Tail", "--depth", "8"],
    ["verify-soundness", "--graph", "Loop", "--rule", "Rf", "--at", "n",
     "--depth", "8"],
    ["verify-nf", "--graph", "Tail"],
    ["verify-nf", "--graph", "Loop"],
    ["verify-cofinality", "--graph", "Tail"],
    ["verify-cofinality", "--graph", "Tail", "--phi", "0"],
    # bad input
    ["unravel", "--graph", "Nope"],
    ["derive", "--graph", "Loop", "--rule", "Rzz", "--at", "n"],
    ["derive", "--graph", "Loop", "--rule", "Rcdr", "--at", "n"],
    ["derive", "--graph", "Loop", "--rule", "Rf", "--at", "zz"],
    ["redex-set", "--graph", "Loop", "--rule", "Rf", "--at", "zz"],
    ["verify-soundness", "--graph", "Loop", "--rule", "Rf"],
    ["verify-cofinality", "--graph", "Tail", "--phi", "x"],
]

_LOOP = [
    ["check"],
    ["unravel", "--graph", "Loop", "--depth", "4"],
    ["matches", "--graph", "Loop"],
    ["rewrite", "--graph", "Loop"],
    ["derive", "--graph", "Loop", "--rule", "RI", "--at", "n"],
    ["redex-set", "--graph", "Loop", "--rule", "RI", "--at", "n",
     "--maxlen", "3"],
    ["oracle", "--graph", "Loop", "--rule", "RI", "--at", "n"],
    # not even depth 1 fits: the budget still caps the members kept
    ["oracle", "--graph", "Loop", "--rule", "RI", "--at", "n", "--budget", "0"],
    ["verify-soundness", "--graph", "Loop"],
    ["verify-nf", "--graph", "Loop"],
    ["verify-cofinality", "--graph", "Loop"],
]

_COPY = [
    ["check"],
    ["matches", "--graph", "Host"],
    ["rewrite", "--graph", "Host", "--depth", "4"],
    ["derive", "--graph", "Host", "--rule", "Rinf", "--at", "n"],
    ["redex-set", "--graph", "Host", "--rule", "Rinf", "--at", "n"],
    ["oracle", "--graph", "Host", "--rule", "Rinf", "--at", "n"],
    ["verify-soundness", "--graph", "Host"],
    ["verify-nf", "--graph", "Host"],
]

_BESIDE = [
    ["check"],
    ["redex-set", "--graph", "Host", "--rule", "Rside", "--at", "m"],
    ["verify-soundness", "--graph", "Host"],
]

# one f loop under f(f(x)) -> g(x): the match breaks the identification
# condition, and both the stepper and a single derivation reject it
_IDENT = [
    ["rewrite", "--graph", "G"],
    ["derive", "--graph", "G", "--rule", "R", "--at", "n"],
]


def _with_file(cmd, path):
    return [cmd[0], path] + cmd[1:]


def argvs():
    """Every recorded invocation, in order: each in text and in --json."""
    base = (
        [_with_file(c, "work.tgr") for c in _WORK]
        + [_with_file(c, "loop.tgr") for c in _LOOP]
        + [_with_file(c, "copy.tgr") for c in _COPY]
        + [
            ["check", "clash.tgr"],
            ["check", "broken.tgr"],
            ["check", "absent.tgr"],
            ["unravel", "work.tgr", "--graph", "Loop", "--depth", "-1"],
            ["suite", "--cases", "2", "--seed", "3",
             "--properties", "soundness,confluence"],
        ]
    )
    out = []
    for argv in base:
        out.append(argv)
        out.append(argv + ["--json"])
    out += [
        ["dot", "work.tgr", "--graph", "Tail"],
        ["dot", "work.tgr", "--graph", "Loop", "--rule", "Rf", "--at", "n"],
        ["dot", "loop.tgr", "--graph", "Loop", "--rule", "RI", "--at", "n"],
        ["dot", "copy.tgr", "--graph", "Host", "--rule", "Rinf", "--at", "n"],
        ["dot", "work.tgr", "--graph", "Loop", "--rule", "Rf"],
        ["dot", "work.tgr", "--graph", "Loop", "--json"],
    ]
    for argv in [_with_file(c, "beside.tgr") for c in _BESIDE] + [
        ["suite", "--cases", "1", "--properties", "soundness,soundness"],
        ["suite", "--cases", "1", "--properties", ","],
    ] + [_with_file(c, "ident.tgr") for c in _IDENT]:
        out.append(argv)
        out.append(argv + ["--json"])
    return out


_SECONDS = re.compile(r'(\d+\.\d+s$|"seconds": \d+(\.\d+)?)', re.M)


def _mask(argv, text):
    if argv[0] != "suite":
        return text
    return _SECONDS.sub("<seconds>", text)


def run_cli(argv):
    """Run `tgr argv` in process from the corpus directory."""
    from tgr import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    return {
        "argv": list(argv),
        "code": code,
        "stdout": _mask(argv, out.getvalue()),
        "stderr": _mask(argv, err.getvalue()),
    }


def test_cli_output_matches_the_golden_corpus():
    cases = json.loads(CASES.read_text(encoding="utf-8"))
    assert [c["argv"] for c in cases] == argvs()
    for case in cases:
        assert run_cli(case["argv"]) == case, " ".join(case["argv"])


def test_corpus_covers_every_subcommand_and_exit_code():
    from tgr import cli

    cases = json.loads(CASES.read_text(encoding="utf-8"))
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert {c["argv"][0] for c in cases} == set(subcommands)
    assert {c["code"] for c in cases} == {0, 1, 2}


if __name__ == "__main__":
    sys.path.insert(0, str(CORPUS.parents[1] / "src"))
    records = [run_cli(a) for a in argvs()]
    old = []
    if CASES.exists():
        old = json.loads(CASES.read_text(encoding="utf-8"))
    for record in records:
        if record not in old:
            print("changed:", " ".join(record["argv"]))
    CASES.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} cases in {CASES}")
