"""The graph engine (`dpo`) and the term oracle (`parallel`) share no
rewriting code: neither module imports the other, nor `harness`, the module
that plays them against each other.  Read from the imports with `ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tgr"

ROUTES = {"dpo": {"parallel", "harness"}, "parallel": {"dpo", "harness"}}


def imported_modules(tree: ast.Module):
    """The `tgr` modules a module imports, anywhere in it: `from .x import
    y`, `from . import x`, `import tgr.x` and `from tgr.x import y` alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:  # absolute: only tgr's own modules count
                if path[:1] != ["tgr"]:
                    continue
                path = path[1:]
            if path:
                yield path[0]
            else:  # from . import x, from tgr import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "tgr" and len(path) > 1:
                    yield path[1]


def test_the_two_routes_do_not_import_each_other():
    for module, forbidden in ROUTES.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert set(imported_modules(tree)) & forbidden == set(), module


def test_the_check_sees_every_import_form():
    tree = ast.parse(
        "from .graphs import TermGraph\n"
        "from . import parallel\n"
        "import tgr.harness\n"
        "from tgr.dpo import derive\n"
        "import os.path\n"
        "from typing import Dict\n"
        "def late():\n    from .rules import TRS\n"
    )
    assert sorted(imported_modules(tree)) == [
        "dpo", "graphs", "harness", "parallel", "rules"
    ]
