"""`TermGraph.of` is the only code in `src/tgr` that builds a `TermGraph`, so
every graph's node index is sorted and its references are checked in one
place.  Read from the calls with `ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tgr"


def constructor_calls(tree: ast.Module):
    """(line, enclosing definitions) of each call of the `TermGraph` class:
    by its name, by an `import ... as` alias of it, or by an attribute path
    ending in it (`graphs.TermGraph(...)`)."""
    names = {"TermGraph"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(
                a.asname for a in node.names if a.name == "TermGraph" and a.asname
            )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id in names) or (
                    isinstance(f, ast.Attribute) and f.attr == "TermGraph"
                ):
                    yield child.lineno, ".".join(scope)
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_only_termgraph_of_builds_a_termgraph():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, scope in constructor_calls(tree):
            found.setdefault(scope, []).append(f"{path.name}:{line}")
    assert list(found) == ["TermGraph.of"], found
    assert len(found["TermGraph.of"]) == 1
    assert found["TermGraph.of"][0].startswith("graphs.py:")


def test_the_check_sees_every_call_form():
    tree = ast.parse(
        "from .graphs import TermGraph as TG\n"
        "from . import graphs\n"
        "class TermGraph:\n"
        "    @staticmethod\n"
        "    def of(n, l, s):\n        return TermGraph(n, l, s)\n"
        "def direct():\n    return TermGraph((), {}, {})\n"
        "def aliased():\n    return TG((), {}, {})\n"
        "def qualified():\n    return graphs.TermGraph((), {}, {})\n"
        "def nested():\n    return [len(TermGraph((), {}, {}).nodes)]\n"
        "def fine():\n    return TermGraph.of((), {}, {})\n"
        "top = TermGraph((), {}, {})\n"
    )
    assert [scope for _, scope in constructor_calls(tree)] == [
        "TermGraph.of", "direct", "aliased", "qualified", "nested", "",
    ]
