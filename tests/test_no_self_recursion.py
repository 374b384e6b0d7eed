"""No function in `src/tgr` calls itself, so no call stack grows with the
data: a bare-name call inside a function of that name, or `self.<name>(...)`
inside a method of that name, is self-recursion.  None is allowed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tgr"

ALLOWED: set = set()


def _calls_itself(fn: ast.FunctionDef, is_method: bool) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if is_method:
            if (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def self_recursive(tree: ast.Module):
    """Names of the functions and methods in `tree` that call themselves."""
    todo = [(tree, False)]
    while todo:
        parent, in_class = todo.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(node, in_class):
                    yield node.name
                todo.append((node, False))
            elif isinstance(node, ast.ClassDef):
                todo.append((node, True))
            else:
                todo.append((node, in_class))


def test_no_function_calls_itself():
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in self_recursive(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED


def test_the_check_sees_both_forms_and_skips_module_calls():
    tree = ast.parse(
        "def walk(n):\n    return [walk(m) for m in n]\n"
        "class T:\n"
        "    def size(self):\n        return 1 + self.size()\n"
        "    def unravel(self, d):\n        return unravel(self, d)\n"
    )
    assert sorted(self_recursive(tree)) == ["size", "walk"]
