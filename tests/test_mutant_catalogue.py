"""The mutant catalogue in `tests/mutants.py` stays in step with the code it
mutates and the tests it names, checked without running a mutant."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def catalogue():
    path = ROOT / "tests" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once_and_names_existing_tests():
    """Each mutant's snippet occurs exactly once in its file, and each test
    it must fail is a module-level test function of the file named."""
    mutants = catalogue()
    assert len({m.name for m in mutants}) == len(mutants)
    functions = {}
    for m in mutants:
        text = (ROOT / "src" / "tgr" / m.file).read_text(encoding="utf-8")
        assert text.count(m.before) == 1, m.name
        assert m.catches, m.name
        for test in m.catches:
            path, _, name = test.partition("::")
            if path not in functions:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                functions[path] = {
                    f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                }
            assert name.split("[")[0] in functions[path], f"{m.name}: {test}"
