"""The mutation harness in `tools/mutate.py` still parses the package and
makes every kind of mutant. It runs no mutant; run the tool by hand for that."""

import ast
import importlib.util
import os

import inputproc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutate", os.path.join(ROOT, "tools", "mutate.py"))
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SAMPLE = '''def f(x, y):
    """Docstring."""
    if not x < 1 and y:
        return True
    return x
'''


def test_every_module_round_trips_through_unparse():
    package = os.path.dirname(inputproc.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            assert ast.dump(ast.parse(ast.unparse(tree))) == ast.dump(tree), name


def test_sample_yields_each_kind_of_mutant():
    found = list(mutate.mutants(SAMPLE))
    assert {kind for _, kind, _ in found} == {"compare", "not", "boolop", "const", "bool", "delete"}
    for line, kind, source in found:
        tree = ast.parse(source)
        assert ast.dump(tree) != ast.dump(ast.parse(SAMPLE)), (line, kind)
        # The def and its docstring are never deleted.
        (f,) = tree.body
        assert isinstance(f, ast.FunctionDef) and ast.get_docstring(f) == "Docstring."
    assert sorted((line, kind) for line, kind, _ in found) == [
        (3, "boolop"), (3, "compare"), (3, "const"), (3, "delete"), (3, "not"),
        (4, "bool"), (4, "delete"), (5, "delete")]
