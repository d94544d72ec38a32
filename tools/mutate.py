"""Mutation testing of `src/inputproc` with the standard library only.

    python tools/mutate.py

Each mutant changes one place in one module of the package:

    compare  flip a comparison (`<` to `<=`, `==` to `!=`, `in` to `not in`, ...)
    not      drop a `not`
    boolop   swap `and` and `or`
    const    add one to an integer constant
    bool     flip `True` and `False`
    delete   delete a statement (`pass` where it was the only one)

Docstrings, imports and `def`/`class` statements are never deleted. A mutant
is written, through `ast.unparse`, over the module in a copy of the checkout;
`src/` itself is never edited. Tier-1 then runs with `-x` and a 120 s timeout,
and a failing run or a timeout kills the mutant. One worker runs per CPU,
each in its own copy. The survivors are printed as `file:line kind`, followed
by the totals. A pass over 741 mutants took 22 minutes on a shared two-core
host with Python 3.11; run it by hand, not in CI.
"""

from __future__ import annotations

import ast
import copy
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "inputproc")
TIMEOUT_S = 120
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--hypothesis-seed=0"]

_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_KEPT_STATEMENTS = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node: ast.AST, path: tuple = ()):
    """Every node with its path from the root, as (field, index or None) steps."""
    yield path, node
    for field, value in ast.iter_fields(node):
        if isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ast.AST):
                    yield from _walk(item, (*path, (field, i)))
        elif isinstance(value, ast.AST):
            yield from _walk(value, (*path, (field, None)))


def _follow(node: ast.AST, path: tuple) -> ast.AST:
    for field, index in path:
        node = getattr(node, field) if index is None else getattr(node, field)[index]
    return node


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _edits(node: ast.AST):
    """(line, kind, edit) for each mutation at this node; `edit` changes the
    same node of a copy of the tree in place."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            def flip(n, i=i):
                n.ops[i] = _FLIP[type(n.ops[i])]()
            yield node.lineno, "compare", flip
    elif isinstance(node, ast.BoolOp):
        def swap(n):
            n.op = ast.Or() if isinstance(n.op, ast.And) else ast.And()
        yield node.lineno, "boolop", swap
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        def negate(n):
            n.value = not n.value
        yield node.lineno, "bool", negate
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        def increment(n):
            n.value += 1
        yield node.lineno, "const", increment
    for field, value in ast.iter_fields(node):
        children = value if isinstance(value, list) else [value]
        for i, child in enumerate(children):
            index = i if isinstance(value, list) else None
            if isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                def drop_not(n, field=field, index=index):
                    if index is None:
                        setattr(n, field, getattr(n, field).operand)
                    else:
                        getattr(n, field)[index] = getattr(n, field)[index].operand
                yield child.lineno, "not", drop_not
            if (isinstance(child, ast.stmt) and not _is_docstring(child)
                    and not isinstance(child, _KEPT_STATEMENTS)):
                def delete(n, field=field, index=index):
                    body = getattr(n, field)
                    del body[index]
                    if not body:
                        body.append(ast.Pass())
                yield child.lineno, "delete", delete


def mutants(source: str):
    """(line, kind, mutated source) for every mutant of one module."""
    tree = ast.parse(source)
    for path, node in list(_walk(tree)):
        for line, kind, edit in _edits(node):
            mutant = copy.deepcopy(tree)
            edit(_follow(mutant, path))
            yield line, kind, ast.unparse(ast.fix_missing_locations(mutant))


def _tier1(workdir: str) -> bool:
    """True iff tier-1 passes in this copy of the checkout within the timeout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(workdir, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, *TIER1, f"--basetemp={os.path.join(workdir, '.basetemp')}"]
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    finally:
        # Examples saved by one run would be replayed against the next mutant.
        shutil.rmtree(os.path.join(workdir, ".hypothesis"), ignore_errors=True)
    return proc.returncode == 0


def _survives(copies: queue.Queue, relpath: str, source: str) -> bool:
    workdir = copies.get()
    path = os.path.join(workdir, relpath)
    with open(path, encoding="utf-8") as f:
        original = f.read()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        return _tier1(workdir)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
        copies.put(workdir)


def main() -> int:
    jobs = []
    for name in sorted(os.listdir(os.path.join(ROOT, PACKAGE))):
        if name.endswith(".py"):
            relpath = os.path.join(PACKAGE, name)
            with open(os.path.join(ROOT, relpath), encoding="utf-8") as f:
                jobs += [(relpath, line, kind, src) for line, kind, src in mutants(f.read())]
    workers = os.cpu_count() or 1
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                    ".perfbench_work")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copies: queue.Queue = queue.Queue()
        for i in range(workers):
            workdir = os.path.join(tmp, str(i))
            shutil.copytree(ROOT, workdir, ignore=ignore)
            copies.put(workdir)
        if not _tier1(copies.queue[0]):
            print("tier-1 fails on the unmutated checkout", file=sys.stderr)
            return 1
        print(f"{len(jobs)} mutants, {workers} workers", file=sys.stderr)
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(_survives, copies, relpath, src) for relpath, _, _, src in jobs]
            survivors = [job[:3] for job, future in zip(jobs, futures) if future.result()]
    for relpath, line, kind in survivors:
        print(f"{relpath}:{line} {kind}")
    print(f"{len(jobs)} mutants, {len(jobs) - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
