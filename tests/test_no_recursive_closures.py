"""No nested function in ``src/`` refers to its own name.

A recursive inner function holds itself through its closure cell, so
every call of the function that defines it leaves a reference cycle, and
everything the closure refers to, for the cyclic collector.  The
recursions in ``src/`` are module-level functions or methods that take
their state as arguments instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _nested_functions(tree: ast.AST):
    """Every function defined inside another function or a lambda."""
    stack = [(tree, False)]
    while stack:
        node, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if in_function and not isinstance(child, ast.Lambda) \
                    and is_function:
                yield child
            stack.append((child, in_function or is_function))


def _refers_to_itself(function: ast.FunctionDef) -> bool:
    return any(isinstance(node, ast.Name) and node.id == function.name
               for statement in function.body
               for node in ast.walk(statement))


def test_no_nested_function_refers_to_its_own_name():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{function.lineno} "
                  f"{function.name}"
                  for function in _nested_functions(tree)
                  if _refers_to_itself(function)]
    assert found == []


def test_the_scan_finds_a_recursive_closure():
    tree = ast.parse(
        "def outer(n):\n"
        "    def inner(k):\n"
        "        return 0 if k == 0 else inner(k - 1)\n"
        "    def flat(k):\n"
        "        return k\n"
        "    return inner(n) + flat(n)\n"
        "def top(k):\n"
        "    return 0 if k == 0 else top(k - 1)\n")
    assert [f.name for f in _nested_functions(tree)
            if _refers_to_itself(f)] == ["inner"]
