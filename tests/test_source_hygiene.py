"""Static checks over src/fdmimo that no linter is installed to make.

A parameter that no code reads is dead API, and an import that no code
uses is dead weight; both are easy to leave behind when a caller goes
away.  The checks walk the syntax tree of every module:

- every function parameter (self and cls aside) is read in the function
  or deleted with ``del``, which marks a parameter that a common call
  signature requires but this function does not need;
- every module-level import is used, or carries ``# noqa: F401`` to say
  that the name is there for other modules to import.  The package's
  ``__init__`` re-exports its public names and is not checked for this.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fdmimo"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(node):
    """Names loaded or deleted anywhere under node."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Load,
                                                               ast.Del))}


def unread_parameters(tree):
    """'function.parameter' for each parameter its function never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set().union(*(_names_read(stmt) for stmt in body))
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{p.arg}" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def unused_imports(tree, source_lines):
    """Names bound by module-level imports that nothing uses and no
    ``# noqa: F401`` marks."""
    used = _names_read(tree)
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        lines = source_lines[stmt.lineno - 1:stmt.end_lineno]
        if any("# noqa: F401" in line for line in lines):
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append(bound)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read_or_deleted(path):
    assert unread_parameters(_tree(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_every_import_is_used_or_marked(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(_tree(path), source.splitlines()) == []


def test_the_checks_find_what_they_look_for():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "from math import pi, tau\n"
              "def f(a, b, *, c, **d):\n"
              "    del c\n"
              "    return a + tau\n"
              "class K:\n"
              "    def m(self, x):\n"
              "        return lambda y: x\n")
    tree = ast.parse(source)
    assert sorted(unread_parameters(tree)) == ["<lambda>.y", "f.b", "f.d"]
    assert unused_imports(tree, source.splitlines()) == ["os", "pi"]
