"""Static checks over src/fdmimo that no linter is installed to make.

A parameter that no code reads is dead API, and an import that no code
uses is dead weight; both are easy to leave behind when a caller goes
away.  The checks walk the syntax tree of every module:

- every function parameter (self and cls aside) is read in the function
  or deleted with ``del``, which marks a parameter that a common call
  signature requires but this function does not need;
- every module-level import is used, or carries ``# noqa: F401`` to say
  that the name is there for other modules to import.  The package's
  ``__init__`` re-exports its public names and is not checked for this;
  the test modules are;
- every public top-level function or class, and every public method, has
  a reader outside the tests: a name or attribute read of it in the
  package apart from its own definition, an import into the package
  root, a code span or block of README, or a read in ``perfbench/*.py``
  (whose tracer also names the attributes it wraps in strings).  A
  method that overrides an inherited one is read by its base class.
  Public API that only the tests use is dead API.

One more check runs the package: importing it, as every run and
perfbench's ``setup_s`` do, loads no module that only ``fdmimo check``
needs and no executor machinery.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fdmimo"
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
    "path", [p for p in MODULES if p.name != "__init__.py"]
    + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name)
def test_every_import_is_used_or_marked(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(_tree(path), source.splitlines()) == []


def _reads(node):
    """How often each name is read, as a name or as an attribute, under
    node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _public_definitions(tree):
    """(label, name, node) for each public top-level function or class,
    and for each public method as 'Class.method'."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs[:2])
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def unread_public_names(trees, outside):
    """Labels of the public definitions in trees that nothing in trees
    reads apart from the definition itself, and whose name outside (the
    names read from outside the package) lacks."""
    total = sum((_reads(tree) for tree in trees), Counter())
    return [label for tree in trees
            for label, name, node in _public_definitions(tree)
            if name not in outside and total[name] - _reads(node)[name] < 1]


def _outside_readers():
    """Names read from outside the package: the package root's imports,
    README's code, and perfbench's reads and strings."""
    names = {alias.name for node in ast.walk(_tree(SRC / "__init__.py"))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    for code in [*blocks, *re.findall(r"`([^`\n]+)`", prose)]:
        names |= set(re.findall(r"[A-Za-z_]\w*", code))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _tree(path)
        names |= set(_reads(tree))
        names |= {n.value for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value.isidentifier()}
    return names


def _overriding_methods():
    """'Class.method' for each method of a package class that overrides
    one its class inherits."""
    labels = set()
    for path in MODULES:
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"fdmimo.{path.stem}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                labels |= {f"{cls.__name__}.{name}" for name in vars(cls)
                           if not name.startswith("_")
                           and any(hasattr(base, name)
                                   for base in cls.__mro__[1:])}
    return labels


def test_every_public_name_has_a_reader_outside_the_tests():
    trees = [_tree(path) for path in MODULES]
    unread = set(unread_public_names(trees, _outside_readers()))
    assert sorted(unread - _overriding_methods()) == []


def test_the_reader_check_finds_an_unread_public_name():
    lib = ast.parse("def used(): pass\n"
                    "def unused(): pass\n"
                    "def shown(): pass\n"
                    "def recursive(): return recursive()\n"
                    "def _private(): pass\n"
                    "class K:\n"
                    "    def read(self): pass\n"
                    "    def unread(self): return self.unread\n"
                    "    def _hidden(self): pass\n")
    caller = ast.parse("used()\nK().read()\n")
    assert unread_public_names([lib, caller], {"shown"}) == [
        "unused", "recursive", "K.unread"]


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


def test_importing_the_package_loads_no_module_it_does_not_need():
    # concurrent.futures alone takes about 9 ms to import, about a tenth
    # of a run's set-up; acceptance and multiprocessing are fdmimo
    # check's, so the CLI imports them for that command alone.  The
    # engine's draw thread needs threading, which NumPy imports anyway,
    # and queue, which takes under 1 ms.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))

    def loaded(imports):
        code = (f"import sys\n{imports}\n"
                "print(sorted(m for m in sys.modules if m.startswith(("
                "'concurrent.futures', 'multiprocessing', "
                "'fdmimo.acceptance'))))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert loaded("import fdmimo") == "[]\n"
    assert loaded("import fdmimo.cli") == "[]\n"
    # the mutant twin: a package that imported the executors would show
    assert loaded("import fdmimo\nimport concurrent.futures") != "[]\n"
