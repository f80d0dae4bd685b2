"""README's Python examples must stay valid, and they define the package root.

A public name counts as used when production code calls it or a README
example shows it, so an example that names a deleted function would keep
dead API looking alive.  Each ``python`` block must compile, and every
name it imports from ``fdmimo`` must exist.

The root ``fdmimo`` package exports exactly two groups of names: those
README's examples import from it, and those ``perfbench/*.py`` reads as
``program.<name>``.  Everything else is imported from its submodule.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import fdmimo

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _readme_python_trees():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    return [ast.parse(block, filename="README.md") for block in blocks]


def test_readme_python_blocks_compile_and_import_only_existing_names():
    imported = []
    for tree in _readme_python_trees():
        compile(tree, "README.md", "exec")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{node.module}.{alias.name}")
                    imported.append(alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    importlib.import_module(alias.name)
                    imported.append(alias.name)
    assert imported


def _readme_root_imports():
    return {alias.name for tree in _readme_python_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "fdmimo"
            for alias in node.names}


def _perfbench_reads():
    """Each name that perfbench/*.py reads as program.<name>."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "program"}
    return names


def test_the_package_root_exports_what_readme_or_perfbench_reads():
    public = {name for name, value in vars(fdmimo).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    readers = _readme_root_imports() | _perfbench_reads()
    assert sorted(public - readers) == []
    assert sorted(n for n in readers - public if not n.startswith("_")) == []
