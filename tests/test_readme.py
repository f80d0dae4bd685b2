"""README's Python examples must stay valid.

A public name counts as used when production code calls it or a README
example shows it, so an example that names a deleted function would keep
dead API looking alive.  Each ``python`` block must compile, and every
name it imports from ``fdmimo`` must exist.
"""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_compile_and_import_only_existing_names():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    imported = []
    for block in blocks:
        tree = ast.parse(block, filename="README.md")
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
