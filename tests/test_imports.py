"""Every module-level import in the package is used, and no module lists its
public names in ``__all__``.

No linter ships with the project, so this check keeps dead imports from
piling up after code is deleted: each name a module imports at top level must
appear in its body as a name (or the root of an attribute chain).  A name is
public exactly when it has no leading underscore, so an ``__all__`` list would
say it a second time.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cfglab"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_assigns_all(path):
    assigned = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)]
    assert not assigned, f"{path.name} assigns __all__ on line(s) {assigned}"


def test_check_flags_dead_and_keeps_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math\n"
        "from .a import B, C as D, E\n"
        "def f(x: B) -> float:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["math", "D", "E"]
