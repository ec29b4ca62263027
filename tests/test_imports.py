"""Every module-level import in the package is used or re-exported, and
every exported name exists.

No linter ships with the project, so this check keeps dead imports from
piling up after code is deleted: each name a module imports at top level must
appear in its body as a name (or the root of an attribute chain), or be listed
in its ``__all__``; and each name in ``__all__`` must be an attribute of its
module, so a deletion cannot leave its export behind.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cfglab"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports {unused} without using or re-exporting them"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    module = importlib.import_module("cfglab" if path.stem == "__init__" else f"cfglab.{path.stem}")
    dangling = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not dangling, f"{path.name} exports {dangling}, which it does not define"


def test_check_flags_dead_and_keeps_used_or_exported_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math\n"
        "from .a import B, C as D, E\n"
        "__all__ = ['E']\n"
        "def f(x: B) -> float:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["math", "D"]
