"""Every dataclass field in the package is read somewhere in the package.

No linter ships with the project, so this check keeps fields that nothing
reads from piling up: each annotated field of a ``@dataclass`` in
``src/cfglab`` must be read as an attribute (``obj.field``) in some module
of the package; reads in tests do not count.  Attribute names are matched,
not types, so a dead field passes when an attribute of the same name is read
on any object: a ``schedule`` field would pass unread because
``params.schedule`` is read elsewhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cfglab"


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _unread_fields(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, stmt.target.id)
        for cls in nodes
        if isinstance(cls, ast.ClassDef) and any(_is_dataclass(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_every_dataclass_field_is_read():
    unread = _unread_fields([path.read_text() for path in sorted(SRC.glob("*.py"))])
    assert not unread, f"dataclass fields nothing in src/cfglab reads: {unread}"


def test_check_flags_unread_and_keeps_read_fields():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "@dataclass\n"
        "class B:\n"
        "    z: int\n"
        "class NotAData:\n"
        "    u: int\n"
        "def f(a: A, b: B) -> int:\n"
        "    b.z = 1\n"
        "    return a.x\n"
    )
    assert _unread_fields([source]) == ["A.y", "B.z"]
