"""Every error kind in ``cfglab.errors`` is raised somewhere in the package.

No linter ships with the project, so this check keeps exception classes that
nothing raises from piling up: each class defined in ``errors.py``, the base
``CfgLabError`` aside, must appear as the target of a ``raise`` statement
(``raise Kind(...)``, ``raise Kind`` or ``raise module.Kind(...)``) in some
module of ``src/cfglab``; raises in tests do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cfglab"


def _unraised_kinds(errors_source: str, sources: list[str]) -> list[str]:
    kinds = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    raised = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, (ast.Name, ast.Attribute)):
                raised.add(target.id if isinstance(target, ast.Name) else target.attr)
    return [kind for kind in kinds if kind != "CfgLabError" and kind not in raised]


def test_every_error_kind_is_raised():
    unraised = _unraised_kinds((SRC / "errors.py").read_text(),
                               [path.read_text() for path in sorted(SRC.glob("*.py"))])
    assert not unraised, f"error classes nothing in src/cfglab raises: {unraised}"


def test_check_flags_an_unraised_kind():
    errors = (
        "class CfgLabError(Exception):\n"
        "    pass\n"
        "class A(CfgLabError):\n"
        "    pass\n"
        "class B(CfgLabError):\n"
        "    pass\n"
        "class C(CfgLabError):\n"
        "    pass\n"
        "class D(CfgLabError):\n"
        "    pass\n"
    )
    module = (
        "from . import errors\n"
        "from .errors import A, B, D\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise A(f'x must be >= 0, got {x}')\n"
        "    if x > 1:\n"
        "        raise errors.C\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except (B, ZeroDivisionError):\n"
        "        raise\n"
        "    except D as exc:\n"
        "        raise ValueError() from exc\n"
    )
    assert _unraised_kinds(errors, [module]) == ["B", "D"]
