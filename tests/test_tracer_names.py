"""The names the per-layer tracer patches still exist.

``perfbench/tracing.py`` wraps functions that one ``cfglab`` module looks up
in another.  A wrapped name that is gone only turns its metrics absent, so a
refactor that drops or renames one would pass unnoticed outside the
benchmark's own smoke test; this check fails instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PATCHED = sorted(
    {(module, attr) for module, attr, _ in tracing.SPAN_PATCHES + tracing.COUNT_PATCHES}
    | {tracing.SCORE_FACTORY}
)


@pytest.mark.parametrize("module,attr", PATCHED, ids=[f"{m}.{a}" for m, a in PATCHED])
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_score_factory_takes_the_arguments_the_tracer_binds():
    module, attr = tracing.SCORE_FACTORY
    parameters = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
    assert "inst" in parameters and "softmax_dtype" in parameters
