"""Test-side oracle: improper integrals on [lo, inf) by tail-bound truncation.

The library never integrates to infinity; the closed forms for ramped
schedules are finite incomplete Beta integrals.  This helper integrates the
defining time-domain integrals directly, so ``test_joint_gaussian`` can check
those closed forms against an independent path.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterator

import numpy as np

from cfglab import special_math
from cfglab.errors import ConvergenceError, DomainError
from cfglab.special_math import adaptive_quad


@contextlib.contextmanager
def tight_quadrature() -> Iterator[None]:
    """Run the oracle's own quadrature at abs 1e-12, rel 1e-10 and 4000
    panels, tighter than the package's error control, and restore that after."""
    saved = special_math._ABS_TOL, special_math._REL_TOL, special_math._MAX_PANELS
    special_math._ABS_TOL, special_math._REL_TOL, special_math._MAX_PANELS = 1e-12, 1e-10, 4000
    try:
        yield
    finally:
        special_math._ABS_TOL, special_math._REL_TOL, special_math._MAX_PANELS = saved


def improper_quad(
    integrand: Callable[[np.ndarray], np.ndarray],
    lo: float,
    tail_bound: Callable[[float], float] | None = None,
) -> float:
    """Integrate ``integrand`` (elementwise on an array of times) on [lo, inf)
    by truncating where the tail is small.

    ``tail_bound(T)`` must bound |int_T^inf integrand|; the cut T is doubled from
    max(1, 2*lo) until the bound drops below the quadrature's absolute
    tolerance.  The finite part is then integrated on a log-transformed axis so
    wide ranges stay cheap.
    """
    if tail_bound is None:
        raise DomainError("improper_quad requires an analytic tail bound")
    t_max = max(1.0, 2.0 * abs(lo), 2.0 * lo)
    for _ in range(200):
        if tail_bound(t_max) < special_math._ABS_TOL:
            break
        t_max *= 2.0
    else:
        raise ConvergenceError("tail bound never fell below abs_tol")
    if lo >= t_max:
        return 0.0
    # Log substitution needs a positive start; integrate [lo, start] directly.
    start = max(lo, 1e-8)
    head = adaptive_quad(lambda t, _: integrand(t), lo, start) if start > lo else 0.0
    body = adaptive_quad(
        lambda y, _: integrand(np.exp(y)) * np.exp(y),
        math.log(start),
        math.log(t_max),
    )
    return head + body
