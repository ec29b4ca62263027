"""Guidance schedules: the time profile w(t) applied to the guided drift."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Constant:
    """Fixed guidance level.  w > -1/2 so the horizon -> inf variance converges."""

    w: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.w) or self.w <= -0.5:
            raise DomainError(f"constant schedule requires w > -1/2, got {self.w}")


@dataclass(frozen=True)
class Linear:
    """Ramped guidance w(t) = w0 + omega * t.

    omega > 0 with w0 < 0 opens a negative-guidance window on [0, -w0/omega).
    A flat ramp (omega = 0) is the constant level w0, so it needs w0 > -1/2,
    as ``Constant`` does.  w0 and omega may be arrays that broadcast
    together: a batch of ramps, which the ramp moments evaluate in one call;
    each rule holds in every cell.
    """

    w0: Union[float, np.ndarray]
    omega: Union[float, np.ndarray]

    def __post_init__(self) -> None:
        for name, least in (("w0", -1.0), ("omega", 0.0)):
            value = np.asarray(getattr(self, name), dtype=float)
            bad = ~(np.isfinite(value) & (value >= least))
            if bad.any():
                got = getattr(self, name) if value.ndim == 0 else value.flat[np.argmax(bad)]
                raise DomainError(f"linear schedule requires {name} >= {least:g}, got {got}")
        w0, omega = np.broadcast_arrays(self.w0, self.omega)
        flat = (omega == 0.0) & (w0 <= -0.5)
        if flat.any():
            raise DomainError("linear schedule with omega = 0 requires w0 > -1/2, "
                              f"got w0 = {w0.flat[np.argmax(flat)]}")


GuidanceSchedule = Union[Constant, Linear]


def guidance_level(schedule: GuidanceSchedule, t: float) -> float:
    """Evaluate w(t)."""
    if isinstance(schedule, Constant):
        return schedule.w
    return schedule.w0 + schedule.omega * t
