"""Guidance schedules: the time profile w(t) applied to the guided drift."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .special_math import _check_each


@dataclass(frozen=True)
class Constant:
    """Fixed guidance level.  w > -1/2 so the horizon -> inf variance converges.

    w may be an array: a batch of levels, which the constant-guidance
    moments and switch times evaluate in one call; the rule holds in every
    cell.
    """

    w: Union[float, np.ndarray]

    def __post_init__(self) -> None:
        _check_each(np.isfinite(self.w) & (np.asarray(self.w) > -0.5),
                    lambda w: f"constant schedule requires w > -1/2, got {w}", self.w)


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
            value = getattr(self, name)
            _check_each(np.isfinite(value) & (np.asarray(value) >= least),
                        lambda got: f"linear schedule requires {name} >= {least:g}, got {got}", value)
        _check_each(~((np.asarray(self.omega) == 0.0) & (np.asarray(self.w0) <= -0.5)),
                    lambda w0: f"linear schedule with omega = 0 requires w0 > -1/2, got w0 = {w0}", self.w0)


GuidanceSchedule = Union[Constant, Linear]


def guidance_level(schedule: GuidanceSchedule, t: float) -> float:
    """Evaluate w(t)."""
    if isinstance(schedule, Constant):
        return schedule.w
    return schedule.w0 + schedule.omega * t
