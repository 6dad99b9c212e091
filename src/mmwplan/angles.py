"""Angles on the circle.

All azimuths in the toolkit live in [-pi, pi]; ``wrap_angle`` and
``wrap_angles`` bring other angles there with ``math.atan2``, whose bits
the partition and its oracles share.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi]."""
    if -math.pi <= a <= math.pi:
        return a
    return math.atan2(math.sin(a), math.cos(a))


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """``wrap_angle`` of every element: values in [-pi, pi] pass through
    and the others are wrapped one by one with ``math.atan2``, whose bits
    ``np.arctan2`` does not always reproduce."""
    a = np.array(a, dtype=float)
    out = np.flatnonzero((a < -math.pi) | (a > math.pi))
    a[out] = [wrap_angle(v) for v in a[out].tolist()]
    return a

