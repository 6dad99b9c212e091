"""Angles on the circle and closed circular arcs.

All azimuths in the toolkit live in [-pi, pi]. Arcs are closed sets and may
wrap through +-pi; the empty set and the full circle are explicit states so
that every arc has exactly one representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

_EMPTY = "empty"
_FULL = "full"
_ARC = "arc"


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


def angle_offset(a: float, b: float) -> float:
    """Absolute circular distance between two angles, in [0, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return abs(d)


@dataclass(frozen=True)
class AngularInterval:
    """A closed arc on the circle [-pi, pi].

    Arcs run counterclockwise from ``lo`` to ``hi``, wrapping through +-pi
    when lo > hi. ``kind`` distinguishes the empty set and the full circle
    from proper arcs; proper arcs always have lo != hi and both endpoints in
    [-pi, pi], so equal intervals compare equal field-wise.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0

    @staticmethod
    def empty() -> "AngularInterval":
        return AngularInterval(_EMPTY)

    @staticmethod
    def full() -> "AngularInterval":
        return AngularInterval(_FULL)

    @staticmethod
    def arc(lo: float, hi: float) -> "AngularInterval":
        lo = wrap_angle(lo)
        hi = wrap_angle(hi)
        if lo == hi:
            raise ValueError(
                "arc endpoints coincide; use empty() or full() explicitly"
            )
        return AngularInterval(_ARC, lo, hi)

    @staticmethod
    def from_center(center: float, half_width: float) -> "AngularInterval":
        """Arc of total length 2*half_width centered at ``center``.

        half_width <= 0 gives the empty set, half_width >= pi the full
        circle.
        """
        if half_width <= 0.0:
            return AngularInterval.empty()
        if half_width >= math.pi:
            return AngularInterval.full()
        return AngularInterval.arc(center - half_width, center + half_width)

    @property
    def is_empty(self) -> bool:
        return self.kind == _EMPTY

    @property
    def is_full(self) -> bool:
        return self.kind == _FULL

    def length(self) -> float:
        if self.kind == _EMPTY:
            return 0.0
        if self.kind == _FULL:
            return TWO_PI
        d = self.hi - self.lo
        return d if d > 0.0 else d + TWO_PI

    def center(self) -> float:
        """Midpoint of the arc (0.0 for empty and full by convention)."""
        if self.kind != _ARC:
            return 0.0
        return wrap_angle(self.lo + 0.5 * self.length())

    def contains(self, angle: float) -> bool:
        if self.kind == _EMPTY:
            return False
        if self.kind == _FULL:
            return True
        x = wrap_angle(angle)
        if self.lo < self.hi:
            return self.lo <= x <= self.hi
        # wrapped arc passes through +-pi
        return x >= self.lo or x <= self.hi

    def endpoints(self) -> Tuple[float, ...]:
        if self.kind != _ARC:
            return ()
        return (self.lo, self.hi)

    def segments(self) -> List[Tuple[float, float]]:
        """Decompose into non-wrapping segments of [-pi, pi].

        Useful for integrating a linear density over the arc.
        """
        if self.kind == _EMPTY:
            return []
        if self.kind == _FULL:
            return [(-math.pi, math.pi)]
        if self.lo < self.hi:
            return [(self.lo, self.hi)]
        return [(self.lo, math.pi), (-math.pi, self.hi)]
