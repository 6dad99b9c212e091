"""Orientation randomness reduced to a finite scenario partition.

A user's body orientation is one random angle with a truncated Gaussian
density on [-pi, pi] (renormalized, not wrapped). Every link of that user
is active on a fixed arc of orientations, so the arc endpoints of all
usable links cut the circle into at most 2 * n_links cells on which the
set of active links is constant. Those cells, weighted by their Gaussian
mass, are the only scenarios with non-zero probability; the probability
that any link in an assigned set is active is a plain sum of cell masses.

``seat_partition`` builds a seat's partition from its links' azimuths and
active half-widths, deciding every cell's membership with one broadcast
test. Arc endpoints and cell midpoints are wrapped with ``math.atan2`` and
the masses use ``math.erf``, as a cell-by-cell walk would, so the
partition has the bits of the scalar walk kept in the test oracles.

All azimuths in the toolkit live in [-pi, pi]; ``wrap_angle`` and
``wrap_angles`` bring other angles there with ``math.atan2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .venue import Venue

_SQRT2 = math.sqrt(2.0)
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


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


@dataclass(frozen=True)
class OrientationDistribution:
    """Truncated Gaussian on [-pi, pi] with interior mean.

    The density is the Gaussian density divided by the mass the untruncated
    Gaussian places on [-pi, pi]; nothing is wrapped around the circle.
    """

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (-math.pi <= self.mean <= math.pi):
            raise ValueError("mean must lie in [-pi, pi]")
        if self.std <= 0.0:
            raise ValueError("std must be positive")

    @staticmethod
    def for_gp(venue: Venue, gp_id: int) -> "OrientationDistribution":
        gp = venue.grid_positions[gp_id]
        return OrientationDistribution(mean=gp.facing, std=gp.orientation_std)


@dataclass(eq=False, slots=True)
class ScenarioPartition:
    """Cells covering the circle for one grid position.

    Cell i runs counterclockwise from ``bounds[i]`` to the next boundary,
    the last one wrapping through +-pi back to the first; with no
    boundaries the one cell is the whole circle. ``cell_probs`` holds the
    cell masses. ``visible`` is an ``(n_cells, L)`` boolean matrix over
    the venue's candidates: row i, column l is set when the link to
    candidate l is active anywhere in cell i. ``always_on`` is the
    ``(L,)`` boolean row of links active for every orientation; those
    columns are set in every row. The arguments are stored as given.
    """

    gp: int
    bounds: List[float]
    cell_probs: np.ndarray
    visible: np.ndarray
    always_on: np.ndarray

    def __repr__(self) -> str:
        return (
            f"ScenarioPartition(gp={self.gp}, cells={len(self.cell_probs)}, "
            f"always_on={np.flatnonzero(self.always_on).tolist()})"
        )


def _partition(
    gp_id: int,
    dist: OrientationDistribution,
    always: np.ndarray,
    arc_ap: np.ndarray,
    arc_lo: np.ndarray,
    arc_hi: np.ndarray,
) -> ScenarioPartition:
    """Cut the circle at the endpoints of the proper arcs (candidate
    ``arc_ap[k]`` active from ``arc_lo[k]`` to ``arc_hi[k]``) and weigh
    each cell by its mass under ``dist``.

    A cell's membership is decided at its midpoint, which is safely
    interior because boundaries are exactly the arc endpoints; one
    broadcast wrapped-arc test of shape (cells, arcs) covers every pair.
    Lengths, midpoints and masses use the operations of the scalar
    cell-by-cell walk (arc length, ``wrap_angle``, erf masses): the
    normal CDF is evaluated once per boundary and once at each of -pi and
    pi, and each cell's mass is the sum, from 0, over its one or two
    segments, with the empty segment at +-pi worth 0.0.
    """
    # endpoints in arc order, so a tie between 0.0 and -0.0 keeps the
    # first one seen
    ends = np.column_stack((arc_lo, arc_hi)).ravel().tolist()
    bounds = sorted(set(ends))
    if not bounds:
        return ScenarioPartition(
            gp_id, bounds, np.array([1.0]), always[None, :], always
        )

    b = np.array(bounds)
    # cells 0..n-2 run upward; the last wraps through +-pi and splits into
    # [b[-1], pi] and [-pi, b[0]]
    length = np.append(b[1:] - b[:-1], (b[0] - b[-1]) + TWO_PI)
    x = wrap_angles(b + 0.5 * length)[:, None]
    lo, hi = arc_lo[None, :], arc_hi[None, :]
    inside = np.where(lo < hi, (lo <= x) & (x <= hi), (x >= lo) | (x <= hi))
    visible = np.repeat(always[None, :], len(bounds), axis=0)
    np.logical_or.at(visible, (slice(None), arc_ap), inside)

    mean, std = dist.mean, dist.std
    cdf = np.array([_std_normal_cdf((e - mean) / std) for e in bounds])
    cdf_hi = _std_normal_cdf((math.pi - mean) / std)
    cdf_lo = _std_normal_cdf((-math.pi - mean) / std)
    trunc = cdf_hi - cdf_lo
    probs = np.empty(len(bounds))
    probs[:-1] = (cdf[1:] - cdf[:-1]) / trunc
    upper = 0.0 if math.pi <= bounds[-1] else (cdf_hi - cdf[-1]) / trunc
    lower = 0.0 if bounds[0] <= -math.pi else (cdf[0] - cdf_lo) / trunc
    probs[-1] = 0 + upper + lower

    return ScenarioPartition(gp_id, bounds, probs, visible, always)


def seat_partition(
    gp_id: int,
    dist: OrientationDistribution,
    phi_rx: np.ndarray,
    reach: np.ndarray,
) -> ScenarioPartition:
    """Partition the orientation circle for one grid position from its
    links' device-to-candidate azimuths and active half-widths.

    Column l of ``phi_rx`` and ``reach`` is the link to candidate l. A
    reach of 0 is never active, a reach of pi or more is always on, and any
    other reach is the closed arc from ``phi_rx - reach`` to
    ``phi_rx + reach``, wrapped into [-pi, pi], for all links at once.
    Raises ``ValueError`` when an arc is too narrow for its wrapped
    endpoints to differ.
    """
    always = reach >= math.pi
    arc_ap = np.flatnonzero((reach > 0.0) & ~always)
    center, half = phi_rx[arc_ap], reach[arc_ap]
    arc_lo = wrap_angles(center - half)
    arc_hi = wrap_angles(center + half)
    if np.any(arc_lo == arc_hi):
        raise ValueError("arc endpoints coincide")
    return _partition(gp_id, dist, always, arc_ap, arc_lo, arc_hi)


def connectivity_probability(
    partition: ScenarioPartition, aps: Union[List[int], np.ndarray]
) -> float:
    """Probability that at least one link in the set is active.

    ``aps`` indexes the candidate columns: a list or integer array of
    candidate ids, or a boolean row over candidates. A set containing an
    always-on link returns exactly 1.0. Raises ``ValueError`` for an id
    outside ``[0, L)`` or a boolean row whose length is not ``L``.
    """
    n = partition.always_on.shape[0]
    idx = np.asarray(aps)
    if idx.dtype == bool:
        if idx.shape != (n,):
            raise ValueError(
                f"a boolean row of assigned ids needs {n} entries, got "
                f"shape {idx.shape}"
            )
    elif idx.size == 0:
        return 0.0
    elif not (0 <= idx.min() and idx.max() < n):
        raise ValueError(
            f"assigned ids must lie in [0, {n - 1}], got {idx.tolist()}"
        )
    if partition.always_on[idx].any():
        return 1.0
    hit = partition.visible[:, idx].any(axis=1)
    return float(partition.cell_probs[hit].sum())


__all__ = [
    "OrientationDistribution",
    "ScenarioPartition",
    "seat_partition",
    "connectivity_probability",
]
