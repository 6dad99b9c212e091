"""Orientation randomness reduced to a finite scenario partition.

A user's body orientation is one random angle with a truncated Gaussian
density on [-pi, pi] (renormalized, not wrapped). Every link of that user
is active on a fixed arc of orientations, so the arc endpoints of all
usable links cut the circle into at most 2 * n_links cells on which the
set of active links is constant. Those cells, weighted by their Gaussian
mass, are the only scenarios with non-zero probability; the probability
that any link in an assigned set is active is a plain sum of cell masses,
and exactly 1.0 when the set's links hit every cell.

``seat_partitions`` builds the partitions of a whole venue from its
links' azimuths and active half-widths, many seats at a time: one sort
finds every seat's boundaries, and one test over all (cell, arc) pairs of
the batch decides every cell's membership. Arc endpoints and cell
midpoints are wrapped with ``math.atan2`` and the masses use ``math.erf``,
as a cell-by-cell walk would, so the partition has the bits of the scalar
walk kept in the test oracles.

All azimuths in the toolkit live in [-pi, pi]; ``wrap_angle`` and
``wrap_angles`` bring other angles there with ``math.atan2``, and
``wrapped_offset`` gives the distance between two azimuths in [0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .venue import Venue, _runs

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


def wrapped_offset(a, b) -> np.ndarray:
    """Azimuth offset of ``a`` from ``b`` round the circle, in [0, pi];
    array arguments broadcast."""
    d = a - b
    return np.abs(np.arctan2(np.sin(d), np.cos(d)))


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

    ``bounds`` is the float64 array of the boundaries, ascending. Cell i
    runs counterclockwise from ``bounds[i]`` to the next boundary, the
    last one wrapping through +-pi back to the first; with no boundaries
    the one cell is the whole circle. ``cell_probs`` holds the
    cell masses. ``visible`` is an ``(n_cells, L)`` boolean matrix over
    the venue's candidates: row i, column l is set when the link to
    candidate l is active anywhere in cell i, so a link active for every
    orientation has its column set in every row. The arguments are stored
    as given.
    """

    gp: int
    bounds: np.ndarray
    cell_probs: np.ndarray
    visible: np.ndarray

    def __repr__(self) -> str:
        return f"ScenarioPartition(gp={self.gp}, cells={len(self.cell_probs)})"


# (cell, arc) pairs per batch of seat_partitions, counted as the bound
# 2 x arcs^2 of each seat; the batch's temporaries are a few dozen bytes
# per pair
_PARTITION_PAIRS = 1 << 15


def _boundaries(
    ends: np.ndarray, seat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each seat's distinct arc endpoints, ascending, and their seats.

    ``ends`` lists the endpoints in arc order, ``seat`` their seats. A
    stable sort by (seat, value) keeps the first of each run of equal
    values, so a seat gets ``sorted(set(its ends))``, which keeps the
    first seen of 0.0 and -0.0.
    """
    order = np.lexsort((ends, seat))
    ends, seat = ends[order], seat[order]
    first = np.ones(len(ends), dtype=bool)
    first[1:] = (seat[1:] != seat[:-1]) | (ends[1:] != ends[:-1])
    return ends[first], seat[first]


def _partitions(
    gp_ids: Sequence[int],
    mean: np.ndarray,
    std: np.ndarray,
    phi_rx: np.ndarray,
    reach: np.ndarray,
) -> List[ScenarioPartition]:
    """The partitions of a batch of seats: row i of ``phi_rx`` and
    ``reach`` holds the links of seat ``gp_ids[i]``, whose orientation
    has mean ``mean[i]`` and deviation ``std[i]``.

    The proper arcs (reach above 0 and below pi) of every seat are wrapped
    at once, and ``_boundaries`` gives each seat's boundaries. A cell's
    membership is decided at its midpoint, safely interior because
    boundaries are exactly the arc endpoints, by one wrapped-arc test over
    every (cell, arc) pair of the batch that share a seat. Lengths,
    midpoints and masses use the operations of the scalar cell-by-cell
    walk (arc length, ``wrap_angle``, erf masses): the normal CDF is
    evaluated once per boundary and once at each of -pi and pi, and each
    cell's mass is the sum, from 0, over its one or two segments, with the
    empty segment at +-pi worth 0.0. A seat without boundaries has one
    cell, the whole circle, of mass 1.0. Each seat's ``bounds``,
    ``visible`` and ``cell_probs`` are slices of batch arrays.
    """
    n = reach.shape[0]
    always = reach >= math.pi
    seat, arc_ap = np.nonzero((reach > 0.0) & ~always)
    center, half = phi_rx[seat, arc_ap], reach[seat, arc_ap]
    arc_lo = wrap_angles(center - half)
    arc_hi = wrap_angles(center + half)
    if np.any(arc_lo == arc_hi):
        raise ValueError("arc endpoints coincide")

    b, b_seat = _boundaries(
        np.column_stack((arc_lo, arc_hi)).ravel(), np.repeat(seat, 2)
    )
    n_b = np.bincount(b_seat, minlength=n)
    b_first = np.cumsum(n_b) - n_b
    n_cells = np.maximum(n_b, 1)
    row_first = np.cumsum(n_cells) - n_cells
    # cell k of a seat with boundaries runs from its k-th boundary; the
    # last one wraps through +-pi and splits into [b[-1], pi] and [-pi, b[0]]
    row = row_first[b_seat] + (np.arange(len(b)) - b_first[b_seat])
    has = n_b > 0
    first, last = b_first[has], b_first[has] + n_b[has] - 1
    length = np.append(b[1:], 0.0) - b
    length[last] = (b[first] - b[last]) + TWO_PI
    x = wrap_angles(b + 0.5 * length)

    n_arcs = np.bincount(seat, minlength=n)
    cell, at = _runs((np.cumsum(n_arcs) - n_arcs)[b_seat], n_arcs[b_seat])
    xc = x[cell]
    # the wrapped-arc test: lo <= x <= hi, or x >= lo or x <= hi for an
    # arc through +-pi (lo > hi). Outside an arc exactly one of lo <= x
    # and x <= hi holds when lo < hi, and neither when lo > hi.
    inside = (arc_lo[at] <= xc) ^ (xc <= arc_hi[at]) ^ (arc_lo < arc_hi)[at]
    cell, at = cell[inside], at[inside]
    visible = always[np.repeat(np.arange(n), n_cells)]
    visible.reshape(-1)[row[cell] * reach.shape[1] + arc_ap[at]] = True

    z = np.concatenate((
        (b - mean[b_seat]) / std[b_seat],
        (math.pi - mean) / std,
        (-math.pi - mean) / std,
    )) / _SQRT2
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in z.tolist()]))
    cdf, cdf_hi, cdf_lo = cdf[:len(b)], cdf[len(b):-n], cdf[-n:]
    trunc = cdf_hi - cdf_lo
    probs = np.ones(len(visible))
    # every cell's upward segment; a seat's last cell is then replaced by
    # its segments [b[-1], pi] and [-pi, b[0]]
    probs[row[:-1]] = (cdf[1:] - cdf[:-1]) / trunc[b_seat[:-1]]
    t = trunc[has]
    upper = np.where(math.pi <= b[last], 0.0, (cdf_hi[has] - cdf[last]) / t)
    lower = np.where(b[first] <= -math.pi, 0.0, (cdf[first] - cdf_lo[has]) / t)
    probs[row[last]] = 0.0 + upper + lower

    return [
        ScenarioPartition(gp, b[f:f + k], probs[r:r + c], visible[r:r + c])
        for gp, f, k, r, c in zip(
            gp_ids, b_first.tolist(), n_b.tolist(), row_first.tolist(),
            n_cells.tolist())
    ]


def seat_partitions(
    venue: Venue, phi_rx: np.ndarray, reach: np.ndarray
) -> List[ScenarioPartition]:
    """Partition the orientation circle of every seat of the venue from its
    links' device-to-candidate azimuths and active half-widths.

    Row m, column l of the (n_grid, n_candidates) arrays ``phi_rx`` and
    ``reach`` is the link from seat m to candidate l. A reach of 0 is never
    active, a reach of pi or more is always on, and any other reach is the
    closed arc from ``phi_rx - reach`` to ``phi_rx + reach``, wrapped into
    [-pi, pi]. Raises ``ValueError`` when an arc is too narrow for its
    wrapped endpoints to differ. Consecutive seats share a batch while
    their (cell, arc) pairs, at most twice their arcs squared, stay within
    ``_PARTITION_PAIRS``.
    """
    mean = np.array([gp.facing for gp in venue.grid_positions], dtype=float)
    std = np.array(
        [gp.orientation_std for gp in venue.grid_positions], dtype=float
    )
    n_arcs = ((reach > 0.0) & (reach < math.pi)).sum(axis=1)
    starts, pairs = [], 0
    for m, cost in enumerate((2 * n_arcs * n_arcs).tolist()):
        if m == 0 or pairs + cost > _PARTITION_PAIRS:
            starts.append(m)
            pairs = 0
        pairs += cost
    out: List[ScenarioPartition] = []
    for s, e in zip(starts, starts[1:] + [venue.n_grid]):
        out += _partitions(
            range(s, e), mean[s:e], std[s:e], phi_rx[s:e], reach[s:e]
        )
    return out


def connectivity_probability(
    partition: ScenarioPartition, aps: Union[List[int], np.ndarray]
) -> float:
    """Probability that at least one link in the set is active.

    ``aps`` indexes the candidate columns: a list or integer array of
    candidate ids, or a boolean row over candidates. A set whose links
    hit every cell, as an always-on link does, returns exactly 1.0.
    Raises ``ValueError`` for an id outside ``[0, L)`` or a boolean row
    whose length is not ``L``.
    """
    n = partition.visible.shape[1]
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
    hit = partition.visible[:, idx].any(axis=1)
    if hit.all():
        return 1.0
    return float(partition.cell_probs[hit].sum())


__all__ = [
    "OrientationDistribution",
    "ScenarioPartition",
    "seat_partitions",
    "connectivity_probability",
]
