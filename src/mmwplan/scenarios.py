"""Orientation randomness reduced to a finite scenario partition.

A user's body orientation is one random angle with a truncated Gaussian
density on [-pi, pi] (renormalized, not wrapped). Every link of that user
is active on a fixed arc of orientations, so the arc endpoints of all
usable links cut the circle into at most 2 * n_links cells on which the
set of active links is constant. Those cells, weighted by their Gaussian
mass, are the only scenarios with non-zero probability; the probability
that any link in an assigned set, a boolean row over the candidates, is
active is a plain sum of cell masses, and exactly 1.0 when the set's links
hit every cell.

``seat_partitions`` builds the partitions of a whole venue from its
links' azimuths and active half-widths, many seats at a time, into one
flat store of every seat's cell masses and visibility rows: one sort
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
from functools import cached_property
from typing import Tuple

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


def normal_cdf(x, mean, std) -> np.ndarray:
    """The Gaussian CDF at ``x``, elementwise over 1-D arrays that
    broadcast, by one chain of IEEE operations: ``(x - mean) / std``,
    then ``/ sqrt(2)``, then ``math.erf`` per element, then
    ``0.5 * (1.0 + erf)``. A spread too small to divide by gives +-inf:
    the point-mass limit, whose erf is +-1."""
    with np.errstate(over="ignore"):
        z = np.subtract(x, mean) / std / _SQRT2
    return 0.5 * (1.0 + np.array([math.erf(v) for v in z.tolist()]))


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

    @cached_property
    def cdf_range(self) -> Tuple[float, float]:
        """The untruncated Gaussian's CDF at -pi and at pi, computed once
        per distribution."""
        lo, hi = normal_cdf([-math.pi, math.pi], self.mean, self.std)
        return float(lo), float(hi)

    @staticmethod
    def for_gp(venue: Venue, gp_id: int) -> "OrientationDistribution":
        gp = venue.grid_positions[gp_id]
        return OrientationDistribution(mean=gp.facing, std=gp.orientation_std)


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
    mean: np.ndarray,
    std: np.ndarray,
    phi_rx: np.ndarray,
    reach: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partitions of a batch of seats: row i of ``phi_rx`` and
    ``reach`` holds the links of the batch's seat i, whose orientation
    has mean ``mean[i]`` and deviation ``std[i]``. Returns each seat's
    cell count and the cells' masses and visibility rows, seat after seat.

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
    cell, the whole circle, of mass 1.0.
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

    cdf = normal_cdf(b, mean[b_seat], std[b_seat])
    cdf_hi = normal_cdf(math.pi, mean, std)
    cdf_lo = normal_cdf(-math.pi, mean, std)
    trunc = cdf_hi - cdf_lo
    probs = np.ones(len(visible))
    # every cell's upward segment; a seat's last cell is then replaced by
    # its segments [b[-1], pi] and [-pi, b[0]]
    probs[row[:-1]] = (cdf[1:] - cdf[:-1]) / trunc[b_seat[:-1]]
    t = trunc[has]
    upper = np.where(math.pi <= b[last], 0.0, (cdf_hi[has] - cdf[last]) / t)
    lower = np.where(b[first] <= -math.pi, 0.0, (cdf[first] - cdf_lo[has]) / t)
    probs[row[last]] = 0.0 + upper + lower

    return n_cells, probs, visible


def seat_partitions(
    venue: Venue, phi_rx: np.ndarray, reach: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition the orientation circle of every seat of the venue from its
    links' device-to-candidate azimuths and active half-widths.

    Row m, column l of the (n_grid, n_candidates) arrays ``phi_rx`` and
    ``reach`` is the link from seat m to candidate l. A reach of 0 is never
    active, a reach of pi or more is always on, and any other reach is the
    closed arc from ``phi_rx - reach`` to ``phi_rx + reach``, wrapped into
    [-pi, pi]. Raises ``ValueError`` when an arc is too narrow for its
    wrapped endpoints to differ.

    Returns the store ``(cell_start, cell_probs, visible)``: seat m's cells
    are rows ``cell_start[m]`` to ``cell_start[m + 1]`` of the cell masses
    ``cell_probs`` and of the (cells, n_candidates) boolean ``visible``,
    whose row, column l is set when the link to candidate l is active
    anywhere in that cell, so an always-on link's column is set in every
    row of its seat. Consecutive seats share a batch while their (cell,
    arc) pairs, at most twice their arcs squared, stay within
    ``_PARTITION_PAIRS``; each batch is copied into a store made for the
    bound of ``max(2 x arcs, 1)`` cells per seat, whose unwritten tail is
    never touched.
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
    cell_probs = np.empty(np.maximum(2 * n_arcs, 1).sum())
    visible = np.empty((len(cell_probs), reach.shape[1]), dtype=bool)
    cell_start = np.zeros(venue.n_grid + 1, dtype=np.intp)
    for s, e in zip(starts, starts[1:] + [venue.n_grid]):
        n_cells, probs, vis = _partitions(
            mean[s:e], std[s:e], phi_rx[s:e], reach[s:e]
        )
        r = cell_start[s]
        cell_start[s + 1:e + 1] = r + np.cumsum(n_cells)
        cell_probs[r:cell_start[e]] = probs
        visible[r:cell_start[e]] = vis
    n = cell_start[-1]
    return cell_start, cell_probs[:n], visible[:n]


def connectivity_probability(
    cell_probs: np.ndarray, visible: np.ndarray, row: np.ndarray
) -> float:
    """Probability that at least one link in the set is active, for one
    seat's cell masses and visibility rows (``PlanningModel.cells``).

    ``row`` is the set as a boolean row over the venue's candidates. A
    set whose links hit every cell, as an always-on link does, returns
    exactly 1.0. Raises ``ValueError`` for anything but a boolean row of
    length ``L``.
    """
    n = visible.shape[1]
    row = np.asarray(row)
    if row.dtype != bool or row.shape != (n,):
        raise ValueError(
            f"assigned ids must be a boolean row of {n} entries, got "
            f"{row.dtype} of shape {row.shape}"
        )
    return hit_mass(cell_probs, visible[:, row].any(axis=1))


def hit_mass(cell_probs: np.ndarray, hit: np.ndarray) -> float:
    """The mass of one seat's cells that the boolean mask ``hit`` marks:
    exactly 1.0 when it marks every cell, else the marked masses summed
    in cell order."""
    if hit.all():
        return 1.0
    return float(cell_probs[hit].sum())


__all__ = [
    "OrientationDistribution",
    "seat_partitions",
    "connectivity_probability",
]
