"""Orientation randomness reduced to a finite scenario partition.

A user's body orientation is one random angle with a truncated Gaussian
density on [-pi, pi] (renormalized, not wrapped). Every link of that user
is active on a fixed arc of orientations, so the arc endpoints of all
usable links cut the circle into at most 2 * n_links cells on which the
set of active links is constant. Those cells, weighted by their Gaussian
mass, are the only scenarios with non-zero probability; the probability
that any link in an assigned set is active is a plain sum of cell masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .angles import AngularInterval, wrap_angle
from .channel import LinkProfile
from .venue import Venue

_SQRT2 = math.sqrt(2.0)


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

    def truncation_mass(self) -> float:
        return _std_normal_cdf(
            (math.pi - self.mean) / self.std
        ) - _std_normal_cdf((-math.pi - self.mean) / self.std)

    def mass_between(self, a: float, b: float) -> float:
        """Probability mass of [a, b] for -pi <= a <= b <= pi."""
        if b <= a:
            return 0.0
        num = _std_normal_cdf((b - self.mean) / self.std) - _std_normal_cdf(
            (a - self.mean) / self.std
        )
        return num / self.truncation_mass()


def circular_mass(
    dist: OrientationDistribution, interval: AngularInterval
) -> float:
    """Probability that the orientation falls inside an arc."""
    if interval.is_empty:
        return 0.0
    if interval.is_full:
        return 1.0
    return sum(dist.mass_between(a, b) for a, b in interval.segments())


@dataclass(frozen=True)
class ScenarioCell:
    """One arc of orientations with a constant set of active links."""

    interval: AngularInterval
    prob: float


class ScenarioPartition:
    """Cells covering the circle for one grid position.

    ``visible`` is an ``(n_cells, L)`` boolean matrix over the venue's
    candidates: row i, column l is set when the link to candidate l is
    active anywhere in cell i. ``always_on`` is the ``(L,)`` boolean row of
    links active for every orientation; those columns are set in every
    row. ``cell_probs`` holds the cell masses as an array for fast sums.
    """

    __slots__ = ("gp", "cells", "visible", "always_on", "cell_probs")

    def __init__(
        self,
        gp: int,
        cells: Sequence[ScenarioCell],
        visible: np.ndarray,
        always_on: np.ndarray,
    ) -> None:
        self.gp = gp
        self.cells = tuple(cells)
        self.visible = np.asarray(visible, dtype=bool)
        self.always_on = np.asarray(always_on, dtype=bool)
        self.cell_probs = np.array([c.prob for c in self.cells])

    def __repr__(self) -> str:
        return (
            f"ScenarioPartition(gp={self.gp}, cells={len(self.cells)}, "
            f"always_on={np.flatnonzero(self.always_on).tolist()})"
        )


def build_scenarios(
    venue: Venue, gp_id: int, profiles: Iterable[LinkProfile]
) -> ScenarioPartition:
    """Partition the orientation circle for one grid position.

    ``profiles`` are the link profiles of that grid position; links that
    are never active contribute nothing, links active everywhere go into
    ``always_on``, and every proper arc contributes its two endpoints as
    cell boundaries. Cell membership is decided at the cell midpoint, which
    is safely interior because boundaries are exactly the arc endpoints.
    Visibility rows span all ``venue.n_candidates`` candidates.
    """
    dist = OrientationDistribution.for_gp(venue, gp_id)
    arcs: List[Tuple[int, AngularInterval]] = []
    always = np.zeros(venue.n_candidates, dtype=bool)
    for p in profiles:
        if p.gp != gp_id:
            raise ValueError(
                f"profile for grid position {p.gp} passed to {gp_id}"
            )
        if not p.usable or p.effective_interval.is_empty:
            continue
        if p.effective_interval.is_full:
            always[p.ap] = True
        else:
            arcs.append((p.ap, p.effective_interval))

    boundaries = sorted({e for _, arc in arcs for e in arc.endpoints()})
    if not boundaries:
        cells = [ScenarioCell(AngularInterval.full(), 1.0)]
        return ScenarioPartition(gp_id, cells, always[None, :], always)

    n = len(boundaries)
    cells = []
    visible = np.repeat(always[None, :], n, axis=0)
    for i in range(n):
        lo = boundaries[i]
        hi = boundaries[(i + 1) % n]
        cell_arc = AngularInterval.arc(lo, hi)
        mid = wrap_angle(lo + 0.5 * cell_arc.length())
        for ap, arc in arcs:
            if arc.contains(mid):
                visible[i, ap] = True
        cells.append(ScenarioCell(cell_arc, circular_mass(dist, cell_arc)))
    return ScenarioPartition(gp_id, cells, visible, always)


def connectivity_probability(
    partition: ScenarioPartition, aps: Union[List[int], np.ndarray]
) -> float:
    """Probability that at least one link in the set is active.

    ``aps`` indexes the candidate columns: a list or integer array of
    candidate ids, or a boolean row over candidates. A set containing an
    always-on link returns exactly 1.0.
    """
    if partition.always_on[aps].any():
        return 1.0
    hit = partition.visible[:, aps].any(axis=1)
    return float(partition.cell_probs[hit].sum())


def satisfied(
    partition: ScenarioPartition,
    aps: Union[List[int], np.ndarray],
    beta: float,
) -> bool:
    """Whether the assigned set meets the per-user connectivity target."""
    return connectivity_probability(partition, aps) >= beta


__all__ = [
    "OrientationDistribution",
    "ScenarioCell",
    "ScenarioPartition",
    "build_scenarios",
    "circular_mass",
    "connectivity_probability",
    "satisfied",
]
