"""Venue model: seated users, candidate ceiling mounts, and body blockers.

Coordinate conventions used throughout the toolkit:

* Right-handed x, y in the floor plane, z up, meters.
* Azimuths are measured with atan2(dy, dx) and stored in [-pi, pi]. A ray
  with no horizontal component gets azimuth 0.0 by convention.
* Elevations of view rays are measured from the +z axis, in [0, pi]. An
  access point sees a user below it at elevation > pi/2; the user sees the
  access point at elevation < pi/2.

Each grid position is the expected device location of one seated user. The
user's torso is an axis-aligned prism registered as a blocker owned by that
grid position; a view ray from a device never collides with its owner's own
prism but can be cut by everyone else's.

Every field, read from a file or set in Python, is checked by the tables of
``inputs``; ``Venue.validate`` adds the rules that tie fields together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import VenueFormatError
from .inputs import VENUE, check, load_json, read, save_json, write

Vec3 = Tuple[float, float, float]


@dataclass(frozen=True)
class GridPosition:
    """One seat: expected device location plus user statistics.

    ``facing`` is the mean body orientation azimuth, ``elevation`` the fixed
    tilt of the device antenna measured from vertical (0 points straight up),
    ``presence_prob`` the probability the seat is occupied and active, and
    ``orientation_std`` the standard deviation of the random body orientation
    around ``facing``. ``beta`` optionally pins this user's connectivity
    target; None means "use the network-wide value".
    """

    id: int
    position: Vec3
    facing: float
    elevation: float
    presence_prob: float
    orientation_std: float
    beta: Optional[float] = None


@dataclass(frozen=True)
class CandidateLocation:
    """A possible ceiling mount point for an access point."""

    id: int
    position: Vec3


@dataclass(frozen=True)
class BodyPrism:
    """Axis-aligned blocker; ``owner`` is the grid position whose own rays
    ignore it (None for furniture or other static obstacles)."""

    center: Vec3
    size: Vec3
    owner: Optional[int] = None


@dataclass
class Venue:
    name: str
    grid_positions: List[GridPosition]
    candidates: List[CandidateLocation]
    blockers: List[BodyPrism] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def n_grid(self) -> int:
        return len(self.grid_positions)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def validate(self) -> None:
        """Check every field through ``inputs.VENUE``, then dense ids,
        mounts above every device and prism owners that name a seat."""
        check(VENUE, self)
        for what, items in (("grid position", self.grid_positions),
                            ("candidate", self.candidates)):
            for i, item in enumerate(items):
                if item.id != i:
                    raise VenueFormatError(
                        f"{what} ids must be dense 0..{len(items) - 1} in "
                        f"order, found id {item.id} at index {i}"
                    )
        max_gp_z = max(gp.position[2] for gp in self.grid_positions)
        for j, c in enumerate(self.candidates):
            if c.position[2] <= max_gp_z:
                raise VenueFormatError(
                    f"candidate {j}: height {c.position[2]} must exceed every "
                    f"device height (max {max_gp_z})"
                )
        for b in self.blockers:
            if b.owner is not None and not (0 <= b.owner < self.n_grid):
                raise VenueFormatError(f"blocker owner {b.owner} is no seat")

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return write(VENUE, self)

    @staticmethod
    def from_dict(data: dict) -> "Venue":
        try:
            head = read(VENUE, data)
        except VenueFormatError as exc:
            raise VenueFormatError(f"malformed venue data: {exc}") from None
        return Venue(
            name=head["name"],
            grid_positions=[GridPosition(**g) for g in head["grid_positions"]],
            candidates=[CandidateLocation(**c) for c in head["candidates"]],
            blockers=[BodyPrism(**b) for b in head["blockers"]],
        )

    def save(self, path: str) -> None:
        save_json(path, self.to_dict())

    @staticmethod
    def load(path: str) -> "Venue":
        return load_json(path, "venue", Venue.from_dict)


# -- per-seat targets and occlusion ---------------------------------------


def venue_betas(venue: Venue, default: float) -> List[float]:
    """Per-user connectivity targets: the venue's per-seat overrides where
    present, ``default`` everywhere else."""
    return [
        default if gp.beta is None else gp.beta
        for gp in venue.grid_positions
    ]


def _blocker_arrays(
    venue: Venue,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower corners, upper corners and owners (-1 for none) of the
    prisms, with the corners computed as in ``BodyPrism.bounds``."""
    if not venue.blockers:
        empty = np.zeros((0, 3))
        return empty, empty, np.zeros(0, dtype=np.int64)
    center = np.array([b.center for b in venue.blockers], dtype=float)
    size = np.array([b.size for b in venue.blockers], dtype=float)
    owner = np.array(
        [-1 if b.owner is None else b.owner for b in venue.blockers],
        dtype=np.int64,
    )
    return center - 0.5 * size, center + 0.5 * size, owner


def _segment_hits_boxes(
    p0: np.ndarray, p1: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Slab test of the open segments (p0, p1) against closed boxes.

    ``p1`` is one end point of shape (3,) or a stack of shape (..., 3);
    the result holds one boolean per (segment, box), shape (..., B).
    Touching a box face counts as a hit. An axis along which a segment
    does not move cannot bound its parameter; the segment then misses
    every box whose slab on that axis does not contain it.
    """
    d = (np.asarray(p1, dtype=float) - p0)[..., None, :]
    shape = d.shape[:-2] + (lo.shape[0],)
    t_near = np.full(shape, -np.inf)
    t_far = np.full(shape, np.inf)
    miss = np.zeros(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ax in range(3):
            d_ax = d[..., ax]
            flat = d_ax == 0.0
            miss |= flat & ((p0[ax] < lo[:, ax]) | (p0[ax] > hi[:, ax]))
            ta = (lo[:, ax] - p0[ax]) / d_ax
            tb = (hi[:, ax] - p0[ax]) / d_ax
            t_near = np.where(
                flat, t_near, np.maximum(t_near, np.minimum(ta, tb))
            )
            t_far = np.where(flat, t_far, np.minimum(t_far, np.maximum(ta, tb)))
    return ~miss & (t_near <= t_far) & (t_far > 0.0) & (t_near < 1.0)


# margin around the region a prism must reach to be tested at all, in m
_PRUNE_PAD = 1e-6


def _seat_occlusion(
    p0: np.ndarray, mounts: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Which open segments from ``p0`` to each mount cut one of the boxes.

    A box can only be cut where a segment runs below the highest box top,
    so boxes whose xy extent misses the xy bounding box of those parts
    (padded by ``_PRUNE_PAD``) are dropped first; a box that is kept gets
    the exact slab test.
    """
    out = np.zeros(mounts.shape[0], dtype=bool)
    if lo.shape[0] == 0:
        return out
    d = mounts - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_top = np.clip((hi[:, 2].max() - p0[2]) / d[:, 2], 0.0, 1.0)
    # a segment that does not rise keeps its whole length
    t_top = np.where(d[:, 2] > 0.0, t_top, 1.0)
    ends = p0[:2] + t_top[:, None] * d[:, :2]
    xy_lo = np.minimum(ends.min(axis=0), p0[:2]) - _PRUNE_PAD
    xy_hi = np.maximum(ends.max(axis=0), p0[:2]) + _PRUNE_PAD
    near = np.all((hi[:, :2] >= xy_lo) & (lo[:, :2] <= xy_hi), axis=1)
    if near.any():
        out = _segment_hits_boxes(p0, mounts, lo[near], hi[near]).any(axis=1)
    return out


def occlusion_matrix(venue: Venue) -> np.ndarray:
    """Boolean (n_grid, n_candidates) matrix: whether a blocker not owned
    by the seat cuts the open segment from the seat to the candidate.

    One batched slab test per seat over all (candidate, prism) pairs, after
    the prune of ``_seat_occlusion``; peak memory is one (L, B) array per
    seat, never (M, L, B).
    """
    lo, hi, owner = _blocker_arrays(venue)
    occ = np.zeros((venue.n_grid, venue.n_candidates), dtype=bool)
    if lo.shape[0] == 0:
        return occ
    seats = np.array([gp.position for gp in venue.grid_positions], dtype=float)
    mounts = np.array([c.position for c in venue.candidates], dtype=float)
    for m in range(venue.n_grid):
        keep = owner != m
        occ[m] = _seat_occlusion(seats[m], mounts, lo[keep], hi[keep])
    return occ


__all__ = [
    "GridPosition",
    "CandidateLocation",
    "BodyPrism",
    "Venue",
    "venue_betas",
    "occlusion_matrix",
]
