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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import VenueFormatError

VENUE_FORMAT_VERSION = 1

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

    def bounds(self) -> Tuple[Vec3, Vec3]:
        c, s = self.center, self.size
        lo = (c[0] - 0.5 * s[0], c[1] - 0.5 * s[1], c[2] - 0.5 * s[2])
        hi = (c[0] + 0.5 * s[0], c[1] + 0.5 * s[1], c[2] + 0.5 * s[2])
        return lo, hi


def _require_xyz(what: str, name: str, values: Sequence) -> None:
    """Reject a point or size in one field of every item that does not
    have exactly three coordinates."""
    for i, v in enumerate(values):
        if len(v) != 3:
            raise VenueFormatError(
                f"{what} {i}: {name} {list(v)} has {len(v)} coordinates, "
                f"expected 3"
            )


def _require_finite(what: str, name: str, values: Sequence) -> None:
    """Reject NaN and infinite entries in one field of every item.

    Needed for the fields no two-sided range check bounds: a NaN compares
    False both ways, so a one-sided check passes it.
    """
    bad = ~np.isfinite(np.asarray(values, dtype=float))
    if bad.any():
        i = int(np.argwhere(bad)[0][0])
        raise VenueFormatError(f"{what} {i}: {name} {values[i]} is not finite")


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
        if not self.grid_positions:
            raise VenueFormatError("venue has no grid positions")
        if not self.candidates:
            raise VenueFormatError("venue has no candidate locations")
        for i, gp in enumerate(self.grid_positions):
            if gp.id != i:
                raise VenueFormatError(
                    f"grid position ids must be dense 0..M-1 in order, "
                    f"found id {gp.id} at index {i}"
                )
            if not (0.0 <= gp.presence_prob <= 1.0):
                raise VenueFormatError(
                    f"grid position {i}: presence_prob {gp.presence_prob} "
                    f"outside [0, 1]"
                )
            if gp.orientation_std <= 0.0:
                raise VenueFormatError(
                    f"grid position {i}: orientation_std must be positive"
                )
            if not (0.0 <= gp.elevation <= math.pi / 2.0):
                raise VenueFormatError(
                    f"grid position {i}: elevation {gp.elevation} outside "
                    f"[0, pi/2]"
                )
            if not (-math.pi <= gp.facing <= math.pi):
                raise VenueFormatError(
                    f"grid position {i}: facing {gp.facing} outside [-pi, pi]"
                )
            if gp.beta is not None and not (0.0 <= gp.beta <= 1.0):
                raise VenueFormatError(
                    f"grid position {i}: beta {gp.beta} outside [0, 1]"
                )
        seats = [gp.position for gp in self.grid_positions]
        mounts = [c.position for c in self.candidates]
        centers = [b.center for b in self.blockers]
        sizes = [b.size for b in self.blockers]
        _require_xyz("grid position", "pos", seats)
        _require_xyz("candidate", "pos", mounts)
        _require_xyz("blocker", "center", centers)
        _require_xyz("blocker", "size", sizes)
        # the range checks above reject NaN and inf in the other fields
        _require_finite("grid position", "pos", seats)
        _require_finite(
            "grid position",
            "orientation_std",
            [gp.orientation_std for gp in self.grid_positions],
        )
        _require_finite("candidate", "pos", mounts)
        _require_finite("blocker", "center", centers)
        _require_finite("blocker", "size", sizes)
        max_gp_z = max(gp.position[2] for gp in self.grid_positions)
        for j, c in enumerate(self.candidates):
            if c.id != j:
                raise VenueFormatError(
                    f"candidate ids must be dense 0..L-1 in order, found id "
                    f"{c.id} at index {j}"
                )
            if c.position[2] <= max_gp_z:
                raise VenueFormatError(
                    f"candidate {j}: height {c.position[2]} must exceed every "
                    f"device height (max {max_gp_z})"
                )
        n = self.n_grid
        for b in self.blockers:
            if b.owner is not None and not (0 <= b.owner < n):
                raise VenueFormatError(
                    f"blocker owner {b.owner} is not a grid position id"
                )
            if min(b.size) <= 0.0:
                raise VenueFormatError("blocker sizes must be positive")

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": VENUE_FORMAT_VERSION,
            "name": self.name,
            "grid_positions": [
                {
                    "id": gp.id,
                    "pos": list(gp.position),
                    "facing": gp.facing,
                    "elevation": gp.elevation,
                    "q": gp.presence_prob,
                    "orientation_std": gp.orientation_std,
                    **({} if gp.beta is None else {"beta": gp.beta}),
                }
                for gp in self.grid_positions
            ],
            "candidates": [
                {"id": c.id, "pos": list(c.position)} for c in self.candidates
            ],
            "blockers": [
                {
                    "center": list(b.center),
                    "size": list(b.size),
                    "owner": b.owner,
                }
                for b in self.blockers
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "Venue":
        try:
            gps = [
                GridPosition(
                    id=int(g["id"]),
                    position=tuple(float(v) for v in g["pos"]),
                    facing=float(g["facing"]),
                    elevation=float(g["elevation"]),
                    presence_prob=float(g["q"]),
                    orientation_std=float(g["orientation_std"]),
                    beta=None if g.get("beta") is None else float(g["beta"]),
                )
                for g in data["grid_positions"]
            ]
            cands = [
                CandidateLocation(
                    id=int(c["id"]),
                    position=tuple(float(v) for v in c["pos"]),
                )
                for c in data["candidates"]
            ]
            blockers = [
                BodyPrism(
                    center=tuple(float(v) for v in b["center"]),
                    size=tuple(float(v) for v in b["size"]),
                    owner=None if b.get("owner") is None else int(b["owner"]),
                )
                for b in data.get("blockers", [])
            ]
            name = str(data["name"])
        # int(Infinity) raises OverflowError
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise VenueFormatError(f"malformed venue data: {exc}") from exc
        return Venue(
            name=name,
            grid_positions=gps,
            candidates=cands,
            blockers=blockers,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "Venue":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise VenueFormatError(f"cannot read venue file {path}: {exc}") from exc
        return Venue.from_dict(data)


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
    "VENUE_FORMAT_VERSION",
    "GridPosition",
    "CandidateLocation",
    "BodyPrism",
    "Venue",
    "venue_betas",
    "occlusion_matrix",
]
