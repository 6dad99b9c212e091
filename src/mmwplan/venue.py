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

from .angles import wrap_angle
from .errors import GeometryError, VenueFormatError

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
        except (KeyError, TypeError, ValueError) as exc:
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


# -- view-ray geometry ----------------------------------------------------


def venue_betas(venue: Venue, default: float) -> List[float]:
    """Per-user connectivity targets: the venue's per-seat overrides where
    present, ``default`` everywhere else."""
    return [
        default if gp.beta is None else gp.beta
        for gp in venue.grid_positions
    ]


def _check_ids(venue: Venue, gp_id: int, ap_id: int) -> None:
    if not (0 <= gp_id < venue.n_grid):
        raise GeometryError(f"grid position id {gp_id} out of range")
    if not (0 <= ap_id < venue.n_candidates):
        raise GeometryError(f"candidate id {ap_id} out of range")


def _direction_angles(src: Vec3, dst: Vec3) -> Tuple[float, float]:
    dx = dst[0] - src[0]
    dy = dst[1] - src[1]
    dz = dst[2] - src[2]
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d == 0.0:
        raise GeometryError("coincident endpoints have no view direction")
    azimuth = math.atan2(dy, dx) if (dx != 0.0 or dy != 0.0) else 0.0
    elevation = math.acos(max(-1.0, min(1.0, dz / d)))
    return azimuth, elevation


def tx_angles(venue: Venue, ap_id: int, gp_id: int) -> Tuple[float, float]:
    """Azimuth and elevation of the ray from candidate ``ap_id`` toward grid
    position ``gp_id``. Elevation is measured from +z, so a user straight
    below sits at elevation pi."""
    _check_ids(venue, gp_id, ap_id)
    return _direction_angles(
        venue.candidates[ap_id].position, venue.grid_positions[gp_id].position
    )


def rx_angles(venue: Venue, gp_id: int, ap_id: int) -> Tuple[float, float]:
    """Azimuth and elevation of the ray from grid position ``gp_id`` toward
    candidate ``ap_id``. Candidates sit above every device, so the elevation
    is always in [0, pi/2)."""
    _check_ids(venue, gp_id, ap_id)
    return _direction_angles(
        venue.grid_positions[gp_id].position, venue.candidates[ap_id].position
    )


def nadir_angle(elevation_from_up: float) -> float:
    """Convert a +z-referenced elevation to the angle from straight down.

    Beam steering elevations are referenced from the downward vertical
    (0 points at the floor), matching how ceiling antennas are aimed.
    """
    return math.pi - elevation_from_up


def horizontal_distance(venue: Venue, gp_id: int, ap_id: int) -> float:
    g = venue.grid_positions[gp_id].position
    a = venue.candidates[ap_id].position
    return math.hypot(a[0] - g[0], a[1] - g[1])


def link_distance(venue: Venue, gp_id: int, ap_id: int) -> float:
    g = venue.grid_positions[gp_id].position
    a = venue.candidates[ap_id].position
    return math.sqrt(
        (a[0] - g[0]) ** 2 + (a[1] - g[1]) ** 2 + (a[2] - g[2]) ** 2
    )


def _blocker_arrays(
    venue: Venue,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not venue.blockers:
        empty = np.zeros((0, 3))
        return empty, empty, np.zeros(0, dtype=np.int64)
    lo = np.empty((len(venue.blockers), 3))
    hi = np.empty((len(venue.blockers), 3))
    owner = np.empty(len(venue.blockers), dtype=np.int64)
    for i, b in enumerate(venue.blockers):
        blo, bhi = b.bounds()
        lo[i] = blo
        hi[i] = bhi
        owner[i] = -1 if b.owner is None else b.owner
    return lo, hi, owner


def _segment_hits_boxes(
    p0: np.ndarray, p1: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Slab test of the open segment (p0, p1) against closed boxes.

    Returns a boolean per box. Touching a box face counts as a hit.
    """
    if lo.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    d = p1 - p0
    t_near = np.full(lo.shape[0], -np.inf)
    t_far = np.full(lo.shape[0], np.inf)
    miss = np.zeros(lo.shape[0], dtype=bool)
    for ax in range(3):
        if d[ax] == 0.0:
            miss |= (p0[ax] < lo[:, ax]) | (p0[ax] > hi[:, ax])
        else:
            ta = (lo[:, ax] - p0[ax]) / d[ax]
            tb = (hi[:, ax] - p0[ax]) / d[ax]
            t_near = np.maximum(t_near, np.minimum(ta, tb))
            t_far = np.minimum(t_far, np.maximum(ta, tb))
    return ~miss & (t_near <= t_far) & (t_far > 0.0) & (t_near < 1.0)


def ray_occluded(venue: Venue, gp_id: int, ap_id: int) -> bool:
    """True when any blocker not owned by ``gp_id`` cuts the open segment
    from the device to the candidate."""
    _check_ids(venue, gp_id, ap_id)
    lo, hi, owner = _blocker_arrays(venue)
    if lo.shape[0] == 0:
        return False
    keep = owner != gp_id
    p0 = np.asarray(venue.grid_positions[gp_id].position, dtype=float)
    p1 = np.asarray(venue.candidates[ap_id].position, dtype=float)
    hits = _segment_hits_boxes(p0, p1, lo[keep], hi[keep])
    return bool(hits.any())


def occlusion_matrix(venue: Venue) -> np.ndarray:
    """Boolean (n_grid, n_candidates) matrix of ray_occluded results."""
    lo, hi, owner = _blocker_arrays(venue)
    occ = np.zeros((venue.n_grid, venue.n_candidates), dtype=bool)
    if lo.shape[0] == 0:
        return occ
    for m, gp in enumerate(venue.grid_positions):
        keep = owner != m
        blo, bhi = lo[keep], hi[keep]
        p0 = np.asarray(gp.position, dtype=float)
        for l, cand in enumerate(venue.candidates):
            p1 = np.asarray(cand.position, dtype=float)
            occ[m, l] = bool(_segment_hits_boxes(p0, p1, blo, bhi).any())
    return occ


__all__ = [
    "VENUE_FORMAT_VERSION",
    "GridPosition",
    "CandidateLocation",
    "BodyPrism",
    "Venue",
    "venue_betas",
    "tx_angles",
    "rx_angles",
    "nadir_angle",
    "horizontal_distance",
    "link_distance",
    "ray_occluded",
    "occlusion_matrix",
    "wrap_angle",
]
