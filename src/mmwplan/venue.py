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


# -- occlusion -------------------------------------------------------------


def _blocker_arrays(
    venue: Venue,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower corners ``center - size / 2``, upper corners
    ``center + size / 2`` and owners (-1 for none) of the prisms, one
    row each."""
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
    """Slab test of open segments (p0, p1) against closed boxes [lo, hi].

    The four arguments are points of shape (..., 3) that broadcast
    together; the result holds one boolean per segment-box pair, shape
    (...). Touching a box face counts as a hit. An axis along which a
    segment does not move cannot bound its parameter; the segment then
    misses every box whose slab on that axis does not contain it.
    """
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    shape = np.broadcast_shapes(d.shape, lo.shape, hi.shape)[:-1]
    t_near = np.full(shape, -np.inf)
    t_far = np.full(shape, np.inf)
    miss = np.zeros(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ax in range(3):
            s_ax, d_ax = p0[..., ax], d[..., ax]
            flat = d_ax == 0.0
            miss |= flat & ((s_ax < lo[..., ax]) | (s_ax > hi[..., ax]))
            ta = (lo[..., ax] - s_ax) / d_ax
            tb = (hi[..., ax] - s_ax) / d_ax
            t_near = np.where(
                flat, t_near, np.maximum(t_near, np.minimum(ta, tb))
            )
            t_far = np.where(flat, t_far, np.minimum(t_far, np.maximum(ta, tb)))
    return ~miss & (t_near <= t_far) & (t_far > 0.0) & (t_near < 1.0)


# margin around the region a prism must reach to be tested at all, in m,
# and around the azimuths a prism spans as seen from a seat, in rad
_PRUNE_PAD = 1e-6
_AZIMUTH_PAD = 1e-9
# seats per batch of occlusion_matrix; its temporaries grow with
# batch x prisms and with the (seat, prism, mount) triples of a batch
_OCCLUSION_BATCH = 32
# row stride of the batch's azimuth table, more than its 4 pi per row
_AZIMUTH_STRIDE = 16.0


def _runs(first: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run index and position of every element of the runs
    ``[first[i], first[i] + count[i])``, run after run."""
    run = np.repeat(np.arange(len(count)), count)
    at = np.arange(len(run)) + np.repeat(first - (np.cumsum(count) - count), count)
    return run, at


def _near_pairs(
    p0: np.ndarray, ids: np.ndarray, d: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, width: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (seat, prism) pairs of a batch that any segment from the seat
    can meet: seat ``p0[i]`` (id ``ids[i]``) with rays ``d[i]`` to every
    mount, against prisms sorted by ``lo[:, 0]`` and at most ``width``
    wide in x.

    Every segment rises (``Venue.validate`` puts every mount above every
    seat), so it can only meet prism k along its part below k's top. That
    part lies in the seat's xy box of every segment's part below the
    highest top, and within ``max(top_k - z_seat, 0)`` times the steepest
    horizontal-to-rise ratio of the seat's segments from the seat (the
    prism's ``radius``). The prisms whose x range can meet the box are one
    run of the sorted prisms; a pair is kept when the prism's xy box meets
    the seat's box cut to the square of that radius around the seat, each
    padded by ``_PRUNE_PAD``, and the prism is not the seat's own.
    """
    rise = d[..., 2]
    top = hi[:, 2].max()
    t = np.clip((top - p0[:, 2:3]) / rise, 0.0, 1.0)
    ends = p0[:, None, :2] + t[..., None] * d[..., :2]
    slope = (np.hypot(d[..., 0], d[..., 1]) / rise).max(axis=1)
    box_lo = np.minimum(ends.min(axis=1), p0[:, :2]) - _PRUNE_PAD
    box_hi = np.maximum(ends.max(axis=1), p0[:, :2]) + _PRUNE_PAD
    # the batch's run of prisms whose x range can meet one of its boxes
    a = int(np.searchsorted(lo[:, 0], box_lo[:, 0].min() - width, "left"))
    b = int(np.searchsorted(lo[:, 0], box_hi[:, 0].max(), "right"))
    lo, hi = lo[a:b], hi[a:b]
    radius = (
        np.maximum(hi[None, :, 2] - p0[:, 2:3], 0.0) * slope[:, None]
        + _PRUNE_PAD
    )
    near = owner[None, a:b] != ids[:, None]
    for ax in (0, 1):
        c = p0[:, ax:ax + 1]
        near &= hi[None, :, ax] >= np.maximum(box_lo[:, ax:ax + 1], c - radius)
        near &= lo[None, :, ax] <= np.minimum(box_hi[:, ax:ax + 1], c + radius)
    seat, k = np.nonzero(near)
    return seat, k + a


def _window_mounts(
    p0: np.ndarray, d: np.ndarray, seat: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """For each pair (seat ``seat[j]`` of the batch, box ``lo[j]``,
    ``hi[j]``), the mounts whose segment from the seat heads into the
    box's azimuths, as (pair index, mount) rows.

    A segment meets a box only where its xy shadow, a ray from the seat
    along its azimuth, meets the box's. A seat at least ``_PRUNE_PAD``
    outside the box padded by ``_PRUNE_PAD`` sees that padded box span an
    azimuth window clearly narrower than pi, widened by ``_AZIMUTH_PAD``;
    a seat nearer gets every mount. Each seat's mounts are sorted by
    azimuth twice round the circle, so a window is one run of them.
    """
    n_rows, n_mounts = d.shape[:2]
    az = np.arctan2(d[..., 1], d[..., 0])
    order = np.argsort(az, axis=1)
    ring = np.take_along_axis(az, order, axis=1)
    offset = _AZIMUTH_STRIDE * np.arange(n_rows)[:, None]
    keys = (np.concatenate((ring, ring + 2.0 * np.pi), axis=1) + offset).ravel()
    mount_at = np.concatenate((order, order), axis=1).ravel()

    xy = p0[seat, :2]
    x0, y0 = (lo[:, :2] - _PRUNE_PAD - xy).T
    x1, y1 = (hi[:, :2] + _PRUNE_PAD - xy).T
    inside = (
        (x0 <= _PRUNE_PAD) & (x1 >= -_PRUNE_PAD)
        & (y0 <= _PRUNE_PAD) & (y1 >= -_PRUNE_PAD)
    )
    corner = np.arctan2(np.stack((y0, y0, y1, y1)), np.stack((x0, x1, x0, x1)))
    rel = np.remainder(corner - corner[0] + np.pi, 2.0 * np.pi) - np.pi
    start = corner[0] + rel.min(axis=0) - _AZIMUTH_PAD
    width = rel.max(axis=0) - rel.min(axis=0) + 2.0 * _AZIMUTH_PAD
    start = np.remainder(start + np.pi, 2.0 * np.pi) - np.pi
    base = _AZIMUTH_STRIDE * seat
    first = np.searchsorted(keys, start + base, side="left")
    count = np.searchsorted(keys, start + width + base, side="right") - first
    first = np.where(inside, 2 * n_mounts * seat, first)
    count = np.where(inside, n_mounts, np.minimum(count, n_mounts))
    pair, at = _runs(first, count)
    return pair, mount_at[at]


def occlusion_matrix(venue: Venue) -> np.ndarray:
    """Boolean (n_grid, n_candidates) matrix: whether a blocker not owned
    by the seat cuts the open segment from the seat to the candidate.

    Seats go in batches of ``_OCCLUSION_BATCH``. A batch keeps the
    (seat, prism) pairs of ``_near_pairs`` and, for each pair, the mounts
    of ``_window_mounts``. One slab test runs on those (seat, prism,
    mount) triples, and its hits are scattered into the matrix. The two
    prunes drop only triples the slab test misses, so the matrix is that
    of testing every triple.
    """
    lo, hi, owner = _blocker_arrays(venue)
    occ = np.zeros((venue.n_grid, venue.n_candidates), dtype=bool)
    if lo.shape[0] == 0:
        return occ
    seats = np.array([gp.position for gp in venue.grid_positions], dtype=float)
    mounts = np.array([c.position for c in venue.candidates], dtype=float)
    by_x = np.argsort(lo[:, 0])
    lo, hi, owner = lo[by_x], hi[by_x], owner[by_x]
    width = float((hi[:, 0] - lo[:, 0]).max()) + _PRUNE_PAD
    for s in range(0, venue.n_grid, _OCCLUSION_BATCH):
        ids = np.arange(s, min(s + _OCCLUSION_BATCH, venue.n_grid))
        p0 = seats[ids]
        d = mounts[None, :, :] - p0[:, None, :]
        seat, k = _near_pairs(p0, ids, d, lo, hi, owner, width)
        pair, l = _window_mounts(p0, d, seat, lo[k], hi[k])
        seat, k = seat[pair], k[pair]
        hit = _segment_hits_boxes(p0[seat], mounts[l], lo[k], hi[k])
        occ[ids[seat[hit]], l[hit]] = True
    return occ


__all__ = [
    "GridPosition",
    "CandidateLocation",
    "BodyPrism",
    "Venue",
    "occlusion_matrix",
]
