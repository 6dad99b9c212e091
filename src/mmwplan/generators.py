"""Deterministic builders for the reference venues.

Four layouts are provided:

* ``hall``: a 40 x 25 m assembly hall (1000 m^2), 135 seats in 9 rows facing
  the stage edge at y = 0, ceiling sloping from 3.40 m at the stage to
  4.37 m at the back, 20 candidate mounts on a 5 x 4 ceiling grid.
* ``airport``: a 25 x 20 m gate area (500 m^2), 160 seats in 4 back-to-back
  double rows facing away from each other, flat 10 m ceiling, 16 candidate
  mounts on a 4 x 4 grid.
* ``stadium``: one side of a stand, 1040 seats in 26 tiers rising from 5 m
  to 35 m, everyone facing the field, 16 candidate mounts at 45 m.
* ``toy``: a 6-seat, 4-candidate fixture small enough for exhaustive
  solvers.

Builders are pure functions of their arguments; identical inputs produce
bit-identical venues.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .venue import BodyPrism, CandidateLocation, GridPosition, Venue

# Seated body prism and device placement defaults. The device sits a little
# in front of the torso center at chest height; the prism spans torso and
# head of a seated person.
DEFAULT_BODY_SIZE = (0.5, 0.3, 1.3)
DEFAULT_DEVICE_FORWARD = 0.3
DEFAULT_DEVICE_HEIGHT = 0.7
DEFAULT_ORIENTATION_STD = math.pi / 6.0
DEFAULT_DEVICE_TILT = math.pi / 4.0

VENUE_KINDS = ("hall", "airport", "stadium", "toy")


def _seat(
    gp_id: int,
    base: Tuple[float, float, float],
    facing: float,
    presence_prob: float,
    orientation_std: float,
) -> Tuple[GridPosition, BodyPrism]:
    x, y, z = base
    device = (
        x + DEFAULT_DEVICE_FORWARD * math.cos(facing),
        y + DEFAULT_DEVICE_FORWARD * math.sin(facing),
        z + DEFAULT_DEVICE_HEIGHT,
    )
    gp = GridPosition(
        id=gp_id,
        position=device,
        facing=facing,
        elevation=DEFAULT_DEVICE_TILT,
        presence_prob=presence_prob,
        orientation_std=orientation_std,
    )
    prism = BodyPrism(
        center=(x, y, z + 0.5 * DEFAULT_BODY_SIZE[2]),
        size=DEFAULT_BODY_SIZE,
        owner=gp_id,
    )
    return gp, prism


def _build(
    name: str,
    seats: List[Tuple[Tuple[float, float, float], float]],
    candidates: List[Tuple[float, float, float]],
    presence_prob: float,
    orientation_std: float,
) -> Venue:
    gps: List[GridPosition] = []
    prisms: List[BodyPrism] = []
    for i, (base, facing) in enumerate(seats):
        gp, prism = _seat(i, base, facing, presence_prob, orientation_std)
        gps.append(gp)
        prisms.append(prism)
    cands = [
        CandidateLocation(id=j, position=pos)
        for j, pos in enumerate(candidates)
    ]
    return Venue(name=name, grid_positions=gps, candidates=cands,
                 blockers=prisms)


def _hall_seats() -> List[Tuple[Tuple[float, float, float], float]]:
    # 9 rows of 15 seats; the stage edge is the y = 0 wall and every seat
    # faces the stage center at (20, 0).
    seats = []
    for row in range(9):
        y = 5.0 + 2.0 * row
        for col in range(15):
            x = 6.0 + 2.0 * col
            facing = math.atan2(0.0 - y, 20.0 - x)
            seats.append(((x, y, 0.0), facing))
    return seats


def _hall_ceiling(y: float) -> float:
    # Ceiling rises linearly from the stage (3.40 m) to the back wall
    # (4.37 m) along the 25 m depth.
    return 3.40 + (4.37 - 3.40) * (y / 25.0)


def _hall_candidates() -> List[Tuple[float, float, float]]:
    xs = [4.0, 12.0, 20.0, 28.0, 36.0]
    ys = [3.125, 9.375, 15.625, 21.875]
    return [(x, y, _hall_ceiling(y)) for y in ys for x in xs]


def _airport_seats() -> List[Tuple[Tuple[float, float, float], float]]:
    # 4 double rows of benches placed back to back; the two sub-rows of a
    # pair face in opposite directions.
    seats = []
    for pair in range(4):
        yc = 4.0 + 4.0 * pair
        for col in range(20):
            x = 2.5 + 1.0 * col
            seats.append(((x, yc - 0.3, 0.0), -math.pi / 2.0))
        for col in range(20):
            x = 2.5 + 1.0 * col
            seats.append(((x, yc + 0.3, 0.0), math.pi / 2.0))
    return seats


def _airport_candidates() -> List[Tuple[float, float, float]]:
    xs = [3.125, 9.375, 15.625, 21.875]
    ys = [2.5, 7.5, 12.5, 17.5]
    return [(x, y, 10.0) for y in ys for x in xs]


def _stadium_seats() -> List[Tuple[Tuple[float, float, float], float]]:
    # 26 tiers of 40 seats on one side of the stand. Tier r sits at
    # y = 2 + 1.4 r and rises from 5 m to 35 m. Everyone faces the field
    # center at (30, -20).
    seats = []
    for row in range(26):
        y = 2.0 + 1.4 * row
        z = 5.0 + 1.2 * row
        for col in range(40):
            x = 0.75 + 1.5 * col
            facing = math.atan2(-20.0 - y, 30.0 - x)
            seats.append(((x, y, z), facing))
    return seats


def _stadium_candidates() -> List[Tuple[float, float, float]]:
    xs = [3.75 + 7.5 * k for k in range(8)]
    ys = [10.0, 25.0]
    return [(x, y, 45.0) for y in ys for x in xs]


def _toy_seats() -> List[Tuple[Tuple[float, float, float], float]]:
    seats = []
    for y in (3.0, 5.0):
        for x in (3.0, 5.0, 7.0):
            seats.append(((x, y, 0.0), math.pi / 2.0))
    return seats


def _toy_candidates() -> List[Tuple[float, float, float]]:
    return [(2.5, 2.5, 5.0), (7.5, 2.5, 5.0), (2.5, 6.5, 5.0),
            (7.5, 6.5, 5.0)]


def generate_venue(
    kind: str,
    *,
    presence_prob: float = 1.0,
    orientation_std: float = DEFAULT_ORIENTATION_STD,
    name: Optional[str] = None,
) -> Venue:
    """Build one of the reference venues.

    ``presence_prob`` and ``orientation_std`` apply uniformly to every
    seat; callers wanting per-seat variety can edit the returned venue or
    build one directly.
    """
    if kind == "hall":
        seats, cands = _hall_seats(), _hall_candidates()
    elif kind == "airport":
        seats, cands = _airport_seats(), _airport_candidates()
    elif kind == "stadium":
        seats, cands = _stadium_seats(), _stadium_candidates()
    elif kind == "toy":
        seats, cands = _toy_seats(), _toy_candidates()
    else:
        raise ValueError(
            f"unknown venue kind {kind!r}; expected one of {VENUE_KINDS}"
        )
    return _build(name or kind, seats, cands, presence_prob, orientation_std)


__all__ = ["generate_venue", "VENUE_KINDS"]
