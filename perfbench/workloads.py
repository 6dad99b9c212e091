"""Seeded input variants and the argv of one op for each workload.

Every variant is a pure function of (workload, variant id): it is built
from ``generate_venue`` plus ``dataclasses.replace`` with a
``random.Random`` seeded by a string, whose stream Python keeps stable
across versions. The planner only ever sees the JSON files written here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import replace

from mmwplan import ChannelParams, generate_venue
from mmwplan.venue import BodyPrism, CandidateLocation, Venue

ALPHA = "0.75"
BETA = "0.9"

# plan-tiled: the hall tiled 2 x 2 (540 seats, 540 body prisms) under an
# 8 x 7 mount grid. This version of the planner keeps candidate sets in
# int64 bitmasks and crashes at 64 mounts, so the grid stays at 63 or fewer.
TILE_W, TILE_D = 40.0, 25.0
TILED_COLS, TILED_ROWS = 8, 7
MAX_TILED_MOUNTS = 63
if TILED_COLS * TILED_ROWS > MAX_TILED_MOUNTS:
    raise ValueError("plan-tiled mount grid exceeds 63 mounts")

# compare-guard: the largest room the exact solver accepts by default
# (6 mounts x 12 seats), with the beam capacity of the tests' tight_params.
GUARD_CAPACITY = 3

# validate-mc: orientation samples per Monte Carlo replay.
MC_SAMPLES = 200_000


def _hall_ceiling(y: float) -> float:
    return 3.40 + (4.37 - 3.40) * (y / TILE_D)


def _with_masses(rng: random.Random, gps):
    return [replace(gp, presence_prob=rng.uniform(0.4, 1.0)) for gp in gps]


def _tile(venue: Venue, offsets):
    """Copies of a venue's seats and body prisms shifted by each offset."""
    n = venue.n_grid
    gps, prisms = [], []
    for t, (ox, oy) in enumerate(offsets):
        for gp in venue.grid_positions:
            x, y, z = gp.position
            gps.append(replace(gp, id=t * n + gp.id, position=(x + ox, y + oy, z)))
        for b in venue.blockers:
            x, y, z = b.center
            prisms.append(
                replace(b, center=(x + ox, y + oy, z), owner=t * n + b.owner)
            )
    return gps, prisms


def tiled_hall(v: int) -> Venue:
    """The hall tiled 2 x 2 with seeded masses and a jittered mount grid."""
    rng = random.Random(f"plan-tiled:{v}")
    gps, prisms = _tile(
        generate_venue("hall"),
        [(0.0, 0.0), (TILE_W, 0.0), (0.0, TILE_D), (TILE_W, TILE_D)],
    )
    gps = _with_masses(rng, gps)
    cands = []
    for r in range(TILED_ROWS):
        for c in range(TILED_COLS):
            x = (c + 0.5) * 2.0 * TILE_W / TILED_COLS + rng.uniform(-1.0, 1.0)
            y = (r + 0.5) * 2.0 * TILE_D / TILED_ROWS + rng.uniform(-1.0, 1.0)
            cands.append(
                CandidateLocation(
                    id=len(cands), position=(x, y, _hall_ceiling(y % TILE_D))
                )
            )
    return Venue(f"tiled-{v}", gps, cands, prisms)


def guard_room(v: int) -> Venue:
    """Two toy rooms back to back: 12 seats, 6 mounts, random furniture.

    Rows face +y and -y in turn. With every row facing one way the
    optimum needs 4 access points and one op takes about 40 s; facing in
    turn keeps it at 3 access points and a few seconds.
    """
    rng = random.Random(f"compare-guard:{v}")
    gps, prisms = _tile(generate_venue("toy"), [(0.0, 0.0), (0.0, 4.0)])
    gps = [
        replace(gp, facing=math.pi / 2.0 if (gp.id // 3) % 2 == 0
                else -math.pi / 2.0)
        for gp in _with_masses(rng, gps)
    ]
    for _ in range(rng.randint(2, 4)):
        h = rng.uniform(0.8, 2.2)
        prisms.append(
            BodyPrism(
                center=(rng.uniform(2.0, 8.0), rng.uniform(2.0, 11.0), h / 2.0),
                size=(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0), h),
            )
        )
    cands = [
        CandidateLocation(id=2 * r + c, position=(x, y, 5.0))
        for r, y in enumerate((2.5, 6.5, 10.5))
        for c, x in enumerate((2.5, 7.5))
    ]
    return Venue(f"guard-{v}", gps, cands, prisms)


def mc_hall(v: int) -> Venue:
    """The hall with seeded masses and mounts jittered by up to 0.5 m."""
    rng = random.Random(f"validate-mc:{v}")
    hall = generate_venue("hall")
    cands = []
    for c in hall.candidates:
        x, y, _ = c.position
        x += rng.uniform(-0.5, 0.5)
        y += rng.uniform(-0.5, 0.5)
        cands.append(replace(c, position=(x, y, _hall_ceiling(y))))
    return Venue(
        f"mc-hall-{v}", _with_masses(rng, hall.grid_positions), cands,
        hall.blockers,
    )


def _venue_path(d: str) -> str:
    return os.path.join(d, "venue.json")


class Workload:
    """How to write one variant's input files and the argv of its op.

    ``outputs`` names the files an op writes; ``warmup_venue`` is a small
    venue, never timed, that runs the same code paths once before timing.
    """

    name = ""
    outputs: tuple = ()

    def venue(self, v: int) -> Venue:
        raise NotImplementedError

    def warmup_venue(self) -> Venue:
        return generate_venue("hall")

    def prepare(self, run_cli, d: str, venue: Venue) -> None:
        venue.save(_venue_path(d))

    def argv(self, d: str, v: int, out: str) -> list:
        raise NotImplementedError


class PlanTiled(Workload):
    name = "plan-tiled"
    outputs = ("deployment.json", "trace.json")

    def venue(self, v):
        return tiled_hall(v)

    def argv(self, d, v, out):
        return [
            "plan", "--venue", _venue_path(d),
            "--solver", "greedy", "--alpha", ALPHA, "--beta", BETA,
            "--out", os.path.join(out, "deployment.json"),
            "--trace-out", os.path.join(out, "trace.json"),
        ]


class CompareGuard(Workload):
    name = "compare-guard"
    outputs = ("compare.csv",)

    def venue(self, v):
        return guard_room(v)

    def warmup_venue(self):
        return generate_venue("toy")

    def prepare(self, run_cli, d, venue):
        super().prepare(run_cli, d, venue)
        params = replace(ChannelParams(), capacity_per_beam=GUARD_CAPACITY)
        with open(os.path.join(d, "cap3.json"), "w") as fh:
            json.dump(params.to_dict(), fh)

    def argv(self, d, v, out):
        return [
            "compare", "--venue", _venue_path(d),
            "--alpha", ALPHA, "--beta", BETA,
            "--params", os.path.join(d, "cap3.json"),
            "--out", os.path.join(out, "compare.csv"),
        ]


class ValidateMc(Workload):
    name = "validate-mc"
    outputs = ("mc.json",)

    def venue(self, v):
        return mc_hall(v)

    def prepare(self, run_cli, d, venue):
        """Writes the venue and plans its greedy deployment through the CLI."""
        super().prepare(run_cli, d, venue)
        code = run_cli([
            "plan", "--venue", _venue_path(d),
            "--solver", "greedy", "--alpha", ALPHA, "--beta", BETA,
            "--out", os.path.join(d, "deployment.json"),
        ])
        if code != 0:
            raise RuntimeError(
                f"planning the deployment of {venue.name} exited {code}"
            )

    def argv(self, d, v, out):
        seed = random.Random(f"validate-mc-seed:{v}").randrange(2 ** 31)
        return [
            "validate", "--venue", _venue_path(d),
            "--deployment", os.path.join(d, "deployment.json"),
            "--alpha", ALPHA, "--beta", BETA,
            "--mc", "--samples", str(MC_SAMPLES), "--seed", str(seed),
            "--out", os.path.join(out, "mc.json"),
        ]


WORKLOADS = {w.name: w for w in (PlanTiled(), CompareGuard(), ValidateMc())}
