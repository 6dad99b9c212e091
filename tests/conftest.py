"""Shared fixtures and venue builders for the test suite."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from mmwplan import ChannelParams, generate_venue
from mmwplan.venue import BodyPrism, CandidateLocation, GridPosition, Venue

# Property tests replay the same examples on every run, never time out on a
# loaded host, and keep no example database on disk. "mmwplan-deep" runs
# 2000 examples per test; select it with --hypothesis-profile, which the
# hypothesis plugin applies after this module has loaded "mmwplan".
settings.register_profile(
    "mmwplan", deadline=None, derandomize=True, database=None
)
settings.register_profile(
    "mmwplan-deep", settings.get_profile("mmwplan"), max_examples=2000
)
settings.load_profile("mmwplan")


def random_toy(seed):
    """Toy venue with seeded per-seat presence masses and random furniture.

    Furniture prisms stand on the floor between the seats; heights up to
    2.2 m so some of them cut oblique links while overhead links stay
    clear.
    """
    rng = np.random.default_rng(seed)
    venue = generate_venue("toy")
    gps = [replace(gp, presence_prob=float(rng.uniform(0.4, 1.0)))
           for gp in venue.grid_positions]
    extra = []
    for _ in range(int(rng.integers(2, 5))):
        cx = float(rng.uniform(2.0, 8.0))
        cy = float(rng.uniform(2.0, 7.0))
        h = float(rng.uniform(0.8, 2.2))
        sx = float(rng.uniform(0.3, 1.0))
        sy = float(rng.uniform(0.3, 1.0))
        extra.append(BodyPrism(center=(cx, cy, h / 2.0), size=(sx, sy, h)))
    return Venue(
        name=f"toy-{seed}",
        grid_positions=gps,
        candidates=list(venue.candidates),
        blockers=list(venue.blockers) + extra,
    )


def single_link_venue(dx=3.0, dz=4.0, facing=0.0, std=math.pi / 6.0,
                      tilt=math.pi / 4.0, blockers=()):
    """One seat at the origin, one candidate offset by (dx, 0, dz)."""
    gp = GridPosition(id=0, position=(0.0, 0.0, 1.0), facing=facing,
                      elevation=tilt, presence_prob=1.0,
                      orientation_std=std)
    cand = CandidateLocation(id=0, position=(dx, 0.0, 1.0 + dz))
    return Venue(name="one-link", grid_positions=[gp], candidates=[cand],
                 blockers=list(blockers))


@pytest.fixture(scope="session")
def toy_venue():
    return generate_venue("toy")


@pytest.fixture(scope="session")
def default_params():
    return ChannelParams()


@pytest.fixture(scope="session")
def tight_params():
    # capacity 3 makes the load constraint bind on the 6-seat toy
    return replace(ChannelParams(), capacity_per_beam=3)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
