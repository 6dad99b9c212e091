"""The array model build against the scalar oracles, bit for bit.

``PlanningModel`` computes occlusion, link reach and scenario partitions as
arrays; ``tests/oracles.py`` keeps the one-pair, one-link and one-cell
versions. Random toy rooms stress the slab test's edge cases (vertical
rays, segments parallel to a coordinate plane, prism faces on a quarter
metre grid that meet segments and each other exactly), random channel
parameters stress every ring pattern of the reach walk, and random
(azimuth, reach) rows stress wrapped arcs and shared cell boundaries.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import random_toy
from mmwplan import ChannelParams, generate_venue
from mmwplan.inputs import load_json
from mmwplan.scenarios import OrientationDistribution, seat_partition
from mmwplan.solver import PlanningModel
from mmwplan.venue import (
    BodyPrism,
    CandidateLocation,
    GridPosition,
    Venue,
    occlusion_matrix,
)

QUARTER = st.integers(0, 40).map(lambda k: k / 4.0)
SIDE = st.integers(1, 8).map(lambda k: k / 4.0)


@st.composite
def rooms(draw):
    """random_toy plus vertical rays, axis-parallel segments and prisms
    whose faces lie on segments or on a quarter-metre grid."""
    v = random_toy(draw(st.integers(0, 2 ** 16)))
    seats, mounts = list(v.grid_positions), list(v.candidates)
    prisms = list(v.blockers)
    index = st.integers(0, len(seats) - 1)
    mount = st.integers(0, len(mounts) - 1)
    if draw(st.booleans()):
        # a mount straight above a seat
        m, l = draw(index), draw(mount)
        x, y, _ = seats[m].position
        mounts[l] = replace(mounts[l], position=(x, y, mounts[l].position[2]))
    if draw(st.booleans()):
        # a segment parallel to the xz or the yz plane
        m, l, ax = draw(index), draw(mount), draw(st.sampled_from((0, 1)))
        pos = list(mounts[l].position)
        pos[ax] = seats[m].position[ax]
        mounts[l] = replace(mounts[l], position=tuple(pos))
    for _ in range(draw(st.integers(0, 6))):
        prisms.append(BodyPrism(
            center=(draw(QUARTER), draw(QUARTER),
                    draw(st.integers(1, 12).map(lambda k: k / 4.0))),
            size=(draw(SIDE), draw(SIDE), draw(SIDE)),
            owner=draw(st.none() | index),
        ))
    if draw(st.booleans()):
        # a prism with one face through a point of a seat-mount segment
        m, l = draw(index), draw(mount)
        t = draw(st.sampled_from((0.25, 0.5, 0.75)))
        p0 = np.array(seats[m].position)
        p = p0 + t * (np.array(mounts[l].position) - p0)
        ax = draw(st.integers(0, 2))
        center = [float(c) for c in p]
        center[ax] += draw(st.sampled_from((-0.25, 0.25)))
        prisms.append(BodyPrism(center=tuple(center), size=(0.5, 0.5, 0.5)))
    return Venue(name=v.name, grid_positions=seats, candidates=mounts,
                 blockers=prisms)


@st.composite
def channels(draw):
    return replace(
        ChannelParams(),
        self_block_half_angle=draw(st.sampled_from(
            (math.pi / 2.0, math.pi, 1.0, 2.5))),
        md_beamwidth=draw(st.sampled_from(
            (math.pi / 2.0, math.pi / 3.0, 2.0, 5.0))),
        snr_threshold_db=float(draw(st.integers(-20, 40))),
        side_lobe_gain_db=draw(st.sampled_from((-2.0, -10.0))),
        fade_margin_db=draw(st.sampled_from((0.0, 3.0))),
    )


@given(rooms())
def test_occlusion_matrix_equals_per_pair_slab_test(v):
    occ = occlusion_matrix(v)
    for m in range(v.n_grid):
        for l in range(v.n_candidates):
            assert occ[m, l] == oracles.ray_occluded(v, m, l), (m, l)


@given(rooms(), channels(), st.sampled_from((0.0, math.pi / 4.0, 1.2)))
def test_array_reach_equals_ring_walk(v, params, tilt):
    v = replace(v, grid_positions=[
        replace(gp, elevation=tilt) for gp in v.grid_positions])
    model = PlanningModel(v, params, 0.5)
    assert model.reach.tobytes() == oracles.model_reach(model).tobytes()
    # the same reach from the scalar geometry and the unpruned slab test;
    # an array azimuth may differ from math.atan2 in the last bit, or be
    # -pi where it gives pi
    for m in range(v.n_grid):
        for l in range(v.n_candidates):
            phi_rx, reach = oracles.link_reach(v, params, m, l)
            assert model.reach[m, l] == reach, (m, l)
            off = math.remainder(model.phi_rx[m, l] - phi_rx, 2.0 * math.pi)
            assert abs(off) <= 1e-12, (m, l)


@given(rooms(), channels())
def test_model_partitions_equal_cell_by_cell_build(v, params):
    model = PlanningModel(v, params, 0.5)
    for got, want in zip(model.partitions, oracles.model_partitions(model)):
        assert oracles.same_partition(got, want), got.gp


def _seat_venue(n_links, facing, std):
    gp = GridPosition(id=0, position=(0.0, 0.0, 1.0), facing=facing,
                      elevation=math.pi / 4.0, presence_prob=1.0,
                      orientation_std=std)
    mounts = [CandidateLocation(id=l, position=(float(l), 1.0, 5.0))
              for l in range(n_links)]
    return Venue(name="one-seat", grid_positions=[gp], candidates=mounts)


AZIMUTH = st.sampled_from(
    (-math.pi, math.pi, 0.0, -0.0, math.pi / 2.0, 3.0, -3.0)
) | st.floats(-math.pi, math.pi)
REACH = st.sampled_from(
    (0.0, math.pi, 4.0, math.pi / 2.0, 1.0, math.pi - 1e-9, 1e-12)
) | st.floats(0.0, 4.0)


@given(st.lists(st.tuples(AZIMUTH, REACH), min_size=1, max_size=8),
       st.sampled_from((0.0, 3.0, -math.pi, math.pi, -1.0)),
       st.sampled_from((math.pi / 6.0, 0.05, 2.0)))
def test_seat_partition_equals_cell_by_cell_build(rows, facing, std):
    """Rows repeat azimuths and reaches, so arcs share endpoints, wrap
    through +-pi, end exactly at +-pi, and cover or miss the circle."""
    v = _seat_venue(len(rows), facing, std)
    phi = np.array([r[0] for r in rows])
    reach = np.array([r[1] for r in rows])
    dist = OrientationDistribution.for_gp(v, 0)
    try:
        arcs = [oracles.AngularInterval.from_center(a, h) for a, h in rows]
    except ValueError:
        with pytest.raises(ValueError):
            seat_partition(0, dist, phi, reach)
        return
    want = oracles.build_scenarios(v, 0, arcs)
    assert oracles.same_partition(seat_partition(0, dist, phi, reach), want)


@pytest.mark.parametrize("name", ["hall", "airport", "stadium"])
def test_built_in_venues_match_oracles_bit_for_bit(name):
    v = generate_venue(name)
    model = PlanningModel(v, ChannelParams(), 0.9)
    assert (model.occluded == oracles.occlusion_matrix(v)).all()
    assert model.reach.tobytes() == oracles.model_reach(model).tobytes()
    for got, want in zip(model.partitions, oracles.model_partitions(model)):
        assert oracles.same_partition(got, want), got.gp


# steerings off the default grid: both ends of the azimuth range, azimuths
# and an elevation near them, and a repeated direction (-pi and pi)
OFF_GRID = {"elevation_grid": [0.0, 0.7, 1.6, 3.0],
            "azimuth_grid": [-math.pi, math.pi, 3.0, -3.0, 0.1]}


@pytest.mark.parametrize("grids", [{}, OFF_GRID], ids=["default", "off-grid"])
@pytest.mark.parametrize("name", ["toy", "hall", "airport", "stadium"])
def test_grid_footprints_equal_one_steering_footprints(tmp_path, name, grids):
    # the broadcast build over the whole steering grid against one
    # footprint call per (mount, steering), bit for bit
    path = tmp_path / "params.json"
    path.write_text(json.dumps(grids))
    params = load_json(str(path), "params", ChannelParams.from_dict)
    model = PlanningModel(generate_venue(name), params, 0.9)
    assert len(model.foot_members) == model.L
    for l, rows in enumerate(model.foot_members):
        assert len(rows) == model.n_tuples
        for ti, got in enumerate(rows):
            want = model.footprint(l, *model.steering_angles(ti))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (l, ti)


def test_prism_touching_a_segment_at_the_highest_top_is_kept():
    # the segment (0,0,1)-(4,0,5) meets the top edge of the only prism at
    # (1,0,2), which is also where the prune's search box ends
    gp = GridPosition(id=0, position=(0.0, 0.0, 1.0), facing=0.0,
                      elevation=math.pi / 4.0, presence_prob=1.0,
                      orientation_std=0.5)
    v = Venue(name="touch", grid_positions=[gp],
              candidates=[CandidateLocation(id=0, position=(4.0, 0.0, 5.0))],
              blockers=[BodyPrism(center=(1.5, 0.0, 1.0),
                                  size=(1.0, 2.0, 2.0))])
    assert oracles.ray_occluded(v, 0, 0)
    assert occlusion_matrix(v)[0, 0]
