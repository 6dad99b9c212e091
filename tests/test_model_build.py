"""The array model build against the scalar oracles, bit for bit.

``PlanningModel`` computes occlusion, link reach and scenario partitions as
arrays; ``tests/oracles.py`` keeps the one-pair, one-link and one-cell
versions. Random toy rooms stress the slab test's edge cases (vertical
rays, segments parallel to a coordinate plane, prism faces on a quarter
metre grid that meet segments and each other exactly), tiered rooms
stress the occlusion prunes, which bound each prism's reach by its own
top, random channel parameters stress every ring pattern of the reach
walk, and random (azimuth, reach) rows stress wrapped arcs and shared cell
boundaries. Occlusion and partitions are built many seats at a time, so
the tests also shrink the batches until every seat lies on a batch edge.
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
import mmwplan.scenarios
import mmwplan.venue
from mmwplan.scenarios import _boundaries, seat_partitions
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
    block = draw(st.sampled_from((math.pi / 2.0, math.pi, 1.0, 2.5)))
    md = draw(st.sampled_from((math.pi / 2.0, math.pi / 3.0, 2.0, 5.0)))
    threshold = float(draw(st.integers(-20, 40)))
    side = draw(st.sampled_from((-2.0, -10.0)))
    # a 3 dB fade margin, drawn last as before, raises the threshold
    threshold += draw(st.sampled_from((0.0, 3.0)))
    return replace(
        ChannelParams(),
        self_block_half_angle=block,
        md_beamwidth=md,
        snr_threshold_db=threshold,
        side_lobe_gain_db=side,
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


def _check_store(store, n_seats):
    """The flat cell store holds its seats back to back, each with at
    least one cell, and nothing after the last."""
    cell_start, cell_probs, visible = store
    assert len(cell_start) == n_seats + 1
    assert cell_start[0] == 0
    assert (np.diff(cell_start) >= 1).all()
    assert cell_start[-1] == len(cell_probs) == len(visible)


def _store_cells(store, m):
    cell_start, cell_probs, visible = store
    s, e = cell_start[m], cell_start[m + 1]
    return cell_probs[s:e], visible[s:e]


def _check_model_partitions(model):
    """The model's store, each seat's cells read through ``cells(m)`` as
    views of it, bit-equal to the cell-by-cell walk."""
    _check_store((model.cell_start, model.cell_probs, model.visible), model.M)
    for m, want in enumerate(oracles.model_partitions(model)):
        cells = model.cells(m)
        assert np.shares_memory(cells[1], model.visible), m
        assert oracles.same_partition(cells, want), m


@given(rooms(), channels())
def test_model_partitions_equal_cell_by_cell_build(v, params):
    _check_model_partitions(PlanningModel(v, params, 0.5))


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
       st.sampled_from((math.pi / 6.0, 0.05, 2.0, math.ulp(0.0), 1e-310,
                        1e6)))
def test_seat_partition_equals_cell_by_cell_build(rows, facing, std):
    """Rows repeat azimuths and reaches, so arcs share endpoints, wrap
    through +-pi, end exactly at +-pi, and cover or miss the circle."""
    v = _seat_venue(len(rows), facing, std)
    phi = np.array([[r[0] for r in rows]])
    reach = np.array([[r[1] for r in rows]])
    try:
        arcs = [oracles.AngularInterval.from_center(a, h) for a, h in rows]
    except ValueError:
        with pytest.raises(ValueError):
            seat_partitions(v, phi, reach)
        return
    store = seat_partitions(v, phi, reach)
    _check_store(store, 1)
    want = oracles.build_scenarios(v, 0, arcs)
    assert oracles.same_partition(_store_cells(store, 0), want)


@pytest.mark.parametrize("name", ["hall", "airport", "stadium"])
def test_built_in_venues_match_oracles_bit_for_bit(name):
    v = generate_venue(name)
    model = PlanningModel(v, ChannelParams(), 0.9)
    assert (model.occluded == oracles.occlusion_matrix(v)).all()
    assert model.reach.tobytes() == oracles.model_reach(model).tobytes()
    _check_model_partitions(model)


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
    assert model.foot_start.shape == (model.L * model.n_tuples + 1,)
    for l in range(model.L):
        for ti in range(model.n_tuples):
            got = model.members(l, ti)
            want = model.footprint(l, *model.steering_angles(ti))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (l, ti)


@given(rooms(), st.sampled_from((2.0 * math.pi / 3.0, math.pi / 2.0, 1.0, 0.3)))
def test_footprints_equal_first_principles_beam_test(v, width):
    # every grid footprint holds exactly the usable seats whose offsets
    # from the boresight, taken on the mount's own view of the seat, lie
    # within half the width; a vertical ray has no azimuth, so its azimuth
    # offset is 0. A seat within 1e-9 of either edge may round to either
    # side and is left out
    model = PlanningModel(v, ChannelParams(ap_beamwidth=width), 0.5)
    half = width / 2.0
    for l in range(model.L):
        usable = np.flatnonzero(model.usable[:, l]).tolist()
        for ti in range(model.n_tuples):
            theta, phi = model.steering_angles(ti)
            got = set(model.members(l, ti).tolist())
            assert got <= set(usable), (l, ti)
            for m in usable:
                phi_tx, psi_tx = oracles.tx_angles(v, l, m)
                vertical = oracles.horizontal_distance(v, m, l) == 0.0
                az = 0.0 if vertical else oracles.angle_offset(phi, phi_tx)
                el = abs(theta - (math.pi - psi_tx))
                if min(abs(az - half), abs(el - half)) <= 1e-9:
                    continue
                assert (m in got) == (az <= half and el <= half), (l, ti, m)


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


def test_prism_touching_a_segment_at_its_own_top_is_kept():
    # as above, but a taller pillar off the segment lifts the venue's
    # highest top to 6 m, so only the touching prism's own top bounds the
    # region around the seat in which it is kept
    gp = GridPosition(id=0, position=(0.0, 0.0, 1.0), facing=0.0,
                      elevation=math.pi / 4.0, presence_prob=1.0,
                      orientation_std=0.5)
    touch = BodyPrism(center=(1.5, 0.0, 1.0), size=(1.0, 2.0, 2.0))
    pillar = BodyPrism(center=(-3.0, 4.0, 3.0), size=(1.0, 1.0, 6.0))
    v = Venue(name="touch-own-top", grid_positions=[gp],
              candidates=[CandidateLocation(id=0, position=(4.0, 0.0, 5.0)),
                          CandidateLocation(id=1, position=(0.0, -4.0, 5.0))],
              blockers=[pillar, touch])
    assert oracles.ray_occluded(v, 0, 0)
    assert not oracles.ray_occluded(v, 0, 1)
    assert occlusion_matrix(v).tolist() == [[True, False]]


def test_prism_the_slab_test_meets_past_the_rounded_top_is_kept():
    # the part of this segment below the prism's top ends, rounded, one
    # double short of the prism's x face, yet the slab test counts a
    # touch of the top edge; only the pad of the prism's radius around
    # the seat keeps it
    gp = GridPosition(id=0, position=(0.76, 0.0, 0.98), facing=0.0,
                      elevation=math.pi / 4.0, presence_prob=1.0,
                      orientation_std=0.5)
    prism = BodyPrism(center=(3.655729537366548, 0.0, 1.17),
                      size=(1.0, 1.0, 2.34))
    pillar = BodyPrism(center=(-3.0, 4.0, 3.0), size=(1.0, 1.0, 6.0))
    mount = (5.71, 0.0, 3.79)
    v = Venue(name="rounded-top", grid_positions=[gp],
              candidates=[CandidateLocation(id=0, position=mount)],
              blockers=[prism, pillar])
    t = (2.34 - 0.98) / (3.79 - 0.98)
    assert 0.76 + t * (5.71 - 0.76) < 3.655729537366548 - 0.5
    assert oracles.ray_occluded(v, 0, 0)
    assert occlusion_matrix(v)[0, 0]


@st.composite
def tiered_rooms(draw):
    """Seats on tiers that rise from row to row, each with its own body
    prism, so the bodies of the front rows end below the devices behind
    them; furniture of any height; mounts at least 1 m above every
    device; and, when drawn, a prism whose top face holds a point of a
    seat-mount segment, below a pillar that is the venue's highest top."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rise = draw(st.sampled_from((0.0, 0.5, 1.25)))
    seats, prisms = [], []
    for r in range(rows):
        for c in range(cols):
            x, y, z = float(c), 1.0 + r, rise * r
            m = len(seats)
            seats.append(GridPosition(
                id=m, position=(x, y - 0.3, z + 0.7),
                facing=draw(st.sampled_from((-math.pi / 2.0, math.pi / 2.0))),
                elevation=math.pi / 4.0, presence_prob=1.0,
                orientation_std=0.5))
            prisms.append(BodyPrism(center=(x, y, z + 0.65),
                                    size=(0.5, 0.3, 1.3), owner=m))
    for _ in range(draw(st.integers(0, 4))):
        top = draw(st.integers(1, 20).map(lambda k: k / 4.0))
        prisms.append(BodyPrism(
            center=(draw(QUARTER) - 3.0, draw(QUARTER) - 3.0, top / 2.0),
            size=(draw(SIDE), draw(SIDE), top)))
    floor = max(gp.position[2] for gp in seats) + 1.0
    mounts = [
        CandidateLocation(id=l, position=(
            draw(QUARTER) - 3.0, draw(QUARTER) - 3.0,
            floor + draw(st.integers(0, 24).map(lambda k: k / 4.0))))
        for l in range(draw(st.integers(1, 5)))
    ]
    if draw(st.booleans()):
        m = draw(st.integers(0, len(seats) - 1))
        l = draw(st.integers(0, len(mounts) - 1))
        t = draw(st.sampled_from((0.1, 0.25, 0.5)))
        p0 = np.array(seats[m].position)
        p = p0 + t * (np.array(mounts[l].position) - p0)
        dx, dy = draw(st.sampled_from(((0.0, 0.0), (0.25, 0.0), (0.25, 0.25))))
        prisms.append(BodyPrism(
            center=(float(p[0]) + dx, float(p[1]) + dy, float(p[2]) / 2.0),
            size=(0.5, 0.5, float(p[2]))))
        prisms.append(BodyPrism(center=(-9.0, -9.0, 25.0),
                                size=(1.0, 1.0, 50.0)))
    return Venue(name="tiers", grid_positions=seats, candidates=mounts,
                 blockers=prisms)


@given(rooms() | tiered_rooms(), st.integers(1, 7))
def test_occlusion_in_any_batch_equals_per_pair_slab_test(v, batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmwplan.venue, "_OCCLUSION_BATCH", batch)
        occ = occlusion_matrix(v)
    assert (occ == oracles.occlusion_matrix(v)).all()


@given(tiered_rooms(), channels(), st.integers(0, 400))
def test_partitions_in_any_batch_equal_cell_by_cell_build(v, params, pairs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmwplan.scenarios, "_PARTITION_PAIRS", pairs)
        model = PlanningModel(v, params, 0.5)
    assert (model.occluded == oracles.occlusion_matrix(v)).all()
    _check_model_partitions(model)


ENDS = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, math.pi, -math.pi))


@given(st.lists(st.lists(ENDS, max_size=8), min_size=1, max_size=5))
def test_boundaries_are_each_seats_sorted_set(groups):
    # 0.0 == -0.0, so set() keeps whichever of the two comes first
    ends = np.array([e for g in groups for e in g], dtype=float)
    seat = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    b, b_seat = _boundaries(ends, seat)
    for s, g in enumerate(groups):
        assert [x.hex() for x in b[b_seat == s].tolist()] == [
            x.hex() for x in sorted(set(g))], s


# arcs that end at 0.0 from above and from below, and at +-1
TIES = st.sampled_from(((0.5, 0.5), (-0.5, 0.5), (1.0, 1.0), (-1.0, 1.0),
                        (0.0, 1.0)))
ROW = st.integers(1, 6).flatmap(lambda n: st.one_of(
    st.lists(st.tuples(AZIMUTH, REACH) | TIES, min_size=n, max_size=n),
    # no arcs at all, and links that are always on or never on
    st.lists(st.tuples(AZIMUTH, st.sampled_from((0.0, math.pi, 4.0))),
             min_size=n, max_size=n),
))


@given(st.lists(ROW, min_size=1, max_size=6), st.integers(0, 200),
       st.sampled_from((0.0, 3.0, -math.pi, math.pi)))
def test_seat_partitions_equal_cell_by_cell_build(rows, pairs, facing):
    """Seats in one or many batches: rows with arcs that share endpoints,
    including 0.0 reached from either side, rows without arcs, and rows
    whose links are all always on or never on."""
    n = max(len(r) for r in rows)
    rows = [r + [(0.0, 0.0)] * (n - len(r)) for r in rows]
    gps = [GridPosition(id=m, position=(0.0, float(m), 1.0),
                        facing=facing, elevation=math.pi / 4.0,
                        presence_prob=1.0, orientation_std=0.05 + m)
           for m in range(len(rows))]
    v = Venue(name="seats", grid_positions=gps, candidates=[
        CandidateLocation(id=l, position=(float(l), 1.0, 5.0))
        for l in range(n)])
    phi = np.array([[a for a, _ in r] for r in rows])
    reach = np.array([[h for _, h in r] for r in rows])
    try:
        arcs = [[oracles.AngularInterval.from_center(a, h) for a, h in r]
                for r in rows]
    except ValueError:
        with pytest.raises(ValueError):
            seat_partitions(v, phi, reach)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmwplan.scenarios, "_PARTITION_PAIRS", pairs)
        store = seat_partitions(v, phi, reach)
    _check_store(store, len(rows))
    for m in range(len(rows)):
        want = oracles.build_scenarios(v, m, arcs[m])
        assert oracles.same_partition(_store_cells(store, m), want), m
