"""Venue geometry: angles, occlusion, validation, JSON."""

import json
import math

import numpy as np
import pytest

import oracles
from mmwplan import GeometryError, PlanningModel, Venue, VenueFormatError
from mmwplan.channel import ChannelParams
from mmwplan.scenarios import wrap_angle
from mmwplan.venue import (
    BodyPrism,
    CandidateLocation,
    GridPosition,
    occlusion_matrix,
    venue_betas,
)


def _venue(gp_pos, cand_pos, blockers=(), facing=0.0):
    gps = [GridPosition(id=i, position=p, facing=facing,
                        elevation=math.pi / 4.0, presence_prob=1.0,
                        orientation_std=math.pi / 6.0)
           for i, p in enumerate(gp_pos)]
    cands = [CandidateLocation(id=j, position=p)
             for j, p in enumerate(cand_pos)]
    return Venue(name="t", grid_positions=gps, candidates=cands,
                 blockers=list(blockers))


# -- direction angles -------------------------------------------------------
# Hand-computed angles check the scalar oracle, and ``_view_angles`` checks
# the model's arrays against it.


def _view_angles(v, m=0, l=0):
    """The model's view-ray arrays at one link, after checking them
    against the scalar oracle at 1e-12: (phi_tx, psi_tx, phi_rx, psi_rx)
    with psi_tx the +z-referenced elevation of the downward ray."""
    model = PlanningModel(v, ChannelParams(), 0.5)
    phi_tx, psi_tx = oracles.tx_angles(v, l, m)
    phi_rx, psi_rx = oracles.rx_angles(v, m, l)
    got = (model.phi_tx[m, l], math.pi - model.nadir_tx[m, l],
           model.phi_rx[m, l], model.psi_rx[m, l])
    for a, b in zip(got[::2], (phi_tx, phi_rx)):
        assert abs(math.remainder(a - b, 2.0 * math.pi)) <= 1e-12
    for a, b in zip(got[1::2], (psi_tx, psi_rx)):
        assert abs(a - b) <= 1e-12
    assert abs(model.dist[m, l] - oracles.link_distance(v, m, l)) <= 1e-12
    return tuple(float(x) for x in got)


def test_tx_angles_straight_down():
    v = _venue([(0.0, 0.0, 0.0)], [(0.0, 0.0, 4.0)])
    phi, psi = oracles.tx_angles(v, 0, 0)
    assert phi == 0.0
    assert abs(psi - math.pi) < 1e-12
    model_phi, model_psi, _, _ = _view_angles(v)
    assert model_phi == 0.0
    assert abs(model_psi - math.pi) < 1e-12


def test_tx_angles_diagonal():
    v = _venue([(4.0, 0.0, 0.0)], [(0.0, 0.0, 4.0)])
    phi, psi = oracles.tx_angles(v, 0, 0)
    assert abs(phi - 0.0) < 1e-12
    assert abs(psi - 3.0 * math.pi / 4.0) < 1e-12
    model_phi, model_psi, _, _ = _view_angles(v)
    assert abs(model_phi - 0.0) < 1e-12
    assert abs(model_psi - 3.0 * math.pi / 4.0) < 1e-12


def test_tx_angles_hand_computed():
    # AP (1,2,4) -> GP (3,5,1): direction (2,3,-3)
    v = _venue([(3.0, 5.0, 1.0)], [(1.0, 2.0, 4.0)])
    phi, psi = oracles.tx_angles(v, 0, 0)
    d = np.array([2.0, 3.0, -3.0])
    assert abs(phi - math.atan2(3.0, 2.0)) < 1e-12
    assert abs(psi - math.acos(d[2] / np.linalg.norm(d))) < 1e-12
    _view_angles(v)


def test_rx_angles_overhead():
    v = _venue([(1.0, 1.0, 1.0)], [(1.0, 1.0, 5.0)])
    _, psi = oracles.rx_angles(v, 0, 0)
    assert psi == 0.0
    assert _view_angles(v)[3] == 0.0


def test_rx_reciprocal_azimuth():
    rng = np.random.default_rng(11)
    for _ in range(50):
        gp = tuple(rng.uniform(0.0, 10.0, 2)) + (0.0,)
        ap = tuple(rng.uniform(0.0, 10.0, 2)) + (4.0,)
        if abs(gp[0] - ap[0]) + abs(gp[1] - ap[1]) < 1e-6:
            continue
        v = _venue([gp], [ap])
        phi_tx, _, phi_rx, _ = _view_angles(v)
        assert abs(wrap_angle(phi_rx - phi_tx - math.pi)) < 1e-9


def test_rx_elevation_below_quarter_turn():
    # APs sit above devices, so the upward line never dips below horizon
    rng = np.random.default_rng(12)
    for _ in range(50):
        gp = tuple(rng.uniform(0.0, 10.0, 2)) + (float(rng.uniform(0, 2)),)
        ap = tuple(rng.uniform(0.0, 10.0, 2)) + (float(rng.uniform(3, 9)),)
        v = _venue([gp], [ap])
        psi = _view_angles(v)[3]
        assert 0.0 <= psi < math.pi / 2.0


def test_coincident_positions_raise():
    v = _venue([(1.0, 1.0, 3.0)], [(1.0, 1.0, 4.0)])
    # force coincidence bypassing validation
    object.__setattr__(v.candidates[0], "position", (1.0, 1.0, 3.0))
    with pytest.raises(GeometryError):
        PlanningModel(v, ChannelParams(), 0.5)


def test_seat_closer_than_1m_to_a_mount_raises():
    # below 1 m blocked loss falls under line-of-sight loss, so a link
    # could turn on, off and on again around the circle, which the one
    # active arc per link cannot hold
    v = _venue([(5.0, 0.0, 1.0), (0.0, 0.0, 1.0)],
               [(6.0, 0.0, 4.0), (0.3, 0.0, 1.4)])
    with pytest.raises(GeometryError, match=r"seat 1 is 0\.5 m from mount 1"):
        PlanningModel(v, ChannelParams(snr_threshold_db=47.0), 0.5)
    v = _venue([(0.0, 0.0, 1.0)], [(0.0, 0.0, 2.0)])
    assert PlanningModel(v, ChannelParams(), 0.5).dist[0, 0] == 1.0


# -- occlusion --------------------------------------------------------------


def test_no_blockers_never_occluded():
    v = _venue([(0.0, 0.0, 0.0), (3.0, 1.0, 0.5)],
               [(1.0, 1.0, 4.0), (5.0, 2.0, 4.0)])
    assert not occlusion_matrix(v).any()


def test_midpoint_prism_occludes():
    gp, ap = (0.0, 0.0, 0.0), (4.0, 0.0, 4.0)
    mid = BodyPrism(center=(2.0, 0.0, 2.0), size=(2.0, 2.0, 2.0))
    v = _venue([gp], [ap], blockers=[mid])
    assert occlusion_matrix(v)[0, 0]


def test_own_prism_ignored():
    gp, ap = (0.0, 0.0, 1.0), (0.0, 0.0, 5.0)
    own = BodyPrism(center=(0.0, 0.0, 1.0), size=(0.5, 0.5, 1.5), owner=0)
    v = _venue([gp], [ap], blockers=[own])
    assert not occlusion_matrix(v)[0, 0]


def test_tiered_rows_vs_point_sampling():
    # rear seat looking over three rows of bodies toward a low mount
    gps = [(float(r), 0.0, 0.3 * r) for r in range(4)]
    blockers = [BodyPrism(center=(float(r), 0.0, 0.3 * r + 0.65),
                          size=(0.5, 0.3, 1.3), owner=r) for r in range(4)]
    for ap_h in (1.5, 2.5, 4.0, 6.0):
        v = _venue(gps, [(-2.0, 0.0, ap_h)], blockers=blockers)
        occ = occlusion_matrix(v)
        for m in range(4):
            assert occ[m, 0] == oracles.occluded_by_sampling(v, m, 0)


def test_random_prisms_vs_point_sampling():
    rng = np.random.default_rng(13)
    for trial in range(25):
        gp = (0.0, 0.0, 0.5)
        ap = tuple(rng.uniform(2.0, 8.0, 2)) + (float(rng.uniform(3, 6)),)
        blockers = [
            BodyPrism(center=tuple(rng.uniform(0.0, 8.0, 2))
                      + (float(rng.uniform(0.2, 2.0)),),
                      size=tuple(rng.uniform(0.2, 1.5, 3)))
            for _ in range(3)
        ]
        v = _venue([gp], [ap], blockers=blockers)
        assert occlusion_matrix(v)[0, 0] == oracles.occluded_by_sampling(
            v, 0, 0)


def test_occlusion_direction_symmetric():
    # the slab test cannot depend on traversal direction
    from mmwplan.venue import _segment_hits_boxes

    rng = np.random.default_rng(14)
    for _ in range(50):
        p0 = rng.uniform(0.0, 6.0, 3)
        p1 = rng.uniform(0.0, 6.0, 3)
        center = rng.uniform(0.0, 6.0, (4, 3))
        size = rng.uniform(0.3, 2.0, (4, 3))
        lo, hi = center - size / 2.0, center + size / 2.0
        fwd = _segment_hits_boxes(p0, p1, lo, hi)
        back = _segment_hits_boxes(p1, p0, lo, hi)
        assert (fwd == back).all()


def test_blocker_outside_segment_bbox_is_harmless():
    rng = np.random.default_rng(15)
    for _ in range(30):
        gp = (1.0, 1.0, 0.5)
        ap = (5.0, 3.0, 4.0)
        v0 = _venue([gp], [ap])
        assert not occlusion_matrix(v0)[0, 0]
        # place a prism strictly outside the segment's bounding box
        off = tuple(rng.uniform(7.0, 9.0, 2)) + (float(rng.uniform(0.2, 1.0)),)
        v1 = _venue([gp], [ap], blockers=[BodyPrism(center=off,
                                                    size=(0.5, 0.5, 0.5))])
        assert not occlusion_matrix(v1)[0, 0]


# -- construction and serialization ----------------------------------------


def test_validation_catches_bad_ids_and_ranges():
    good = _venue([(0.0, 0.0, 0.0)], [(3.0, 0.0, 4.0)])
    with pytest.raises(VenueFormatError):
        Venue(name="x", grid_positions=[], candidates=good.candidates)
    with pytest.raises(VenueFormatError):
        _venue([(0.0, 0.0, 5.0)], [(3.0, 0.0, 4.0)])  # mount below device
    bad_gp = GridPosition(id=5, position=(0.0, 0.0, 0.0), facing=0.0,
                          elevation=0.3, presence_prob=1.0,
                          orientation_std=0.5)
    with pytest.raises(VenueFormatError):
        Venue(name="x", grid_positions=[bad_gp],
              candidates=good.candidates)
    with pytest.raises(VenueFormatError):
        GridPosition(id=0, position=(0.0, 0.0, 0.0), facing=0.0,
                     elevation=0.3, presence_prob=1.4,
                     orientation_std=0.5)
        # presence out of range surfaces at venue construction
        Venue(name="x",
              grid_positions=[GridPosition(
                  id=0, position=(0.0, 0.0, 0.0), facing=0.0,
                  elevation=0.3, presence_prob=1.4, orientation_std=0.5)],
              candidates=good.candidates)


@pytest.mark.parametrize("field, value", [
    ("gp_pos", (0.0, math.nan, 0.0)),
    ("cand_pos", (3.0, 0.0, math.nan)),
    ("cand_pos", (math.inf, 0.0, 4.0)),
    ("orientation_std", math.inf),
    ("orientation_std", math.nan),
    ("facing", math.nan),
    ("elevation", math.inf),
    ("presence_prob", math.nan),
    ("beta", math.nan),
    ("blocker_center", (1.0, math.nan, 1.0)),
    ("blocker_size", (1.0, 1.0, math.inf)),
    # points and sizes need exactly three coordinates
    ("gp_pos", (0.0, 0.0)),
    ("gp_pos", (0.0, 0.0, 0.0, 0.0)),
    ("cand_pos", (3.0, 0.0)),
    ("cand_pos", (3.0, 0.0, 4.0, 1.0)),
    ("blocker_center", (1.0, 0.0)),
    ("blocker_center", (1.0, 0.0, 1.0, 0.0)),
    ("blocker_size", (0.5, 0.5)),
    ("blocker_size", (0.5, 0.5, 2.0, 1.0)),
])
def test_validation_rejects_non_finite_fields(field, value):
    gp = GridPosition(id=0, position=(0.0, 0.0, 0.0), facing=0.0,
                      elevation=0.3, presence_prob=1.0, orientation_std=0.5)
    cand = CandidateLocation(id=0, position=(3.0, 0.0, 4.0))
    prism = BodyPrism(center=(1.0, 0.0, 1.0), size=(0.5, 0.5, 2.0))
    if field == "gp_pos":
        gp = GridPosition(**{**gp.__dict__, "position": value})
    elif field == "cand_pos":
        cand = CandidateLocation(id=0, position=value)
    elif field in gp.__dict__:
        gp = GridPosition(**{**gp.__dict__, field: value})
    else:
        key = field.split("_")[1]
        prism = BodyPrism(**{**prism.__dict__, key: value})
    with pytest.raises(VenueFormatError, match=field.split("_")[-1]):
        Venue(name="x", grid_positions=[gp], candidates=[cand],
              blockers=[prism])


def test_json_round_trip(toy_venue):
    blob = json.dumps(toy_venue.to_dict())
    back = Venue.from_dict(json.loads(blob))
    assert back.to_dict() == toy_venue.to_dict()
    assert json.dumps(back.to_dict()) == blob


def test_per_gp_beta_round_trip_and_vector():
    gps = [GridPosition(id=0, position=(0.0, 0.0, 0.0), facing=0.0,
                        elevation=0.3, presence_prob=1.0,
                        orientation_std=0.5, beta=0.8),
           GridPosition(id=1, position=(1.0, 0.0, 0.0), facing=0.0,
                        elevation=0.3, presence_prob=1.0,
                        orientation_std=0.5)]
    v = Venue(name="b", grid_positions=gps,
              candidates=[CandidateLocation(id=0, position=(0.5, 0.0, 4.0))])
    assert venue_betas(v, 0.9) == [0.8, 0.9]
    back = Venue.from_dict(v.to_dict())
    assert back.grid_positions[0].beta == 0.8
    assert back.grid_positions[1].beta is None


def test_from_dict_rejects_garbage():
    with pytest.raises(VenueFormatError):
        Venue.from_dict({"name": "x"})
