"""Link budget, antenna pattern, and activity-interval classification."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import random_toy, single_link_venue
from mmwplan import ChannelParams, PlanningModel
from mmwplan.channel import (
    _active_half_width,
    _path_loss,
    _snr,
    linear_to_db,
    main_lobe_gain,
)
from mmwplan.scenarios import wrap_angle
from mmwplan.venue import BodyPrism
from oracles import db_to_linear, flat_top_gain


# -- antenna pattern --------------------------------------------------------


def test_main_lobe_gain_reference_value():
    # 2 / (1 - cos(pi/3)) = 4, up to the rounding of cos at pi/3
    assert abs(main_lobe_gain(2.0 * math.pi / 3.0) - 4.0) < 1e-12


def test_flat_top_boresight():
    g = flat_top_gain(0.0, 0.0, 2.0 * math.pi / 3.0, -2.0)
    assert abs(g - 4.0) < 1e-12


def test_flat_top_boundary_inclusive():
    W = 2.0 * math.pi / 3.0
    main = main_lobe_gain(W)
    assert flat_top_gain(W / 2.0, 0.0, W, -2.0) == main
    assert flat_top_gain(0.0, W / 2.0, W, -2.0) == main
    assert flat_top_gain(W / 2.0 + 1e-9, 0.0, W, -2.0) < 1.0


def test_flat_top_far_offset_is_side_lobe():
    g = flat_top_gain(math.pi, 0.0, 2.0 * math.pi / 3.0, -2.0)
    assert abs(g - db_to_linear(-2.0)) < 1e-15


def test_flat_top_azimuth_wraps():
    W = math.pi / 2.0
    # offset of 2*pi is no offset at all
    assert flat_top_gain(2.0 * math.pi, 0.0, W, -2.0) == main_lobe_gain(W)


def test_solid_angle_normalization():
    rng = np.random.default_rng(21)
    for W in rng.uniform(0.05, 2.0 * math.pi - 0.05, 100):
        g = main_lobe_gain(float(W))
        assert abs(g * (1.0 - math.cos(W / 2.0)) / 2.0 - 1.0) < 1e-12


def test_gain_rejects_bad_beamwidth():
    with pytest.raises(ValueError):
        main_lobe_gain(0.0)
    with pytest.raises(ValueError):
        main_lobe_gain(2.0 * math.pi)


def test_db_converters_inverse():
    rng = np.random.default_rng(22)
    for x in rng.uniform(-40.0, 40.0, 100):
        assert abs(linear_to_db(db_to_linear(float(x))) - x) < 1e-9


# -- path loss and SNR ------------------------------------------------------


def test_path_loss_reference_points():
    p = ChannelParams()
    assert _path_loss(p, math.log10(1.0), True) == 70.0
    assert abs(_path_loss(p, math.log10(10.0), True) - 90.0) < 1e-12
    assert abs(_path_loss(p, math.log10(10.0), False) - 110.0) < 1e-12


def test_path_loss_shadowing_additive():
    p = ChannelParams()
    log_d = math.log10(5.0)
    assert _path_loss(p, log_d, True, 3.3) == _path_loss(p, log_d, True) + 3.3


def test_path_loss_rejects_nonpositive_distance():
    p = ChannelParams()
    with pytest.raises(ValueError):
        _path_loss(p, math.log10(0.0), True)
    with pytest.raises(ValueError):
        _path_loss(p, math.log10(-2.0), False)


def test_snr_budget_arithmetic():
    p = ChannelParams()
    # 30 dBm + 18 + 18 - 70 + 74
    assert abs(_snr(p, math.log10(1.0), 18.0, 18.0, True) - 70.0) < 1e-12
    # zero gains at 1 m: p - kappa - noise
    assert abs(_snr(p, math.log10(1.0), 0.0, 0.0, True) - 34.0) < 1e-12
    main = linear_to_db(main_lobe_gain(p.ap_beamwidth))
    log_d = math.log10(7.0)
    drop = (_snr(p, log_d, main, main, True)
            - _snr(p, log_d, p.side_lobe_gain_db, p.side_lobe_gain_db, True))
    assert abs(drop - 2.0 * (main - p.side_lobe_gain_db)) < 1e-12


def test_snr_strictly_decreasing_in_distance():
    p = ChannelParams()
    ds = np.linspace(1.0, 80.0, 200)
    vals = [_snr(p, math.log10(d), 4.0, 4.0, True) for d in ds.tolist()]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# -- params hygiene ---------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(ap_beamwidth=0.0)
    with pytest.raises(ValueError):
        ChannelParams(md_beamwidth=7.0)
    with pytest.raises(ValueError):
        ChannelParams(alpha_los=4.0, alpha_nlos=2.0)
    with pytest.raises(ValueError):
        ChannelParams(capacity_per_beam=0)
    with pytest.raises(ValueError):
        ChannelParams(self_block_half_angle=0.0)
    with pytest.raises(ValueError):
        ChannelParams(elevation_grid=())


@pytest.mark.parametrize("md", [math.pi / 3.0, math.pi / 2.0, 5.0])
def test_side_lobe_may_reach_but_not_pass_the_device_main_lobe(md):
    main = linear_to_db(main_lobe_gain(md))
    p = ChannelParams(md_beamwidth=md, side_lobe_gain_db=main)
    assert p.side_lobe_gain_db == main
    with pytest.raises(ValueError, match="side_lobe_gain_db"):
        ChannelParams(md_beamwidth=md,
                      side_lobe_gain_db=math.nextafter(main, math.inf))
    with pytest.raises(ValueError, match="side_lobe_gain_db"):
        replace(p, md_beamwidth=md + 0.5)  # a wider lobe is weaker


@pytest.mark.parametrize("key", ["ap_beamwidth", "md_beamwidth"])
def test_params_refuse_a_beamwidth_whose_gain_divides_by_zero(key):
    # bisect to the two adjacent doubles where cos(W/2) stops rounding to 1
    lo, hi = 1e-9, 1e-7
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if 1.0 - math.cos(mid / 2.0) == 0.0:
            lo = mid
        else:
            hi = mid
    with pytest.raises(ValueError, match=key):
        ChannelParams(**{key: lo})
    p = ChannelParams(**{key: hi})
    assert getattr(p, key) == hi
    assert math.isfinite(linear_to_db(main_lobe_gain(hi)))


@pytest.mark.parametrize("grids", [
    {"elevation_grid": (5.0,)},
    {"elevation_grid": (0.0, -0.1)},
    {"elevation_grid": (math.nan,)},
    {"elevation_grid": (math.inf,)},
    {"azimuth_grid": (0.0, math.nan)},
    {"azimuth_grid": (-math.inf,)},
])
def test_params_reject_bad_steering_grids(grids):
    with pytest.raises(ValueError):
        ChannelParams(**grids)


def test_params_accept_steering_grid_edges():
    p = ChannelParams(elevation_grid=(0.0, math.pi), azimuth_grid=(7.0,))
    assert p.elevation_grid == (0.0, math.pi)


def test_params_round_trip():
    p = ChannelParams(snr_threshold_db=12.5, capacity_per_beam=7)
    q = ChannelParams.from_dict(p.to_dict())
    assert q == p


def test_params_file_bytes_are_pinned():
    # the compare-guard benchmark writes this file and checks its SHA-256,
    # so a change to the params schema shows here first
    text = json.dumps(replace(ChannelParams(), capacity_per_beam=3).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "368b6d197a5fbc16f7e268a4239ef374e790d42c57153ca500603c1ea40ef879"
    )


# -- link classification ----------------------------------------------------
# A link's reach is its active half-width around the device-to-candidate
# azimuth: 0 is never on, pi is always on, anything between is the arc of
# that half-width.


def _model(v, p):
    return PlanningModel(v, p, 0.5)


def _arc(model, m=0, l=0):
    """The active arc of one link of the model."""
    return oracles.AngularInterval.from_center(
        float(model.phi_rx[m, l]), float(model.reach[m, l]))


def test_never_on_occluded_far_pair():
    wall = BodyPrism(center=(1.5, 0.0, 20.0), size=(0.5, 50.0, 45.0))
    v = single_link_venue(dx=3.0, dz=40.0, blockers=[wall])
    model = _model(v, ChannelParams())
    assert model.occluded[0, 0]
    assert model.reach[0, 0] == 0.0
    assert not model.usable[0, 0]


def test_overhead_orientation_dependent_equals_blockage_window():
    # straight-up boresight, candidate overhead at a distance where the
    # main receive lobe clears the threshold but the side lobe does not
    v = single_link_venue(dx=0.0, dz=40.0, tilt=0.0)
    model = _model(v, ChannelParams())
    assert 0.0 < model.reach[0, 0] < math.pi
    iv = _arc(model)
    # vertical ray: blockage window spans half the circle around azimuth 0
    assert abs(iv.length() - math.pi) < 1e-9
    assert iv.contains(0.0) and not iv.contains(math.pi)


def test_always_on_with_full_blockage_window():
    p = replace(ChannelParams(), self_block_half_angle=math.pi)
    v = single_link_venue(dx=2.0, dz=3.0)
    model = _model(v, p)
    assert model.reach[0, 0] >= math.pi
    assert model.usable[0, 0]


def test_blocked_budget_can_still_clear_at_short_range():
    # at a few meters the blocked-orientation exponent still beats the
    # threshold through the side lobe, so orientation stops mattering
    v = single_link_venue(dx=2.0, dz=3.0)
    assert _model(v, ChannelParams()).reach[0, 0] >= math.pi


def test_side_lobe_sufficient_interval_is_blockage_window():
    # mid range: a line-of-sight side lobe clears the budget but nothing
    # clears once the body blocks, so the active arc is exactly the
    # self-blockage window
    v = single_link_venue(dx=9.0, dz=12.0, facing=0.3)
    p = ChannelParams()
    iv = _arc(_model(v, p))
    phi_rx, _ = oracles.rx_angles(v, 0, 0)
    assert abs(iv.length() - 2.0 * p.self_block_half_angle) < 1e-9
    assert abs(wrap_angle(iv.center() - phi_rx)) < 1e-9


def test_distance_recorded():
    v = single_link_venue(dx=3.0, dz=4.0)
    assert abs(_model(v, ChannelParams()).dist[0, 0] - 5.0) < 1e-12


def test_effective_interval_inside_blockage_window_when_nlos_fails():
    # whenever no blocked orientation can clear the budget, the active
    # arc must sit inside the self-blockage window
    p = ChannelParams()
    tx_db = linear_to_db(main_lobe_gain(p.ap_beamwidth))
    rx_db = linear_to_db(main_lobe_gain(p.md_beamwidth))
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(30):
        dx = float(rng.uniform(0.0, 40.0))
        dz = float(rng.uniform(5.0, 40.0))
        v = single_link_venue(dx=dx, dz=dz,
                              facing=float(rng.uniform(-math.pi, math.pi)),
                              tilt=float(rng.uniform(0.0, math.pi / 2.0)))
        model = _model(v, p)
        d = float(model.dist[0, 0])
        if _snr(p, math.log10(d), tx_db, rx_db, False) >= p.snr_threshold_db:
            continue  # blocked orientations can clear; no bound applies
        iv = _arc(model)
        if iv.is_empty:
            continue
        B = oracles.AngularInterval.from_center(
            float(model.phi_rx[0, 0]), p.self_block_half_angle)
        checked += 1
        for a in np.linspace(-math.pi, math.pi, 145):
            if iv.contains(float(a)):
                assert B.contains(float(a))
    assert checked > 5


def test_widening_rx_beam_never_shrinks_interval():
    v = single_link_venue(dx=6.0, dz=8.0)
    widths = (0.6, 1.0, 1.6, 2.2, 2.8)
    lengths = []
    for w in widths:
        p = ChannelParams(md_beamwidth=w)
        lengths.append(_arc(_model(v, p)).length())
    assert all(a <= b + 1e-9 for a, b in zip(lengths, lengths[1:]))


@pytest.mark.parametrize("toward", [math.inf, -math.inf])
def test_reach_at_the_threshold_follows_math_log10(monkeypatch, toward):
    # np.log10 one ulp off math.log10 toward ``toward``, and a line-of-sight
    # main-lobe link whose budget lies exactly at the threshold under one
    # of the two: the reach is the one math.log10 gives, which only the
    # near-threshold recompute keeps
    p = ChannelParams()
    tx = linear_to_db(main_lobe_gain(p.ap_beamwidth))
    rx = linear_to_db(main_lobe_gain(p.md_beamwidth))

    def budgets(d):
        exact = math.log10(d)
        return (_snr(p, exact, tx, rx, True),
                _snr(p, float(np.nextafter(exact, toward)), tx, rx, True))

    d = next(d for d in np.linspace(2.0, 40.0, 401).tolist()
             if budgets(d)[0] != budgets(d)[1])
    exact, off = budgets(d)
    params = replace(p, snr_threshold_db=max(exact, off))
    log10 = np.log10
    monkeypatch.setattr(
        np, "log10", lambda x: np.nextafter(log10(x), toward)
    )
    tilt = math.pi / 4.0
    reach = _active_half_width(params, np.array([d]), np.array([tilt]),
                               np.array([False]), np.array([False]), tilt)
    # the first cut is the receive cone's edge; the side lobe past it
    # lies far below the threshold
    want = p.md_beamwidth / 2.0 if exact >= off else 0.0
    assert reach.tolist() == [want]


def test_raising_threshold_monotone_classification():
    v = random_toy(3)
    for gamma in (5.0, 10.0, 20.0, 35.0, 60.0):
        lo = _model(v, replace(ChannelParams(), snr_threshold_db=gamma))
        hi = _model(v, replace(ChannelParams(),
                               snr_threshold_db=gamma + 10.0))
        # a never-on link stays never on
        assert not (hi.usable & ~lo.usable).any()
        # the active arc can only shrink
        assert (hi.reach <= lo.reach).all()


def test_classification_matches_dense_sweep_toy():
    p = ChannelParams()
    v = random_toy(41)
    for m in range(v.n_grid):
        for l in range(v.n_candidates):
            assert oracles.sweep_mismatches(v, p, m, l, n=720) == 0
    reach = _model(v, p).reach
    assert ((reach > 0.0) & (reach < math.pi)).any()


def test_classification_matches_dense_sweep_edge_cases():
    p = ChannelParams()
    cases = [
        single_link_venue(dx=0.0, dz=40.0, tilt=0.0),      # vertical, far
        single_link_venue(dx=0.0, dz=3.0, tilt=0.0),       # vertical, near
        single_link_venue(dx=2.0, dz=3.0),                 # side lobe rich
        single_link_venue(dx=25.0, dz=10.0),               # tilt misses
        single_link_venue(dx=60.0, dz=20.0),               # weak budget
    ]
    for v in cases:
        assert oracles.sweep_mismatches(v, p, 0, 0, n=3600) == 0


def test_steered_profiles_match_dense_sweep():
    p = ChannelParams()
    v = random_toy(42)
    thetas = p.elevation_grid
    phis = p.azimuth_grid[:4]
    for m in (0, 3, 5):
        for l in (0, 2):
            for th in thetas:
                for ph in phis:
                    assert oracles.sweep_mismatches(
                        v, p, m, l, n=360, steering=(th, ph)) == 0


def test_steering_at_exact_boresight_matches_unsteered():
    # the planner's own steering toward a user gives the aligned reach
    p = ChannelParams()
    v = random_toy(43)
    model = _model(v, p)
    for m in (1, 4):
        for l in (1, 3):
            # the beam looks down the device's view of the mount
            aligned = (float(model.psi_rx[m, l]),
                       wrap_angle(float(model.phi_rx[m, l]) + math.pi))
            _, reach = oracles.link_reach(v, p, m, l, steering=aligned)
            assert reach == model.reach[m, l]
