"""Link budget, antenna pattern, and activity-interval classification."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import random_toy, single_link_venue
from mmwplan import (
    BodyPrism,
    ChannelParams,
    LinkClass,
    db_to_linear,
    flat_top_gain,
    linear_to_db,
    link_profile,
    main_lobe_gain,
    path_loss_db,
    snr_db,
)


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
    assert path_loss_db(p, 1.0, True) == 70.0
    assert abs(path_loss_db(p, 10.0, True) - 90.0) < 1e-12
    assert abs(path_loss_db(p, 10.0, False) - 110.0) < 1e-12


def test_path_loss_shadowing_additive():
    p = ChannelParams()
    assert path_loss_db(p, 5.0, True, 3.3) == path_loss_db(p, 5.0, True) + 3.3


def test_path_loss_rejects_nonpositive_distance():
    p = ChannelParams()
    with pytest.raises(ValueError):
        path_loss_db(p, 0.0, True)
    with pytest.raises(ValueError):
        path_loss_db(p, -2.0, False)


def test_snr_budget_arithmetic():
    p = ChannelParams()
    # 30 dBm + 18 + 18 - 70 + 74
    assert abs(snr_db(p, 1.0, 18.0, 18.0, True) - 70.0) < 1e-12
    # zero gains at 1 m: p - kappa - noise
    assert abs(snr_db(p, 1.0, 0.0, 0.0, True) - 34.0) < 1e-12
    main = linear_to_db(main_lobe_gain(p.ap_beamwidth))
    drop = (snr_db(p, 7.0, main, main, True)
            - snr_db(p, 7.0, p.side_lobe_gain_db, p.side_lobe_gain_db, True))
    assert abs(drop - 2.0 * (main - p.side_lobe_gain_db)) < 1e-12


def test_snr_strictly_decreasing_in_distance():
    p = ChannelParams()
    ds = np.linspace(1.0, 80.0, 200)
    vals = [snr_db(p, float(d), 4.0, 4.0, True) for d in ds]
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


def test_with_beamwidths():
    p = ChannelParams()
    q = p.with_beamwidths(ap_beamwidth=1.0)
    assert q.ap_beamwidth == 1.0 and q.md_beamwidth == p.md_beamwidth
    assert p.with_beamwidths() is p


def test_params_round_trip():
    p = ChannelParams(snr_threshold_db=12.5, capacity_per_beam=7)
    q = ChannelParams.from_dict(p.to_dict())
    assert q == p


# -- link classification ----------------------------------------------------


def test_never_on_occluded_far_pair():
    wall = BodyPrism(center=(1.5, 0.0, 20.0), size=(0.5, 50.0, 45.0))
    v = single_link_venue(dx=3.0, dz=40.0, blockers=[wall])
    prof = link_profile(v, ChannelParams(), 0, 0)
    assert prof.link_class is LinkClass.NEVER_ON
    assert prof.effective_interval.is_empty
    assert not prof.usable


def test_overhead_orientation_dependent_equals_blockage_window():
    # straight-up boresight, candidate overhead at a distance where the
    # main receive lobe clears the threshold but the side lobe does not
    v = single_link_venue(dx=0.0, dz=40.0, tilt=0.0)
    prof = link_profile(v, ChannelParams(), 0, 0)
    assert prof.link_class is LinkClass.ORIENTATION_DEPENDENT
    iv = prof.effective_interval
    # vertical ray: blockage window spans half the circle around azimuth 0
    assert abs(iv.length() - math.pi) < 1e-9
    assert iv.contains(0.0) and not iv.contains(math.pi)


def test_always_on_with_full_blockage_window():
    p = replace(ChannelParams(), self_block_half_angle=math.pi)
    v = single_link_venue(dx=2.0, dz=3.0)
    prof = link_profile(v, p, 0, 0)
    assert prof.link_class is LinkClass.ALWAYS_ON
    assert prof.effective_interval.is_full
    assert prof.usable


def test_blocked_budget_can_still_clear_at_short_range():
    # at a few meters the blocked-orientation exponent still beats the
    # threshold through the side lobe, so orientation stops mattering
    v = single_link_venue(dx=2.0, dz=3.0)
    prof = link_profile(v, ChannelParams(), 0, 0)
    assert prof.link_class is LinkClass.ALWAYS_ON
    assert prof.effective_interval.is_full


def test_side_lobe_sufficient_interval_is_blockage_window():
    # mid range: a line-of-sight side lobe clears the budget but nothing
    # clears once the body blocks, so the active arc is exactly the
    # self-blockage window
    from mmwplan import rx_angles, wrap_angle
    v = single_link_venue(dx=9.0, dz=12.0, facing=0.3)
    p = ChannelParams()
    prof = link_profile(v, p, 0, 0)
    phi_rx, _ = rx_angles(v, 0, 0)
    iv = prof.effective_interval
    assert abs(iv.length() - 2.0 * p.self_block_half_angle) < 1e-9
    assert abs(wrap_angle(iv.center() - phi_rx)) < 1e-9


def test_distance_recorded():
    v = single_link_venue(dx=3.0, dz=4.0)
    prof = link_profile(v, ChannelParams(), 0, 0)
    assert abs(prof.distance - 5.0) < 1e-12


def test_effective_interval_inside_blockage_window_when_nlos_fails():
    # whenever no blocked orientation can clear the budget, the active
    # arc must sit inside the self-blockage window
    from mmwplan import AngularInterval, main_lobe_gain, rx_angles
    from mmwplan.venue import link_distance

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
        d = link_distance(v, 0, 0)
        if snr_db(p, d, tx_db, rx_db, False) >= p.snr_threshold_db:
            continue  # blocked orientations can clear; no bound applies
        prof = link_profile(v, p, 0, 0)
        if prof.effective_interval.is_empty:
            continue
        phi_rx, _ = rx_angles(v, 0, 0)
        B = AngularInterval.from_center(phi_rx, p.self_block_half_angle)
        checked += 1
        for a in np.linspace(-math.pi, math.pi, 145):
            if prof.effective_interval.contains(float(a)):
                assert B.contains(float(a))
    assert checked > 5


def test_widening_rx_beam_never_shrinks_interval():
    v = single_link_venue(dx=6.0, dz=8.0)
    widths = (0.6, 1.0, 1.6, 2.2, 2.8)
    lengths = []
    for w in widths:
        p = ChannelParams().with_beamwidths(md_beamwidth=w)
        lengths.append(link_profile(v, p, 0, 0).effective_interval.length())
    assert all(a <= b + 1e-9 for a, b in zip(lengths, lengths[1:]))


def test_raising_threshold_monotone_classification():
    v = random_toy(3)
    for gamma in (5.0, 10.0, 20.0, 35.0, 60.0):
        lo = replace(ChannelParams(), snr_threshold_db=gamma)
        hi = replace(ChannelParams(), snr_threshold_db=gamma + 10.0)
        for m in range(v.n_grid):
            for l in range(v.n_candidates):
                a = link_profile(v, lo, m, l)
                b = link_profile(v, hi, m, l)
                if a.link_class is LinkClass.NEVER_ON:
                    assert b.link_class is LinkClass.NEVER_ON
                # interval can only shrink
                assert (b.effective_interval.length()
                        <= a.effective_interval.length() + 1e-9)


def test_classification_matches_dense_sweep_toy():
    p = ChannelParams()
    v = random_toy(41)
    classes = set()
    for m in range(v.n_grid):
        for l in range(v.n_candidates):
            assert oracles.sweep_mismatches(v, p, m, l, n=720) == 0
            classes.add(link_profile(v, p, m, l).link_class)
    assert LinkClass.ORIENTATION_DEPENDENT in classes


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
    from mmwplan import nadir_angle, tx_angles
    p = ChannelParams()
    v = random_toy(43)
    for m in (1, 4):
        for l in (1, 3):
            phi_tx, psi_tx = tx_angles(v, l, m)
            aligned = (nadir_angle(psi_tx), phi_tx)
            a = link_profile(v, p, m, l)
            b = link_profile(v, p, m, l, steering=aligned)
            assert a.link_class is b.link_class
            assert abs(a.effective_interval.length()
                       - b.effective_interval.length()) < 1e-12
