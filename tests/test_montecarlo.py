"""Sampled-orientation replay against the closed-form probabilities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

import mmwplan.montecarlo
import oracles
from conftest import random_toy, single_link_venue
from mmwplan import (
    ChannelParams,
    DeploymentValidationError,
    McConfig,
    PlanningModel,
    generate_venue,
    greedy_place,
    monte_carlo_coverage,
)
from mmwplan.channel import (
    _active_half_width,
    _snr,
    linear_to_db,
    main_lobe_gain,
)
from mmwplan.montecarlo import (
    _BAND_MARGIN,
    _bands,
    _compare,
    _decide,
    _orientations,
    _replay_shadowed,
    _replay_uniforms,
    _seat_rate,
    _uniforms,
)
from mmwplan.scenarios import OrientationDistribution, wrap_angles
from mmwplan.solver import Deployment, PlacedAp

MC = McConfig(n_samples=20000, seed=5)


def _rng(seed=1):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


# -- orientation sampler ----------------------------------------------------


def test_draws_stay_on_circle():
    rng = _rng()
    for mean, std in ((0.0, 0.5), (3.0, 2.0), (-2.5, 1.0)):
        dist = OrientationDistribution(mean=mean, std=std)
        draws = _orientations(_uniforms(rng, 1000), dist)
        assert ((-math.pi <= draws) & (draws <= math.pi)).all()


def test_tiny_spread_collapses_to_mean():
    dist = OrientationDistribution(mean=1.1, std=1e-9)
    rng = _rng(2)
    draws = _orientations(_uniforms(rng, 10), dist)
    assert (np.abs(draws - 1.1) < 1e-6).all()


def test_sample_mean_matches_truncated_mean():
    mean, std = 0.4, 0.7
    dist = OrientationDistribution(mean=mean, std=std)
    rng = _rng(3)
    draws = _orientations(_uniforms(rng, 20000), dist)
    a = (-math.pi - mean) / std
    b = (math.pi - mean) / std

    def pdf(x):
        return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    want = mean + std * (pdf(a) - pdf(b)) / (cdf(b) - cdf(a))
    se = float(draws.std()) / math.sqrt(draws.size)
    assert abs(float(draws.mean()) - want) <= 3.5 * se


def test_one_uniform_per_draw():
    dist = OrientationDistribution(mean=0.2, std=0.6)
    a, b = _rng(4), _rng(4)
    xs = [float(_orientations(_uniforms(a, 1), dist)[0]) for _ in range(5)]
    us = b.random(5)
    lo = 0.5 * (1.0 + math.erf((-math.pi - 0.2) / (0.6 * math.sqrt(2.0))))
    hi = 0.5 * (1.0 + math.erf((math.pi - 0.2) / (0.6 * math.sqrt(2.0))))
    # same uniforms drive both, so ranks must agree
    order_x = np.argsort(xs)
    order_u = np.argsort(lo + us * (hi - lo))
    assert list(order_x) == list(order_u)


@pytest.mark.parametrize("mean, std, n", [
    (0.0, 0.5, 1), (0.2, 0.6, 7), (3.0, 2.0, 1000), (-2.5, 1.0, 4096),
    (1.1, 1e-9, 33), (-math.pi, 40.0, 1000), (math.pi, 0.05, 200),
])
def test_sampler_matches_one_expression(mean, std, n):
    # the sampler works in the uniforms' buffer, with the same bits
    dist = OrientationDistribution(mean=mean, std=std)
    a, b = _rng(7), _rng(7)
    got = _orientations(_uniforms(a, n), dist)
    want = oracles.sample_orientations(b, dist, n)
    assert got.tobytes() == want.tobytes()
    assert a.random(4).tobytes() == b.random(4).tobytes()  # same draws used


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        McConfig(n_samples=0)


@pytest.mark.parametrize("field", ["n_samples", "seed"])
@pytest.mark.parametrize("value", [True, False, 100.0, "100", None])
def test_non_int_sample_count_and_seed_rejected(field, value):
    # n_samples=True used to pass the check and fail inside numpy
    with pytest.raises(ValueError, match=field):
        McConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
def test_seed_outside_64_bits_rejected(seed):
    # the Philox key keeps 64 bits, so such a seed would replay another
    with pytest.raises(ValueError, match="seed"):
        McConfig(seed=seed)


def test_seed_range_ends_accepted():
    assert McConfig(seed=0).seed == 0
    assert McConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1


# -- per-user connectivity --------------------------------------------------


def _seat(model, m, ids, mc=MC):
    """Seat m served by the candidates ``ids``: its analytic and empirical
    probabilities and whether they lie within three standard errors."""
    row = oracles.ids_row(model.L, ids)
    analytic = model.conn(m, row)
    empirical = _seat_rate(model, mc, m, row)
    return analytic, empirical, _compare(empirical, analytic,
                                         mc.n_samples)[1]


def test_always_on_link_is_exact(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    assert _seat(model, 0, [0]) == (1.0, 1.0, True)


def test_empty_set_is_exact_zero(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    assert _seat(model, 2, [])[:2] == (0.0, 0.0)


def test_orientation_dependent_link_within_3sigma():
    v = single_link_venue(dx=0.0, dz=40.0, tilt=0.0)
    analytic, empirical, within = _seat(
        PlanningModel(v, ChannelParams(), 0.7), 0, [0]
    )
    assert 0.0 < analytic < 1.0
    assert within, (analytic, empirical)


def test_random_rooms_within_3sigma(tight_params):
    rng = np.random.default_rng(8)
    for seed in (61, 62, 63):
        v = random_toy(seed)
        m = int(rng.integers(0, v.n_grid))
        size = int(rng.integers(1, 3))
        s = sorted(rng.choice(v.n_candidates, size=size,
                              replace=False).tolist())
        r = _seat(PlanningModel(v, tight_params, 0.7), m, s)
        assert r[2], r


def test_report_names_stream_layout(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    dep, _ = greedy_place(model, 0.9)
    r = monte_carlo_coverage(model, MC, dep)
    assert list(r)[:5] == ["n_samples", "seed", "sample_shadowing",
                           "generator", "substream_rule"]
    assert r["generator"] == "philox4x64"
    assert "gp_id" in r["substream_rule"]
    assert r["seed"] == MC.seed


def test_connectivity_report_reproducible(tight_params):
    model = PlanningModel(random_toy(62), tight_params, 0.7)
    a = _seat(model, 4, [1, 3])
    assert a == _seat(model, 4, [1, 3])
    c = _seat(model, 4, [1, 3], McConfig(n_samples=20000, seed=6))
    assert c[1] != a[1] or c[0] == 1.0


def test_shadowing_replay_runs_and_reproduces(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    mc = McConfig(n_samples=5000, seed=9, sample_shadowing=True)
    a = _seat(model, 4, [2], mc)
    assert a == _seat(model, 4, [2], mc)
    assert isinstance(a[2], bool)


# -- whole deployment -------------------------------------------------------


def test_coverage_matches_per_user_replay(tight_params):
    # a user served by the same set must see the identical substream, so
    # the standalone run and the deployment replay agree bit for bit
    v = random_toy(61)
    model = PlanningModel(v, tight_params, 0.7)
    dep, _ = greedy_place(model, 0.9)
    cov = monte_carlo_coverage(model, MC, dep)
    checked = 0
    for m in range(v.n_grid):
        s = [ap.candidate for ap in dep.selected if m in ap.assigned]
        if not s:
            continue
        _, empirical, _ = _seat(model, m, s)
        assert empirical == cov["per_gp"][m]["empirical_prob"]
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("shadowing", [False, True])
def test_always_on_seats_draw_nothing(monkeypatch, shadowing):
    # without shadowing a seat with a link that clears at every offset has
    # rate 1.0 whatever the draws, so its orientations are never drawn
    model = PlanningModel(generate_venue("hall"), ChannelParams(), 0.9)
    dep, _ = greedy_place(model, 0.75)
    serving = {}
    for ap in dep.selected:
        for m in ap.assigned:
            serving.setdefault(m, []).append(ap.candidate)
    always = {m for m, ls in serving.items()
              if (model.reach[m, ls] == math.pi).any()}
    assert always and len(always) < len(serving)
    calls = []

    def counted(rng, n):
        calls.append(n)
        return _uniforms(rng, n)

    # every seat's stream starts with its block of orientation uniforms
    monkeypatch.setattr(mmwplan.montecarlo, "_uniforms", counted)
    mc = McConfig(n_samples=2000, seed=3, sample_shadowing=shadowing)
    report = monte_carlo_coverage(model, mc, dep)
    skipped = set() if shadowing else always
    assert calls == [mc.n_samples] * (len(serving) - len(skipped))
    for m in skipped:
        assert report["per_gp"][m]["empirical_prob"] == 1.0


def test_few_uniforms_reach_ndtri(monkeypatch):
    # without shadowing only the uniforms inside a band around an edge's
    # threshold, and each band's ends, run the sampler's ndtri
    model = PlanningModel(generate_venue("hall"), ChannelParams(), 0.9)
    dep, _ = greedy_place(model, 0.75)
    drawn, inverted = [], []

    def counted_uniforms(rng, n):
        drawn.append(n)
        return _uniforms(rng, n)

    def counted_ndtri(x, out=None):
        inverted.append(np.size(x))
        return ndtri(x, out=out)

    monkeypatch.setattr(mmwplan.montecarlo, "_uniforms", counted_uniforms)
    monkeypatch.setattr(mmwplan.montecarlo, "ndtri", counted_ndtri)
    monte_carlo_coverage(model, McConfig(n_samples=200_000, seed=7), dep)
    assert len(drawn) > 50
    assert sum(inverted) < 0.01 * sum(drawn)


def test_coverage_report_reproducible(tight_params):
    model = PlanningModel(random_toy(63), tight_params, 0.7)
    dep, _ = greedy_place(model, 0.9)
    a = monte_carlo_coverage(model, MC, dep)
    b = monte_carlo_coverage(model, MC, dep)
    assert a == b
    assert a["generator"] == "philox4x64"
    assert a["coverage_analytic"] == dep.coverage


def test_empty_deployment_covers_nothing(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.7)
    dep, _ = greedy_place(model, 0.0)
    cov = monte_carlo_coverage(model, MC, dep)
    assert cov["coverage_empirical"] == 0.0
    assert cov["coverage_analytic"] == 0.0
    assert all(row["empirical_prob"] == 0.0 for row in cov["per_gp"])


def test_malformed_deployment_propagates(toy_venue, default_params):
    bad = Deployment(
        selected=[PlacedAp(candidate=99, theta=0.0, phi=0.0, assigned=())],
        per_gp_prob=[], satisfied=[], coverage=0.0,
        normalized_coverage=0.0,
    )
    with pytest.raises(DeploymentValidationError):
        monte_carlo_coverage(
            PlanningModel(toy_venue, default_params, 0.7), MC, bad
        )


# -- the replay against the per-sample oracle -------------------------------


_ANGLE = st.one_of(
    st.sampled_from(
        [-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi]
    ),
    st.floats(-math.pi, math.pi),
)


def _links(shadowing):
    """One to three links, each (dist, phi_rx, psi_rx, vertical,
    occluded). Links shorter than 1 m, which ``PlanningModel`` refuses and
    ``_active_half_width`` does not classify, are drawn only for the
    shadowed replay, which runs the chain per sample."""
    dist = st.floats(1.0, 200.0)
    if shadowing:
        dist = st.one_of(st.floats(0.1, 1.0), dist)
    link = st.tuples(dist, _ANGLE, st.floats(0.0, math.pi), st.booleans(),
                     st.booleans())
    return st.lists(link, min_size=1, max_size=3)


def _rows(links):
    """A seat's link rows, as the replay reads them off the model."""
    return tuple(np.array(column) for column in zip(*links))


def _model_windows(params, tilt, rows):
    """The azimuths and active half-widths that ``_seat_rate`` replays off
    a model holding these links: None when a link is always on, and
    never-on links left out."""
    dist, phi_rx, psi_rx, vertical, occluded = rows
    reach = _active_half_width(params, dist, psi_rx, vertical, occluded,
                               tilt)
    if (reach >= math.pi).any():
        return None
    on = reach > 0.0
    return phi_rx[on], reach[on]


def _wrapped(x):
    if x > math.pi:
        x -= 2.0 * math.pi
    elif x < -math.pi:
        x += 2.0 * math.pi
    return min(max(x, -math.pi), math.pi)


def _ulps(x, k):
    """The double k steps from x."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(np.inf, k))
    return float(x)


def _around(points, k):
    """Each point and the k doubles to either side, clipped to [-pi, pi]."""
    near = [_ulps(x, j) for x in points for j in range(-k, k + 1)]
    return np.clip(near, -math.pi, math.pi)


def _channel(links, ap_beamwidth, md_beamwidth, block, side_lobe_db,
             alphas, offset_db, rx_db=0.0):
    """Channel parameters whose threshold lands within 25 dB of the first
    link's line-of-sight SNR at receive gain ``rx_db``, so its outcome can
    change between windows; links shorter than 1 m make the outcome past
    the edges the better one. A side lobe drawn above the device main
    lobe, which ChannelParams refuses, is held at the main lobe."""
    side_lobe_db = min(side_lobe_db,
                       linear_to_db(main_lobe_gain(md_beamwidth)))
    base = ChannelParams(
        ap_beamwidth=ap_beamwidth,
        md_beamwidth=md_beamwidth,
        self_block_half_angle=block,
        side_lobe_gain_db=side_lobe_db,
        alpha_los=alphas[0],
        alpha_nlos=alphas[0] + alphas[1],
    )
    tx_db = linear_to_db(main_lobe_gain(ap_beamwidth))
    los_snr = float(_snr(base, math.log10(links[0][0]), tx_db, rx_db, True))
    return replace(base, snr_threshold_db=los_snr + offset_db)


def _example(distance, block, md_beamwidth, side_lobe_db, offset_db,
             shadowing):
    """One link facing the device's tilt, as a hypothesis example."""
    return example(
        case=(shadowing, [(distance, 0.3, 1.0, False, False)]), tilt=1.0,
        ap_beamwidth=2.0 * math.pi / 3.0, md_beamwidth=md_beamwidth,
        block=block, side_lobe_db=side_lobe_db, alphas=(2.0, 2.0),
        offset_db=offset_db, seed=3,
    )


@settings(max_examples=400)
# side lobe equal to the main lobe, the strongest allowed: the cone's edges
# change nothing, only the line-of-sight window's do
@_example(10.0, math.pi / 4.0, math.pi, 6.0, -15.5, False)
# a shadowed 0.2 m link: without shadowing it would pass only past both
# windows, where the loss is lowest
@_example(0.2, math.pi / 2.0, math.pi / 2.0, -2.0, 10.0, True)
@given(
    # whether the replay draws shadowing, and the links
    case=st.booleans().flatmap(
        lambda shadowing: st.tuples(st.just(shadowing), _links(shadowing))
    ),
    tilt=st.floats(0.0, math.pi),
    ap_beamwidth=st.floats(0.05, 2.0 * math.pi, exclude_max=True),
    md_beamwidth=st.one_of(
        st.sampled_from([math.pi / 2.0, math.pi]),
        st.floats(1e-6, 2.0 * math.pi, exclude_max=True),
    ),
    block=st.one_of(
        st.sampled_from([math.pi, math.pi / 2.0]),
        st.floats(1e-6, math.pi),
    ),
    side_lobe_db=st.floats(-10.0, 6.0),
    alphas=st.tuples(st.floats(1.5, 3.0), st.floats(0.0, 2.0)),
    offset_db=st.floats(-25.0, 25.0),
    seed=st.integers(0, 2 ** 32),
)
def test_replay_matches_per_sample_oracle(case, tilt, ap_beamwidth,
                                          md_beamwidth, block, side_lobe_db,
                                          alphas, offset_db, seed):
    shadowing, links = case
    params = _channel(links, ap_beamwidth, md_beamwidth, block,
                      side_lobe_db, alphas, offset_db)
    mc = McConfig(n_samples=1, seed=seed, sample_shadowing=shadowing)
    # every window edge and two doubles to either side, both ends and the
    # middle of the circle, and uniform draws
    edges = [_wrapped(link[1] + s * h) for link in links
             for h in (block, md_beamwidth / 2.0) for s in (-1.0, 1.0)]
    phis = np.concatenate([
        _around([-math.pi, 0.0, math.pi] + edges, 2),
        np.random.default_rng(seed).uniform(-math.pi, math.pi, 300),
    ])
    a = np.random.Generator(np.random.Philox(key=[seed, 0]))
    b = np.random.Generator(np.random.Philox(key=[seed, 0]))
    rows = _rows(links)
    if shadowing:
        got = _replay_shadowed(params, a, phis, tilt, rows)
    else:
        windows = _model_windows(params, tilt, rows)
        got = (np.ones(phis.size, dtype=bool) if windows is None
               else _decide(phis, *windows))
    want = oracles.replay_success(params, mc, b, phis, tilt, rows)
    assert got.dtype == want.dtype == bool
    assert got.tobytes() == want.tobytes()
    assert a.random(4).tobytes() == b.random(4).tobytes()  # same draws used


def _edge_on(p, h, side, shift):
    """An azimuth whose window of half-width h has its edge on side -1
    (``phi_rx - h``) or +1 (``phi_rx + h``) at orientation p, as exactly
    as the doubles near ``p - side * h`` allow, then moved shift doubles."""
    start = _wrapped(p - side * h)

    def miss(phi_rx):
        lo, hi = wrap_angles([phi_rx - h, phi_rx + h]).tolist()
        return abs((hi if side > 0 else lo) - p)

    near = [c for c in (_ulps(start, k) for k in range(-4, 5))
            if -math.pi <= c <= math.pi]
    best = min(near, key=miss)
    return min(max(_ulps(best, shift), -math.pi), math.pi)


@settings(max_examples=300, deadline=None)
# a line-of-sight window 1e-7 rad wide whose upper edge is the first draw:
# the link clears only inside it, within one band around both edges
@example(
    distance=10.0, links=[(0.0, False, False, 0, True, 1, 0)], mean=0.0,
    std=40.0, n=64, tilt=1.0, ap_beamwidth=2.0 * math.pi / 3.0,
    md_beamwidth=math.pi / 2.0, block=5e-8, side_lobe_db=-2.0,
    alphas=(2.0, 1.0), offset_db=-5.0, seed=3,
)
@given(
    distance=st.floats(1.0, 100.0),
    # per link: (psi_rx - tilt, vertical, occluded), then which drawn
    # orientation an edge lies on (-1: pi, -2: -pi), whether it is the
    # line-of-sight edge or the cone's, which side of the window, and how
    # many doubles it moves; an occluded link never clears at this
    # threshold, so it is rarer
    links=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                  st.booleans(), st.sampled_from([False, False, True]),
                  st.integers(-2, 10 ** 6), st.booleans(),
                  st.sampled_from([-1, 1]), st.integers(-3, 3)),
        min_size=1, max_size=3,
    ),
    mean=st.one_of(st.sampled_from([-math.pi, math.pi]),
                   st.floats(-math.pi, math.pi)),
    std=st.sampled_from([1e-9, 0.05, 40.0, 1e6]),
    n=st.sampled_from([1, 64, 3000]),
    tilt=st.floats(0.0, math.pi),
    ap_beamwidth=st.floats(0.05, 2.0 * math.pi, exclude_max=True),
    # a cone of 1e-7 rad and a block of 2 * 5e-8 rad: windows narrower
    # than a band, both edges in one
    md_beamwidth=st.one_of(
        st.sampled_from([math.pi / 2.0, math.pi, 1e-7]),
        st.floats(1e-6, 2.0 * math.pi, exclude_max=True),
    ),
    block=st.one_of(
        st.sampled_from([math.pi / 2.0, 3.0, 5e-8]),
        st.floats(1e-6, math.pi, exclude_max=True),
    ),
    side_lobe_db=st.floats(-10.0, 6.0),
    alphas=st.tuples(st.floats(1.5, 3.0), st.floats(0.0, 2.0)),
    offset_db=st.floats(-20.0, 2.0),
    seed=st.integers(0, 2 ** 32),
)
def test_uniform_replay_matches_per_sample_oracle(distance, links, mean,
                                                  std, n, tilt, ap_beamwidth,
                                                  md_beamwidth, block,
                                                  side_lobe_db, alphas,
                                                  offset_db, seed):
    # links of one length, each with a window edge (line of sight or
    # receive cone, either side) on an orientation the seat's stream draws,
    # on -pi or pi, or a few doubles beside it; the threshold lies at most
    # 20 dB below the best arc's SNR, so links mostly change at an edge
    dist = OrientationDistribution(mean=mean, std=std)
    drawn = oracles.sample_orientations(
        np.random.Generator(np.random.Philox(key=[seed, 0])), dist, n
    )
    placed = [
        (distance,
         _edge_on(float(drawn[k % n]) if k >= 0 else math.pi * (2 * k + 3),
                  block if on_block else md_beamwidth / 2.0, side, shift),
         min(max(tilt + elevation, 0.0), math.pi), vertical, occluded)
        for elevation, vertical, occluded, k, on_block, side, shift in links
    ]
    # the threshold is set by the receive main lobe, which a narrow
    # device beam makes strong
    params = _channel(placed, ap_beamwidth, md_beamwidth, block,
                      side_lobe_db, alphas, offset_db,
                      linear_to_db(main_lobe_gain(md_beamwidth)))
    rows = _rows(placed)

    def oracle(rng, size):
        return oracles.replay_success(
            params, McConfig(n_samples=size), rng,
            oracles.sample_orientations(rng, dist, size), tilt, rows,
        )

    a = np.random.Generator(np.random.Philox(key=[seed, 0]))
    b = np.random.Generator(np.random.Philox(key=[seed, 0]))
    want = oracle(b, n)
    windows = _model_windows(params, tilt, rows)
    if windows is None:
        # a link clears at every offset: rate 1.0, nothing drawn
        assert want.all()
        return
    got = _replay_uniforms(_uniforms(a, n), dist, *windows)
    assert got.dtype == want.dtype == bool
    assert got.tobytes() == want.tobytes()
    assert a.random(4).tobytes() == b.random(4).tobytes()  # same draws used
    # uniforms a few doubles from each edge's threshold and from 0 and 1,
    # where the bands lie, decided as the chain decides them
    lo, hi = (oracles._std_cdf((x - mean) / std) for x in (-math.pi, math.pi))
    thresholds = [
        (oracles._std_cdf((e - mean) / std) - lo) / (hi - lo)
        for phi_rx, reach in zip(*windows)
        for e in wrap_angles([phi_rx - reach, phi_rx + reach]).tolist()
    ]
    u = np.clip(_around([0.0, 1.0] + thresholds, 3), 0.0, _ulps(1.0, -1))
    got = _replay_uniforms(u.copy(), dist, *windows)
    assert got.tobytes() == oracle(_Fixed(u), u.size).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    mean=st.one_of(st.sampled_from([-math.pi, 0.0, math.pi]),
                   st.floats(-math.pi, math.pi)),
    std=st.one_of(st.sampled_from([1e-9, 1e-8, 0.05, 40.0, 1e6,
                                   math.ulp(0.0), 1e-310]),
                  st.floats(1e-9, 10.0)),
    # edges as offsets from the mean in standard deviations, or anywhere
    offsets=st.lists(st.floats(-6.0, 6.0), max_size=4),
    anywhere=st.lists(st.floats(-math.pi, math.pi), max_size=3),
    seed=st.integers(0, 2 ** 32),
)
def test_uniforms_outside_bands_map_clear_of_every_edge(mean, std, offsets,
                                                        anywhere, seed):
    # the doubles just outside each band and random uniforms outside every
    # band, pushed through the sampler, land farther than half the band
    # margin from every edge, the other half spare for rounding
    dist = OrientationDistribution(mean=mean, std=std)
    edges = [-math.pi, math.pi] + anywhere + [
        min(max(mean + k * std, -math.pi), math.pi) for k in offsets
    ]
    bands = _bands(dist, edges)
    probes = [x for a, b in bands for x in (_ulps(a, -1), _ulps(b, 1))]
    u = np.concatenate([probes, np.random.default_rng(seed).random(500)])
    outside = (u >= 0.0) & (u < 1.0)
    for a, b in bands:
        outside &= (u < a) | (u > b)
    u = u[outside]
    phis = oracles.sample_orientations(_Fixed(u), dist, u.size)
    clear = np.abs(phis[:, None] - np.array(edges)[None, :]).min(axis=1)
    assert (clear > _BAND_MARGIN / 2.0).all()


class _Fixed:
    """A stand-in generator whose uniforms are given."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("center, half", [
    (-math.pi, 0.3), (0.0, math.pi / 2.0), (math.pi / 2.0, math.pi / 2.0),
    (-math.pi / 2.0, math.pi / 2.0), (1.0, math.pi - 1.0),
    (-2.5, math.pi - 2.5), (math.pi, 1e-12),
])
def test_window_matches_exact_offset_at_the_seam(center, half):
    # windows whose edges lie on or within a few doubles of +-pi, and
    # uniforms the sampler maps within a few doubles of +-pi: a draw across
    # the seam neighbours such an edge on the circle though 2 pi away as a
    # number. One line-of-sight link of 10 m clears at either lobe and
    # fails blocked, so it is on exactly within the self-blockage window.
    tilt = 1.0
    centers = [c for c in (_ulps(center, k) for k in range(-4, 5))
               if -math.pi <= c <= math.pi]
    for mean, std in ((0.0, 1.0), (math.pi, 0.5), (-math.pi, 0.5)):
        dist = OrientationDistribution(mean=mean, std=std)
        lo, hi = (oracles._std_cdf((x - mean) / std)
                  for x in (-math.pi, math.pi))
        seam = [(oracles._std_cdf((x - mean) / std) - lo) / (hi - lo)
                for x in _around([-math.pi, math.pi], 3)]
        u = np.clip(_around(seam, 3), 0.0, _ulps(1.0, -1))
        phis = oracles.sample_orientations(_Fixed(u), dist, u.size)
        assert phis.min() < -math.pi + 1e-12 < math.pi - 1e-12 < phis.max()
        for c in centers:
            for h in (_ulps(half, k) for k in range(-4, 5)):
                params = ChannelParams(self_block_half_angle=h)
                rows = _rows([(10.0, c, tilt, False, False)])
                windows = _model_windows(params, tilt, rows)
                assert [w.tolist() for w in windows] == [[c], [h]]
                got = _replay_uniforms(u.copy(), dist, *windows)
                want = oracles.replay_success(
                    params, McConfig(n_samples=u.size), None, phis, tilt,
                    rows,
                )
                assert got.tobytes() == want.tobytes(), (mean, c, h)


# -- the model's hand-off to the replay --------------------------------------


@settings(deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    snr_threshold_db=st.floats(-10.0, 50.0),
    md_beamwidth=st.one_of(
        st.sampled_from([math.pi / 2.0, math.pi]),
        st.floats(0.05, 2.0 * math.pi, exclude_max=True),
    ),
    block=st.one_of(st.sampled_from([math.pi / 2.0, math.pi]),
                    st.floats(1e-3, math.pi)),
    side_lobe_db=st.floats(-20.0, 6.0),
    alpha_nlos=st.floats(2.0, 5.0),
    mc_seed=st.integers(0, 2 ** 32),
)
def test_seat_rate_matches_per_sample_oracle(seed, snr_threshold_db,
                                             md_beamwidth, block,
                                             side_lobe_db, alpha_nlos,
                                             mc_seed):
    # every seat of a random room, over its whole usable set and over each
    # usable link alone: the rate from the model's windows, or with
    # shadowing from its link rows, is the rate of the whole chain run on
    # every draw. A side lobe drawn above the device main lobe, which
    # ChannelParams refuses, is held at the main lobe.
    params = ChannelParams(
        snr_threshold_db=snr_threshold_db,
        md_beamwidth=md_beamwidth,
        self_block_half_angle=block,
        side_lobe_gain_db=min(side_lobe_db,
                              linear_to_db(main_lobe_gain(md_beamwidth))),
        alpha_nlos=alpha_nlos,
    )
    model = PlanningModel(random_toy(seed), params, 0.7)
    for shadowing in (False, True):
        mc = McConfig(n_samples=300, seed=mc_seed,
                      sample_shadowing=shadowing)
        for m in range(model.M):
            usable = np.flatnonzero(model.usable[m]).tolist()
            for ids in [usable] + [[l] for l in usable]:
                row = oracles.ids_row(model.L, ids)
                want = oracles.seat_rate(model, mc, m, row)
                assert _seat_rate(model, mc, m, row) == want, (m, ids)
