"""Sampled-orientation replay against the closed-form probabilities."""

import math

import numpy as np
import pytest

from conftest import random_toy, single_link_venue
from mmwplan import (
    ChannelParams,
    DeploymentValidationError,
    McConfig,
    OrientationDistribution,
    PlanningModel,
    greedy_place,
    monte_carlo_coverage,
)
from mmwplan.montecarlo import monte_carlo_connectivity, sample_orientation
from mmwplan.solver import Deployment, PlacedAp

MC = McConfig(n_samples=20000, seed=5)


def _rng(seed=1):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


# -- orientation sampler ----------------------------------------------------


def test_draws_stay_on_circle():
    rng = _rng()
    for mean, std in ((0.0, 0.5), (3.0, 2.0), (-2.5, 1.0)):
        dist = OrientationDistribution(mean=mean, std=std)
        draws = [sample_orientation(rng, dist) for _ in range(1000)]
        assert all(-math.pi <= x <= math.pi for x in draws)


def test_tiny_spread_collapses_to_mean():
    dist = OrientationDistribution(mean=1.1, std=1e-9)
    rng = _rng(2)
    for _ in range(10):
        assert abs(sample_orientation(rng, dist) - 1.1) < 1e-6


def test_sample_mean_matches_truncated_mean():
    mean, std = 0.4, 0.7
    dist = OrientationDistribution(mean=mean, std=std)
    rng = _rng(3)
    draws = np.array([sample_orientation(rng, dist) for _ in range(20000)])
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
    xs = [sample_orientation(a, dist) for _ in range(5)]
    us = b.random(5)
    lo = 0.5 * (1.0 + math.erf((-math.pi - 0.2) / (0.6 * math.sqrt(2.0))))
    hi = 0.5 * (1.0 + math.erf((math.pi - 0.2) / (0.6 * math.sqrt(2.0))))
    # same uniforms drive both, so ranks must agree
    order_x = np.argsort(xs)
    order_u = np.argsort(lo + us * (hi - lo))
    assert list(order_x) == list(order_u)


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        McConfig(n_samples=0)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
def test_seed_outside_64_bits_rejected(seed):
    # the Philox key keeps 64 bits, so such a seed would replay another
    with pytest.raises(ValueError, match="seed"):
        McConfig(seed=seed)


def test_seed_range_ends_accepted():
    assert McConfig(seed=0).seed == 0
    assert McConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1


# -- per-user connectivity --------------------------------------------------


def test_always_on_link_is_exact(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    r = monte_carlo_connectivity(model, 0, [0], MC)
    assert r["analytic_prob"] == 1.0
    assert r["empirical_prob"] == 1.0
    assert r["within_3sigma"]


def test_empty_set_is_exact_zero(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    r = monte_carlo_connectivity(model, 2, [], MC)
    assert r["analytic_prob"] == 0.0
    assert r["empirical_prob"] == 0.0


@pytest.mark.parametrize("assigned", [[-1], [0, 4]])
def test_connectivity_rejects_unknown_ids(toy_venue, default_params,
                                          assigned):
    with pytest.raises(ValueError, match="assigned ids"):
        monte_carlo_connectivity(
            PlanningModel(toy_venue, default_params, 0.7), 0, assigned, MC
        )


def test_orientation_dependent_link_within_3sigma():
    v = single_link_venue(dx=0.0, dz=40.0, tilt=0.0)
    r = monte_carlo_connectivity(PlanningModel(v, ChannelParams(), 0.7), 0,
                                 [0], MC)
    assert 0.0 < r["analytic_prob"] < 1.0
    assert r["within_3sigma"], r


def test_random_rooms_within_3sigma(tight_params):
    rng = np.random.default_rng(8)
    for seed in (61, 62, 63):
        v = random_toy(seed)
        m = int(rng.integers(0, v.n_grid))
        size = int(rng.integers(1, 3))
        s = sorted(rng.choice(v.n_candidates, size=size,
                              replace=False).tolist())
        r = monte_carlo_connectivity(PlanningModel(v, tight_params, 0.7), m,
                                     s, MC)
        assert r["within_3sigma"], r


def test_report_names_stream_layout(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    r = monte_carlo_connectivity(model, 1, [0, 2], MC)
    assert r["generator"] == "philox4x64"
    assert "gp_id" in r["substream_rule"]
    assert r["assigned"] == [0, 2]
    assert r["seed"] == MC.seed


def test_connectivity_report_reproducible(tight_params):
    model = PlanningModel(random_toy(62), tight_params, 0.7)
    a = monte_carlo_connectivity(model, 4, [1, 3], MC)
    b = monte_carlo_connectivity(model, 4, [1, 3], MC)
    assert a == b
    c = monte_carlo_connectivity(
        model, 4, [1, 3], McConfig(n_samples=20000, seed=6)
    )
    assert c["empirical_prob"] != a["empirical_prob"] or \
        c["analytic_prob"] == 1.0


def test_shadowing_replay_runs_and_reproduces(tight_params):
    model = PlanningModel(random_toy(61), tight_params, 0.7)
    mc = McConfig(n_samples=5000, seed=9, sample_shadowing=True)
    a = monte_carlo_connectivity(model, 4, [2], mc)
    b = monte_carlo_connectivity(model, 4, [2], mc)
    assert a == b
    assert a["sample_shadowing"]
    assert isinstance(a["within_3sigma"], bool)


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
        s = sorted(ap.candidate for ap in dep.selected if m in ap.assigned)
        if not s:
            continue
        r = monte_carlo_connectivity(model, m, s, MC)
        assert r["empirical_prob"] == cov["per_gp"][m]["empirical_prob"]
        checked += 1
    assert checked >= 3


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
