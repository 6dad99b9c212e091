"""Orientation distribution, scenario cells, chance-constraint sums."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_toy, single_link_venue
from mmwplan import ChannelParams, PlacedAp, PlanningModel, generate_venue
from mmwplan.scenarios import (
    OrientationDistribution,
    connectivity_probability,
    seat_partitions,
)
from mmwplan.venue import CandidateLocation


def _partition(venue, params, m):
    return PlanningModel(venue, params, 0.5).cells(m)


def _arc_mass(dist, center, half):
    """Mass the planner gives the arc of half-width ``half`` around
    ``center``: the connectivity of one link active on exactly that arc."""
    v = single_link_venue(facing=dist.mean, std=dist.std)
    _, probs, visible = seat_partitions(
        v, np.array([[center]]), np.array([[half]])
    )
    return connectivity_probability(probs, visible, np.ones(1, dtype=bool))


def _bits_row(bits, n):
    """The boolean row over n candidates that holds the set bits of a
    small integer."""
    return oracles.ids_row(
        n, [l for l in range(bits.bit_length()) if bits >> l & 1]
    )


# -- distribution -----------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        OrientationDistribution(mean=4.0, std=0.5)
    with pytest.raises(ValueError):
        OrientationDistribution(mean=0.0, std=0.0)


def test_mass_between_against_numeric_integration():
    cases = [(0.0, 0.5), (1.2, 0.8), (-2.0, 0.3), (3.0, 1.5)]
    rng = np.random.default_rng(31)
    for mean, std in cases:
        dist = OrientationDistribution(mean=mean, std=std)
        for _ in range(5):
            a, b = sorted(rng.uniform(-math.pi, math.pi, 2))
            want = oracles.trunc_mass_numeric(mean, std, a, b)
            got = _arc_mass(dist, float(a + b) / 2.0, float(b - a) / 2.0)
            assert abs(got - want) < 1e-7


def test_one_sigma_mass():
    dist = OrientationDistribution(mean=0.3, std=0.4)
    got = _arc_mass(dist, 0.3, 0.4)
    assert abs(got - 0.6827) < 1e-3


def test_circular_mass_trivial_cases():
    dist = OrientationDistribution(mean=0.5, std=0.7)
    assert _arc_mass(dist, 0.2, math.pi) == 1.0
    assert _arc_mass(dist, 0.2, 0.0) == 0.0


def test_circular_mass_wrapped_interval():
    dist = OrientationDistribution(mean=2.5, std=0.6)
    want = (oracles.trunc_mass_numeric(2.5, 0.6, math.pi - 0.8, math.pi)
            + oracles.trunc_mass_numeric(2.5, 0.6, -math.pi,
                                         -math.pi + 0.8))
    assert abs(_arc_mass(dist, math.pi, 0.8) - want) < 1e-7


def test_circular_mass_complement():
    dist = OrientationDistribution(mean=-1.0, std=0.9)
    got = (_arc_mass(dist, 0.7, 1.1)
           + _arc_mass(dist, 0.7 + math.pi, math.pi - 1.1))
    assert abs(got - 1.0) < 1e-12


# -- partition construction -------------------------------------------------


def test_single_always_on_link_single_cell():
    v = random_toy(0)
    model = PlanningModel(v, ChannelParams(), 0.5)
    # toy links are short enough to be always on
    assert model.reach[0, 0] >= math.pi
    reach = model.reach.copy()
    reach[0, 1:] = 0.0
    cell_start, probs, visible = seat_partitions(v, model.phi_rx, reach)
    assert cell_start[1] == 1
    assert probs[:1].tolist() == [1.0]
    assert visible[:1].tolist() == [[True, False, False, False]]


def test_partition_invariants(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.5)
    for m, walk in enumerate(oracles.model_partitions(model)):
        probs, visible = model.cells(m)
        n_links = toy_venue.n_candidates
        n_cells = len(probs)
        assert n_cells <= 2 * n_links + 1
        assert abs(probs.sum() - 1.0) < 1e-12
        # the walk's cells, as many as the model's, cover the circle
        # disjointly
        arcs = oracles.cell_arcs(walk)
        assert len(arcs) == n_cells
        total = sum(c.length() for c in arcs)
        assert abs(total - 2.0 * math.pi) < 1e-9
        assert visible.shape == (n_cells, n_links)
        # an always-on link is active in every cell
        assert visible[:, model.reach[m] >= math.pi].all()


def test_widest_allowed_spread_is_uniform(default_params):
    # at the input bound on orientation_std every cell's mass is its arc
    # length over 2 pi; far past it the masses were 0 / 0
    venue = generate_venue("toy", orientation_std=1e6)
    model = PlanningModel(venue, default_params, 0.5)
    for m, walk in enumerate(oracles.model_partitions(model)):
        probs, _ = model.cells(m)
        assert len(walk.bounds) == len(probs) > 1
        for prob, arc in zip(probs, oracles.cell_arcs(walk)):
            assert abs(prob - arc.length() / (2.0 * math.pi)) <= 1e-9


def test_cell_masks_constant_within_cells():
    p = ChannelParams()
    for seed in (5, 6):
        v = random_toy(seed)
        model = PlanningModel(v, p, 0.5)
        for m, walk in enumerate(oracles.model_partitions(model)):
            visible = model.cells(m)[1]
            assert len(visible) == len(oracles.cell_arcs(walk))
            arcs = [oracles.link_arc(v, p, m, l)
                    for l in range(v.n_candidates)]
            for c, row in zip(oracles.cell_arcs(walk), visible):
                if c.length() < 1e-6:
                    continue
                # probe a few interior points
                lo = -math.pi if c.is_full else c.endpoints()[0]
                for f in (0.25, 0.5, 0.75):
                    x = math.atan2(
                        math.sin(lo + f * c.length()),
                        math.cos(lo + f * c.length()))
                    active = [arc.contains(x) for arc in arcs]
                    assert active == row.tolist()


def test_cell_frequencies_match_sampling():
    v = random_toy(9)
    p = ChannelParams()
    m = 2
    model = PlanningModel(v, p, 0.5)
    probs = model.cells(m)[0]
    cells = oracles.cell_arcs(oracles.model_partitions(model)[m])
    assert len(cells) == len(probs)
    gp = v.grid_positions[m]
    rng = np.random.default_rng(77)
    # rejection from the untruncated Gaussian gives the renormalized law
    raw = rng.normal(gp.facing, gp.orientation_std, size=120000)
    draws = raw[(raw >= -math.pi) & (raw <= math.pi)]
    n = draws.size
    assert n > 100000
    for c, prob in zip(cells, probs.tolist()):
        if c.is_full:
            continue
        hits = sum(1 for x in draws if c.contains(float(x)))
        se = math.sqrt(max(prob * (1.0 - prob), 1e-12) / n)
        assert abs(hits / n - prob) <= 3.0 * se + 1e-9


# -- connectivity sums ------------------------------------------------------


def test_connectivity_empty_set_zero(toy_venue, default_params):
    part = _partition(toy_venue, default_params, 0)
    none = np.zeros(toy_venue.n_candidates, dtype=bool)
    assert connectivity_probability(*part, none) == 0.0


def test_connectivity_full_interval_link_is_one(toy_venue, default_params):
    part = _partition(toy_venue, default_params, 0)
    always_on = part[1].all(axis=0)
    assert always_on.any()
    l = int(np.flatnonzero(always_on)[-1])
    assert connectivity_probability(
        *part, oracles.ids_row(toy_venue.n_candidates, [l])
    ) == 1.0


def test_links_hitting_every_cell_connect_exactly_one():
    # hall seat 16 has no always-on link, but its usable links together
    # hit every cell, whose masses sum to one ulp under 1
    m = 16
    model = PlanningModel(generate_venue("hall"), ChannelParams(), 1.0)
    probs, visible = model.cells(m)
    assert not (model.reach[m] >= math.pi).any()
    assert visible[:, model.usable[m]].any(axis=1).all()
    assert probs.sum() < 1.0
    assert model.conn(m, model.usable[m]) == 1.0


@pytest.mark.parametrize("make", [
    lambda L: [-1],
    lambda L: [L],
    lambda L: [0, L],
    lambda L: np.ones(L - 1, dtype=bool),
    lambda L: np.ones(L + 1, dtype=bool),
    lambda L: [0],
    lambda L: np.arange(L),
    lambda L: np.ones(L),
], ids=["minus-one", "L", "zero-and-L", "short-row", "long-row", "id-list",
        "int-array", "float-row"])
def test_connectivity_rejects_ids_outside_candidates(toy_venue,
                                                     default_params, make):
    # a set of links is a boolean row over the candidates and nothing
    # else; a negative id used to read a mount from the end of the row
    part = _partition(toy_venue, default_params, 3)
    aps = make(toy_venue.n_candidates)
    with pytest.raises(ValueError, match="assigned ids"):
        connectivity_probability(*part, aps)


def test_connectivity_matches_union_arithmetic():
    p = ChannelParams()
    rng = np.random.default_rng(33)
    for seed in (11, 12, 13):
        v = random_toy(seed)
        for _ in range(8):
            m = int(rng.integers(0, v.n_grid))
            size = int(rng.integers(1, v.n_candidates + 1))
            s = sorted(rng.choice(v.n_candidates, size=size,
                                  replace=False).tolist())
            part = _partition(v, p, m)
            got = connectivity_probability(
                *part, oracles.ids_row(v.n_candidates, s)
            )
            want = oracles.union_probability(v, p, m, s)
            assert abs(got - want) < 1e-12


def test_connectivity_matches_pattern_enumeration():
    p = ChannelParams()
    rng = np.random.default_rng(34)
    for seed in (14, 15):
        v = random_toy(seed)
        for _ in range(10):
            m = int(rng.integers(0, v.n_grid))
            size = int(rng.integers(1, v.n_candidates + 1))
            s = sorted(rng.choice(v.n_candidates, size=size,
                                  replace=False).tolist())
            part = _partition(v, p, m)
            got = connectivity_probability(
                *part, oracles.ids_row(v.n_candidates, s)
            )
            want = oracles.pattern_connectivity(part, s)
            assert abs(got - want) < 1e-12


def test_connectivity_monotone_under_growth():
    p = ChannelParams()
    rng = np.random.default_rng(35)
    v = random_toy(16)
    parts = [_partition(v, p, m) for m in range(v.n_grid)]
    L = v.n_candidates
    for _ in range(300):
        m = int(rng.integers(0, v.n_grid))
        small = int(rng.integers(0, 16))
        extra = int(rng.integers(0, 16))
        big = small | extra
        assert connectivity_probability(*parts[m], _bits_row(small, L)) <= \
            connectivity_probability(*parts[m], _bits_row(big, L)) + 1e-15


def test_refinement_invariance():
    v = random_toy(17)
    model = PlanningModel(v, ChannelParams(), 0.5)
    walks = oracles.model_partitions(model)
    for m in (0, 4):
        part = model.cells(m)
        cells = oracles.cell_arcs(walks[m])
        assert len(cells) == len(part[0])
        dist = OrientationDistribution.for_gp(v, m)
        probs, rows = [], []
        for c, prob, row in zip(cells, part[0].tolist(), part[1]):
            if c.is_full or c.length() < 1e-9:
                probs.append(prob)
                rows.append(row)
                continue
            lo, hi = c.endpoints()
            mid = math.atan2(math.sin(lo + c.length() / 2.0),
                             math.cos(lo + c.length() / 2.0))
            left = oracles.AngularInterval.arc(lo, mid)
            right = oracles.AngularInterval.arc(mid, hi)
            probs += [oracles.circular_mass(dist, left),
                      oracles.circular_mass(dist, right)]
            rows += [row, row]
        fine = (np.array(probs), np.array(rows))
        for s in range(16):
            a = connectivity_probability(*part, _bits_row(s, v.n_candidates))
            b = connectivity_probability(*fine, _bits_row(s, v.n_candidates))
            assert abs(a - b) < 1e-12


# -- satisfaction -----------------------------------------------------------


def test_satisfied_zero_beta_always(toy_venue, default_params):
    dep = PlanningModel(toy_venue, default_params, 0.0).finalize([])
    assert all(dep.satisfied)


def test_satisfied_beta_one_needs_always_on():
    # long-range venue: the one link is on a proper arc, so some
    # orientations leave the seat dark and beta 1.0 is out of reach
    from conftest import single_link_venue
    v = single_link_venue(dx=0.0, dz=40.0, tilt=0.0)
    p = ChannelParams()
    serve = [PlacedAp(candidate=0, theta=0.0, phi=0.0, assigned=(0,))]
    strict = PlanningModel(v, p, 1.0)
    assert not strict.cells(0)[1].all(axis=0).any()
    assert strict.finalize(serve).satisfied == [False]
    assert PlanningModel(v, p, 0.3).finalize(serve).satisfied == [True]


# -- past 64 candidates -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _padded_toy(seed, n_candidates):
    """random_toy(seed) with mounts appended up to ``n_candidates``.

    Ids 64 to 67 sit 10 cm above the toy's own mounts, whose short links
    are often always on; the others are scattered over and around the
    room at several heights, where links are proper arcs or dead. Returns
    the venue and its planning model.
    """
    v = random_toy(seed)
    rng = np.random.default_rng(seed)

    def spot(j):
        if 64 <= j < 68:
            x, y, z = v.candidates[j - 64].position
            return (x, y, z + 0.1)
        return (float(rng.uniform(-15.0, 25.0)),
                float(rng.uniform(-15.0, 24.0)),
                float(rng.uniform(3.0, 12.0)))

    extra = [CandidateLocation(id=j, position=spot(j))
             for j in range(v.n_candidates, n_candidates)]
    v = replace(v, candidates=v.candidates + extra)
    return v, PlanningModel(v, ChannelParams(), 0.5)


def test_padded_toys_exercise_high_ids():
    always = arcs = 0
    for seed in range(4):
        _, model = _padded_toy(seed, 70)
        high = model.reach[:, 64:]
        always += int((high >= math.pi).sum())
        arcs += int(((high > 0.0) & (high < math.pi)).sum())
    assert always > 0 and arcs > 0


@settings(max_examples=100)
@given(data=st.data())
def test_connectivity_past_64_candidates_matches_patterns(data):
    seed = data.draw(st.integers(0, 3), label="seed")
    n_candidates = data.draw(st.sampled_from([65, 70]), label="L")
    _, model = _padded_toy(seed, n_candidates)
    m = data.draw(st.integers(0, model.M - 1), label="seat")
    always = np.flatnonzero(model.reach[m] >= math.pi).tolist()
    high = data.draw(st.integers(64, n_candidates - 1), label="high id")
    rest = data.draw(
        st.lists(st.integers(0, n_candidates - 1), max_size=4, unique=True),
        label="other ids",
    )
    ids = {high, *rest}
    if always and data.draw(st.booleans(), label="add an always-on id"):
        ids.add(data.draw(st.sampled_from(always), label="always-on id"))
    ids = sorted(ids)
    cells = model.cells(m)
    got = connectivity_probability(*cells, oracles.ids_row(n_candidates, ids))
    assert abs(got - oracles.pattern_connectivity(cells, ids)) <= 1e-12
    if set(ids) & set(always):
        assert got == 1.0
