"""Orientation distribution, scenario cells, chance-constraint sums."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_toy
from mmwplan import (
    AngularInterval,
    CandidateLocation,
    ChannelParams,
    OrientationDistribution,
    ScenarioCell,
    ScenarioPartition,
    build_scenarios,
    circular_mass,
    connectivity_probability,
    link_profile,
    satisfied,
)


def _partition(venue, params, m):
    profiles = [link_profile(venue, params, m, l)
                for l in range(venue.n_candidates)]
    return build_scenarios(venue, m, profiles)


def _ids(bits):
    """Candidate ids of the set bits of a small integer, lowest first."""
    return [l for l in range(bits.bit_length()) if bits >> l & 1]


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
            assert abs(dist.mass_between(float(a), float(b)) - want) < 1e-7


def test_one_sigma_mass():
    dist = OrientationDistribution(mean=0.3, std=0.4)
    got = dist.mass_between(0.3 - 0.4, 0.3 + 0.4)
    assert abs(got - 0.6827) < 1e-3


def test_circular_mass_trivial_cases():
    dist = OrientationDistribution(mean=0.5, std=0.7)
    assert circular_mass(dist, AngularInterval.full()) == 1.0
    assert circular_mass(dist, AngularInterval.empty()) == 0.0


def test_circular_mass_wrapped_interval():
    dist = OrientationDistribution(mean=2.5, std=0.6)
    iv = AngularInterval.from_center(math.pi, 0.8)
    want = (oracles.trunc_mass_numeric(2.5, 0.6, math.pi - 0.8, math.pi)
            + oracles.trunc_mass_numeric(2.5, 0.6, -math.pi,
                                         -math.pi + 0.8))
    assert abs(circular_mass(dist, iv) - want) < 1e-7


def test_circular_mass_complement():
    dist = OrientationDistribution(mean=-1.0, std=0.9)
    iv = AngularInterval.from_center(0.7, 1.1)
    comp = AngularInterval.from_center(0.7 + math.pi, math.pi - 1.1)
    got = circular_mass(dist, iv) + circular_mass(dist, comp)
    assert abs(got - 1.0) < 1e-12


# -- partition construction -------------------------------------------------


def test_single_always_on_link_single_cell():
    v = random_toy(0)
    p = ChannelParams()
    # toy links are short enough to be always on
    prof = link_profile(v, p, 0, 0)
    assert prof.effective_interval.is_full
    part = build_scenarios(v, 0, [prof])
    assert len(part.cells) == 1
    assert part.cells[0].prob == 1.0
    assert part.always_on.tolist() == [True, False, False, False]
    assert part.visible.tolist() == [[True, False, False, False]]


def test_partition_invariants(toy_venue, default_params):
    for m in range(toy_venue.n_grid):
        part = _partition(toy_venue, default_params, m)
        n_links = toy_venue.n_candidates
        assert len(part.cells) <= 2 * n_links + 1
        assert abs(sum(c.prob for c in part.cells) - 1.0) < 1e-12
        # disjoint cover of the circle
        total = sum(c.interval.length() for c in part.cells)
        assert abs(total - 2.0 * math.pi) < 1e-9
        assert part.visible.shape == (len(part.cells), n_links)
        assert part.visible[:, part.always_on].all()


def test_partition_rejects_foreign_profile(toy_venue, default_params):
    prof = link_profile(toy_venue, default_params, 1, 0)
    with pytest.raises(ValueError):
        build_scenarios(toy_venue, 0, [prof])


def test_cell_masks_constant_within_cells():
    p = ChannelParams()
    for seed in (5, 6):
        v = random_toy(seed)
        for m in range(v.n_grid):
            part = _partition(v, p, m)
            profiles = {l: link_profile(v, p, m, l)
                        for l in range(v.n_candidates)}
            for c, row in zip(part.cells, part.visible):
                if c.interval.length() < 1e-6:
                    continue
                # probe a few interior points
                lo = -math.pi if c.interval.is_full \
                    else c.interval.endpoints()[0]
                for f in (0.25, 0.5, 0.75):
                    x = math.atan2(
                        math.sin(lo + f * c.interval.length()),
                        math.cos(lo + f * c.interval.length()))
                    active = [prof.usable
                              and prof.effective_interval.contains(x)
                              for prof in profiles.values()]
                    assert active == row.tolist()


def test_cell_frequencies_match_sampling():
    v = random_toy(9)
    p = ChannelParams()
    m = 2
    part = _partition(v, p, m)
    gp = v.grid_positions[m]
    rng = np.random.default_rng(77)
    # rejection from the untruncated Gaussian gives the renormalized law
    raw = rng.normal(gp.facing, gp.orientation_std, size=120000)
    draws = raw[(raw >= -math.pi) & (raw <= math.pi)]
    n = draws.size
    assert n > 100000
    for c in part.cells:
        if c.interval.is_full:
            continue
        hits = sum(1 for x in draws if c.interval.contains(float(x)))
        se = math.sqrt(max(c.prob * (1.0 - c.prob), 1e-12) / n)
        assert abs(hits / n - c.prob) <= 3.0 * se + 1e-9


# -- connectivity sums ------------------------------------------------------


def test_connectivity_empty_set_zero(toy_venue, default_params):
    part = _partition(toy_venue, default_params, 0)
    assert connectivity_probability(part, []) == 0.0
    none = np.zeros(toy_venue.n_candidates, dtype=bool)
    assert connectivity_probability(part, none) == 0.0


def test_connectivity_full_interval_link_is_one(toy_venue, default_params):
    part = _partition(toy_venue, default_params, 0)
    assert part.always_on.any()
    l = int(np.flatnonzero(part.always_on)[-1])
    assert connectivity_probability(part, [l]) == 1.0


def test_connectivity_mask_and_iterable_agree(toy_venue, default_params):
    part = _partition(toy_venue, default_params, 3)
    for s in ([0], [1, 2], [0, 3], [1, 2, 3]):
        row = np.zeros(toy_venue.n_candidates, dtype=bool)
        row[s] = True
        assert connectivity_probability(part, s) == \
            connectivity_probability(part, row)


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
            got = connectivity_probability(part, s)
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
            got = connectivity_probability(part, s)
            want = oracles.pattern_connectivity(part, s)
            assert abs(got - want) < 1e-12


def test_connectivity_monotone_under_growth():
    p = ChannelParams()
    rng = np.random.default_rng(35)
    v = random_toy(16)
    parts = [_partition(v, p, m) for m in range(v.n_grid)]
    for _ in range(300):
        m = int(rng.integers(0, v.n_grid))
        small = int(rng.integers(0, 16))
        extra = int(rng.integers(0, 16))
        big = small | extra
        assert connectivity_probability(parts[m], _ids(small)) <= \
            connectivity_probability(parts[m], _ids(big)) + 1e-15


def test_refinement_invariance():
    v = random_toy(17)
    p = ChannelParams()
    for m in (0, 4):
        part = _partition(v, p, m)
        dist = OrientationDistribution.for_gp(v, m)
        split, rows = [], []
        for c, row in zip(part.cells, part.visible):
            if c.interval.is_full or c.interval.length() < 1e-9:
                split.append(c)
                rows.append(row)
                continue
            lo = c.interval.endpoints()[0]
            mid = math.atan2(math.sin(lo + c.interval.length() / 2.0),
                             math.cos(lo + c.interval.length() / 2.0))
            hi = c.interval.endpoints()[1]
            left = AngularInterval.arc(lo, mid)
            right = AngularInterval.arc(mid, hi)
            split.append(ScenarioCell(left, circular_mass(dist, left)))
            split.append(ScenarioCell(right, circular_mass(dist, right)))
            rows += [row, row]
        fine = ScenarioPartition(m, split, rows, part.always_on)
        for s in range(16):
            a = connectivity_probability(part, _ids(s))
            b = connectivity_probability(fine, _ids(s))
            assert abs(a - b) < 1e-12


# -- satisfaction -----------------------------------------------------------


def test_satisfied_zero_beta_always(toy_venue, default_params):
    part = _partition(toy_venue, default_params, 0)
    assert satisfied(part, [], 0.0)


def test_satisfied_beta_one_needs_always_on():
    # long-range venue: no always-on links, partial unions stay short of 1
    from conftest import single_link_venue
    v = single_link_venue(dx=0.0, dz=40.0, tilt=0.0)
    p = ChannelParams()
    prof = link_profile(v, p, 0, 0)
    part = build_scenarios(v, 0, [prof])
    assert not part.always_on.any()
    assert not satisfied(part, [0], 1.0)
    assert satisfied(part, [0], 0.3)


# -- past 64 candidates -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _padded_toy(seed, n_candidates):
    """random_toy(seed) with mounts appended up to ``n_candidates``.

    Ids 64 to 67 sit 10 cm above the toy's own mounts, whose short links
    are often always on; the others are scattered over and around the
    room at several heights, where links are proper arcs or dead. Returns
    the venue with each seat's link profiles and partition.
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
    p = ChannelParams()
    profiles = [[link_profile(v, p, m, l) for l in range(n_candidates)]
                for m in range(v.n_grid)]
    parts = [build_scenarios(v, m, profiles[m]) for m in range(v.n_grid)]
    return v, profiles, parts


def test_padded_toys_exercise_high_ids():
    always = arcs = 0
    for seed in range(4):
        _, profiles, _ = _padded_toy(seed, 70)
        for per_seat in profiles:
            for prof in per_seat[64:]:
                iv = prof.effective_interval
                always += prof.usable and iv.is_full
                arcs += prof.usable and not iv.is_full and not iv.is_empty
    assert always > 0 and arcs > 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_connectivity_past_64_candidates_matches_patterns(data):
    seed = data.draw(st.integers(0, 3), label="seed")
    n_candidates = data.draw(st.sampled_from([65, 70]), label="L")
    _, profiles, parts = _padded_toy(seed, n_candidates)
    m = data.draw(st.integers(0, len(parts) - 1), label="seat")
    always = [l for l, prof in enumerate(profiles[m])
              if prof.usable and prof.effective_interval.is_full]
    high = data.draw(st.integers(64, n_candidates - 1), label="high id")
    rest = data.draw(
        st.lists(st.integers(0, n_candidates - 1), max_size=4, unique=True),
        label="other ids",
    )
    ids = {high, *rest}
    if always and data.draw(st.booleans(), label="add an always-on id"):
        ids.add(data.draw(st.sampled_from(always), label="always-on id"))
    ids = sorted(ids)
    got = connectivity_probability(parts[m], ids)
    assert abs(got - oracles.pattern_connectivity(parts[m], ids)) <= 1e-12
    if set(ids) & set(always):
        assert got == 1.0
