"""Coverage evaluation, greedy and exact placement, uniform baseline."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import random_toy
from mmwplan import (
    ChannelParams,
    Deployment,
    DeploymentValidationError,
    InfeasibleError,
    PlacedAp,
    PlanningModel,
    SizeLimitError,
    Venue,
    evaluate_coverage,
    exact_place,
    generate_venue,
    greedy_place,
    uniform_place,
)
from mmwplan.scenarios import connectivity_probability
from mmwplan.solver import (
    GreedyState,
    _evaluate_tuple,
    _reachability,
    _screen,
    _winners,
    greedy_iteration_best,
)
from mmwplan.venue import CandidateLocation

WIDE = ChannelParams(ap_beamwidth=2.0 * math.pi / 3.0,
                     md_beamwidth=math.pi / 3.0)
DEAF = ChannelParams(snr_threshold_db=60.0)


# -- evaluate_coverage ------------------------------------------------------


def test_empty_deployment_scores_zero(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.7)
    dep, trace = greedy_place(model, 0.0)
    assert dep.selected == []
    assert trace.iterations == []
    rep = evaluate_coverage(model, dep)
    assert rep.coverage == 0.0
    assert rep.normalized_coverage == 0.0
    assert not any(g.z for g in rep.per_gp)


def test_evaluation_matches_solver_numbers(tight_params):
    for seed in (21, 22):
        model = PlanningModel(random_toy(seed), tight_params, 0.7)
        dep, _ = greedy_place(model, 0.9)
        rep = evaluate_coverage(model, dep)
        assert rep.coverage == dep.coverage
        assert rep.normalized_coverage == dep.normalized_coverage
        for g, p, z in zip(rep.per_gp, dep.per_gp_prob, dep.satisfied):
            assert g.prob == p
            assert g.z == z


def test_deployment_round_trip(tight_params):
    model = PlanningModel(random_toy(23), tight_params, 0.7)
    dep, _ = greedy_place(model, 0.9)
    back = Deployment.from_dict(dep.to_dict())
    assert back.to_dict() == dep.to_dict()
    rep = evaluate_coverage(model, back)
    assert rep.normalized_coverage == dep.normalized_coverage


def _dep(*aps):
    return Deployment(selected=list(aps), per_gp_prob=[], satisfied=[],
                      coverage=0.0, normalized_coverage=0.0)


def _ap(candidate, theta=0.0, phi=0.0, assigned=()):
    return PlacedAp(candidate=candidate, theta=theta, phi=phi,
                    assigned=tuple(assigned))


def test_validation_unknown_candidate(toy_venue, default_params):
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(PlanningModel(toy_venue, default_params, 0.7),
                          _dep(_ap(99)))
    assert any("unknown candidate" in v for v in e.value.violations)


def test_validation_duplicate_candidate(toy_venue, default_params):
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(
            PlanningModel(toy_venue, default_params, 0.7),
            _dep(_ap(0), _ap(0)),
        )
    assert any("more than once" in v for v in e.value.violations)


def test_validation_over_capacity(toy_venue, tight_params):
    model = PlanningModel(toy_venue, tight_params, 0.7)
    theta, phi = model.steering_angles(0)
    members = tuple(int(m) for m in model.footprint(0, theta, phi))
    if len(members) <= tight_params.capacity_per_beam:
        members = members + members  # force overflow, also duplicates
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(model, _dep(_ap(0, theta, phi, members)))
    assert any("capacity" in v for v in e.value.violations)


def test_validation_duplicate_assignment(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.7)
    theta, phi = model.steering_angles(0)
    m = int(model.footprint(0, theta, phi)[0])
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(model, _dep(_ap(0, theta, phi, (m, m))))
    assert any("duplicate" in v for v in e.value.violations)


def test_validation_unusable_link(toy_venue):
    # 60 dB threshold kills every link in the toy room
    model = PlanningModel(toy_venue, DEAF, 0.7)
    assert not model.usable.any()
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(model, _dep(_ap(0, 0.0, 0.0, (0,))))
    assert any("never be active" in v for v in e.value.violations)


def test_validation_outside_footprint(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.7)
    m, l = 0, 0
    assert not model.vertical[m, l]
    theta = float(model.nadir_tx[m, l])
    # aim the azimuth at the opposite side of the room
    phi = math.atan2(math.sin(model.phi_tx[m, l] + math.pi),
                     math.cos(model.phi_tx[m, l] + math.pi))
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(model, _dep(_ap(l, theta, phi, (m,))))
    assert any("outside the beam" in v for v in e.value.violations)


def test_validation_beam_test_is_the_footprint(default_params):
    # evaluation flags exactly the users outside the footprint, and the
    # flat-top pattern gives every user inside it the main lobe, so the
    # Monte Carlo replay's main-lobe transmit gain is the pattern's
    model = PlanningModel(random_toy(44), default_params, 0.7)
    W, side = default_params.ap_beamwidth, default_params.side_lobe_gain_db
    main = oracles.flat_top_gain(0.0, 0.0, W, side)
    for l in range(model.L):
        users = tuple(np.flatnonzero(model.usable[:, l]).tolist())
        for ti in range(model.n_tuples):
            theta, phi = model.steering_angles(ti)
            inside = set(model.footprint(l, theta, phi).tolist())
            flagged = set()
            try:
                evaluate_coverage(model, _dep(_ap(l, theta, phi, users)))
            except DeploymentValidationError as e:
                flagged = {int(v.split()[1]) for v in e.violations}
            assert flagged == set(users) - inside
            for m in inside:
                az = 0.0 if model.vertical[m, l] else phi - model.phi_tx[m, l]
                el = theta - model.nadir_tx[m, l]
                assert oracles.flat_top_gain(az, el, W, side) == main


# -- greedy -----------------------------------------------------------------


def test_greedy_rejects_bad_alpha(toy_venue, default_params):
    with pytest.raises(ValueError):
        greedy_place(PlanningModel(toy_venue, default_params, 0.7), 1.5)


def test_greedy_meets_target_and_revalidates(tight_params):
    for seed in (24, 25, 26):
        v = random_toy(seed)
        model = PlanningModel(v, tight_params, 0.7)
        dep, trace = greedy_place(model, 0.9)
        rep = evaluate_coverage(model, dep)
        assert rep.normalized_coverage >= 0.9
        assert rep.normalized_coverage == dep.normalized_coverage
        run = [it.running_coverage for it in trace.iterations]
        assert all(b >= a for a, b in zip(run, run[1:]))
        cap = len(trace.iterations) * v.n_candidates * 24
        assert 0 < trace.tuple_evaluations <= cap


def test_greedy_trace_serializes():
    v = random_toy(27)
    _, trace = greedy_place(
        PlanningModel(v, ChannelParams(capacity_per_beam=3), 0.7), 0.9
    )
    d = trace.to_dict()
    assert d["format_version"] == 1
    assert len(d["iterations"]) == len(trace.iterations)
    assert d["tuple_evaluations"] == trace.tuple_evaluations
    for row, it in zip(d["iterations"], trace.iterations):
        assert row["members"] == list(it.cover.assigned)
        assert row["running_coverage"] == it.running_coverage


def test_greedy_matches_exact_count_on_small_rooms(tight_params):
    for seed in (21, 22, 23):
        model = PlanningModel(random_toy(seed), tight_params, 0.7)
        dep, _ = greedy_place(model, 0.9)
        exact = exact_place(model, 0.9)
        assert len(exact.selected) <= len(dep.selected)
        assert len(dep.selected) <= 3 * len(exact.selected)


def test_greedy_clusters_near_front_of_hall():
    # seats all face the stage wall, so useful beams hang near it
    hall = generate_venue("hall")
    dep, _ = greedy_place(PlanningModel(hall, WIDE, 0.95), 0.75)
    assert dep.normalized_coverage >= 0.75
    ys = [hall.candidates[ap.candidate].position[1] for ap in dep.selected]
    mid = float(np.mean([c.position[1] for c in hall.candidates]))
    assert float(np.mean(ys)) < mid
    assert sum(1 for y in ys if y < mid) > len(ys) / 2


def test_greedy_infeasible_reports_partial(toy_venue):
    with pytest.raises(InfeasibleError) as e:
        greedy_place(PlanningModel(toy_venue, DEAF, 0.7), 0.5)
    err = e.value
    assert err.partial is not None
    assert err.partial.selected == []
    assert err.diagnostics["reason"] in ("stagnated", "pool_exhausted")
    assert err.diagnostics["target_alpha"] == 0.5
    assert err.diagnostics["achieved_normalized"] < 0.5


# -- one-iteration subproblem vs scalar oracle ------------------------------


def _oracle_top_two(model, pool, assigned, conn, satisfied):
    keys = []
    for l in pool:
        for ti in range(model.n_tuples):
            r = oracles.iteration_key_oracle(model, l, ti, assigned, conn,
                                             satisfied)
            if r is not None:
                keys.append(((r[0], r[1]), (l, ti), r[2]))
    keys.sort(key=lambda t: (-t[0][0], -t[0][1], t[1]))
    return keys[0] if keys else None, keys[1] if len(keys) > 1 else None


def test_iteration_choice_matches_oracle(tight_params):
    strict = 0
    for seed in (29, 31, 34):
        v = random_toy(seed)
        model = PlanningModel(v, tight_params, 0.7)
        state = GreedyState.initial(model)
        while model.normalized(state.coverage) < 0.95 and state.pool:
            choice = greedy_iteration_best(model, state)
            best, second = _oracle_top_two(
                model, state.pool, state.assigned, state.conn,
                state.satisfied,
            )
            if choice is None:
                # stagnation must be mutual
                assert best is None
                break
            assert best is not None
            ap, new_weight, gain_weight = choice
            assert abs(new_weight - best[0][0]) < 1e-9
            assert abs(gain_weight - best[0][1]) < 1e-9
            # exact key ties break on the lowest (candidate, steering)
            # pair on both sides; only near-tied distinct keys are float
            # territory where the argmax may legitimately differ
            margin = None if second is None else max(
                best[0][0] - second[0][0], best[0][1] - second[0][1]
            )
            ambiguous = (second is not None and best[0] != second[0]
                         and margin <= 1e-6)
            if not ambiguous:
                strict += 1
                l, ti = best[1]
                assert ap.candidate == l
                assert (ap.theta, ap.phi) == model.steering_angles(ti)
                assert list(ap.assigned) == sorted(best[2])
            # commit the implementation's choice and continue
            state.commit(model, ap)
    assert strict >= 3


def _walk_greedy_checked(model, alpha):
    """Greedy steps until ``alpha`` through ``GreedyState.commit``,
    checking before each one that the kept tables equal their definition
    bit for bit, that every screen value is at least the exact key and
    that the screened step is the exhaustive scan's, and after each one
    that the users it newly satisfied are the winners its key counted and
    that their mass summed by descending presence is the step's mass bit
    for bit; returns the number of steps committed."""
    state = GreedyState.initial(model)
    steps = 0
    while True:
        dp, pred_sat = oracles.greedy_tables(model, state)
        assert state.dp.tobytes() == dp.tobytes()
        assert state.pred_sat.tobytes() == pred_sat.tobytes()
        if model.normalized(state.coverage) >= alpha or not state.pool:
            return steps
        primary, bound, n_wins = _screen(model, state)
        for l in state.pool:
            for ti in range(model.n_tuples):
                k = l * model.n_tuples + ti
                r = _evaluate_tuple(model, state, l, ti)
                # the screen skips exactly the pairs that serve nobody
                assert (r is None) == (n_wins[k] == 0 and bound[k] == 0.0)
                if r is not None:
                    assert primary[k] >= r[0] - 1e-12
                    assert bound[k] >= r[1] - 1e-12
        choice = greedy_iteration_best(model, state)
        want = oracles.iteration_best_scan(model, state)
        assert choice == want
        if choice is None:
            return steps
        assert [w.hex() for w in choice[1:]] == [w.hex() for w in want[1:]]
        ap = choice[0]
        ti = next(ti for ti in range(model.n_tuples)
                  if model.steering_angles(ti) == (ap.theta, ap.phi))
        winners = _winners(
            model, state, ap.candidate, model.members(ap.candidate, ti)
        )[1]
        newly = state.commit(model, ap)
        assert sorted(newly) == sorted(winners.tolist())
        by_mass = sorted(newly, key=lambda m: (-model.q[m], m))
        assert choice[1].hex() == float(model.q[by_mass].sum()).hex()
        assert ap.candidate not in state.pool
        steps += 1


@given(
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([1, 2, 3, 32]),
    beta=st.one_of(st.floats(0.05, 0.99), st.just(1.0)),
)
def test_screened_step_equals_full_scan_on_random_rooms(seed, capacity, beta):
    params = replace(ChannelParams(), capacity_per_beam=capacity)
    model = PlanningModel(random_toy(seed), params, beta)
    _walk_greedy_checked(model, 0.95)


@pytest.mark.parametrize("kind,capacity,beta,steps", [
    pytest.param("hall", 3, 0.9, 20, id="hall-3-20"),
    pytest.param("hall", 32, 0.9, 4, id="hall-32-4"),
    pytest.param("stadium", 32, 0.9, 16, id="stadium-32-16"),
    pytest.param("hall", 3, 1.0, 20, id="hall-3-20-beta1"),
    pytest.param("hall", 32, 1.0, 12, id="hall-32-12-beta1"),
    pytest.param("airport", 3, 1.0, 16, id="airport-3-16-beta1"),
    pytest.param("airport", 32, 1.0, 16, id="airport-32-16-beta1"),
])
def test_screened_step_equals_full_scan_on_venues(kind, capacity, beta,
                                                  steps):
    # hall at capacity 3: most steps tie on newly satisfied mass; the
    # stadium's seats all weigh the same and its pool runs out. At beta
    # 1.0 a seat is met exactly when its links hit every cell, and
    # conn + dp lands within rounding of the target for every such link.
    params = replace(ChannelParams(), capacity_per_beam=capacity)
    model = PlanningModel(generate_venue(kind), params, beta)
    assert _walk_greedy_checked(model, 0.75) == steps


def test_greedy_infeasible_names_unreachable_seats():
    model = PlanningModel(generate_venue("stadium"), ChannelParams(), 0.9)
    with pytest.raises(InfeasibleError) as e:
        greedy_place(model, 0.75)
    diag = e.value.diagnostics
    # connectivity with every candidate of the venue serving the seat
    full = np.array([
        connectivity_probability(part, np.ones(model.L, dtype=bool))
        for part in model.partitions
    ])
    assert diag["unreachable"] == np.flatnonzero(full < 0.9).tolist()
    assert len(diag["unreachable"]) == 319
    assert round(diag["reachable_normalized"], 4) == 0.6933
    assert round(diag["achieved_normalized"], 4) == 0.4202


@pytest.mark.parametrize("kind,unreachable", [
    ("hall", []), ("airport", [0, 20, 40, 60, 80, 100, 120, 140]),
])
def test_beta_one_refuses_only_seats_some_cell_leaves_dark(kind,
                                                          unreachable):
    # every other seat's usable links together hit every cell, which is
    # exactly 1.0 whatever the masses would sum to
    model = PlanningModel(generate_venue(kind), ChannelParams(), 1.0)
    assert _reachability(model)["unreachable"] == unreachable
    for m in unreachable:
        part = model.partitions[m]
        assert not part.visible[:, model.usable[m]].any(axis=1).all()


# -- exact ------------------------------------------------------------------


def test_exact_zero_alpha_places_nothing(toy_venue, default_params):
    dep = exact_place(PlanningModel(toy_venue, default_params, 0.7), 0.0)
    assert dep.selected == []


def test_exact_matches_flat_enumeration(tight_params):
    for seed, alpha in ((41, 0.7), (42, 0.55), (43, 0.7)):
        v = random_toy(seed)
        want_k, want_cov = oracles.flat_minimum_count(
            v, tight_params, alpha, 0.65
        )
        dep = exact_place(PlanningModel(v, tight_params, 0.65), alpha)
        assert len(dep.selected) == want_k
        assert abs(dep.normalized_coverage - want_cov) < 1e-12


def test_exact_meets_a_full_target_that_greedy_meets():
    # the search's own sums of the seat masses used to land one ulp under
    # the total here, so the one-beam answer was refused as infeasible
    model = PlanningModel(random_toy(0), ChannelParams(), 0.3)
    assert len(greedy_place(model, 1.0)[0].selected) == 1
    dep = exact_place(model, 1.0)
    assert len(dep.selected) == 1
    assert dep.normalized_coverage == 1.0


@given(
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([1, 2, 3, 32]),
    beta=st.sampled_from([0.3, 0.7]),
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
@example(seed=6, capacity=2, beta=0.3, alpha=1.0)
@example(seed=30, capacity=2, beta=0.7, alpha=1.0)
def test_exact_never_needs_more_aps_than_greedy(seed, capacity, beta, alpha):
    params = replace(ChannelParams(), capacity_per_beam=capacity)
    model = PlanningModel(random_toy(seed), params, beta)
    try:
        greedy = greedy_place(model, alpha)[0]
    except InfeasibleError:
        return
    exact = exact_place(model, alpha)
    assert len(exact.selected) <= len(greedy.selected)
    assert exact.normalized_coverage >= alpha


def _exact_or_none(solve, model, alpha):
    try:
        return solve(model, alpha).to_dict()
    except InfeasibleError:
        return None


def _with_twin_seat(venue):
    """Seat 0 again, with its own copy of seat 0's body prism."""
    gp = venue.grid_positions[0]
    twin = replace(gp, id=venue.n_grid)
    prism = replace(next(b for b in venue.blockers if b.owner == 0),
                    owner=twin.id)
    return replace(venue, grid_positions=venue.grid_positions + [twin],
                   blockers=venue.blockers + [prism])


def _with_twin_mount(venue):
    cand = replace(venue.candidates[1], id=venue.n_candidates)
    return replace(venue, candidates=venue.candidates + [cand])


def _with_free_seats(venue, seats):
    """The venue with the given seats at per-seat target 0."""
    gps = [replace(gp, beta=0.0) if gp.id in seats else gp
           for gp in venue.grid_positions]
    return replace(venue, grid_positions=gps)


def test_exact_matches_unpruned_scan():
    # Steering pruning must not change the lexicographically first
    # optimum. The full 24-steering grid keeps the unpruned scan cheap only
    # at capacity 3; smaller capacities need more access points and get
    # 8- and 10-steering grids, the latter with a repeated azimuth so two
    # steerings of every mount have identical footprints.
    grids = (
        {},
        {"elevation_grid": (0.0, math.pi / 4.0),
         "azimuth_grid": (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0)},
        {"elevation_grid": (0.0, math.pi / 4.0),
         "azimuth_grid": (0.0, math.pi / 2.0, math.pi / 2.0, math.pi,
                          -math.pi / 2.0)},
    )
    cases = []
    for i in range(40):
        cap = 1 + i % 3
        alpha = 0.55 + 0.35 * ((7 * i) % 12) / 11.0
        grid = grids[0] if cap == 3 else grids[1 + i % 2]
        params = ChannelParams(capacity_per_beam=cap, **grid)
        cases.append((random_toy(3000 + i), params, alpha))
    cases.append((_with_twin_seat(random_toy(3100)),
                  ChannelParams(capacity_per_beam=2, **grids[1]), 0.7))
    cases.append((_with_twin_mount(random_toy(3101)),
                  ChannelParams(capacity_per_beam=2, **grids[1]), 0.7))
    # free seats count toward the coverage without an access point
    for i in range(6):
        cap = 1 + i % 3
        grid = grids[0] if cap == 3 else grids[1 + i % 2]
        cases.append((_with_free_seats(random_toy(3200 + i),
                                       {i, (i + 3 + i // 3) % 6}),
                      ChannelParams(capacity_per_beam=cap, **grid),
                      (0.6, 0.8, 1.0)[i % 3]))
    # a venue without presence mass is covered by no access point at all
    empty = random_toy(3300)
    empty = replace(empty, grid_positions=[
        replace(gp, presence_prob=0.0) for gp in empty.grid_positions])
    cases.append((empty, ChannelParams(capacity_per_beam=2, **grids[1]), 1.0))
    placed = 0
    for venue, params, alpha in cases:
        model = PlanningModel(venue, params, 0.65)
        want = _exact_or_none(oracles.exact_place_unpruned, model, alpha)
        assert _exact_or_none(exact_place, model, alpha) == want, (
            venue.name, params.capacity_per_beam, alpha)
        placed += want is not None
    assert placed >= 36
    assert want["selected"] == []  # the zero-mass room, checked last


def test_exact_logs_pruned_search_at_debug(tight_params, caplog):
    v = random_toy(41)
    model = PlanningModel(v, tight_params, 0.65)
    quiet = exact_place(model, 0.7).to_dict()
    with caplog.at_level(logging.DEBUG, logger="mmwplan.solver"):
        loud = exact_place(model, 0.7).to_dict()
    assert loud == quiet
    kept = [r for r in caplog.records if "steerings" in r.getMessage()]
    assert len(kept) == v.n_candidates
    assert all(1 <= len(r.args[3]) <= 24 for r in kept)
    (summary,) = [r for r in caplog.records
                  if "configurations" in r.getMessage()]
    searched, full = summary.args
    assert 0 < searched < full


def test_exact_refuses_large_instances(default_params):
    hall = generate_venue("hall")
    with pytest.raises(SizeLimitError) as e:
        exact_place(PlanningModel(hall, default_params, 0.9), 0.75)
    rep = e.value.report
    assert rep["candidates"] == hall.n_candidates
    assert rep["max_candidates"] == 6
    assert rep["grid_positions"] == hall.n_grid
    assert rep["max_positions"] == 12
    assert "limits" in str(e.value)


def test_model_builds_64_mounts(default_params):
    seat = generate_venue("toy").grid_positions[:1]
    cands = [CandidateLocation(id=j, position=(j % 8, j // 8, 5.0))
             for j in range(64)]
    venue = Venue(name="64-mounts", grid_positions=seat, candidates=cands)
    model = PlanningModel(venue, default_params, 0.5)
    assert model.L == 64
    assert model.partitions[0].visible.shape[1] == 64
    dep, _ = greedy_place(model, 0.5)
    assert dep.normalized_coverage >= 0.5
    assert evaluate_coverage(model, dep).coverage == dep.coverage


def test_far_mounts_prepended_to_hall_only_shift_ids(default_params):
    # 50 mounts kilometres away never serve anyone, so greedy must plan
    # the hall exactly as before, with every candidate id moved up by 50
    hall = generate_venue("hall")
    pads = [CandidateLocation(id=j, position=(5000.0 + j, 12.5, 4.0))
            for j in range(50)]
    shifted = [replace(c, id=c.id + 50) for c in hall.candidates]
    padded = replace(hall, candidates=pads + shifted)
    assert padded.n_candidates == 70
    base, _ = greedy_place(PlanningModel(hall, default_params, 0.9), 0.75)
    dep, _ = greedy_place(PlanningModel(padded, default_params, 0.9), 0.75)
    assert [replace(ap, candidate=ap.candidate - 50)
            for ap in dep.selected] == base.selected
    assert dep.per_gp_prob == base.per_gp_prob
    assert dep.satisfied == base.satisfied
    assert dep.coverage == base.coverage


def test_exact_infeasible_when_target_unreachable(toy_venue):
    with pytest.raises(InfeasibleError) as e:
        exact_place(PlanningModel(toy_venue, DEAF, 0.7), 0.5)
    diag = e.value.diagnostics
    assert diag["reachable_normalized"] == 0.0
    assert diag["unreachable"] == list(range(toy_venue.n_grid))


# -- uniform baseline -------------------------------------------------------


def test_uniform_full_count_uses_every_candidate(toy_venue, default_params):
    dep = uniform_place(PlanningModel(toy_venue, default_params, 0.7),
                        toy_venue.n_candidates)
    assert sorted(ap.candidate for ap in dep.selected) == \
        list(range(toy_venue.n_candidates))


def test_uniform_single_picks_most_central(toy_venue, default_params):
    dep = uniform_place(PlanningModel(toy_venue, default_params, 0.7), 1)
    xy = np.array([c.position[:2] for c in toy_venue.candidates])
    centroid = xy.mean(axis=0)
    want = int(np.argmin(np.hypot(*(xy - centroid).T)))
    assert [ap.candidate for ap in dep.selected] == [want]
    assert all(ap.theta == 0.0 and ap.phi == 0.0 for ap in dep.selected)


def test_uniform_count_bounds(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.7)
    with pytest.raises(ValueError):
        uniform_place(model, 0)
    with pytest.raises(ValueError):
        uniform_place(model, toy_venue.n_candidates + 1)


def test_uniform_trails_greedy_on_hall():
    hall = generate_venue("hall")
    model = PlanningModel(hall, WIDE, 0.95)
    greedy, _ = greedy_place(model, 0.75)
    uniform = uniform_place(model, 16)
    assert 16 >= len(greedy.selected)
    assert uniform.normalized_coverage < greedy.normalized_coverage
    # the baseline still passes deployment validation
    rep = evaluate_coverage(model, uniform)
    assert rep.normalized_coverage == uniform.normalized_coverage


# -- one model shared by every solver ---------------------------------------


def _model_bytes(model):
    arrays = {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in vars(model).items()
        if isinstance(value, np.ndarray)
    }
    parts = [
        (p.gp, p.visible.tobytes(), p.cell_probs.tobytes())
        for p in model.partitions
    ]
    return arrays, parts, model.total_mass


def test_solvers_and_evaluation_leave_the_model_unchanged(tight_params):
    # the CLI shares one model across targets and solvers, which is only
    # safe while none of them writes to it
    model = PlanningModel(random_toy(21), tight_params, 0.7)
    before = _model_bytes(model)
    assert "occluded" in before[0] and "reach" in before[0]
    for alpha in (0.5, 0.9):
        dep, _ = greedy_place(model, alpha)
        evaluate_coverage(model, dep)
        evaluate_coverage(model, exact_place(model, alpha))
    evaluate_coverage(model, uniform_place(model, 2))
    assert _model_bytes(model) == before
