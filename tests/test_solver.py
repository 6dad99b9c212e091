"""Coverage evaluation, greedy and exact placement, uniform baseline."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import random_toy
from mmwplan import (
    CandidateLocation,
    ChannelParams,
    Deployment,
    DeploymentValidationError,
    GreedyState,
    InfeasibleError,
    PlacedAp,
    PlanningModel,
    SizeLimitError,
    Venue,
    evaluate_coverage,
    exact_place,
    generate_venue,
    greedy_iteration_best,
    greedy_place,
    uniform_place,
)

WIDE = ChannelParams(ap_beamwidth=2.0 * math.pi / 3.0,
                     md_beamwidth=math.pi / 3.0)
DEAF = ChannelParams(snr_threshold_db=60.0)


# -- evaluate_coverage ------------------------------------------------------


def test_empty_deployment_scores_zero(toy_venue, default_params):
    dep, trace = greedy_place(toy_venue, default_params, 0.0, 0.7)
    assert dep.selected == []
    assert trace.iterations == []
    rep = evaluate_coverage(toy_venue, default_params, dep, 0.7)
    assert rep.coverage == 0.0
    assert rep.normalized_coverage == 0.0
    assert not any(g.z for g in rep.per_gp)


def test_evaluation_matches_solver_numbers(tight_params):
    for seed in (21, 22):
        v = random_toy(seed)
        dep, _ = greedy_place(v, tight_params, 0.9, 0.7)
        rep = evaluate_coverage(v, tight_params, dep, 0.7)
        assert rep.coverage == dep.coverage
        assert rep.normalized_coverage == dep.normalized_coverage
        for g, p, z in zip(rep.per_gp, dep.per_gp_prob, dep.satisfied):
            assert g.prob == p
            assert g.z == z


def test_deployment_round_trip(tight_params):
    v = random_toy(23)
    dep, _ = greedy_place(v, tight_params, 0.9, 0.7)
    back = Deployment.from_dict(dep.to_dict())
    assert back.to_dict() == dep.to_dict()
    rep = evaluate_coverage(v, tight_params, back, 0.7)
    assert rep.normalized_coverage == dep.normalized_coverage


def _dep(*aps):
    return Deployment(selected=list(aps), per_gp_prob=[], satisfied=[],
                      coverage=0.0, normalized_coverage=0.0)


def _ap(candidate, theta=0.0, phi=0.0, assigned=()):
    return PlacedAp(candidate=candidate, theta=theta, phi=phi,
                    assigned=tuple(assigned))


def test_validation_unknown_candidate(toy_venue, default_params):
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(toy_venue, default_params, _dep(_ap(99)), 0.7)
    assert any("unknown candidate" in v for v in e.value.violations)


def test_validation_duplicate_candidate(toy_venue, default_params):
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(
            toy_venue, default_params, _dep(_ap(0), _ap(0)), 0.7
        )
    assert any("more than once" in v for v in e.value.violations)


def test_validation_over_capacity(toy_venue, tight_params):
    model = PlanningModel(toy_venue, tight_params, 0.7)
    theta, phi = model.steering_angles(0)
    members = tuple(int(m) for m in model.footprint(0, theta, phi))
    if len(members) <= tight_params.capacity_per_beam:
        members = members + members  # force overflow, also duplicates
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(
            toy_venue, tight_params,
            _dep(_ap(0, theta, phi, members)), 0.7,
        )
    assert any("capacity" in v for v in e.value.violations)


def test_validation_duplicate_assignment(toy_venue, default_params):
    model = PlanningModel(toy_venue, default_params, 0.7)
    theta, phi = model.steering_angles(0)
    m = int(model.footprint(0, theta, phi)[0])
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(
            toy_venue, default_params,
            _dep(_ap(0, theta, phi, (m, m))), 0.7,
        )
    assert any("duplicate" in v for v in e.value.violations)


def test_validation_unusable_link(toy_venue):
    # 60 dB threshold kills every link in the toy room
    model = PlanningModel(toy_venue, DEAF, 0.7)
    assert not model.usable.any()
    with pytest.raises(DeploymentValidationError) as e:
        evaluate_coverage(toy_venue, DEAF, _dep(_ap(0, 0.0, 0.0, (0,))),
                          0.7)
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
        evaluate_coverage(
            toy_venue, default_params, _dep(_ap(l, theta, phi, (m,))), 0.7
        )
    assert any("outside the beam" in v for v in e.value.violations)


# -- greedy -----------------------------------------------------------------


def test_greedy_rejects_bad_alpha(toy_venue, default_params):
    with pytest.raises(ValueError):
        greedy_place(toy_venue, default_params, 1.5, 0.7)


def test_greedy_meets_target_and_revalidates(tight_params):
    for seed in (24, 25, 26):
        v = random_toy(seed)
        dep, trace = greedy_place(v, tight_params, 0.9, 0.7)
        rep = evaluate_coverage(v, tight_params, dep, 0.7)
        assert rep.normalized_coverage >= 0.9
        assert rep.normalized_coverage == dep.normalized_coverage
        run = [it.running_coverage for it in trace.iterations]
        assert all(b >= a for a, b in zip(run, run[1:]))
        cap = len(trace.iterations) * v.n_candidates * 24
        assert 0 < trace.tuple_evaluations <= cap


def test_greedy_trace_serializes():
    v = random_toy(27)
    _, trace = greedy_place(v, ChannelParams(capacity_per_beam=3), 0.9, 0.7)
    d = trace.to_dict()
    assert d["format_version"] == 1
    assert len(d["iterations"]) == len(trace.iterations)
    assert d["tuple_evaluations"] == trace.tuple_evaluations
    for row, it in zip(d["iterations"], trace.iterations):
        assert row["members"] == list(it.cover.members)
        assert row["running_coverage"] == it.running_coverage


def test_greedy_matches_exact_count_on_small_rooms(tight_params):
    for seed in (21, 22, 23):
        v = random_toy(seed)
        dep, _ = greedy_place(v, tight_params, 0.9, 0.7)
        exact = exact_place(v, tight_params, 0.9, 0.7)
        assert len(exact.selected) <= len(dep.selected)
        assert len(dep.selected) <= 3 * len(exact.selected)


def test_greedy_clusters_near_front_of_hall():
    # seats all face the stage wall, so useful beams hang near it
    hall = generate_venue("hall")
    dep, _ = greedy_place(hall, WIDE, 0.75, 0.95)
    assert dep.normalized_coverage >= 0.75
    ys = [hall.candidates[ap.candidate].position[1] for ap in dep.selected]
    mid = float(np.mean([c.position[1] for c in hall.candidates]))
    assert float(np.mean(ys)) < mid
    assert sum(1 for y in ys if y < mid) > len(ys) / 2


def test_greedy_infeasible_reports_partial(toy_venue):
    with pytest.raises(InfeasibleError) as e:
        greedy_place(toy_venue, DEAF, 0.5, 0.7)
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
        pool = list(range(model.L))
        while model.normalized(state.coverage) < 0.95 and pool:
            choice = greedy_iteration_best(model, pool, state)
            best, second = _oracle_top_two(
                model, pool, state.assigned, state.conn, state.satisfied
            )
            if choice is None:
                # stagnation must be mutual
                assert best is None
                break
            assert best is not None
            assert abs(choice.new_weight - best[0][0]) < 1e-9
            assert abs(choice.gain_weight - best[0][1]) < 1e-9
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
                ti = choice.theta_idx * model.n_phi + choice.phi_idx
                assert (choice.candidate, ti) == best[1]
                assert list(choice.members) == best[2]
            # commit the implementation's choice and continue
            l = choice.candidate
            for m in choice.members:
                state.assigned[m, l] = True
                state.conn[m] = model.conn(m, state.assigned[m])
                if state.conn[m] >= model.betas[m]:
                    state.satisfied[m] = True
            state.coverage = model.coverage_of(state.satisfied)
            pool.remove(l)
    assert strict >= 3


# -- exact ------------------------------------------------------------------


def test_exact_zero_alpha_places_nothing(toy_venue, default_params):
    dep = exact_place(toy_venue, default_params, 0.0, 0.7)
    assert dep.selected == []


def test_exact_matches_flat_enumeration(tight_params):
    for seed, alpha in ((41, 0.7), (42, 0.55), (43, 0.7)):
        v = random_toy(seed)
        want_k, want_cov = oracles.flat_minimum_count(
            v, tight_params, alpha, 0.65
        )
        dep = exact_place(v, tight_params, alpha, 0.65)
        assert len(dep.selected) == want_k
        assert abs(dep.normalized_coverage - want_cov) < 1e-12


def _exact_or_none(solve, venue, params, alpha):
    try:
        return solve(venue, params, alpha, 0.65).to_dict()
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
    placed = 0
    for venue, params, alpha in cases:
        want = _exact_or_none(oracles.exact_place_unpruned, venue, params,
                              alpha)
        assert _exact_or_none(exact_place, venue, params, alpha) == want, (
            venue.name, params.capacity_per_beam, alpha)
        placed += want is not None
    assert placed >= 30


def test_exact_logs_pruned_search_at_debug(tight_params, caplog):
    v = random_toy(41)
    quiet = exact_place(v, tight_params, 0.7, 0.65).to_dict()
    with caplog.at_level(logging.DEBUG, logger="mmwplan.solver"):
        loud = exact_place(v, tight_params, 0.7, 0.65).to_dict()
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
        exact_place(hall, default_params, 0.75, 0.9)
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
    dep, _ = greedy_place(venue, default_params, 0.5, 0.5)
    assert dep.normalized_coverage >= 0.5
    assert evaluate_coverage(venue, default_params, dep, 0.5).coverage == \
        dep.coverage


def test_far_mounts_prepended_to_hall_only_shift_ids(default_params):
    # 50 mounts kilometres away never serve anyone, so greedy must plan
    # the hall exactly as before, with every candidate id moved up by 50
    hall = generate_venue("hall")
    pads = [CandidateLocation(id=j, position=(5000.0 + j, 12.5, 4.0))
            for j in range(50)]
    shifted = [replace(c, id=c.id + 50) for c in hall.candidates]
    padded = replace(hall, candidates=pads + shifted)
    assert padded.n_candidates == 70
    base, _ = greedy_place(hall, default_params, 0.75, 0.9)
    dep, _ = greedy_place(padded, default_params, 0.75, 0.9)
    assert [replace(ap, candidate=ap.candidate - 50)
            for ap in dep.selected] == base.selected
    assert dep.per_gp_prob == base.per_gp_prob
    assert dep.satisfied == base.satisfied
    assert dep.coverage == base.coverage


def test_exact_infeasible_when_target_unreachable(toy_venue):
    with pytest.raises(InfeasibleError) as e:
        exact_place(toy_venue, DEAF, 0.5, 0.7)
    diag = e.value.diagnostics
    assert diag["max_normalized"] == 0.0
    assert diag["unreachable_users"] == toy_venue.n_grid


# -- uniform baseline -------------------------------------------------------


def test_uniform_full_count_uses_every_candidate(toy_venue, default_params):
    dep = uniform_place(toy_venue, default_params, toy_venue.n_candidates,
                        0.7)
    assert sorted(ap.candidate for ap in dep.selected) == \
        list(range(toy_venue.n_candidates))


def test_uniform_single_picks_most_central(toy_venue, default_params):
    dep = uniform_place(toy_venue, default_params, 1, 0.7)
    xy = np.array([c.position[:2] for c in toy_venue.candidates])
    centroid = xy.mean(axis=0)
    want = int(np.argmin(np.hypot(*(xy - centroid).T)))
    assert [ap.candidate for ap in dep.selected] == [want]
    assert all(ap.theta == 0.0 and ap.phi == 0.0 for ap in dep.selected)


def test_uniform_count_bounds(toy_venue, default_params):
    with pytest.raises(ValueError):
        uniform_place(toy_venue, default_params, 0, 0.7)
    with pytest.raises(ValueError):
        uniform_place(toy_venue, default_params,
                      toy_venue.n_candidates + 1, 0.7)


def test_uniform_trails_greedy_on_hall():
    hall = generate_venue("hall")
    greedy, _ = greedy_place(hall, WIDE, 0.75, 0.95)
    uniform = uniform_place(hall, WIDE, 16, 0.95)
    assert 16 >= len(greedy.selected)
    assert uniform.normalized_coverage < greedy.normalized_coverage
    # the baseline still passes deployment validation
    rep = evaluate_coverage(hall, WIDE, uniform, 0.95)
    assert rep.normalized_coverage == uniform.normalized_coverage
