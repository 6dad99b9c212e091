"""Bound evaluation, price audit and placement difference metrics."""

from conftest import random_toy
from mmwplan import (
    Deployment,
    GreedyTrace,
    PlacedAp,
    PlanningModel,
    approximation_bound,
    exact_place,
    greedy_place,
    location_difference,
)
from mmwplan.solver import GreedyIteration
from oracles import audit_greedy_prices


def _dep(selected, satisfied):
    return Deployment(
        selected=selected,
        per_gp_prob=[1.0 if z else 0.0 for z in satisfied],
        satisfied=list(satisfied),
        coverage=float(sum(satisfied)),
        normalized_coverage=float(sum(satisfied)) / len(satisfied),
    )


def _ap(candidate, assigned):
    return PlacedAp(candidate=candidate, theta=0.0, phi=0.0,
                    assigned=tuple(assigned))


def _iteration(candidate, members, newly, weight, running):
    return GreedyIteration(
        cover=_ap(candidate, members),
        newly_satisfied=tuple(newly),
        marginal_weight=weight,
        running_coverage=running,
    )


# -- location difference ----------------------------------------------------


def test_location_difference_identical():
    d = _dep([_ap(0, (0,)), _ap(2, (1,))], [True] * 2)
    assert location_difference(d, d) == 0.0


def test_location_difference_disjoint():
    a = _dep([_ap(0, (0,))], [True])
    b = _dep([_ap(1, (0,))], [True])
    assert location_difference(a, b) == 100.0


def test_location_difference_partial_overlap():
    a = _dep([_ap(1, ()), _ap(2, ()), _ap(3, ())], [True])
    b = _dep([_ap(1, ()), _ap(2, ()), _ap(4, ())], [True])
    assert abs(location_difference(a, b) - 100.0 / 3.0) < 1e-12
    assert location_difference(a, b) == location_difference(b, a)


def test_location_difference_both_empty():
    a = _dep([], [False])
    assert location_difference(a, a) == 0.0


# -- analytic bound ---------------------------------------------------------


def test_bound_uniform_mass_reduces_to_count_ratio(toy_venue):
    # exact: one AP satisfying 3 users; greedy: three beams of 1 each,
    # uniform unit masses collapse the analytic factor to max c* / min c
    exact = _dep([_ap(0, (0, 1, 2))],
                 [True, True, True, False, False, False])
    trace = GreedyTrace(iterations=[
        _iteration(1, (0,), (0,), 1.0, 1.0),
        _iteration(2, (1,), (1,), 1.0, 2.0),
        _iteration(3, (2,), (2,), 1.0, 3.0),
    ])
    out = approximation_bound(trace, exact, toy_venue)
    assert out["comparable"]
    assert out["analytic_ratio"] == 3.0
    assert out["l_star_circ"] == 3
    assert out["l_star"] == 1
    assert out["observed_ratio"] == 3.0
    assert out["observed_ratio"] <= out["analytic_ratio"]


def test_bound_prefix_shorter_than_whole_trace(toy_venue):
    exact = _dep([_ap(0, (0, 1))],
                 [True, True, False, False, False, False])
    trace = GreedyTrace(iterations=[
        _iteration(1, (0, 1), (0, 1), 2.0, 2.0),
        _iteration(2, (2,), (2,), 1.0, 3.0),
    ])
    out = approximation_bound(trace, exact, toy_venue)
    assert out["l_star_circ"] == 1
    assert out["observed_ratio"] == 1.0
    assert out["l_greedy"] == 2


def test_bound_not_comparable_when_sets_differ(toy_venue):
    # exact satisfies user 5, greedy never reaches it
    exact = _dep([_ap(0, (5,))],
                 [False, False, False, False, False, True])
    trace = GreedyTrace(iterations=[_iteration(1, (0,), (0,), 1.0, 1.0)])
    out = approximation_bound(trace, exact, toy_venue)
    assert not out["comparable"]
    assert out["observed_ratio"] is None
    assert out["l_star_circ"] is None


def test_bound_trivial_exact_solution(toy_venue):
    # nothing satisfied by the minimum solution: zero-length prefix works
    exact = _dep([_ap(0, ())], [False] * 6)
    trace = GreedyTrace(iterations=[_iteration(1, (0,), (0,), 1.0, 1.0)])
    out = approximation_bound(trace, exact, toy_venue)
    assert out["l_star_circ"] == 0
    assert out["observed_ratio"] == 0.0
    assert out["comparable"]


def test_bound_on_solver_pair(tight_params):
    for seed in (21, 22, 23):
        v = random_toy(seed)
        model = PlanningModel(v, tight_params, 0.7)
        dep, trace = greedy_place(model, 0.9)
        exact = exact_place(model, 0.9)
        out = approximation_bound(trace, exact, v)
        if not out["comparable"]:
            continue
        assert out["observed_ratio"] <= out["analytic_ratio"] + 1e-9
        assert out["l_star"] == len(exact.selected)
        assert out["l_greedy"] == len(trace.iterations)


# -- price audit ------------------------------------------------------------


def test_prices_uniform_unit_mass(toy_venue):
    exact = _dep([_ap(0, (0, 1))],
                 [True, True, False, False, False, False])
    trace = GreedyTrace(iterations=[
        _iteration(1, (0, 1), (0, 1), 2.0, 2.0),
    ])
    out = audit_greedy_prices(trace, exact, toy_venue)
    assert out["ok"]
    assert out["prices"] == {0: 1.0, 1: 1.0}
    assert out["check_a"]["ok"]
    # both sides of the charging argument see the same two users
    assert out["check_b"]["lhs"] == out["check_b"]["rhs"] == 2.0
    assert out["check_c"]["ok"] is True


def test_prices_reciprocal_of_average_mass():
    v = random_toy(51)
    q = [gp.presence_prob for gp in v.grid_positions]
    weight = q[2] + q[4]
    exact = _dep([_ap(0, (2, 4))],
                 [False, False, True, False, True, False])
    trace = GreedyTrace(iterations=[
        _iteration(1, (2, 4), (2, 4), weight, weight),
    ])
    out = audit_greedy_prices(trace, exact, v)
    assert out["ok"]
    assert abs(out["prices"][2] - 2.0 / weight) < 1e-12
    assert out["prices"][2] == out["prices"][4]


def test_zero_mass_iteration_is_flagged(toy_venue):
    exact = _dep([_ap(0, (0,))],
                 [True, False, False, False, False, False])
    trace = GreedyTrace(iterations=[
        _iteration(1, (0,), (0,), 0.0, 0.0),
    ])
    out = audit_greedy_prices(trace, exact, toy_venue)
    assert not out["ok"]
    assert out["flags"]
    assert "price undefined" in out["flags"][0]
    assert out["per_iteration"][0]["price"] is None


def test_audit_passes_on_solver_pairs(tight_params):
    seen_ok = 0
    for seed in (21, 22, 23, 24):
        v = random_toy(seed)
        model = PlanningModel(v, tight_params, 0.7)
        dep, trace = greedy_place(model, 0.9)
        exact = exact_place(model, 0.9)
        out = audit_greedy_prices(trace, exact, v)
        assert out["ok"], out
        seen_ok += 1
    assert seen_ok == 4
