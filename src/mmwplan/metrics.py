"""Comparison metrics between greedy, exact and baseline deployments.

The greedy algorithm carries a worst-case guarantee: the number of
iterations it needs before its satisfied set includes everything the
minimum-size solution satisfies is at most

    (max per-AP satisfied count of the minimum solution
     * largest presence mass among its satisfied users)
    / (min per-iteration newly-satisfied count of greedy
       * smallest presence mass among those users)

times the minimum AP count. ``approximation_bound`` evaluates both sides,
``audit_greedy_prices`` re-derives the inequality chain behind the
guarantee numerically on a concrete pair of runs, and
``location_difference`` quantifies how differently two solvers placed
their hardware.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .solver import Deployment, GreedyTrace
from .venue import Venue

_TOL = 1e-9


def _satisfied_set(deployment: Deployment) -> set:
    return {m for m, z in enumerate(deployment.satisfied) if z}


def approximation_bound(
    greedy: GreedyTrace, exact: Deployment, venue: Venue
) -> Dict[str, object]:
    """Analytic worst-case AP ratio next to the observed one.

    ``l_star_circ`` is the shortest greedy prefix whose newly-satisfied
    union contains every user the exact solution satisfies; when the full
    trace never gets there (the two solvers satisfied different users, or
    a user is satisfied with no assignment at all and so never appears in
    the trace) the instances are reported as not comparable and the
    observed ratio is None.
    """
    q = [gp.presence_prob for gp in venue.grid_positions]
    m_star = _satisfied_set(exact)
    l_star = len(exact.selected)

    covered: set = set()
    l_star_circ: Optional[int] = None
    if m_star <= covered:
        l_star_circ = 0
    for i, it in enumerate(greedy.iterations):
        covered |= set(it.newly_satisfied)
        if l_star_circ is None and m_star <= covered:
            l_star_circ = i + 1

    c_star = [
        sum(1 for m in ap.assigned if m in m_star) for ap in exact.selected
    ]
    c_greedy = [
        len(it.newly_satisfied)
        for it in greedy.iterations
        if it.newly_satisfied
    ]
    q_star = [q[m] for m in m_star]

    analytic = math.inf
    if c_star and c_greedy and q_star and min(q_star) > 0.0:
        analytic = (max(c_star) * max(q_star)) / (
            min(c_greedy) * min(q_star)
        )

    observed: Optional[float] = None
    if l_star_circ is not None:
        if l_star_circ == 0:
            observed = 0.0
        elif l_star > 0:
            observed = l_star_circ / l_star
    return {
        "analytic_ratio": analytic,
        "observed_ratio": observed,
        "l_star_circ": l_star_circ,
        "comparable": l_star_circ is not None and l_star > 0,
        "l_greedy": len(greedy.iterations),
        "l_star": l_star,
    }


def audit_greedy_prices(
    greedy: GreedyTrace, exact: Deployment, venue: Venue
) -> Dict[str, object]:
    """Numerically re-derive the inequality chain behind the greedy bound.

    Every user first satisfied at iteration i is assigned the price
    (users first satisfied at i) / (presence mass first satisfied at i);
    this is the reciprocal of the average mass per newly satisfied user,
    so check (a) is that it is at least 1 / max mass over the beam's
    members. Check (b) is that summing prices over users both runs
    satisfy never exceeds summing them over the exact solution's beams
    (overlaps only add). Check (c) is the resulting AP-count bound itself,
    skipped when the runs are not comparable. An iteration that first
    satisfies users carrying zero total mass would make the price
    infinite; those are reported in ``flags`` instead of poisoning the
    checks.
    """
    q = [gp.presence_prob for gp in venue.grid_positions]
    m_star = _satisfied_set(exact)

    prices: Dict[int, float] = {}
    per_iteration: List[Dict[str, object]] = []
    flags: List[str] = []
    a_violations: List[int] = []
    for i, it in enumerate(greedy.iterations):
        newly = it.newly_satisfied
        row: Dict[str, object] = {
            "index": i,
            "candidate": it.cover.candidate,
            "newly_satisfied": len(newly),
            "marginal_weight": it.marginal_weight,
            "price": None,
        }
        if newly:
            if it.marginal_weight <= 0.0:
                flags.append(
                    f"iteration {i} first satisfies {len(newly)} users "
                    f"with zero presence mass; price undefined"
                )
                per_iteration.append(row)
                continue
            price = len(newly) / it.marginal_weight
            row["price"] = price
            for m in newly:
                prices[m] = price
            q_members = [q[m] for m in it.cover.assigned]
            if q_members and max(q_members) > 0.0:
                if 1.0 / max(q_members) > price + _TOL:
                    a_violations.append(i)
        per_iteration.append(row)

    lhs_b = sum(p for m, p in prices.items() if m in m_star)
    rhs_b = sum(
        prices.get(m, 0.0)
        for ap in exact.selected
        for m in ap.assigned
    )
    check_b_ok = lhs_b <= rhs_b + _TOL

    bound = approximation_bound(greedy, exact, venue)
    check_c_ok: Optional[bool] = None
    if bound["comparable"] and math.isfinite(bound["analytic_ratio"]):
        check_c_ok = (
            bound["l_star_circ"]
            <= bound["analytic_ratio"] * bound["l_star"] + _TOL
        )

    ok = (
        not a_violations
        and check_b_ok
        and check_c_ok is not False
        and not flags
    )
    return {
        "ok": ok,
        "prices": prices,
        "per_iteration": per_iteration,
        "check_a": {"ok": not a_violations, "violations": a_violations},
        "check_b": {"ok": check_b_ok, "lhs": lhs_b, "rhs": rhs_b},
        "check_c": {"ok": check_c_ok, **bound},
        "flags": flags,
    }


def location_difference(d1: Deployment, d2: Deployment) -> float:
    """Percentage of selected mounts not shared by the two deployments.

    Symmetric difference of candidate id sets over the total selection
    count, steering ignored; 0 when both are empty.
    """
    s1 = {ap.candidate for ap in d1.selected}
    s2 = {ap.candidate for ap in d2.selected}
    total = len(s1) + len(s2)
    if total == 0:
        return 0.0
    return 100.0 * len(s1 ^ s2) / total


__all__ = [
    "approximation_bound",
    "audit_greedy_prices",
    "location_difference",
]
