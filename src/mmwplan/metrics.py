"""Comparison metrics between greedy, exact and baseline deployments.

The greedy algorithm carries a worst-case guarantee: the number of
iterations it needs before its satisfied set includes everything the
minimum-size solution satisfies is at most

    (max per-AP satisfied count of the minimum solution
     * largest presence mass among its satisfied users)
    / (min per-iteration newly-satisfied count of greedy
       * smallest presence mass among those users)

times the minimum AP count. ``approximation_bound`` evaluates both sides
and ``location_difference`` quantifies how differently two solvers placed
their hardware. The numeric audit of the inequality chain behind the
guarantee, on a concrete pair of runs, lives with the test oracles.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .solver import Deployment, GreedyTrace
from .venue import Venue


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
    m_star = {m for m, z in enumerate(exact.satisfied) if z}
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
    "location_difference",
]
