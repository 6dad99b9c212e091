"""Access point placement solvers.

Three planners share one precomputed model of the venue. A caller builds
one ``PlanningModel`` per (venue, params, betas) and passes it as the
first argument of every planner and of ``evaluate_coverage``; none of them
builds a model or writes to the one it gets, so one model serves any
number of targets, solvers and evaluations:

* ``greedy_place`` repeats a weighted set-cover step: among every remaining
  (candidate, steering) pair it picks the one whose beam, allowed to serve
  at most T users, adds the most newly satisfied presence mass, breaking
  ties by the connectivity mass it builds toward not-yet-satisfied users
  and then by the lowest candidate and steering indices.
  The ``PlacedAp`` that ``greedy_iteration_best`` returns for a step is
  both the deployment's beam and the trace's ``GreedyIteration.cover``.
* ``exact_place`` enumerates candidate subsets in increasing size with the
  steering combinations that can win and searches assignments depth-first,
  so the first feasible size is the minimum number of access points. A
  steering is skipped when a lower-index steering of the same mount reaches
  every user it reaches that could use the mount; coverage only grows with
  the reached set, so the lexicographically first optimum never uses a
  skipped steering and the result is the one a full scan returns. Intended
  for small instances only and guarded by hard size limits.
* ``uniform_place`` is the coverage-oblivious baseline: spread n mounts by
  farthest-point selection and aim every beam straight down.

The model keeps each grid steering's footprint once, in ``foot_members``:
the usable users inside the beam by descending presence mass. Steerings
are numbered elevation-major, and only ``steering_angles`` decodes them.

Satisfaction of a user is always the scenario-partition probability of its
assigned set meeting the per-user target; all solvers and
``evaluate_coverage`` recompute it through ``PlanningModel.finalize``, so a
deployment round-trips bit-identically through revalidation, and
``evaluate_coverage`` returns the re-finalized ``Deployment`` itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .channel import ChannelParams, _active_half_width
from .errors import (
    DeploymentValidationError,
    GeometryError,
    InfeasibleError,
    SizeLimitError,
    VenueFormatError,
)
from .inputs import DEPLOYMENT, read, write
from .scenarios import (
    OrientationDistribution,
    ScenarioPartition,
    connectivity_probability,
    seat_partition,
)
from .venue import Venue, occlusion_matrix

# never called: the benchmark's span wraps this name and reads 0 until the
# in-package stage recorder (ROADMAP item 1) replaces it
build_scenarios = seat_partition

logger = logging.getLogger(__name__)

BetaLike = Union[float, Sequence[float]]


@dataclass(frozen=True)
class PlacedAp:
    """One selected mount with its steering and served users."""

    candidate: int
    theta: float
    phi: float
    assigned: Tuple[int, ...]


@dataclass
class Deployment:
    selected: List[PlacedAp]
    per_gp_prob: List[float]
    satisfied: List[bool]
    coverage: float
    normalized_coverage: float

    @property
    def per_gp(self) -> List["GpCoverage"]:
        pairs = zip(self.per_gp_prob, self.satisfied)
        return [GpCoverage(m, p, bool(z)) for m, (p, z) in enumerate(pairs)]

    def to_dict(self) -> dict:
        return write(DEPLOYMENT, self)

    @staticmethod
    def from_dict(data: dict) -> "Deployment":
        head = read(DEPLOYMENT, data)
        per_gp = sorted(head["per_gp"], key=lambda r: r["id"])
        n = len(per_gp)
        if [r["id"] for r in per_gp] != list(range(n)):
            raise VenueFormatError(f"per_gp: ids must be 0..{n - 1} once each")
        return Deployment(
            selected=[PlacedAp(**s) for s in head["selected"]],
            per_gp_prob=[r["prob"] for r in per_gp],
            satisfied=[r["z"] for r in per_gp],
            coverage=head["coverage"],
            normalized_coverage=head["normalized_coverage"],
        )


@dataclass(frozen=True)
class GpCoverage:
    id: int
    prob: float
    z: bool


@dataclass(frozen=True)
class GreedyIteration:
    cover: PlacedAp
    newly_satisfied: Tuple[int, ...]
    marginal_weight: float
    running_coverage: float


@dataclass
class GreedyTrace:
    iterations: List[GreedyIteration]
    tuple_evaluations: int = 0

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "iterations": [
                {
                    "candidate": it.cover.candidate,
                    "theta": it.cover.theta,
                    "phi": it.cover.phi,
                    "members": list(it.cover.assigned),
                    "newly_satisfied": list(it.newly_satisfied),
                    "marginal_weight": it.marginal_weight,
                    "running_coverage": it.running_coverage,
                }
                for it in self.iterations
            ],
            "tuple_evaluations": self.tuple_evaluations,
        }


def _normalize_betas(betas: BetaLike, n: int) -> np.ndarray:
    if isinstance(betas, (int, float)):
        arr = np.full(n, float(betas))
    else:
        arr = np.asarray([float(b) for b in betas])
        if arr.shape != (n,):
            raise ValueError(
                f"expected {n} per-user targets, got shape {arr.shape}"
            )
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("per-user targets must lie in [0, 1]")
    return arr


class PlanningModel:
    """Precomputed geometry, link reach, partitions and beam footprints.

    Depends only on (venue, params, betas), never on a coverage target or
    a solver, so it is built once per (venue, params, betas) and shared:
    the solvers and ``evaluate_coverage`` take it as their first argument
    and only read it. Every satisfaction decision goes through
    ``finalize``.

    This is the one place the package derives link facts, each as an
    (M, L) array over all (seat, candidate) pairs: view-ray azimuths
    ``phi_tx``/``phi_rx``, the steering elevation ``nadir_tx`` (angle
    from straight down), the receive elevation ``psi_rx``, ``dist`` and
    ``vertical``; ``occluded`` from ``occlusion_matrix`` (one batched slab
    test per seat); the active half-widths ``reach`` from
    ``_active_half_width`` at the aligned transmit gain, where 0 is never
    on and pi is always on; and one ``seat_partition`` per seat straight
    from its rows of ``phi_rx`` and ``reach``. ``_beam`` is the one test
    of users against a steered beam, read by the footprints and by
    ``evaluate_coverage``. Where a value's bits reach the outputs the
    scalar ``math`` functions stay: ``math.log10`` per distance,
    ``math.atan2`` for angles that leave [-pi, pi], and ``math.erf`` per
    cell boundary, because their numpy counterparts differ from them in
    the last bit for some inputs. So the model is bit-identical to the
    one-link, one-cell walks kept as oracles in the tests.
    """

    def __init__(
        self, venue: Venue, params: ChannelParams, betas: BetaLike
    ) -> None:
        self.venue = venue
        self.params = params
        self.M = venue.n_grid
        self.L = venue.n_candidates
        self.betas = _normalize_betas(betas, self.M)
        self.q = np.array([gp.presence_prob for gp in venue.grid_positions])
        self.total_mass = float(self.q.sum())

        gp_pos = np.array([gp.position for gp in venue.grid_positions])
        ap_pos = np.array([c.position for c in venue.candidates])
        down = gp_pos[:, None, :] - ap_pos[None, :, :]
        self.dist = np.sqrt((down ** 2).sum(axis=2))
        if np.any(self.dist == 0.0):
            raise GeometryError("a device coincides with a candidate mount")
        horiz = np.hypot(down[:, :, 0], down[:, :, 1])
        self.vertical = horiz == 0.0
        self.phi_tx = np.where(
            self.vertical, 0.0, np.arctan2(down[:, :, 1], down[:, :, 0])
        )
        psi_tx = np.arccos(np.clip(down[:, :, 2] / self.dist, -1.0, 1.0))
        self.nadir_tx = math.pi - psi_tx
        self.phi_rx = np.where(
            self.vertical, 0.0, np.arctan2(-down[:, :, 1], -down[:, :, 0])
        )
        self.psi_rx = np.arccos(np.clip(-down[:, :, 2] / self.dist, -1.0, 1.0))
        self.occluded = occlusion_matrix(venue)

        tilt = np.array([gp.elevation for gp in venue.grid_positions])
        self.reach = _active_half_width(
            params,
            self.dist,
            self.psi_rx,
            self.vertical,
            self.occluded,
            tilt[:, None],
        )
        self.usable = self.reach > 0.0
        self.partitions: List[ScenarioPartition] = [
            seat_partition(
                m,
                OrientationDistribution.for_gp(venue, m),
                self.phi_rx[m],
                self.reach[m],
            )
            for m in range(self.M)
        ]

        self.thetas = params.elevation_grid
        self.phis = params.azimuth_grid
        self.n_tuples = len(self.thetas) * len(self.phis)
        # gp ids sorted by descending presence mass, ties by id
        self.gp_order = np.lexsort((np.arange(self.M), -self.q))
        # foot_members[l][ti] is footprint(l, *steering_angles(ti)), from
        # one _beam call per candidate over the elevations and azimuths
        thetas = np.asarray(self.thetas)[:, None, None]
        phis = np.asarray(self.phis)[:, None]
        self.foot_members: List[List[np.ndarray]] = []
        for l in range(self.L):
            ok = self.usable[:, l] & self._beam(l, thetas, phis)[0]
            rows = ok.reshape(self.n_tuples, self.M)[:, self.gp_order]
            self.foot_members.append([self.gp_order[row] for row in rows])

    # -- beam footprints -----------------------------------------------

    def _beam(
        self, l: int, theta, phi
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whether each user lies inside the beam of candidate l steered
        to (theta, phi), boundaries inclusive, with its azimuth and
        elevation offsets from the boresight. A vertical ray has no
        azimuth, so only its elevation counts. Array angles broadcast
        against the user axis, which comes last."""
        half = self.params.ap_beamwidth / 2.0
        el = np.abs(theta - self.nadir_tx[:, l])
        d = phi - self.phi_tx[:, l]
        az = np.abs(np.arctan2(np.sin(d), np.cos(d)))
        inside = (el <= half) & (self.vertical[:, l] | (az <= half))
        return inside, az, el

    def footprint(self, l: int, theta: float, phi: float) -> np.ndarray:
        """Users inside a beam, ordered by descending presence mass."""
        ok = self.usable[:, l] & self._beam(l, theta, phi)[0]
        return self.gp_order[ok[self.gp_order]]

    def steering_angles(self, ti: int) -> Tuple[float, float]:
        """The angles of grid steering ``ti``, numbered elevation-major."""
        e, a = divmod(ti, len(self.phis))
        return self.thetas[e], self.phis[a]

    # -- satisfaction --------------------------------------------------

    def conn(self, m: int, aps: Union[List[int], np.ndarray]) -> float:
        return connectivity_probability(self.partitions[m], aps)

    def coverage_of(self, z: np.ndarray) -> float:
        return float(np.dot(self.q, z.astype(float)))

    def normalized(self, coverage: float) -> float:
        if self.total_mass <= 0.0:
            return 1.0
        return coverage / self.total_mass

    def finalize(self, selected: Sequence[PlacedAp]) -> Deployment:
        assigned = np.zeros((self.M, self.L), dtype=bool)
        for ap in selected:
            for m in ap.assigned:
                assigned[m, ap.candidate] = True
        probs = np.array(
            [self.conn(m, assigned[m]) for m in range(self.M)]
        )
        z = probs >= self.betas
        coverage = self.coverage_of(z)
        return Deployment(
            selected=list(selected),
            per_gp_prob=[float(p) for p in probs],
            satisfied=[bool(v) for v in z],
            coverage=coverage,
            normalized_coverage=self.normalized(coverage),
        )


# -- evaluation --------------------------------------------------------


def evaluate_coverage(
    model: PlanningModel, deployment: Deployment
) -> Deployment:
    """Validate a deployment and return it re-finalized: its beams with
    per-user connectivity and coverage recomputed by ``model.finalize``.

    Raises ``DeploymentValidationError`` when the deployment is malformed:
    unknown ids, duplicated candidates, beams over capacity, or users
    assigned outside a beam's footprint or over an unusable link.
    """
    violations: List[str] = []
    seen: set = set()
    half = model.params.ap_beamwidth / 2.0
    capacity = model.params.capacity_per_beam
    for ap in deployment.selected:
        l = ap.candidate
        if not (0 <= l < model.L):
            violations.append(f"unknown candidate id {l}")
            continue
        if l in seen:
            violations.append(f"candidate {l} selected more than once")
        seen.add(l)
        if len(ap.assigned) > capacity:
            violations.append(
                f"candidate {l} serves {len(ap.assigned)} users, "
                f"capacity is {capacity}"
            )
        if len(set(ap.assigned)) != len(ap.assigned):
            violations.append(f"candidate {l} has duplicate assignments")
        inside, az_off, el_off = model._beam(l, ap.theta, ap.phi)
        for m in ap.assigned:
            if not (0 <= m < model.M):
                violations.append(f"candidate {l}: unknown user id {m}")
                continue
            if not model.usable[m, l]:
                violations.append(
                    f"user {m} assigned to candidate {l} whose link can "
                    f"never be active"
                )
            if not inside[m]:
                violations.append(
                    f"user {m} lies outside the beam of candidate {l} "
                    f"(azimuth offset {az_off[m]:.3f}, elevation offset "
                    f"{el_off[m]:.3f}, half-width {half:.3f})"
                )
    if violations:
        raise DeploymentValidationError(
            "deployment failed validation", violations
        )
    return model.finalize(deployment.selected)


# -- greedy ------------------------------------------------------------


@dataclass
class GreedyState:
    """Mutable per-user assignment state threaded through iterations.

    ``assigned`` is an ``(M, L)`` boolean matrix: row m marks the
    candidates serving user m.
    """

    assigned: np.ndarray
    conn: np.ndarray
    satisfied: np.ndarray
    coverage: float

    @staticmethod
    def initial(model: PlanningModel) -> "GreedyState":
        conn = np.zeros(model.M)
        satisfied = conn >= model.betas
        return GreedyState(
            assigned=np.zeros((model.M, model.L), dtype=bool),
            conn=conn,
            satisfied=satisfied,
            coverage=model.coverage_of(satisfied),
        )


def _iteration_tables(
    model: PlanningModel, state: GreedyState, pool: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per (user, pool candidate): connectivity gain and predicted
    satisfaction if that single candidate were added."""
    cols = np.asarray(pool, dtype=np.intp)
    dp = np.zeros((model.M, cols.size))
    pred_sat = np.zeros((model.M, cols.size), dtype=bool)
    for m in np.flatnonzero(~state.satisfied):
        part = model.partitions[m]
        uncovered = ~part.visible[:, state.assigned[m]].any(axis=1)
        hit = part.visible[:, cols]
        gain = part.cell_probs @ (hit & uncovered[:, None])
        dp[m] = gain
        pred = state.conn[m] + gain
        pred = np.where(part.always_on[cols], 1.0, pred)
        pred_sat[m] = pred >= model.betas[m]
    return dp, pred_sat


def _evaluate_tuple(
    model: PlanningModel,
    l: int,
    ti: int,
    dp_col: np.ndarray,
    pred_col: np.ndarray,
    satisfied: np.ndarray,
    capacity: int,
) -> Optional[Tuple[float, float, np.ndarray]]:
    mem = model.foot_members[l][ti]
    if mem.size == 0:
        return None
    sat = satisfied[mem]
    wins = pred_col[mem] & ~sat
    winners = mem[wins][:capacity]
    primary = float(model.q[winners].sum())
    room = capacity - winners.size
    secondary = 0.0
    fillers = winners[:0]
    if room > 0:
        rest = mem[~wins & ~sat]
        gains = dp_col[rest] * model.q[rest]
        pos = gains > 0.0
        rest, gains = rest[pos], gains[pos]
        if rest.size:
            take = np.lexsort((rest, -gains))[:room]
            fillers = rest[take]
            secondary = float(gains[take].sum())
    members = np.concatenate([winners, fillers])
    if members.size == 0:
        return None
    return primary, secondary, members


def greedy_iteration_best(
    model: PlanningModel,
    pool: Sequence[int],
    state: GreedyState,
) -> Optional[Tuple[PlacedAp, float, float]]:
    """Solve one greedy subproblem over the remaining candidate pool.

    Evaluates every (candidate, steering) pair; each pair serves up to the
    beam capacity, preferring users it newly satisfies (by presence mass)
    and filling leftover capacity with the largest mass-weighted
    connectivity gains. Returns the beam to commit with its newly
    satisfied mass and its mass-weighted gain, or None when nothing adds
    value, which a caller must treat as a dead end. The winner is unique:
    value ties fall back to the lowest (candidate, elevation index,
    azimuth index).
    """
    dp, pred_sat = _iteration_tables(model, state, pool)
    capacity = model.params.capacity_per_beam
    best = None
    for j, l in enumerate(pool):
        for ti in range(model.n_tuples):
            r = _evaluate_tuple(
                model, l, ti, dp[:, j], pred_sat[:, j], state.satisfied,
                capacity,
            )
            # larger weights win, then the lower (candidate, steering)
            if r is not None and (best is None or r[:2] > best[:2] or (
                r[:2] == best[:2] and (l, ti) < best[2:4]
            )):
                best = (*r[:2], l, ti, r[2])
    if best is None:
        return None
    primary, secondary, l, ti, members = best
    theta, phi = model.steering_angles(ti)
    assigned = tuple(sorted(members.tolist()))
    return PlacedAp(l, theta, phi, assigned), primary, secondary


def greedy_place(
    model: PlanningModel, alpha: float
) -> Tuple[Deployment, GreedyTrace]:
    """Greedy weighted set-cover placement.

    Adds one (candidate, steering) beam per iteration until the normalized
    covered presence mass reaches ``alpha``. Users keep earlier assignments
    when later beams also serve them; serving a user from several access
    points is exactly how high per-user targets get met. Raises
    ``InfeasibleError`` carrying the best partial deployment when the pool
    runs out or no remaining beam adds anything.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    state = GreedyState.initial(model)
    pool = list(range(model.L))
    selected: List[PlacedAp] = []
    iterations: List[GreedyIteration] = []
    evaluations = 0

    def bail(reason: str) -> InfeasibleError:
        partial = model.finalize(selected)
        return InfeasibleError(
            f"greedy placement stopped below target coverage ({reason})",
            partial=partial,
            diagnostics={
                "reason": reason,
                "target_alpha": alpha,
                "achieved_normalized": partial.normalized_coverage,
                "selected": len(selected),
                "unsatisfied": int((~state.satisfied).sum()),
            },
        )

    while model.normalized(state.coverage) < alpha:
        if not pool:
            raise bail("pool_exhausted")
        evaluations += len(pool) * model.n_tuples
        choice = greedy_iteration_best(model, pool, state)
        if choice is None:
            raise bail("stagnated")
        ap = choice[0]
        l = ap.candidate
        for m in ap.assigned:
            state.assigned[m, l] = True
            state.conn[m] = model.conn(m, state.assigned[m])
        newly = [
            m
            for m in ap.assigned
            if not state.satisfied[m] and state.conn[m] >= model.betas[m]
        ]
        for m in newly:
            state.satisfied[m] = True
        state.coverage = model.coverage_of(state.satisfied)
        # summed in presence order, the order the beam admits its winners
        by_mass = sorted(newly, key=lambda m: (-model.q[m], m))
        marginal = float(model.q[by_mass].sum()) if newly else 0.0
        selected.append(ap)
        pool.remove(l)
        iterations.append(
            GreedyIteration(
                cover=ap,
                newly_satisfied=tuple(newly),
                marginal_weight=marginal,
                running_coverage=float(state.coverage),
            )
        )
    deployment = model.finalize(selected)
    return deployment, GreedyTrace(
        iterations=iterations, tuple_evaluations=evaluations
    )


# -- exact -------------------------------------------------------------


def _minimal_satisfying_sets(
    model: PlanningModel, m: int
) -> List[Tuple[int, ...]]:
    """All inclusion-minimal candidate sets meeting user m's target, as
    tuples of ids in ``combinations`` order."""
    beta = model.betas[m]
    if beta <= 0.0:
        return []
    ids = [int(l) for l in np.flatnonzero(model.usable[m])]
    found: List[Tuple[int, ...]] = []
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            if any(set(prev).issubset(combo) for prev in found):
                continue
            prob = connectivity_probability(model.partitions[m], list(combo))
            if prob >= beta:
                found.append(combo)
    return found


def _assignment_search(
    order: Sequence[int],
    choices: Dict[int, List[Tuple[int, ...]]],
    qv: np.ndarray,
    subset: Sequence[int],
    capacity: int,
    base: float,
) -> Tuple[float, Optional[List[int]]]:
    """Depth-first max-coverage assignment for one configuration.

    Walks users in fixed order; each either takes one of its minimal
    satisfying sets (capacity permitting) or stays unassigned. The
    remaining-mass bound prunes branches that cannot beat the incumbent,
    and the first assignment reaching the maximum is kept, which makes the
    result independent of pruning strength. An unassigned user gets the
    empty set.
    """
    n = len(order)
    suffix = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + qv[order[j]]
    pos_of = {l: p for p, l in enumerate(subset)}
    needs = {
        m: [(ms, [pos_of[l] for l in ms]) for ms in choices[m]]
        for m in order
    }
    cap = [capacity] * len(subset)
    cur: List[Tuple[int, ...]] = [()] * n
    best_val = -1.0
    best_assign: Optional[List[Tuple[int, ...]]] = None

    def rec(j: int, val: float) -> None:
        nonlocal best_val, best_assign
        if val + suffix[j] <= best_val:
            return
        if j == n:
            best_val = val
            best_assign = cur.copy()
            return
        m = order[j]
        for ms, need in needs[m]:
            if all(cap[p] > 0 for p in need):
                for p in need:
                    cap[p] -= 1
                cur[j] = ms
                rec(j + 1, val + qv[m])
                for p in need:
                    cap[p] += 1
        cur[j] = ()
        rec(j + 1, val)

    rec(0, 0.0)
    return base + best_val if best_val >= 0.0 else -1.0, best_assign


def _useful_steerings(
    members: List[np.ndarray], matters: np.ndarray
) -> List[int]:
    """Indices of the footprints, cut to the users ``matters`` marks, that
    no lower-index footprint contains."""
    cut = [set(mem[matters[mem]].tolist()) for mem in members]
    return [t for t, r in enumerate(cut) if not any(r <= p for p in cut[:t])]


def check_exact_size(
    L: int, M: int, max_candidates: int, max_positions: int
) -> None:
    """Refuse an instance of L candidates and M users that exceeds the
    exact solver's limits, with ``SizeLimitError``. Callers holding only
    the venue check it before building the model."""
    if L > max_candidates or M > max_positions:
        raise SizeLimitError(
            f"instance size {L} candidates x {M} users exceeds exact solver "
            f"limits ({max_candidates} x {max_positions}); use the greedy "
            f"solver or raise the limits explicitly",
            report={
                "candidates": L,
                "max_candidates": max_candidates,
                "grid_positions": M,
                "max_positions": max_positions,
            },
        )


def exact_place(
    model: PlanningModel,
    alpha: float,
    max_candidates: int = 6,
    max_positions: int = 12,
) -> Deployment:
    """Minimum access point count by exhaustive enumeration.

    Scans subset sizes in increasing order; within the first feasible size
    every configuration is searched and the one with the largest coverage
    wins, ties resolved toward the lexicographically first subset and
    steering tuple.

    Only useful steerings enter the product. A mount's footprint matters
    only on the users whose minimal satisfying sets contain that mount; a
    steering whose footprint there is contained in a lower-index
    steering's is skipped. Swapping it for that steering reaches a
    superset of users, so the coverage is no lower and the tuple is
    lexicographically earlier: the first optimum of the full scan never
    uses a skipped steering, and the strict-improvement scan over the
    kept ones returns the same deployment. The space is the sum over
    subsets of the product of their kept-steering counts, at most
    C(L, k) * (steerings)^k, so hard instance-size limits still guard it.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    L, M = model.L, model.M
    check_exact_size(L, M, max_candidates, max_positions)
    capacity = model.params.capacity_per_beam

    free = model.betas <= 0.0
    base = float(model.q[free].sum())
    full_ok = np.array(
        [
            free[m]
            or connectivity_probability(model.partitions[m], model.usable[m])
            >= model.betas[m]
            for m in range(M)
        ]
    )
    reachable = model.coverage_of(full_ok)
    if model.normalized(reachable) < alpha:
        raise InfeasibleError(
            "target coverage unreachable even with every candidate active",
            diagnostics={
                "target_alpha": alpha,
                "max_normalized": model.normalized(reachable),
                "unreachable_users": int((~full_ok).sum()),
            },
        )

    choices_all = {m: _minimal_satisfying_sets(model, m) for m in range(M)}
    demanding = [
        int(m)
        for m in model.gp_order
        if not free[m] and choices_all[m]
    ]
    # capacity lower bound on the subset size
    k_min = 0
    if alpha > 0.0:
        acc = base
        n_needed = None
        for i, m in enumerate(demanding):
            if model.normalized(acc) >= alpha:
                n_needed = i
                break
            acc += float(model.q[m])
        if n_needed is None:
            n_needed = len(demanding)
            if model.normalized(acc) < alpha:
                n_needed += 1  # unreachable; defensive, caught above
        k_min = max(0, math.ceil(n_needed / capacity))

    n_t = model.n_tuples
    # whether user m may use mount l is read only through m's minimal sets
    matters = np.zeros((L, M), dtype=bool)
    for m, sets in choices_all.items():
        for ms in sets:
            matters[list(ms), m] = True
    reps = [
        _useful_steerings(model.foot_members[l], matters[l]) for l in range(L)
    ]
    for l in range(L):
        logger.debug(
            "exact: candidate %d keeps %d of %d steerings %s",
            l, len(reps[l]), n_t, reps[l],
        )

    def scan_subset(
        subset: Tuple[int, ...]
    ) -> Optional[
        Tuple[float, Tuple, Tuple, List[int], List[Tuple[int, ...]]]
    ]:
        best = None
        for steer in product(*[reps[l] for l in subset]):
            allowed: List[set] = [set() for _ in range(M)]
            for l, ti in zip(subset, steer):
                for m in model.foot_members[l][ti]:
                    allowed[m].add(l)
            order = []
            choices: Dict[int, List[Tuple[int, ...]]] = {}
            potential = base
            for m in demanding:
                opts = [
                    ms for ms in choices_all[m] if allowed[m].issuperset(ms)
                ]
                if opts:
                    order.append(m)
                    choices[m] = opts
                    potential += float(model.q[m])
            if model.normalized(potential) < alpha:
                continue
            val, assign = _assignment_search(
                order, choices, model.q, subset, capacity, base
            )
            if assign is None or model.normalized(val) < alpha:
                continue
            if best is None or val > best[0]:
                best = (val, subset, steer, order, assign)
        return best

    found = None
    searched = full = 0
    for k in range(max(k_min, 0), L + 1):
        subsets = list(combinations(range(L), k))
        searched += sum(math.prod(len(reps[l]) for l in s) for s in subsets)
        full += len(subsets) * n_t ** k
        for s in subsets:
            r = scan_subset(s)
            if r is None:
                continue
            if found is None or r[0] > found[0]:
                found = r
        if found is not None:
            break
    logger.debug(
        "exact: searched %d of %d steering configurations", searched, full
    )
    if found is None:
        raise InfeasibleError(
            "no candidate subset reaches the target coverage",
            diagnostics={"target_alpha": alpha, "candidates": L},
        )
    _, subset, steer, order, assign = found
    by_ap: Dict[int, List[int]] = {l: [] for l in subset}
    for j, m in enumerate(order):
        for l in assign[j]:
            by_ap[l].append(m)
    selected = [
        PlacedAp(l, *model.steering_angles(ti), tuple(sorted(by_ap[l])))
        for l, ti in zip(subset, steer)
    ]
    return model.finalize(selected)


# -- uniform baseline --------------------------------------------------


def uniform_place(model: PlanningModel, count: int) -> Deployment:
    """Coverage-oblivious baseline: farthest-point spread, beams straight
    down, users served by presence mass within each footprint."""
    if not (1 <= count <= model.L):
        raise ValueError(
            f"count must lie in [1, {model.L}], got {count}"
        )
    xy = np.array([c.position[:2] for c in model.venue.candidates])
    centroid = xy.mean(axis=0)
    d0 = np.hypot(*(xy - centroid).T)
    chosen = [int(np.argmin(d0))]
    while len(chosen) < count:
        dmin = np.full(model.L, np.inf)
        for l in chosen:
            dmin = np.minimum(dmin, np.hypot(*(xy - xy[l]).T))
        dmin[chosen] = -np.inf
        chosen.append(int(np.argmax(dmin)))
    capacity = model.params.capacity_per_beam
    return model.finalize([
        PlacedAp(l, 0.0, 0.0, tuple(sorted(
            model.footprint(l, 0.0, 0.0)[:capacity].tolist()
        )))
        for l in chosen
    ])


__all__ = [
    "PlacedAp",
    "Deployment",
    "GpCoverage",
    "GreedyIteration",
    "GreedyTrace",
    "GreedyState",
    "PlanningModel",
    "evaluate_coverage",
    "greedy_iteration_best",
    "greedy_place",
    "check_exact_size",
    "exact_place",
    "uniform_place",
]
