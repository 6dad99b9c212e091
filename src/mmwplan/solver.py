"""Access point placement solvers.

Three planners share one precomputed model of the venue. A caller builds
one ``PlanningModel`` per (venue, params, beta) and passes it as the
first argument of every planner and of ``evaluate_coverage``; none of them
builds a model or writes to the one it gets, so one model serves any
number of targets, solvers and evaluations:

* ``greedy_place`` repeats a weighted set-cover step: among every remaining
  (candidate, steering) pair it picks the one whose beam, allowed to serve
  at most T users, adds the most newly satisfied presence mass, breaking
  ties by the connectivity mass it builds toward not-yet-satisfied users
  and then by the lowest candidate and steering indices.
  The ``PlacedAp`` that ``greedy_iteration_best`` returns for a step is
  both the deployment's beam and the trace's ``GreedyIteration.cover``,
  and ``GreedyState.commit`` is the one way to apply it. The state is the
  one record of a run: it keeps the pool of mounts without a beam and the
  per-(user, candidate) step tables across steps, and a commit takes the
  mount out of the pool and recomputes only the rows of the beam's users.
  Each step first scores every pair at once with vectorized bounds and
  then runs the exact per-pair evaluation only on the pairs that can
  still win, so it picks what evaluating every pair picks.
* ``exact_place`` enumerates candidate subsets in increasing size with the
  steering combinations that can win and searches assignments depth-first,
  so the first feasible size is the minimum number of access points. One
  incumbent spans the whole scan: its mass, or the target's if higher, is
  the floor every assignment search starts from. A steering is skipped
  when a lower-index steering of the same mount reaches every user it
  reaches that could use the mount; coverage only grows with the reached
  set, so the lexicographically first optimum never uses a skipped
  steering and the result is the one a full scan returns. Intended for
  small instances only and guarded by hard size limits.
* ``uniform_place`` is the coverage-oblivious baseline: spread n mounts by
  farthest-point selection and aim every beam straight down.

The model keeps each grid steering's footprint once: the usable users
inside the beam by descending presence mass, all of them back to back in
``foot_flat``; ``PlanningModel.members`` returns one as a view.
Steerings are numbered elevation-major, and only ``steering_angles``
decodes them.

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
from typing import Dict, List, Optional, Sequence, Tuple

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
    ScenarioPartition,
    connectivity_probability,
    seat_partitions,
    wrapped_offset,
)
from .venue import Venue, occlusion_matrix

# never called: the benchmark's span wraps this name and reads 0 until the
# in-package stage recorder (ROADMAP item 1) replaces it
build_scenarios = seat_partitions

logger = logging.getLogger(__name__)

# exact_place's size limits (candidates, users), the defaults of its
# keywords and of the CLI's --max-exact-l/--max-exact-m
EXACT_LIMITS = (6, 12)


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


class PlanningModel:
    """Precomputed geometry, link reach, partitions and beam footprints.

    Depends only on (venue, params, beta), never on a coverage target or
    a solver, so it is built once per (venue, params, beta) and shared:
    the solvers and ``evaluate_coverage`` take it as their first argument
    and only read it. Every satisfaction decision goes through
    ``finalize``. ``beta`` is the venue-wide per-user target in [0, 1];
    a seat's own ``beta`` wins over it, and ``betas`` holds the target
    of every seat. A seat closer than 1 m to a mount raises
    ``GeometryError``.

    This is the one place the package derives link facts, each as an
    (M, L) array over all (seat, candidate) pairs: view-ray azimuths
    ``phi_tx``/``phi_rx``, the steering elevation ``nadir_tx`` (angle
    from straight down), the receive elevation ``psi_rx``, ``dist`` and
    ``vertical``; ``occluded`` from ``occlusion_matrix`` (batches of
    seats, each prism pruned by its own top); the active half-widths
    ``reach`` from ``_active_half_width`` at the aligned transmit gain,
    where 0 is never on and pi is always on; and every seat's partition
    from ``seat_partitions``, many seats at a time, straight from the
    rows of ``phi_rx`` and ``reach``. ``_beam`` is the one test
    of users against a steered beam, read by the footprints and by
    ``evaluate_coverage``. Where a value's bits reach the outputs the
    scalar ``math`` functions stay: ``math.log10`` per distance,
    ``math.atan2`` for angles that leave [-pi, pi], and ``math.erf`` per
    cell boundary, because their numpy counterparts differ from them in
    the last bit for some inputs. So the model is bit-identical to the
    one-link, one-cell walks kept as oracles in the tests.
    """

    def __init__(
        self, venue: Venue, params: ChannelParams, beta: float
    ) -> None:
        if not 0.0 <= beta <= 1.0:  # NaN fails as well
            raise ValueError("per-user targets must lie in [0, 1]")
        self.venue = venue
        self.params = params
        self.M = venue.n_grid
        self.L = venue.n_candidates
        self.betas = np.array([
            float(beta if gp.beta is None else gp.beta)
            for gp in venue.grid_positions
        ])
        self.q = np.array([gp.presence_prob for gp in venue.grid_positions])
        self.total_mass = float(self.q.sum())

        gp_pos = np.array([gp.position for gp in venue.grid_positions])
        ap_pos = np.array([c.position for c in venue.candidates])
        down = gp_pos[:, None, :] - ap_pos[None, :, :]
        self.dist = np.sqrt((down ** 2).sum(axis=2))
        # below 1 m blocked loss falls under line-of-sight loss, and the
        # reach of _active_half_width would miss a link that turns back on
        close = np.argwhere(self.dist < 1.0)
        if close.size:
            m, l = close[0].tolist()
            raise GeometryError(
                f"seat {m} is {self.dist[m, l]:.6g} m from mount {l}; a seat "
                f"must be at least 1 m from every mount"
            )
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
        # the build's peak memory is set after this point, so free the
        # (M, L, 3) offsets and the (M, L) temporaries first
        del down, horiz, psi_tx
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
        self.partitions: List[ScenarioPartition] = seat_partitions(
            venue, self.phi_rx, self.reach
        )

        self.thetas = params.elevation_grid
        self.phis = params.azimuth_grid
        self.n_tuples = len(self.thetas) * len(self.phis)
        # gp ids sorted by descending presence mass, ties by id
        self.gp_order = np.lexsort((np.arange(self.M), -self.q)).astype(
            np.int32
        )
        # members(l, ti) is footprint(l, *steering_angles(ti)), from one
        # _beam call per candidate over the elevations and azimuths. All
        # footprints lie back to back in foot_flat, footprint
        # k = l * n_tuples + ti at foot_flat[foot_start[k]:foot_start[k+1]].
        thetas = np.asarray(self.thetas)[:, None, None]
        phis = np.asarray(self.phis)[:, None]
        parts, sizes = [], []
        for l in range(self.L):
            ok = self.usable[:, l] & self._beam(l, thetas, phis)[0]
            rows = ok.reshape(self.n_tuples, self.M)[:, self.gp_order]
            parts.append(self.gp_order[np.nonzero(rows)[1]])
            sizes.append(rows.sum(axis=1))
        self.foot_flat = np.concatenate(parts)
        self.foot_start = np.zeros(self.L * self.n_tuples + 1, dtype=np.intp)
        np.cumsum(np.concatenate(sizes), out=self.foot_start[1:])

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
        az = wrapped_offset(phi, self.phi_tx[:, l])
        inside = (el <= half) & (self.vertical[:, l] | (az <= half))
        return inside, az, el

    def footprint(self, l: int, theta: float, phi: float) -> np.ndarray:
        """Users inside a beam, ordered by descending presence mass."""
        ok = self.usable[:, l] & self._beam(l, theta, phi)[0]
        return self.gp_order[ok[self.gp_order]]

    def members(self, l: int, ti: int) -> np.ndarray:
        """``footprint(l, *steering_angles(ti))``, a view of ``foot_flat``."""
        k = l * self.n_tuples + ti
        return self.foot_flat[self.foot_start[k]:self.foot_start[k + 1]]

    def steering_angles(self, ti: int) -> Tuple[float, float]:
        """The angles of grid steering ``ti``, numbered elevation-major."""
        e, a = divmod(ti, len(self.phis))
        return self.thetas[e], self.phis[a]

    # -- satisfaction --------------------------------------------------

    def conn(self, m: int, row: np.ndarray) -> float:
        """User m's probability over the links of a boolean candidate row."""
        return connectivity_probability(self.partitions[m], row)

    def serving(self, selected: Sequence[PlacedAp]) -> np.ndarray:
        """The (M, L) serving matrix of the beams ``selected``: entry
        (m, l) says whether candidate l serves user m."""
        out = np.zeros((self.M, self.L), dtype=bool)
        for ap in selected:
            out[list(ap.assigned), ap.candidate] = True
        return out

    def coverage_of(self, z: np.ndarray) -> float:
        return float(np.dot(self.q, z.astype(float)))

    def normalized(self, coverage: float) -> float:
        if self.total_mass <= 0.0:
            return 1.0
        return coverage / self.total_mass

    def finalize(self, selected: Sequence[PlacedAp]) -> Deployment:
        assigned = self.serving(selected)
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

# slack for comparing a mass summed in one order with one summed in another:
# a screen value with a key, a search's sum with ``coverage_of``, a step
# table's ``conn + dp`` with ``model.conn``
_SUM_TOL = 1e-9


@dataclass
class GreedyState:
    """Mutable per-user assignment state threaded through iterations.

    ``pool`` holds the candidates without a beam, ascending. ``assigned``
    is an ``(M, L)`` boolean matrix: row m marks the candidates serving
    user m. ``dp`` and ``pred_sat`` are the step tables over all L
    candidates: user m's connectivity gain if candidate l were added, and
    whether adding l would meet m's target. That verdict is ``conn + dp >= beta`` except within ``_SUM_TOL`` of the
    target, where the two sums may round to either side and it is the
    test ``commit`` applies: ``model.conn`` with l added. A satisfied
    user's rows are 0 and False. A row depends only on the user's own
    assignment, so ``commit`` recomputes just the rows of the beam it
    commits, and every row equals a fresh recompute bit for bit.
    """

    pool: List[int]
    assigned: np.ndarray
    conn: np.ndarray
    satisfied: np.ndarray
    coverage: float
    dp: np.ndarray
    pred_sat: np.ndarray

    @staticmethod
    def initial(model: PlanningModel) -> "GreedyState":
        conn = np.zeros(model.M)
        satisfied = conn >= model.betas
        state = GreedyState(
            pool=list(range(model.L)),
            assigned=np.zeros((model.M, model.L), dtype=bool),
            conn=conn,
            satisfied=satisfied,
            coverage=model.coverage_of(satisfied),
            dp=np.zeros((model.M, model.L)),
            pred_sat=np.zeros((model.M, model.L), dtype=bool),
        )
        state._refresh(model, range(model.M))
        return state

    def _refresh(self, model: PlanningModel, rows: Sequence[int]) -> None:
        rows = np.asarray(rows, dtype=np.intp)
        self.dp[rows] = 0.0
        self.pred_sat[rows] = False
        rows = rows[~self.satisfied[rows]]
        for m in rows.tolist():
            part = model.partitions[m]
            uncovered = ~part.visible[:, self.assigned[m]].any(axis=1)
            self.dp[m] = part.cell_probs @ (part.visible & uncovered[:, None])
        pred = self.conn[rows, None] + self.dp[rows]
        beta = model.betas[rows, None]
        self.pred_sat[rows] = pred >= beta
        for i, l in np.argwhere(np.abs(pred - beta) <= _SUM_TOL).tolist():
            m = int(rows[i])
            row = self.assigned[m].copy()
            row[l] = True
            self.pred_sat[m, l] = model.conn(m, row) >= beta[i, 0]

    def commit(self, model: PlanningModel, ap: PlacedAp) -> List[int]:
        """Serve ``ap.assigned`` from ``ap.candidate``, take it out of the
        pool and return the users this newly satisfies, in ``ap.assigned``
        order."""
        l = ap.candidate
        self.pool.remove(l)
        for m in ap.assigned:
            self.assigned[m, l] = True
            self.conn[m] = model.conn(m, self.assigned[m])
        newly = [
            m
            for m in ap.assigned
            if not self.satisfied[m] and self.conn[m] >= model.betas[m]
        ]
        self.satisfied[newly] = True
        self.coverage = model.coverage_of(self.satisfied)
        self._refresh(model, ap.assigned)
        return newly


def _winners(
    model: PlanningModel, state: GreedyState, l: int, mem: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Of the users in candidate l's footprint ``mem``: which ones the
    beam would not satisfy (a mask over ``mem``), the first ``capacity``
    it would, and their presence mass. A satisfied user's table entries
    are False and 0, so it never wins and never fills."""
    wins = state.pred_sat[mem, l]
    winners = mem[wins][:model.params.capacity_per_beam]
    return ~wins, winners, float(model.q[winners].sum())


def _evaluate_tuple(
    model: PlanningModel, state: GreedyState, l: int, ti: int
) -> Optional[Tuple[float, float, np.ndarray]]:
    mem = model.members(l, ti)
    others, winners, primary = _winners(model, state, l, mem)
    room = model.params.capacity_per_beam - winners.size
    secondary = 0.0
    fillers = winners[:0]
    if room > 0:
        rest = mem[others]
        gains = state.dp[rest, l] * model.q[rest]
        pos = gains > 0.0
        rest, gains = rest[pos], gains[pos]
        take = np.lexsort((rest, -gains))[:room]
        fillers = rest[take]
        secondary = float(gains[take].sum())
    members = np.concatenate([winners, fillers])
    if members.size == 0:
        return None
    return primary, secondary, members


def _per_footprint(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of ``x`` over the runs ``offsets[i]:offsets[i + 1]``, with 0
    for an empty run."""
    # reduceat reads one element for an empty run: a trailing 0 keeps
    # every offset in range, and empty runs are zeroed after
    out = np.add.reduceat(np.append(x, 0), offsets[:-1])
    out[offsets[:-1] == offsets[1:]] = 0
    return out


def _screen(
    model: PlanningModel, state: GreedyState
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per grid footprint k = l * n_tuples + ti of a pool candidate: the
    mass of its first ``capacity`` winners, an upper bound on its gain
    mass (the mass-weighted gains of all its other users, or 0 when the
    winners fill the beam) and its winner count, from a few passes over
    each candidate's run of ``foot_flat``; other entries are 0. Sums run
    in another order than ``_evaluate_tuple``'s, so they match its key
    only to within rounding."""
    capacity = model.params.capacity_per_beam
    n_t = model.n_tuples
    primary = np.zeros(model.L * n_t)
    bound = np.zeros(model.L * n_t)
    n_wins = np.zeros(model.L * n_t, dtype=np.intp)
    for l in state.pool:
        ks = slice(l * n_t, (l + 1) * n_t)
        start = model.foot_start[l * n_t:(l + 1) * n_t + 1]
        mem = model.foot_flat[start[0]:start[-1]]
        offsets = start - start[0]
        q = model.q[mem]
        wins = state.pred_sat[mem, l]
        counts = n_wins[ks] = _per_footprint(wins, offsets)
        # the first ``capacity`` winners of each footprint, in member order
        rank = np.cumsum(wins) - np.repeat(np.cumsum(counts) - counts,
                                           np.diff(offsets))
        primary[ks] = _per_footprint(
            np.where(wins & (rank <= capacity), q, 0.0), offsets
        )
        # gains are never negative, and a satisfied user's are 0
        gain = state.dp[mem, l] * q
        gain[wins] = 0.0
        bound[ks] = np.where(
            counts >= capacity, 0.0, _per_footprint(gain, offsets)
        )
    return primary, bound, n_wins


def greedy_iteration_best(
    model: PlanningModel, state: GreedyState
) -> Optional[Tuple[PlacedAp, float, float]]:
    """Solve one greedy subproblem over the state's candidate pool.

    Each (candidate, steering) pair serves up to the beam capacity,
    preferring users it newly satisfies (by presence mass) and filling
    leftover capacity with the largest mass-weighted connectivity gains.
    Returns the beam to commit with its newly satisfied mass and its
    mass-weighted gain, or None when nothing adds value, which a caller
    must treat as a dead end. The winner is unique: value ties fall back
    to the lowest (candidate, elevation index, azimuth index).

    The result is that of running ``_evaluate_tuple`` on every pair, but
    ``_screen`` first scores all pairs at once. Pairs are visited by
    descending screen (newly satisfied mass, gain bound), and the scan
    stops at the first whose mass is out of reach of the best key found.
    A pair is evaluated in full only when its exact newly satisfied mass
    and its gain bound leave it a chance to beat that key, so the keys
    compared and their tie-break are the full scan's.
    """
    capacity = model.params.capacity_per_beam
    n_t = model.n_tuples
    primary, bound, n_wins = _screen(model, state)
    ks = (np.asarray(state.pool)[:, None] * n_t + np.arange(n_t)).ravel()
    order = ks[np.lexsort((ks, -bound[ks], -primary[ks]))]
    # the incumbent's key (mass, gain mass, -k): larger weights win, then
    # the lower (candidate, steering)
    best = members = None
    for k in order.tolist():
        if n_wins[k] == 0 and bound[k] == 0.0:
            continue  # no winner and no positive gain: no members
        l, ti = divmod(k, n_t)
        if best is not None:
            if primary[k] < best[0] - _SUM_TOL:
                break  # no pair from here on reaches the best mass
            # the best key this pair can reach: its exact mass, and a gain
            # mass of exactly 0.0 when its winners fill the beam, at most
            # its bound otherwise
            p = _winners(model, state, l, model.members(l, ti))[2]
            most = 0.0 if n_wins[k] >= capacity else bound[k] + _SUM_TOL
            if (p, most, -k) < best:
                continue
        r = _evaluate_tuple(model, state, l, ti)
        if r is not None and (best is None or (*r[:2], -k) > best):
            best, members = (*r[:2], -k), r[2]
    if best is None:
        return None
    primary, secondary, k = best
    l, ti = divmod(-k, n_t)
    theta, phi = model.steering_angles(ti)
    assigned = tuple(sorted(members.tolist()))
    return PlacedAp(l, theta, phi, assigned), primary, secondary


def _reachability(model: PlanningModel) -> Dict[str, object]:
    """The refusal keys of both solvers: the sorted ids of the users whose
    target is not met even with every candidate serving them
    (``unreachable``) and the normalized mass of all the others
    (``reachable_normalized``)."""
    ok = np.array([
        model.conn(m, model.usable[m]) >= model.betas[m]
        for m in range(model.M)
    ])
    return {
        "unreachable": np.flatnonzero(~ok).tolist(),
        "reachable_normalized": model.normalized(model.coverage_of(ok)),
    }


def greedy_place(
    model: PlanningModel, alpha: float
) -> Tuple[Deployment, GreedyTrace]:
    """Greedy weighted set-cover placement.

    Adds one (candidate, steering) beam per iteration until the normalized
    covered presence mass reaches ``alpha``. Users keep earlier assignments
    when later beams also serve them; serving a user from several access
    points is exactly how high per-user targets get met. Raises
    ``InfeasibleError`` carrying the best partial deployment when the pool
    runs out or no remaining beam adds anything; its diagnostics carry
    the keys of ``_reachability``.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    state = GreedyState.initial(model)
    iterations: List[GreedyIteration] = []
    evaluations = 0

    def bail(reason: str) -> InfeasibleError:
        partial = model.finalize([it.cover for it in iterations])
        return InfeasibleError(
            f"greedy placement stopped below target coverage ({reason})",
            partial=partial,
            diagnostics={
                "reason": reason,
                "target_alpha": alpha,
                "achieved_normalized": partial.normalized_coverage,
                "selected": len(iterations),
                "unsatisfied": int((~state.satisfied).sum()),
                **_reachability(model),
            },
        )

    while model.normalized(state.coverage) < alpha:
        if not state.pool:
            raise bail("pool_exhausted")
        evaluations += len(state.pool) * model.n_tuples
        choice = greedy_iteration_best(model, state)
        if choice is None:
            raise bail("stagnated")
        # the commit newly satisfies exactly the winners whose mass the
        # step returned
        ap, marginal, _ = choice
        newly = state.commit(model, ap)
        iterations.append(
            GreedyIteration(
                cover=ap,
                newly_satisfied=tuple(newly),
                marginal_weight=marginal,
                running_coverage=float(state.coverage),
            )
        )
    deployment = model.finalize([it.cover for it in iterations])
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
            row = np.zeros(model.L, dtype=bool)
            row[list(combo)] = True
            if model.conn(m, row) >= beta:
                found.append(combo)
    return found


def _assignment_search(
    order: Sequence[int],
    choices: Dict[int, List[Tuple[int, ...]]],
    qv: np.ndarray,
    subset: Sequence[int],
    capacity: int,
    floor: float,
) -> Optional[Tuple[float, List[Tuple[int, ...]]]]:
    """Depth-first max-mass assignment for one configuration, as
    ``(mass, assignment)``, or None when no assignment's mass exceeds
    ``floor``.

    Walks users in fixed order; each either takes one of its minimal
    satisfying sets (capacity permitting) or stays unassigned with the
    empty set. The remaining-mass bound prunes branches that cannot beat
    the incumbent, which starts at ``floor``, and the first assignment
    reaching the maximum is kept, which makes the result independent of
    pruning strength.
    """
    n = len(order)
    suffix = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + qv[order[j]]
    if suffix[0] <= floor:
        return None
    cap = dict.fromkeys(subset, capacity)
    cur: List[Tuple[int, ...]] = [()] * n
    best_val = floor
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
        for ms in choices[m]:
            if all(cap[l] > 0 for l in ms):
                for l in ms:
                    cap[l] -= 1
                cur[j] = ms
                rec(j + 1, val + qv[m])
                for l in ms:
                    cap[l] += 1
        cur[j] = ()
        rec(j + 1, val)

    rec(0, 0.0)
    return None if best_assign is None else (best_val, best_assign)


def _useful_steerings(
    model: PlanningModel, l: int, matters: np.ndarray
) -> List[int]:
    """Steerings of candidate l whose footprints, cut to the users
    ``matters`` marks, no lower-index steering's contains."""
    feet = (model.members(l, ti) for ti in range(model.n_tuples))
    cut = [set(mem[matters[mem]].tolist()) for mem in feet]
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
    max_candidates: int = EXACT_LIMITS[0],
    max_positions: int = EXACT_LIMITS[1],
) -> Deployment:
    """Minimum access point count by exhaustive enumeration.

    Scans subset sizes in increasing order, then subsets, then steering
    tuples; within the first feasible size the configuration with the
    largest coverage wins, ties resolved toward the lexicographically
    first subset and steering tuple. One incumbent is kept: a
    configuration's assignment search starts from the incumbent's mass,
    or the target's if higher, so a configuration that cannot strictly
    beat both is cut at the search's root, and one that does replaces the
    incumbent once ``coverage_of`` confirms it reaches ``alpha``.

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
    diag = _reachability(model)
    if diag["reachable_normalized"] < alpha:
        raise InfeasibleError(
            "target coverage unreachable even with every candidate active",
            diagnostics={"target_alpha": alpha, **diag},
        )

    choices_all = {m: _minimal_satisfying_sets(model, m) for m in range(M)}
    demanding = [
        int(m)
        for m in model.gp_order
        if not free[m] and choices_all[m]
    ]
    # capacity lower bound on the subset size: the fewest demanding users,
    # heaviest first, whose mass can reach alpha; the slack keeps rounding
    # from overstating the count
    n_needed = len(demanding)
    acc = base
    for i, m in enumerate(demanding):
        if model.normalized(acc) >= alpha - _SUM_TOL:
            n_needed = i
            break
        acc += float(model.q[m])
    k_min = math.ceil(n_needed / capacity)

    n_t = model.n_tuples
    # whether user m may use mount l is read only through m's minimal sets
    matters = np.zeros((L, M), dtype=bool)
    for m, sets in choices_all.items():
        for ms in sets:
            matters[list(ms), m] = True
    reps = [_useful_steerings(model, l, matters[l]) for l in range(L)]
    # the kept footprints as lists, read once per steering configuration
    feet = {
        (l, ti): model.members(l, ti).tolist()
        for l in range(L) for ti in reps[l]
    }
    for l in range(L):
        logger.debug(
            "exact: candidate %d keeps %d of %d steerings %s",
            l, len(reps[l]), n_t, reps[l],
        )

    # one incumbent over every configuration: a search must beat both the
    # target and the incumbent's mass, each less a slack toward keeping,
    # because its sums run in another order than coverage_of
    alpha_floor = alpha * model.total_mass - base - _SUM_TOL
    found, found_total = None, -math.inf
    searched = full = 0
    for k in range(k_min, L + 1):
        subsets = list(combinations(range(L), k))
        searched += sum(math.prod(len(reps[l]) for l in s) for s in subsets)
        full += len(subsets) * n_t ** k
        for subset in subsets:
            for steer in product(*[reps[l] for l in subset]):
                allowed: List[set] = [set() for _ in range(M)]
                for l, ti in zip(subset, steer):
                    for m in feet[l, ti]:
                        allowed[m].add(l)
                order = []
                choices: Dict[int, List[Tuple[int, ...]]] = {}
                for m in demanding:
                    opts = [
                        ms for ms in choices_all[m]
                        if allowed[m].issuperset(ms)
                    ]
                    if opts:
                        order.append(m)
                        choices[m] = opts
                floor = max(alpha_floor, found_total - base - _SUM_TOL)
                r = _assignment_search(
                    order, choices, model.q, subset, capacity, floor
                )
                if r is None or base + r[0] <= found_total:
                    continue
                mass, assign = r
                # accepted on the coverage finalize will report
                z = free.copy()
                z[[m for m, ms in zip(order, assign) if ms]] = True
                if model.normalized(model.coverage_of(z)) >= alpha:
                    found_total = base + mass
                    found = (subset, steer, order, assign)
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
    subset, steer, order, assign = found
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
