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
  One row update rebuilds a user's probability, satisfaction and table
  rows from one mask, the cells its assigned links hit, so a run calls
  ``connectivity_probability`` only from ``finalize`` and, when it
  refuses, from ``_reachability``. The state also carries, per mount,
  an upper bound on the newly satisfied mass of any of its steerings. A
  step opens mounts best-first by that bound (the lazy greedy of Minoux
  and CELF): each opened mount's pairs are scored at once with
  vectorized bounds, and the exact per-pair evaluation runs only on the
  pairs that can still win; the step stops at the first mount whose
  bound is out of reach of the best key found, so it picks what
  evaluating every pair picks. That evaluation returns before choosing
  fillers once its exact mass and gain bound lose to the best key found.
  Opening a mount resets its bound to its screened maximum, and a commit
  raises every bound by the mass of the beam's users that turned into
  winners for that mount: another beam can lift a user to within one
  mount of its target, so the objective is not submodular and a bound
  must grow.
* ``exact_place`` enumerates candidate subsets in increasing size with the
  steering combinations that can win and searches assignments depth-first,
  so the first feasible size is the minimum number of access points. One
  incumbent spans the whole scan: its mass, or the target's if higher, is
  the floor every assignment search starts from. A steering is skipped
  when a lower-index steering of the same mount reaches every user it
  reaches that could use the mount; coverage only grows with the reached
  set, so the lexicographically first optimum never uses a skipped
  steering and the result is the one a full scan returns. Every set of
  users is one Python int, bit m for user m, so a configuration's
  reached users are a few ANDs and ORs, and a user's options are built
  only for the configurations that pass the search's root test.
  Intended for small instances only and guarded by hard size limits.
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    connectivity_probability,
    hit_mass,
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
    (M, L) array over all (seat, candidate) pairs, from one ray per link,
    the device's view of the mount: its azimuth ``phi_rx`` (0 where it
    is ``vertical``), its elevation ``psi_rx`` from straight up and its
    length ``dist``; ``occluded`` from ``occlusion_matrix`` (batches of
    seats, each prism pruned by its own top); the active half-widths
    ``reach`` from ``_active_half_width`` at the aligned transmit gain,
    where 0 is never on and pi is always on; and every seat's partition
    from ``seat_partitions``, many seats at a time, straight from the
    rows of ``phi_rx`` and ``reach``, into the flat store ``cell_start``,
    ``cell_probs``, ``visible`` that ``cells(m)`` reads a seat at a time.
    ``_beam``, the one test of users against a steered beam, read by the
    footprints and by ``evaluate_coverage``, turns that view around: the
    mount sees the seat at azimuth ``phi_rx + pi`` and ``psi_rx`` from
    straight down.
    Where a value's bits reach the outputs the scalar ``math`` functions
    stay, because their numpy counterparts differ from them in the last
    bit for some inputs: ``math.atan2`` for angles that leave [-pi, pi],
    ``math.erf`` per cell boundary, and ``math.log10`` for the distance
    of each link whose budget lies within rounding of the threshold
    (``_active_half_width`` takes ``np.log10`` for all others, where
    that bit changes no verdict). So the model is bit-identical to the
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
        # one ray per link, from the seat's device up to the mount
        up = ap_pos[None, :, :] - gp_pos[:, None, :]
        self.dist = np.sqrt((up ** 2).sum(axis=2))
        # below 1 m blocked loss falls under line-of-sight loss, and the
        # reach of _active_half_width would miss a link that turns back on
        close = np.argwhere(self.dist < 1.0)
        if close.size:
            m, l = close[0].tolist()
            raise GeometryError(
                f"seat {m} is {self.dist[m, l]:.6g} m from mount {l}; a seat "
                f"must be at least 1 m from every mount"
            )
        self.vertical = (up[..., 0] == 0.0) & (up[..., 1] == 0.0)
        self.phi_rx = np.where(
            self.vertical, 0.0, np.arctan2(up[..., 1], up[..., 0])
        )
        self.psi_rx = np.arccos(np.clip(up[..., 2] / self.dist, -1.0, 1.0))
        # the build's peak memory is set after this point, so free the
        # (M, L, 3) rays first
        del up
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
        self.cell_start, self.cell_probs, self.visible = seat_partitions(
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
        elevation offsets from the boresight on the device's view turned
        around. A vertical ray has no azimuth: its azimuth offset is 0.
        Array angles broadcast against the user axis, which comes last."""
        half = self.params.ap_beamwidth / 2.0
        el = np.abs(theta - self.psi_rx[:, l])
        turned = wrapped_offset(phi + math.pi, self.phi_rx[:, l])
        az = np.where(self.vertical[:, l], 0.0, turned)
        inside = (el <= half) & (az <= half)
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

    def cells(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """User m's cell masses and (cells, L) visibility rows, views of
        ``cell_probs`` and ``visible``."""
        s, e = self.cell_start[m], self.cell_start[m + 1]
        return self.cell_probs[s:e], self.visible[s:e]

    def conn(self, m: int, row: np.ndarray) -> float:
        """User m's probability over the links of a boolean candidate row."""
        return connectivity_probability(*self.cells(m), row)

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
        # ``conn`` of every seat, with the store's bounds read once
        start = self.cell_start.tolist()
        probs = np.array([
            connectivity_probability(self.cell_probs[s:e], self.visible[s:e],
                                     row)
            for s, e, row in zip(start, start[1:], assigned)
        ])
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
# table's ``conn + dp`` with the mass of the cells the sum's links hit
_SUM_TOL = 1e-9


@dataclass
class GreedyState:
    """Mutable per-user assignment state threaded through iterations.

    ``pool`` holds the candidates without a beam, ascending. ``assigned``
    is an ``(M, L)`` boolean matrix: row m marks the candidates serving
    user m. ``dp`` and ``pred_sat`` are the step tables over all L
    candidates: user m's connectivity gain if candidate l were added, and
    whether adding l would meet m's target. A satisfied user's rows are 0
    and False.

    ``_refresh`` is the one row update. A row depends only on the user's
    own assignment: from the user's cells it builds one mask, the cells
    the assigned links hit, and reads off it ``conn`` (the mask's mass by
    ``hit_mass``, the rule ``connectivity_probability`` applies), whether
    the user is now satisfied, ``dp`` (the mass each candidate would add
    outside the mask) and ``pred_sat``. That verdict is ``conn + dp >=
    beta`` except within ``_SUM_TOL`` of the target, where the two sums
    may round to either side and it is the mass of the mask with the
    candidate's own cells added. So ``commit`` updates just the rows of
    the beam it commits, and every value equals a fresh recompute through
    ``model.conn`` bit for bit.

    ``bound`` holds, per candidate, an upper bound on the newly satisfied
    mass of any of its steerings, to within ``_SUM_TOL``: +inf until a
    step first opens the candidate, then the largest screened winner mass
    among its footprints, raised at each commit by the mass of the beam's
    users whose ``pred_sat`` entry for the candidate turned True. A
    commit changes only those users' rows, and a footprint's first
    ``capacity`` winners weigh at most their old mass plus the new
    winners', so the bound holds; its bits decide only which candidates
    a step opens, never what it returns.
    """

    pool: List[int]
    assigned: np.ndarray
    conn: np.ndarray
    satisfied: np.ndarray
    coverage: float
    dp: np.ndarray
    pred_sat: np.ndarray
    bound: np.ndarray

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
            bound=np.full(model.L, np.inf),
        )
        state._refresh(model, range(model.M))
        return state

    def _refresh(self, model: PlanningModel, rows: Sequence) -> List[int]:
        """Recompute the users ``rows`` from their assignments and return
        the ones this newly satisfies, in ``rows`` order. A user without
        links hits no cell and keeps ``conn`` 0.0."""
        rows = np.asarray(rows, dtype=np.intp)
        self.dp[rows] = 0.0
        self.pred_sat[rows] = False
        rows = rows[~self.satisfied[rows]]
        linked = self.assigned[rows].any(axis=1).tolist()
        newly, cells = [], {}
        for m, has_links in zip(rows.tolist(), linked):
            probs, visible = model.cells(m)
            covered = np.zeros(len(probs), dtype=bool)
            if has_links:
                covered = visible[:, self.assigned[m]].any(axis=1)
                self.conn[m] = hit_mass(probs, covered)
                if self.conn[m] >= model.betas[m]:
                    newly.append(m)
                    continue
            self.dp[m] = probs @ (visible & ~covered[:, None])
            cells[m] = probs, visible, covered
        self.satisfied[newly] = True
        rows = np.fromiter(cells, dtype=np.intp, count=len(cells))
        pred = self.conn[rows, None] + self.dp[rows]
        beta = model.betas[rows, None]
        self.pred_sat[rows] = pred >= beta
        for i, l in np.argwhere(np.abs(pred - beta) <= _SUM_TOL).tolist():
            probs, visible, covered = cells[int(rows[i])]
            hit = covered | visible[:, l]
            self.pred_sat[rows[i], l] = hit_mass(probs, hit) >= beta[i, 0]
        return newly

    def commit(self, model: PlanningModel, ap: PlacedAp) -> List[int]:
        """Serve ``ap.assigned`` from ``ap.candidate``, take it out of the
        pool and return the users this newly satisfies, in ``ap.assigned``
        order, raising each candidate's ``bound`` by the mass of the users
        that turned into its winners."""
        rows = list(ap.assigned)
        self.pool.remove(ap.candidate)
        self.assigned[rows, ap.candidate] = True
        before = self.pred_sat[rows]
        newly = self._refresh(model, rows)
        turned = self.pred_sat[rows] & ~before
        self.bound += (model.q[rows, None] * turned).sum(axis=0)
        self.coverage = model.coverage_of(self.satisfied)
        return newly


def _evaluate_tuple(
    model: PlanningModel, state: GreedyState, k: int,
    best: Optional[tuple], ceiling: float,
) -> Optional[Tuple[tuple, np.ndarray]]:
    """The key ``(mass, gain mass, -k)`` and the members of footprint
    k = l * n_tuples + ti, or None when it serves nobody or its key
    cannot beat ``best`` (None: nothing to beat).

    The members are the first ``capacity`` users the beam would satisfy
    (its winners, a satisfied user's table entries being False), then
    the largest positive mass-weighted gains among the others. The
    winners' mass is exact from the one gather; the gain mass is exactly
    0.0 when they fill the beam and at most ``ceiling`` otherwise, so a
    key that cannot win returns before the fillers are chosen."""
    capacity = model.params.capacity_per_beam
    l = k // model.n_tuples
    mem = model.members(l, k % model.n_tuples)
    wins = state.pred_sat[mem, l]
    winners = mem[wins][:capacity]
    primary = float(model.q[winners].sum())
    room = capacity - winners.size
    if best is not None and (primary, ceiling if room else 0.0, -k) < best:
        return None
    secondary = 0.0
    fillers = winners[:0]
    if room > 0:
        rest = mem[~wins]
        gains = state.dp[rest, l] * model.q[rest]
        pos = gains > 0.0
        rest, gains = rest[pos], gains[pos]
        take = np.lexsort((rest, -gains))[:room]
        fillers = rest[take]
        secondary = float(gains[take].sum())
    key = (primary, secondary, -k)
    members = np.concatenate([winners, fillers])
    if members.size == 0 or (best is not None and key < best):
        return None
    return key, members


def _per_footprint(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of ``x`` over the runs ``offsets[i]:offsets[i + 1]``, with 0
    for an empty run."""
    # reduceat reads one element for an empty run: a trailing 0 keeps
    # every offset in range, and empty runs are zeroed after
    out = np.add.reduceat(np.append(x, 0), offsets[:-1])
    out[offsets[:-1] == offsets[1:]] = 0
    return out


def _screen(
    model: PlanningModel, state: GreedyState, mounts: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per grid footprint of the candidates ``mounts``, entry
    i * n_tuples + ti for steering ti of ``mounts[i]``: the mass of its
    first ``capacity`` winners, an upper bound on its gain mass (the
    mass-weighted gains of all its other users, or 0 when the winners
    fill the beam) and its winner count, from a few passes over each
    candidate's run of ``foot_flat``. Sums run in another order than
    ``_evaluate_tuple``'s, so they match its key only to within
    rounding."""
    capacity = model.params.capacity_per_beam
    n_t = model.n_tuples
    primary = np.zeros(len(mounts) * n_t)
    bound = np.zeros(len(mounts) * n_t)
    n_wins = np.zeros(len(mounts) * n_t, dtype=np.intp)
    for i, l in enumerate(mounts):
        ks = slice(i * n_t, (i + 1) * n_t)
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
    candidates are opened best-first: by descending ``state.bound``, then
    ascending id, stopping at the first whose bound is out of reach of
    the best key found. ``_screen`` scores an opened candidate's pairs at
    once and resets its bound to their largest winner mass. Its pairs are
    visited by descending screen (newly satisfied mass, gain bound), up
    to the first whose mass is out of reach of the best key. Each other
    pair gets one ``_evaluate_tuple`` call with that key and its gain
    bound: the call gathers the pair's winners once and chooses fillers
    only when their exact mass and the bound leave the pair a chance to
    beat the key. A pair left unvisited has an exact mass below the best
    key's, so the keys compared and their tie-break are the full scan's.
    While the best key's mass is 0 no bound is out of reach, and every
    candidate is opened.
    """
    n_t = model.n_tuples
    pool = np.asarray(state.pool, dtype=np.intp)
    # the incumbent's key (mass, gain mass, -k): larger weights win, then
    # the lower (candidate, steering)
    best = members = None
    ts = np.arange(n_t)
    for l in pool[np.lexsort((pool, -state.bound[pool]))].tolist():
        # the bound and the screen each round within _SUM_TOL of the
        # exact mass
        if best is not None and state.bound[l] < best[0] - 2 * _SUM_TOL:
            break  # no candidate from here on reaches the best mass
        primary, bound, n_wins = _screen(model, state, [l])
        state.bound[l] = primary.max()
        for ti in np.lexsort((ts, -bound, -primary)).tolist():
            if n_wins[ti] == 0 and bound[ti] == 0.0:
                continue  # no winner and no positive gain: no members
            if best is not None and primary[ti] < best[0] - _SUM_TOL:
                break  # no pair of l from here on reaches the best mass
            r = _evaluate_tuple(model, state, l * n_t + ti, best,
                                bound[ti] + _SUM_TOL)
            if r is not None:
                best, members = r
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
    options: Callable[[int], List[Tuple[int, ...]]],
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
    empty set. ``options(m)`` lists user m's sets, and is asked for each
    user only past the root test: when the mass of every user in
    ``order`` does not exceed ``floor``, the search returns without one
    call, so a configuration cut there builds no options. The
    remaining-mass bound prunes branches that cannot beat the incumbent,
    which starts at ``floor``, and the first assignment reaching the
    maximum is kept, which makes the result independent of pruning
    strength.
    """
    n = len(order)
    suffix = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + qv[order[j]]
    if suffix[0] <= floor:
        return None
    choices = [options(m) for m in order]
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
        for ms in choices[j]:
            if all(cap[l] > 0 for l in ms):
                for l in ms:
                    cap[l] -= 1
                cur[j] = ms
                rec(j + 1, val + qv[order[j]])
                for l in ms:
                    cap[l] += 1
        cur[j] = ()
        rec(j + 1, val)

    rec(0, 0.0)
    return None if best_assign is None else (best_val, best_assign)


def _useful_steerings(
    model: PlanningModel, l: int, matters: int
) -> Dict[int, int]:
    """Steerings of candidate l whose footprints, cut to the users
    ``matters`` holds, no lower-index steering's contains, ascending and
    each mapped to its cut footprint. A set of users is an int, bit m
    for user m, so r is outside p when ``r & ~p`` is not 0."""
    feet = (model.members(l, ti).tolist() for ti in range(model.n_tuples))
    cut = [sum(1 << m for m in mem) & matters for mem in feet]
    return {t: r for t, r in enumerate(cut) if all(r & ~p for p in cut[:t])}


def check_uniform_count(count: int, L: int) -> None:
    """Refuse a uniform baseline of ``count`` access points on L
    candidates, with ``ValueError``, unless 1 <= count <= L. Callers
    holding only the venue check it before building the model."""
    if not 1 <= count <= L:
        raise ValueError(f"count must lie in [1, {L}], got {count}")


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

    Every set of users is one Python int, bit m for user m, wide enough
    for any user count: the demanding users holding each minimal set,
    the users each mount matters to, and each kept footprint cut to
    them; sets of mounts stay id tuples. A configuration ANDs the
    footprints its beams chose over every minimal set inside its subset
    and orders the demanding users inside any of them; the search asks
    for a user's options only past its root test, so the configurations
    cut there build none.
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

    # a set of users is an int, bit m for user m: the demanding users
    # holding each minimal set, and the users each mount matters to
    holders: Dict[Tuple[int, ...], int] = {}
    matters = [0] * L
    for m in demanding:
        for ms in choices_all[m]:
            holders[ms] = holders.get(ms, 0) | 1 << m
            for l in ms:
                matters[l] |= 1 << m
    reps = [_useful_steerings(model, l, matters[l]) for l in range(L)]
    for l in range(L):
        logger.debug(
            "exact: candidate %d keeps %d of %d steerings %s",
            l, len(reps[l]), model.n_tuples, list(reps[l]),
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
        full += len(subsets) * model.n_tuples ** k
        for subset in subsets:
            inside = [(ms, seats) for ms, seats in holders.items()
                      if all(l in subset for l in ms)]
            for steer in product(*[reps[l] for l in subset]):
                cut = {l: reps[l][ti] for l, ti in zip(subset, steer)}
                # each minimal set's holders inside all of its beams; the
                # users to order are those inside any
                reached, either = {}, 0
                for ms, seats in inside:
                    for l in ms:
                        seats &= cut[l]
                    reached[ms] = seats
                    either |= seats
                order = [m for m in demanding if either >> m & 1]
                floor = max(alpha_floor, found_total - base - _SUM_TOL)
                r = _assignment_search(
                    order,
                    lambda m: [ms for ms in choices_all[m]
                               if reached.get(ms, 0) >> m & 1],
                    model.q, subset, capacity, floor,
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
    selected = [
        PlacedAp(l, *model.steering_angles(ti), tuple(sorted(
            m for m, ms in zip(order, assign) if l in ms
        )))
        for l, ti in zip(subset, steer)
    ]
    return model.finalize(selected)


# -- uniform baseline --------------------------------------------------


def uniform_place(model: PlanningModel, count: int) -> Deployment:
    """Coverage-oblivious baseline: farthest-point spread, beams straight
    down, users served by presence mass within each footprint."""
    check_uniform_count(count, model.L)
    xy = np.array([c.position[:2] for c in model.venue.candidates])
    centroid = xy.mean(axis=0)
    d0 = np.hypot(*(xy - centroid).T)
    chosen = [int(np.argmin(d0))]
    dmin = np.full(model.L, np.inf)  # to the nearest chosen, -inf if chosen
    while len(chosen) < count:
        l = chosen[-1]
        dmin = np.minimum(dmin, np.hypot(*(xy - xy[l]).T))
        dmin[l] = -np.inf
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
    "check_uniform_count",
    "exact_place",
    "uniform_place",
]
