"""Independent re-derivations used to cross-check the package.

Everything here favors brute force over cleverness: dense angle sweeps
instead of breakpoint walks, point sampling instead of slab tests,
trapezoid integration instead of closed forms, and flat enumeration
instead of pruned search. Slow is fine; these only run in tests.

The package derives every link fact once, as arrays in ``PlanningModel``.
The scalar one-link versions live here: view-ray geometry, the unpruned
slab test, the ring walk, closed arcs and the cell-by-cell partition.
"""

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import ndtri

from mmwplan.channel import _snr, linear_to_db, main_lobe_gain
from mmwplan.errors import GeometryError, InfeasibleError
from mmwplan.metrics import approximation_bound
from mmwplan.scenarios import (
    TWO_PI,
    OrientationDistribution,
    ScenarioPartition,
    connectivity_probability,
    wrap_angle,
)
from mmwplan.solver import (
    PlacedAp,
    PlanningModel,
    _assignment_search,
    _evaluate_tuple,
    _minimal_satisfying_sets,
)
from mmwplan.venue import _blocker_arrays

SQRT2 = math.sqrt(2.0)


def _std_cdf(x):
    return 0.5 * (1.0 + math.erf(x / SQRT2))


def ids_row(n, ids):
    """The boolean row over n candidates that holds the ids ``ids``, the
    one form of a set of links that the package reads."""
    out = np.zeros(n, dtype=bool)
    out[list(ids)] = True
    return out


# ---------------------------------------------------------------------------
# angles: closed arcs on the circle

_EMPTY = "empty"
_FULL = "full"
_ARC = "arc"


@dataclass(frozen=True)
class AngularInterval:
    """A closed arc on the circle [-pi, pi].

    Arcs run counterclockwise from ``lo`` to ``hi``, wrapping through +-pi
    when lo > hi. ``kind`` distinguishes the empty set and the full circle
    from proper arcs; proper arcs always have lo != hi and both endpoints in
    [-pi, pi], so equal intervals compare equal field-wise.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0

    @staticmethod
    def empty() -> "AngularInterval":
        return AngularInterval(_EMPTY)

    @staticmethod
    def full() -> "AngularInterval":
        return AngularInterval(_FULL)

    @staticmethod
    def arc(lo: float, hi: float) -> "AngularInterval":
        lo = wrap_angle(lo)
        hi = wrap_angle(hi)
        if lo == hi:
            raise ValueError(
                "arc endpoints coincide; use empty() or full() explicitly"
            )
        return AngularInterval(_ARC, lo, hi)

    @staticmethod
    def from_center(center: float, half_width: float) -> "AngularInterval":
        """Arc of total length 2*half_width centered at ``center``.

        half_width <= 0 gives the empty set, half_width >= pi the full
        circle.
        """
        if half_width <= 0.0:
            return AngularInterval.empty()
        if half_width >= math.pi:
            return AngularInterval.full()
        return AngularInterval.arc(center - half_width, center + half_width)

    @property
    def is_empty(self) -> bool:
        return self.kind == _EMPTY

    @property
    def is_full(self) -> bool:
        return self.kind == _FULL

    def length(self) -> float:
        if self.kind == _EMPTY:
            return 0.0
        if self.kind == _FULL:
            return TWO_PI
        d = self.hi - self.lo
        return d if d > 0.0 else d + TWO_PI

    def center(self) -> float:
        """Midpoint of the arc (0.0 for empty and full by convention)."""
        if self.kind != _ARC:
            return 0.0
        return wrap_angle(self.lo + 0.5 * self.length())

    def contains(self, angle: float) -> bool:
        if self.kind == _EMPTY:
            return False
        if self.kind == _FULL:
            return True
        x = wrap_angle(angle)
        if self.lo < self.hi:
            return self.lo <= x <= self.hi
        # wrapped arc passes through +-pi
        return x >= self.lo or x <= self.hi

    def endpoints(self) -> Tuple[float, ...]:
        if self.kind != _ARC:
            return ()
        return (self.lo, self.hi)

    def segments(self) -> List[Tuple[float, float]]:
        """Decompose into non-wrapping segments of [-pi, pi].

        Useful for integrating a linear density over the arc.
        """
        if self.kind == _EMPTY:
            return []
        if self.kind == _FULL:
            return [(-math.pi, math.pi)]
        if self.lo < self.hi:
            return [(self.lo, self.hi)]
        return [(self.lo, math.pi), (-math.pi, self.hi)]


# ---------------------------------------------------------------------------
# venue: scalar view-ray geometry, one link at a time


def _direction_angles(src, dst):
    dx = dst[0] - src[0]
    dy = dst[1] - src[1]
    dz = dst[2] - src[2]
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d == 0.0:
        raise GeometryError("coincident endpoints have no view direction")
    azimuth = math.atan2(dy, dx) if (dx != 0.0 or dy != 0.0) else 0.0
    elevation = math.acos(max(-1.0, min(1.0, dz / d)))
    return azimuth, elevation


def tx_angles(venue, ap_id, gp_id):
    """Azimuth and elevation of the ray from candidate ``ap_id`` toward grid
    position ``gp_id``. Elevation is measured from +z, so a user straight
    below sits at elevation pi."""
    return _direction_angles(
        venue.candidates[ap_id].position, venue.grid_positions[gp_id].position
    )


def rx_angles(venue, gp_id, ap_id):
    """Azimuth and elevation of the ray from grid position ``gp_id`` toward
    candidate ``ap_id``. Candidates sit above every device, so the elevation
    is always in [0, pi/2)."""
    return _direction_angles(
        venue.grid_positions[gp_id].position, venue.candidates[ap_id].position
    )


def horizontal_distance(venue, gp_id, ap_id):
    g = venue.grid_positions[gp_id].position
    a = venue.candidates[ap_id].position
    return math.hypot(a[0] - g[0], a[1] - g[1])


def link_distance(venue, gp_id, ap_id):
    g = venue.grid_positions[gp_id].position
    a = venue.candidates[ap_id].position
    return math.sqrt(
        (a[0] - g[0]) ** 2 + (a[1] - g[1]) ** 2 + (a[2] - g[2]) ** 2
    )


# ---------------------------------------------------------------------------
# channel: the flat-top pattern and the transmit gain of one link


def angle_offset(a, b):
    """Absolute circular distance between two angles, in [0, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return abs(d)


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def flat_top_gain(offset_azimuth, offset_elevation, beamwidth, side_lobe_db):
    """Linear antenna gain for a boresight offset.

    The main lobe is inclusive at exactly W/2 in both axes; the azimuth
    offset is circular, the elevation offset is a plain magnitude.
    """
    half = beamwidth / 2.0
    az = angle_offset(offset_azimuth, 0.0)
    el = abs(offset_elevation)
    if az <= half and el <= half:
        return main_lobe_gain(beamwidth)
    return db_to_linear(side_lobe_db)


def _tx_gain_db(venue, params, gp_id, ap_id, steering):
    """Transmit gain of one link in dB: the main lobe when ``steering`` is
    None (an aligned beam), else the flat-top gain at the offsets of the
    boresight ``steering = (theta, phi)``, theta measured from straight
    down."""
    if steering is None:
        return linear_to_db(main_lobe_gain(params.ap_beamwidth))
    theta, phi = steering
    phi_tx, psi_tx = tx_angles(venue, ap_id, gp_id)
    vertical = horizontal_distance(venue, gp_id, ap_id) == 0.0
    az_off = 0.0 if vertical else wrap_angle(phi - phi_tx)
    el_off = theta - (math.pi - psi_tx)
    return linear_to_db(flat_top_gain(
        az_off, el_off, params.ap_beamwidth, params.side_lobe_gain_db))


# ---------------------------------------------------------------------------
# channel: pointwise activity sweep


def active_at_orientation(venue, params, gp_id, ap_id, phi_body,
                          steering=None):
    """Decide link activity at one body orientation from first principles.

    Walks the whole budget chain with scalar math: geometric occlusion,
    self-blockage window, receive cone, per-class path loss, threshold.
    """
    gp = venue.grid_positions[gp_id]
    d = link_distance(venue, gp_id, ap_id)
    phi_rx, psi_rx = rx_angles(venue, gp_id, ap_id)
    vertical = horizontal_distance(venue, gp_id, ap_id) == 0.0
    occluded = ray_occluded(venue, gp_id, ap_id)

    delta = abs(wrap_angle(phi_body - phi_rx))
    los = (not occluded) and delta <= params.self_block_half_angle

    elev_ok = abs(gp.elevation - psi_rx) <= params.md_beamwidth / 2.0
    rx_main = elev_ok and (vertical or delta <= params.md_beamwidth / 2.0)
    rx_db = (10.0 * math.log10(main_lobe_gain(params.md_beamwidth))
             if rx_main else params.side_lobe_gain_db)
    tx_db = _tx_gain_db(venue, params, gp_id, ap_id, steering)

    exponent = params.alpha_los if los else params.alpha_nlos
    pl = params.kappa_db + 10.0 * exponent * math.log10(d)
    snr = params.tx_power_dbm + tx_db + rx_db - pl - params.noise_power_dbm
    return snr >= params.snr_threshold_db


def sweep_mismatches(venue, params, gp_id, ap_id, n=3600, margin=1e-6,
                     steering=None):
    """Count grid orientations where the pointwise sweep disagrees with the
    arc of ``link_arc``, ignoring points within ``margin`` of an endpoint
    where float boundaries legitimately differ."""
    iv = link_arc(venue, params, gp_id, ap_id, steering=steering)
    ends = []
    for a, b in iv.segments():
        ends.extend((a, b))
    bad = 0
    for i in range(n):
        phi = -math.pi + (2.0 * math.pi) * (i + 0.5) / n
        if any(abs(wrap_angle(phi - e)) < margin for e in ends):
            continue
        truth = active_at_orientation(venue, params, gp_id, ap_id, phi,
                                      steering=steering)
        if truth != iv.contains(phi):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# venue: occlusion by point sampling


def occluded_by_sampling(venue, gp_id, ap_id, n=10000):
    """True when any interior sample of the device-candidate segment lands
    inside a prism not owned by the user."""
    p = np.array(venue.grid_positions[gp_id].position)
    c = np.array(venue.candidates[ap_id].position)
    ts = (np.arange(n) + 0.5) / n
    pts = p[None, :] + ts[:, None] * (c - p)[None, :]
    for prism in venue.blockers:
        if prism.owner == gp_id:
            continue
        c, half = np.array(prism.center), 0.5 * np.array(prism.size)
        inside = np.all((pts >= c - half) & (pts <= c + half), axis=1)
        if inside.any():
            return True
    return False


# ---------------------------------------------------------------------------
# venue: one slab test per (seat, candidate) pair


def segment_hits_boxes(p0, p1, lo, hi):
    """Slab test of the one open segment (p0, p1) against closed boxes,
    one axis branch at a time. Touching a box face counts as a hit."""
    if lo.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    d = p1 - p0
    t_near = np.full(lo.shape[0], -np.inf)
    t_far = np.full(lo.shape[0], np.inf)
    miss = np.zeros(lo.shape[0], dtype=bool)
    for ax in range(3):
        if d[ax] == 0.0:
            miss |= (p0[ax] < lo[:, ax]) | (p0[ax] > hi[:, ax])
        else:
            ta = (lo[:, ax] - p0[ax]) / d[ax]
            tb = (hi[:, ax] - p0[ax]) / d[ax]
            t_near = np.maximum(t_near, np.minimum(ta, tb))
            t_far = np.minimum(t_far, np.maximum(ta, tb))
    return ~miss & (t_near <= t_far) & (t_far > 0.0) & (t_near < 1.0)


def ray_occluded(venue, gp_id, ap_id):
    """Whether a blocker not owned by ``gp_id`` cuts the open segment from
    the device to the candidate, tested against every prism, unpruned."""
    lo, hi, owner = _blocker_arrays(venue)
    if lo.shape[0] == 0:
        return False
    keep = owner != gp_id
    p0 = np.asarray(venue.grid_positions[gp_id].position, dtype=float)
    p1 = np.asarray(venue.candidates[ap_id].position, dtype=float)
    return bool(segment_hits_boxes(p0, p1, lo[keep], hi[keep]).any())


def occlusion_matrix(venue):
    """``ray_occluded`` for every (seat, candidate) pair, one pair at a
    time, with the prism arrays built once."""
    lo, hi, owner = _blocker_arrays(venue)
    occ = np.zeros((venue.n_grid, venue.n_candidates), dtype=bool)
    if lo.shape[0] == 0:
        return occ
    for m, gp in enumerate(venue.grid_positions):
        keep = owner != m
        blo, bhi = lo[keep], hi[keep]
        p0 = np.asarray(gp.position, dtype=float)
        for l, cand in enumerate(venue.candidates):
            p1 = np.asarray(cand.position, dtype=float)
            occ[m, l] = bool(segment_hits_boxes(p0, p1, blo, bhi).any())
    return occ


# ---------------------------------------------------------------------------
# channel: one ring walk per link


def active_half_width(params, distance, psi_rx, vertical_ray, occluded,
                      device_tilt, tx_gain_db):
    """Active half-width of one link by walking its rings outward with the
    package's own budget ``_snr`` until one fails."""
    gamma = params.snr_threshold_db
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    rx_side_db = params.side_lobe_gain_db
    elev_ok = abs(device_tilt - psi_rx) <= params.md_beamwidth / 2.0
    half_block = None if occluded else params.self_block_half_angle
    if not elev_ok:
        half_cone = None
    elif vertical_ray:
        half_cone = math.pi
    else:
        half_cone = params.md_beamwidth / 2.0
    cuts = sorted(
        {c for c in (half_block, half_cone) if c is not None and c < math.pi}
    )
    cuts.append(math.pi)
    reach = 0.0
    for cut in cuts:
        los = half_block is not None and cut <= half_block
        main = half_cone is not None and cut <= half_cone
        rx_db = rx_main_db if main else rx_side_db
        if _snr(params, math.log10(distance), tx_gain_db, rx_db,
                los) >= gamma:
            reach = cut
        else:
            break
    return reach


def model_reach(model):
    """``active_half_width`` for every pair of a model, from the model's
    own geometry and occlusion, at the aligned transmit gain."""
    tx_main_db = linear_to_db(main_lobe_gain(model.params.ap_beamwidth))
    reach = np.zeros((model.M, model.L))
    for m in range(model.M):
        tilt = model.venue.grid_positions[m].elevation
        for l in range(model.L):
            reach[m, l] = active_half_width(
                model.params,
                float(model.dist[m, l]),
                float(model.psi_rx[m, l]),
                bool(model.vertical[m, l]),
                bool(model.occluded[m, l]),
                tilt,
                tx_main_db,
            )
    return reach


def link_reach(venue, params, gp_id, ap_id, steering=None):
    """Device-to-candidate azimuth and active half-width of one link at
    zero shadowing, from the scalar geometry, ``ray_occluded`` and the
    ring walk. ``steering`` as in ``_tx_gain_db``."""
    d = link_distance(venue, gp_id, ap_id)
    phi_rx, psi_rx = rx_angles(venue, gp_id, ap_id)
    reach = active_half_width(
        params, d, psi_rx, horizontal_distance(venue, gp_id, ap_id) == 0.0,
        ray_occluded(venue, gp_id, ap_id),
        venue.grid_positions[gp_id].elevation,
        _tx_gain_db(venue, params, gp_id, ap_id, steering),
    )
    return phi_rx, reach


def link_arc(venue, params, gp_id, ap_id, steering=None):
    """Arc of body orientations on which one link clears the threshold:
    empty when it is never on, the full circle when it is always on."""
    return AngularInterval.from_center(
        *link_reach(venue, params, gp_id, ap_id, steering=steering))


# ---------------------------------------------------------------------------
# scenarios: one cell and one arc at a time


def mass_between(dist, a, b):
    """Probability mass of [a, b] for -pi <= a <= b <= pi."""
    if b <= a:
        return 0.0
    num = _std_cdf((b - dist.mean) / dist.std) - _std_cdf(
        (a - dist.mean) / dist.std)
    trunc = _std_cdf((math.pi - dist.mean) / dist.std) - _std_cdf(
        (-math.pi - dist.mean) / dist.std)
    return num / trunc


def circular_mass(dist, interval):
    """Probability that the orientation falls inside an arc."""
    if interval.is_empty:
        return 0.0
    if interval.is_full:
        return 1.0
    return sum(mass_between(dist, a, b) for a, b in interval.segments())


def build_scenarios(venue, gp_id, arcs):
    """Partition of one seat's orientation circle from the active arc of
    each of its links (``arcs[l]`` for candidate l): sorted arc endpoints,
    membership by ``AngularInterval.contains`` at each cell midpoint, and
    masses by ``circular_mass``."""
    dist = OrientationDistribution.for_gp(venue, gp_id)
    always = np.array([arc.is_full for arc in arcs], dtype=bool)
    proper = [(ap, arc) for ap, arc in enumerate(arcs)
              if not (arc.is_empty or arc.is_full)]

    boundaries = sorted({e for _, arc in proper for e in arc.endpoints()})
    if not boundaries:
        return ScenarioPartition(gp_id, boundaries, np.array([1.0]),
                                 always[None, :])

    n = len(boundaries)
    probs = []
    visible = np.repeat(always[None, :], n, axis=0)
    for i in range(n):
        lo = boundaries[i]
        hi = boundaries[(i + 1) % n]
        cell_arc = AngularInterval.arc(lo, hi)
        mid = wrap_angle(lo + 0.5 * cell_arc.length())
        for ap, arc in proper:
            if arc.contains(mid):
                visible[i, ap] = True
        probs.append(circular_mass(dist, cell_arc))
    return ScenarioPartition(gp_id, boundaries, np.array(probs), visible)


def model_partitions(model):
    """Every seat's partition built from the arcs of the model's
    azimuths and reach."""
    return [
        build_scenarios(model.venue, m, [
            AngularInterval.from_center(float(model.phi_rx[m, l]),
                                        float(model.reach[m, l]))
            for l in range(model.L)
        ])
        for m in range(model.M)
    ]


def cell_arcs(part):
    """The cells of a partition as arcs, cell i from ``bounds[i]`` to the
    next boundary."""
    b, n = part.bounds, len(part.bounds)
    if n == 0:
        return [AngularInterval.full()]
    return [AngularInterval.arc(b[i], b[(i + 1) % n]) for i in range(n)]


def same_partition(a, b):
    """Bit-equal boundaries and cell masses, and equal visibility rows
    (an always-on link's column is set in every one)."""
    return (a.gp == b.gp
            and [float(x).hex() for x in a.bounds]
            == [float(x).hex() for x in b.bounds]
            and a.visible.shape == b.visible.shape
            and (a.visible == b.visible).all()
            and a.cell_probs.tobytes() == b.cell_probs.tobytes())


# ---------------------------------------------------------------------------
# orientation distribution: numeric integration


def trunc_mass_numeric(mean, std, a, b, n=200000):
    """Trapezoid mass of the renormalized Gaussian on [a, b] within
    [-pi, pi] without using any cdf."""
    a = max(a, -math.pi)
    b = min(b, math.pi)
    if b <= a:
        return 0.0
    xs = np.linspace(a, b, n)
    pdf = np.exp(-0.5 * ((xs - mean) / std) ** 2) / (
        std * math.sqrt(2.0 * math.pi))
    num = np.trapezoid(pdf, xs)
    zs = np.linspace(-math.pi, math.pi, n)
    zpdf = np.exp(-0.5 * ((zs - mean) / std) ** 2) / (
        std * math.sqrt(2.0 * math.pi))
    return float(num / np.trapezoid(zpdf, zs))


def union_probability(venue, params, gp_id, ap_ids):
    """P(any assigned link active) by exact arc union plus erf masses.

    Collects the per-link active arcs, merges them into disjoint linear
    segments of [-pi, pi], and integrates the truncated Gaussian over the
    merged set with the erf closed form. Any always-on link makes the
    union the sure event.
    """
    gp = venue.grid_positions[gp_id]
    mean, std = gp.facing, gp.orientation_std
    denom = _std_cdf((math.pi - mean) / std) - _std_cdf(
        (-math.pi - mean) / std)

    segs = []
    for ap in ap_ids:
        iv = link_arc(venue, params, gp_id, ap)
        if iv.is_full:
            return 1.0
        segs.extend(iv.segments())
    if not segs:
        return 0.0
    segs.sort()
    merged = [list(segs[0])]
    for a, b in segs[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    total = 0.0
    for a, b in merged:
        total += _std_cdf((b - mean) / std) - _std_cdf((a - mean) / std)
    return total / denom


def pattern_connectivity(partition, ap_ids):
    """P(at least one link active) by visibility-pattern bookkeeping.

    Enumerates every subset of the assigned ids as a candidate activity
    pattern, accumulates the mass of cells realizing exactly that pattern,
    and sums the non-empty ones. Exponential in |S| on purpose.
    """
    ids = list(ap_ids)
    masses = {}
    for prob, row in zip(partition.cell_probs.tolist(), partition.visible):
        pat = tuple(bool(row[l]) for l in ids)
        masses[pat] = masses.get(pat, 0.0) + prob
    return sum(p for pat, p in masses.items() if any(pat))


# ---------------------------------------------------------------------------
# exact solver: flat enumeration


def reach_table(model):
    """``reach[l, ti, m]``: whether grid steering ti of mount l reaches
    user m, from ``footprint`` one steering at a time."""
    reach = np.zeros((model.L, model.n_tuples, model.M), dtype=bool)
    for l in range(model.L):
        for ti in range(model.n_tuples):
            reach[l, ti, model.footprint(l, *model.steering_angles(ti))] = True
    return reach


def flat_minimum_count(venue, params, alpha, beta, kmax=3):
    """Unpruned minimum-AP search.

    Every candidate subset, every steering product, every per-user serving
    subset; capacity checked by direct counting. A steering product whose
    per-user reach patterns match one already scored for the same subset
    has the same serving options, so it is skipped. Returns (count, best
    normalized coverage) or None when nothing up to ``kmax`` reaches the
    target. Exponential everywhere, so keep instances tiny.
    """
    model = PlanningModel(venue, params, beta)
    M, L = model.M, model.L
    T = params.capacity_per_beam
    q = model.q
    total = float(q.sum())
    reach = reach_table(model)

    for k in range(0, kmax + 1):
        best_cov = None
        for cand_subset in itertools.combinations(range(L), k):
            # bit m * k + i of a pattern: the subset's i-th mount reaches m
            codes = [
                [sum(1 << (m * k + i) for m in np.flatnonzero(row))
                 for row in reach[l]]
                for i, l in enumerate(cand_subset)
            ]
            scored = set()
            for steer in itertools.product(*codes):
                pattern = sum(steer)
                if pattern in scored:
                    continue
                scored.add(pattern)
                opts = []
                for m in range(M):
                    avail = pattern >> (m * k) & ((1 << k) - 1)
                    probs = {}
                    for s in range(1 << k):
                        if (s & avail) != s:
                            continue
                        ids = [cand_subset[i] for i in range(k)
                               if s >> i & 1]
                        probs[s] = connectivity_probability(
                            model.partitions[m], ids_row(L, ids))
                    opts.append(probs)
                for choice in itertools.product(*[sorted(o) for o in opts]):
                    load = [0] * k
                    over = False
                    for s in choice:
                        for i in range(k):
                            if s >> i & 1:
                                load[i] += 1
                                if load[i] > T:
                                    over = True
                    if over:
                        continue
                    cov = sum(q[m] for m, s in enumerate(choice)
                              if opts[m][s] >= model.betas[m])
                    if cov / total >= alpha:
                        if best_cov is None or cov > best_cov:
                            best_cov = cov
        if best_cov is not None:
            return k, best_cov / total
    return None


def exact_place_unpruned(model, alpha):
    """``exact_place`` with every steering of every mount in the product.

    The same subset order, assignment search and strict-improvement
    tie-break as the solver, without its size guard or steering pruning,
    so the two must return identical deployments.
    Raises ``InfeasibleError`` when no subset reaches ``alpha``.
    """
    M, L, T = model.M, model.L, model.params.capacity_per_beam
    free = model.betas <= 0.0
    base = float(model.q[free].sum())
    choices_all = {m: _minimal_satisfying_sets(model, m) for m in range(M)}
    demanding = [int(m) for m in model.gp_order
                 if not free[m] and choices_all[m]]

    reach = reach_table(model)
    found = None
    for k in range(0, L + 1):
        for subset in itertools.combinations(range(L), k):
            for steer in itertools.product(range(model.n_tuples), repeat=k):
                allowed = [set() for _ in range(M)]
                for l, ti in zip(subset, steer):
                    for m in np.flatnonzero(reach[l, ti]):
                        allowed[m].add(l)
                order, choices = [], {}
                for m in demanding:
                    opts = [ms for ms in choices_all[m]
                            if set(ms) <= allowed[m]]
                    if opts:
                        order.append(m)
                        choices[m] = opts
                # every threshold test reads coverage_of of a seat mask;
                # the mass of a mask never exceeds that of a superset
                z = free.copy()
                z[order] = True
                if model.normalized(model.coverage_of(z)) < alpha:
                    continue
                # a floor of -1 keeps every assignment, the empty one too
                mass, assign = _assignment_search(
                    order, choices, model.q, subset, T, -1.0)
                val = base + mass
                z = free.copy()
                z[[m for m, ms in zip(order, assign) if ms]] = True
                if model.normalized(model.coverage_of(z)) < alpha:
                    continue
                if found is None or val > found[0]:
                    found = (val, subset, steer, order, assign)
        if found is not None:
            break
    if found is None:
        raise InfeasibleError("no candidate subset reaches the target")
    _, subset, steer, order, assign = found
    by_ap = {l: [] for l in subset}
    for m, ms in zip(order, assign):
        for l in ms:
            by_ap[l].append(m)
    selected = []
    for l, ti in zip(subset, steer):
        theta, phi = model.steering_angles(ti)
        selected.append(PlacedAp(candidate=l, theta=theta, phi=phi,
                                 assigned=tuple(sorted(by_ap[l]))))
    return model.finalize(selected)


# ---------------------------------------------------------------------------
# greedy subproblem: slow rescan


def iteration_key_oracle(model, l, ti, assigned, conn, satisfied):
    """Re-derive one beam's (new mass, gain mass, members) with scalar
    arithmetic, mirroring the documented member policy: users the beam
    newly satisfies first in descending mass order, then unsatisfied users
    by mass-weighted connectivity gain, up to capacity."""
    T = model.params.capacity_per_beam
    beta = model.betas
    mem = [m for m in model.footprint(l, *model.steering_angles(ti))
           if not satisfied[m]]
    if not mem:
        return None
    winners, rest = [], []
    for m in mem:
        part = model.partitions[m]
        ids = sorted({int(k) for k in np.flatnonzero(assigned[m])} | {l})
        after = connectivity_probability(part, ids_row(model.L, ids))
        gain = after - conn[m]
        if after >= beta[m]:
            winners.append(m)
        else:
            rest.append((m, gain * model.q[m]))
    winners = winners[:T]
    primary = float(sum(model.q[m] for m in winners))
    room = T - len(winners)
    fillers, secondary = [], 0.0
    if room > 0:
        pos = [(m, g) for m, g in rest if g > 0.0]
        pos.sort(key=lambda t: (-t[1], t[0]))
        fillers = [m for m, _ in pos[:room]]
        secondary = float(sum(g for _, g in pos[:room]))
    members = winners + fillers
    if not members:
        return None
    return primary, secondary, members


def iteration_best_scan(model, state):
    """The greedy step without the screen: ``_evaluate_tuple`` on every
    (candidate, steering) pair of the state's pool over its tables, the
    larger key winning and then the lower (candidate, steering). Returns
    what ``greedy_iteration_best`` returns."""
    best = None
    for l in state.pool:
        for ti in range(model.n_tuples):
            r = _evaluate_tuple(model, state, l, ti)
            if r is not None and (best is None or r[:2] > best[:2] or (
                r[:2] == best[:2] and (l, ti) < best[2:4]
            )):
                best = (*r[:2], l, ti, r[2])
    if best is None:
        return None
    primary, secondary, l, ti, members = best
    ap = PlacedAp(l, *model.steering_angles(ti),
                  tuple(sorted(members.tolist())))
    return ap, primary, secondary


def greedy_tables(model, state):
    """The greedy step tables rebuilt from scratch: for each open user
    and every candidate, the cell mass that candidate would add to the
    user's covered cells, and whether the user's assigned set with that
    candidate added meets the user's target by ``connectivity_probability``,
    the test a commit applies."""
    dp = np.zeros((model.M, model.L))
    pred_sat = np.zeros((model.M, model.L), dtype=bool)
    for m in np.flatnonzero(~state.satisfied):
        part = model.partitions[m]
        uncovered = ~part.visible[:, state.assigned[m]].any(axis=1)
        dp[m] = part.cell_probs @ (part.visible & uncovered[:, None])
        for l in range(model.L):
            row = state.assigned[m].copy()
            row[l] = True
            pred_sat[m, l] = (connectivity_probability(part, row)
                              >= model.betas[m])
    return dp, pred_sat


# ---------------------------------------------------------------------------
# metrics: the price argument behind the greedy bound

AUDIT_TOL = 1e-9


def audit_greedy_prices(greedy, exact, venue):
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
    m_star = {m for m, z in enumerate(exact.satisfied) if z}

    prices = {}
    per_iteration = []
    flags = []
    a_violations = []
    for i, it in enumerate(greedy.iterations):
        newly = it.newly_satisfied
        row = {
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
                if 1.0 / max(q_members) > price + AUDIT_TOL:
                    a_violations.append(i)
        per_iteration.append(row)

    lhs_b = sum(p for m, p in prices.items() if m in m_star)
    rhs_b = sum(
        prices.get(m, 0.0)
        for ap in exact.selected
        for m in ap.assigned
    )
    check_b_ok = lhs_b <= rhs_b + AUDIT_TOL

    bound = approximation_bound(greedy, exact, venue)
    check_c_ok = None
    if bound["comparable"] and math.isfinite(bound["analytic_ratio"]):
        check_c_ok = (
            bound["l_star_circ"]
            <= bound["analytic_ratio"] * bound["l_star"] + AUDIT_TOL
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



# ---------------------------------------------------------------------------
# Monte Carlo: the sampler and the per-sample replay


def sample_orientations(rng, dist, n):
    """The orientation sampler as one expression: inverse-CDF draws from
    the Gaussian renormalized to [-pi, pi]."""
    lo = _std_cdf((-math.pi - dist.mean) / dist.std)
    hi = _std_cdf((math.pi - dist.mean) / dist.std)
    u = rng.random(n)
    draws = dist.mean + dist.std * ndtri(lo + u * (hi - lo))
    return np.clip(draws, -math.pi, math.pi)


def replay_success(params, mc, rng, phis, device_tilt, rows):
    """Per-sample connectivity of a seat's links (``rows`` as the package
    replay takes them) for given orientations, every sample through the
    whole antenna-gain and SNR chain at the main-lobe transmit gain.

    Mirrors the analytic classifier exactly at zero shadowing: torso
    blockage and the receive cone are both windows around the
    device-to-candidate azimuth, boundaries inclusive.
    """
    gamma = params.snr_threshold_db
    tx_gain_db = linear_to_db(main_lobe_gain(params.ap_beamwidth))
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    half_cone = params.md_beamwidth / 2.0
    ok = np.zeros(phis.shape[0], dtype=bool)
    for distance, phi_rx, psi_rx, vertical, occluded in zip(*rows):
        d = phis - phi_rx
        delta = np.abs(np.arctan2(np.sin(d), np.cos(d)))
        los = (not occluded) & (delta <= params.self_block_half_angle)
        elev_ok = abs(device_tilt - psi_rx) <= half_cone
        if not elev_ok:
            main = np.zeros_like(los)
        elif vertical:
            main = np.ones_like(los)
        else:
            main = delta <= half_cone
        alpha = np.where(los, params.alpha_los, params.alpha_nlos)
        shadow = 0.0
        if mc.sample_shadowing:
            chi_los = rng.normal(0.0, params.sigma_los_db, phis.shape[0])
            chi_nlos = rng.normal(0.0, params.sigma_nlos_db, phis.shape[0])
            shadow = np.where(los, chi_los, chi_nlos)
        loss = (
            params.kappa_db
            + 10.0 * alpha * math.log10(distance)
            + shadow
        )
        rx_db = np.where(main, rx_main_db, params.side_lobe_gain_db)
        snr = (
            params.tx_power_dbm
            + tx_gain_db
            + rx_db
            - loss
            - params.noise_power_dbm
        )
        ok |= snr >= gamma
    return ok


def seat_rate(model, mc, m, links):
    """Empirical connectivity of seat m over its links to the candidates
    of the boolean row ``links``: the seat's Philox stream keyed by
    [seed, m], every draw through ``sample_orientations`` and
    ``replay_success``, always-on links included."""
    if not links.any():
        return 0.0
    gp = model.venue.grid_positions[m]
    rng = np.random.Generator(
        np.random.Philox(key=np.array([mc.seed, m], dtype=np.uint64))
    )
    dist = OrientationDistribution(mean=gp.facing, std=gp.orientation_std)
    phis = sample_orientations(rng, dist, mc.n_samples)
    rows = tuple(
        a[m, links]
        for a in (model.dist, model.phi_rx, model.psi_rx, model.vertical,
                  model.occluded)
    )
    ok = replay_success(model.params, mc, rng, phis, gp.elevation, rows)
    return float(ok.sum()) / mc.n_samples
