"""Independent re-derivations used to cross-check the package.

Everything here favors brute force over cleverness: dense angle sweeps
instead of breakpoint walks, point sampling instead of slab tests,
trapezoid integration instead of closed forms, and flat enumeration
instead of pruned search. Slow is fine; these only run in tests.
"""

import itertools
import math

import numpy as np

from mmwplan.angles import wrap_angle
from mmwplan.channel import (
    ChannelParams,
    flat_top_gain,
    link_profile,
    main_lobe_gain,
)
from mmwplan.errors import InfeasibleError
from mmwplan.scenarios import connectivity_probability
from mmwplan.solver import (
    PlacedAp,
    PlanningModel,
    _assignment_search,
    _minimal_satisfying_sets,
)
from mmwplan.venue import (
    Venue,
    horizontal_distance,
    link_distance,
    nadir_angle,
    ray_occluded,
    rx_angles,
    tx_angles,
)

SQRT2 = math.sqrt(2.0)


def _std_cdf(x):
    return 0.5 * (1.0 + math.erf(x / SQRT2))


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

    if steering is None:
        tx_db = 10.0 * math.log10(main_lobe_gain(params.ap_beamwidth))
    else:
        theta, phi = steering
        phi_tx, psi_tx = tx_angles(venue, ap_id, gp_id)
        az_off = 0.0 if vertical else wrap_angle(phi - phi_tx)
        el_off = theta - nadir_angle(psi_tx)
        tx_db = 10.0 * math.log10(flat_top_gain(
            az_off, el_off, params.ap_beamwidth, params.side_lobe_gain_db))

    exponent = params.alpha_los if los else params.alpha_nlos
    pl = params.kappa_db + 10.0 * exponent * math.log10(d)
    snr = params.tx_power_dbm + tx_db + rx_db - pl - params.noise_power_dbm
    return snr >= params.snr_threshold_db + params.fade_margin_db


def sweep_mismatches(venue, params, gp_id, ap_id, n=3600, margin=1e-6,
                     steering=None):
    """Count grid orientations where the pointwise sweep disagrees with the
    classified interval, ignoring points within ``margin`` of an endpoint
    where float boundaries legitimately differ."""
    prof = link_profile(venue, params, gp_id, ap_id, steering=steering)
    iv = prof.effective_interval
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
        lo, hi = prism.bounds()
        inside = np.all((pts >= np.array(lo)) & (pts <= np.array(hi)),
                        axis=1)
        if inside.any():
            return True
    return False


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
        prof = link_profile(venue, params, gp_id, ap)
        iv = prof.effective_interval
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
    for cell, row in zip(partition.cells, partition.visible):
        vis = row | partition.always_on
        pat = tuple(bool(vis[l]) for l in ids)
        masses[pat] = masses.get(pat, 0.0) + cell.prob
    return sum(p for pat, p in masses.items() if any(pat))


# ---------------------------------------------------------------------------
# exact solver: flat enumeration


def flat_minimum_count(venue, params, alpha, beta, kmax=3):
    """Unpruned minimum-AP search.

    Every candidate subset, every steering product, every per-user serving
    subset; capacity checked by direct counting. Returns (count, best
    normalized coverage) or None when nothing up to ``kmax`` reaches the
    target. Exponential everywhere, so keep instances tiny.
    """
    model = PlanningModel(venue, params, beta)
    M, L = model.M, model.L
    T = params.capacity_per_beam
    q = model.q
    total = float(q.sum())

    for k in range(0, kmax + 1):
        best_cov = None
        for cand_subset in itertools.combinations(range(L), k):
            for steer in itertools.product(range(model.n_tuples), repeat=k):
                opts = []
                for m in range(M):
                    avail = 0
                    for i, (l, ti) in enumerate(zip(cand_subset, steer)):
                        if model.foot_ok[l, ti, m]:
                            avail |= 1 << i
                    probs = {}
                    for s in range(1 << k):
                        if (s & avail) != s:
                            continue
                        ids = [cand_subset[i] for i in range(k)
                               if s >> i & 1]
                        probs[s] = connectivity_probability(
                            model.partitions[m], ids)
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


def exact_place_unpruned(venue, params, alpha, betas):
    """``exact_place`` with every steering of every mount in the product.

    The same subset order, assignment search and strict-improvement
    tie-break as the solver, without its size guard, parallel lane or
    steering pruning, so the two must return identical deployments.
    Raises ``InfeasibleError`` when no subset reaches ``alpha``.
    """
    model = PlanningModel(venue, params, betas)
    M, L, T = model.M, model.L, params.capacity_per_beam
    free = model.betas <= 0.0
    base = float(model.q[free].sum())
    choices_all = {m: _minimal_satisfying_sets(model, m) for m in range(M)}
    demanding = [int(m) for m in model.gp_order
                 if not free[m] and choices_all[m]]

    found = None
    for k in range(0, L + 1):
        for subset in itertools.combinations(range(L), k):
            for steer in itertools.product(range(model.n_tuples), repeat=k):
                allowed = [set() for _ in range(M)]
                for l, ti in zip(subset, steer):
                    for m in np.flatnonzero(model.foot_ok[l, ti]):
                        allowed[m].add(l)
                order, choices, potential = [], {}, base
                for m in demanding:
                    opts = [ms for ms in choices_all[m]
                            if set(ms) <= allowed[m]]
                    if opts:
                        order.append(m)
                        choices[m] = opts
                        potential += float(model.q[m])
                if model.normalized(potential) < alpha:
                    continue
                val, assign = _assignment_search(
                    order, choices, model.q, subset, T, base)
                if assign is None or model.normalized(val) < alpha:
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
        after = connectivity_probability(part, ids)
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


def iteration_best_oracle(model, pool, assigned, conn, satisfied):
    """Exhaustive argmax over the pool with the documented tie-break."""
    best = None
    for l in pool:
        for ti in range(model.n_tuples):
            r = iteration_key_oracle(model, l, ti, assigned, conn,
                                     satisfied)
            if r is None:
                continue
            key = (r[0], r[1])
            if (best is None or key > best[0]
                    or (key == best[0] and (l, ti) < best[1])):
                best = (key, (l, ti), r[2])
    return best
