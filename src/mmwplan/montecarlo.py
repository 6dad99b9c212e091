"""Monte Carlo validation of the analytic connectivity machinery.

Samples device orientations (and optionally per-link shadowing), replays
the link budget on them, and compares the empirical success rates against
the closed-form scenario probabilities.

Without shadowing the replay reads a seat's rows of the planning model's
``phi_rx`` and ``reach``. The link budget never rises as the offset from
the device-to-candidate azimuth grows (line of sight beats blocked from
1 m, the main lobe beats the side lobe), so a link is on exactly where
that offset is at most its reach. A seat with an always-on link (reach
pi) has rate 1.0 and draws nothing. Otherwise the sampler's map from a
uniform to an orientation is monotone, so each window edge ``phi_rx -/+
reach``, and the seam at +-pi, is a threshold in uniform space. Every
uniform is compared with those thresholds; only the uniforms inside a
certified band around one (a band whose ends the sampler's own chain puts
farther than ``_BAND_MARGIN`` from the edge) run ``ndtri`` and the exact
offset test ``wrapped_offset(phis, phi_rx) <= reach``. So every boolean
is the one the per-sample chain gives.

With shadowing each sample draws its own deviate, and the chain runs
sample by sample: ``channel._clears`` on the seat's rows of ``dist``,
``phi_rx``, ``psi_rx``, ``vertical`` and ``occluded``. Either way the
transmit gain is the main lobe's: a served user lies inside its beam, as
``evaluate_coverage`` checks before any draw.

Reproducibility contract: the generator is Philox (counter-based); the
per-user substream is seeded with key = [seed, gp_id], so a user's stream
does not depend on which users are replayed or in what order. Per user,
the orientation uniforms are drawn first as one block; with shadowing
enabled, each replayed link then draws one block of line-of-sight
deviates followed by one block of blocked deviates, links in ascending
candidate order. Both facts are recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelParams, _clears, _log10
from .inputs import MC_CONFIG, check
from .scenarios import (
    OrientationDistribution,
    _std_normal_cdf,
    connectivity_probability,
    wrapped_offset,
)
from .solver import Deployment, PlanningModel, evaluate_coverage

_GENERATOR = "philox4x64"
_SUBSTREAM_RULE = "key = [seed, gp_id]"
# a band in uniform space ends where the sampler puts the orientation this
# far from its edge
_BAND_MARGIN = 1e-7

# a seat's link rows, one element per link: (dist, phi_rx, psi_rx,
# vertical, occluded), each the model's array of that name at the seat
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# a link on for offsets up to its reach and off past it: (phi_rx, reach),
# with 0 < reach < pi
Window = Tuple[float, float]


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 20_000
    seed: int = 0
    sample_shadowing: bool = False

    def __post_init__(self) -> None:
        check(MC_CONFIG, self)


def _substream(seed: int, gp_id: int) -> np.random.Generator:
    key = np.array([seed, gp_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """A seat's block of orientation uniforms, the first draw of its
    stream. Raises ``ValueError`` when n of them do not fit in memory."""
    try:
        return rng.random(n)
    except MemoryError:
        raise ValueError(
            f"n_samples={n} orientation draws do not fit in memory; "
            "lower --samples"
        ) from None


def ndtri(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``scipy.special.ndtri``, imported on the first call: the replay is
    scipy's only user, so ``plan`` and ``compare`` start without it."""
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(x, out=out)


def _cdf_range(dist: OrientationDistribution) -> Tuple[float, float]:
    """The untruncated Gaussian's CDF at -pi and at pi."""
    return (_std_normal_cdf((-math.pi - dist.mean) / dist.std),
            _std_normal_cdf((math.pi - dist.mean) / dist.std))


def _orientations(u: np.ndarray, dist: OrientationDistribution) -> np.ndarray:
    """The sampler's map from uniforms to orientations, in u's buffer:
    ``mean + std * ndtri(lo + u * (hi - lo))``, clipped to [-pi, pi]. IEEE
    addition and multiplication commute, so the bits match that
    expression; every step is monotone in u."""
    lo, hi = _cdf_range(dist)
    u *= hi - lo
    u += lo
    ndtri(u, out=u)
    u *= dist.std
    u += dist.mean
    return np.clip(u, -math.pi, math.pi, out=u)


def _sample_orientations(
    rng: np.random.Generator, dist: OrientationDistribution, n: int
) -> np.ndarray:
    """Inverse-CDF draws from the Gaussian renormalized to [-pi, pi]."""
    return _orientations(_uniforms(rng, n), dist)


def _window_edges(phi_rx: float, half: float) -> Tuple[float, float]:
    """The edges ``phi_rx -/+ half`` of a window with ``half < pi``,
    wrapped into [-pi, pi]."""
    lo, hi = phi_rx - half, phi_rx + half
    if lo < -math.pi:
        lo += 2.0 * math.pi
    elif hi > math.pi:
        hi -= 2.0 * math.pi
    return lo, hi


def _windows(
    phi_rx: np.ndarray, reach: np.ndarray
) -> Optional[List[Window]]:
    """The windows of a seat's links from their azimuths and active
    half-widths, or None when a link is always on (the replay's own rule,
    kept apart from the partition it checks). Never-on links are left out."""
    if (reach >= math.pi).any():
        return None
    return [(p, r) for p, r in zip(phi_rx.tolist(), reach.tolist())
            if r > 0.0]


def _decide(phis: np.ndarray, windows: List[Window]) -> np.ndarray:
    """Per-sample connectivity without shadowing at orientations
    ``phis``: a link clears where the offset is at most its reach."""
    ok = np.zeros(phis.shape[0], dtype=bool)
    for phi_rx, reach in windows:
        ok |= wrapped_offset(phis, phi_rx) <= reach
    return ok


def _replay_shadowed(
    params: ChannelParams,
    rng: np.random.Generator,
    phis: np.ndarray,
    device_tilt: float,
    rows: Rows,
) -> np.ndarray:
    """Per-sample connectivity of a seat's links for given orientations,
    each link drawing its own shadowing deviates: the whole SNR chain runs
    per sample. Torso blockage and the receive cone are both windows
    around the device-to-candidate azimuth, boundaries inclusive.
    """
    n, (dist, phi_rx, psi_rx, vertical, occluded) = phis.shape[0], rows
    ok = np.zeros(n, dtype=bool)
    log_d = _log10(dist)
    for i in range(dist.shape[0]):
        chi = (rng.normal(0.0, params.sigma_los_db, n),
               rng.normal(0.0, params.sigma_nlos_db, n))
        ok |= _clears(params, log_d[i], psi_rx[i], vertical[i], occluded[i],
                      device_tilt, wrapped_offset(phis, phi_rx[i]), chi)
    return ok


def _bands(
    dist: OrientationDistribution, edges: Sequence[float]
) -> List[List[float]]:
    """Certified bands in uniform space around the edges' thresholds,
    merged where they overlap, ascending: [lower end, upper end].

    An edge e's threshold is the uniform the sampler maps to e, through
    the truncated-normal CDF the partitions use. Its band starts at twice
    the width the map's slope there asks for and widens fourfold until
    the sampler's chain puts the lower end more than ``_BAND_MARGIN``
    below e and the upper end as far above it; an end past 0 or 1, where
    no uniform is, needs no check, so the widening stops. The chain is
    monotone, up to rounding far below ``_BAND_MARGIN``, so no uniform
    outside every band maps near an edge.
    """
    lo, hi = _cdf_range(dist)
    span = hi - lo
    e = np.array(edges)
    z = (e - dist.mean) / dist.std
    t = (np.array([_std_normal_cdf(x) for x in z.tolist()]) - lo) / span
    z = np.minimum(np.abs(z), 40.0)  # the density is 0.0 from about 38.5
    slope = np.exp(-0.5 * z * z) / (
        math.sqrt(2.0 * math.pi) * dist.std * span
    )
    d = np.fmax(2.0 * _BAND_MARGIN * slope, 2.0 ** -52)
    while True:
        a, b = t - d, t + d
        phi = _orientations(np.clip(np.concatenate([a, b]), 0.0, 1.0), dist)
        done = (a <= 0.0) | (phi[: e.size] < e - _BAND_MARGIN)
        done &= (b >= 1.0) | (phi[e.size:] > e + _BAND_MARGIN)
        if done.all():
            break
        d = np.where(done, d, 4.0 * d)
    merged: List[List[float]] = []
    for lo_u, hi_u in sorted(zip(a.tolist(), b.tolist())):
        if merged and lo_u <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi_u)
        else:
            merged.append([lo_u, hi_u])
    return merged


def _replay_uniforms(
    u: np.ndarray, dist: OrientationDistribution, windows: List[Window]
) -> np.ndarray:
    """``_decide(_orientations(u, dist), windows)``, decided in uniform
    space; u may be overwritten.

    Bands around the thresholds of every window edge and of -pi and pi
    (see ``_bands``) split the block. Between two bands no uniform maps
    near an edge or across the seam, so all of them share the verdict of
    the lower band's upper end. Only the uniforms inside a band run the
    chain and the offset test.
    """
    edges = [-math.pi, math.pi]
    for phi_rx, reach in windows:
        edges.extend(_window_edges(phi_rx, reach))
    bands = _bands(dist, edges)
    if len(bands) == 1:  # one band over the whole block
        return _decide(_orientations(u, dist), windows)
    upper = np.array([b for _, b in bands[:-1]])
    gaps = _decide(_orientations(upper, dist), windows)
    ok = np.full(u.shape[0], gaps[0])
    near = u <= bands[0][1]
    near |= u >= bands[-1][0]
    above, inside = np.empty_like(near), np.empty_like(near)
    for j, (a, b) in enumerate(bands[1:-1], 1):
        np.greater(u, b, out=above)
        if gaps[j] != gaps[j - 1]:
            ok ^= above
        np.greater_equal(u, a, out=inside)
        inside ^= above
        near |= inside
    idx = np.flatnonzero(near)
    if idx.size:
        ok[idx] = _decide(_orientations(u[idx], dist), windows)
    return ok


def _seat_rate(
    model: PlanningModel, mc: McConfig, m: int, aps: Sequence[int]
) -> float:
    """Empirical connectivity of seat m over its links to the candidates
    ``aps``, in ascending order. Without shadowing the links are the
    model's windows, so a seat with an always-on link gets 1.0 without
    drawing."""
    if not aps:
        return 0.0
    dist = OrientationDistribution.for_gp(model.venue, m)
    if mc.sample_shadowing:
        rows = tuple(
            a[m, aps]
            for a in (model.dist, model.phi_rx, model.psi_rx,
                      model.vertical, model.occluded)
        )
        rng = _substream(mc.seed, m)
        phis = _sample_orientations(rng, dist, mc.n_samples)
        tilt = model.venue.grid_positions[m].elevation
        ok = _replay_shadowed(model.params, rng, phis, tilt, rows)
    else:
        windows = _windows(model.phi_rx[m, aps], model.reach[m, aps])
        if windows is None:
            return 1.0
        u = _uniforms(_substream(mc.seed, m), mc.n_samples)
        ok = _replay_uniforms(u, dist, windows)
    return float(np.count_nonzero(ok)) / mc.n_samples


def _compare(
    empirical: float, analytic: float, n: int
) -> Tuple[float, bool]:
    err = abs(empirical - analytic)
    se = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n)
    return err, err <= 3.0 * se


def _stream(mc: McConfig) -> Dict[str, object]:
    """The draws behind a report, as every report records them."""
    return {
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "sample_shadowing": mc.sample_shadowing,
        "generator": _GENERATOR,
        "substream_rule": _SUBSTREAM_RULE,
    }


def monte_carlo_connectivity(
    model: PlanningModel, m: int, assigned: Iterable[int], mc: McConfig
) -> Dict[str, object]:
    """Empirical probability that any assigned link is active for user m.

    Transmit gain is taken at the main lobe, matching what the analytic
    partition assumes for assigned links. With shadowing off the empirical
    rate should land within three binomial standard errors of the analytic
    value; with shadowing on there is no such target and the analytic
    column is reference only. The model's per-user targets are not read.
    Raises ``ValueError`` for an assigned id outside the venue's
    candidates.
    """
    aps = sorted(set(int(l) for l in assigned))
    analytic = connectivity_probability(model.partitions[m], aps)
    empirical = _seat_rate(model, mc, m, aps)
    err, within = _compare(empirical, analytic, mc.n_samples)
    return {
        "gp": m,
        **_stream(mc),
        "assigned": aps,
        "empirical_prob": empirical,
        "analytic_prob": analytic,
        "abs_error": err,
        "within_3sigma": within,
    }


def monte_carlo_coverage(
    model: PlanningModel, mc: McConfig, deployment: Deployment
) -> Dict[str, object]:
    """Replay a whole deployment and compare against the analytic report
    of ``evaluate_coverage``.

    Each served link is inside its beam, as the evaluation checks, so it
    is replayed at the main-lobe transmit gain, like every link of
    ``monte_carlo_connectivity``; a seat's rate is the one that function
    reports for the seat's serving set. Validation errors from the
    analytic evaluation propagate unchanged.
    """
    analytic = evaluate_coverage(model, deployment)
    serving: List[List[int]] = [[] for _ in range(model.M)]
    for ap in deployment.selected:
        for m in ap.assigned:
            serving[m].append(ap.candidate)

    per_gp = []
    z_emp = np.zeros(model.M, dtype=bool)
    for m in range(model.M):
        empirical = _seat_rate(model, mc, m, sorted(serving[m]))
        ana = analytic.per_gp_prob[m]
        err, within = _compare(empirical, ana, mc.n_samples)
        z_emp[m] = empirical >= model.betas[m]
        per_gp.append(
            {
                "id": m,
                "analytic_prob": ana,
                "empirical_prob": empirical,
                "abs_error": err,
                "within_3sigma": within,
                "z_analytic": analytic.satisfied[m],
                "z_empirical": bool(z_emp[m]),
            }
        )
    coverage_emp = model.coverage_of(z_emp)
    return {
        **_stream(mc),
        "per_gp": per_gp,
        "coverage_analytic": analytic.coverage,
        "coverage_empirical": coverage_emp,
        "normalized_coverage_analytic": analytic.normalized_coverage,
        "normalized_coverage_empirical": model.normalized(coverage_emp),
    }


__all__ = [
    "McConfig",
    "monte_carlo_connectivity",
    "monte_carlo_coverage",
]
