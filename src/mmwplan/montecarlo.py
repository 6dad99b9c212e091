"""Monte Carlo validation of the analytic connectivity machinery.

Samples device orientations (and optionally per-link shadowing), replays
the link budget on them, and compares the empirical success rates against
the closed-form scenario probabilities.

A seat's links are the candidates its row of ``PlanningModel.serving``
holds, in ascending order. Without shadowing the replay reads the
planning model's ``phi_rx`` and ``reach`` at those links. The link budget
never rises as the offset from the device-to-candidate azimuth grows
(line of sight beats blocked from 1 m, the main lobe beats the side
lobe), so a link is on exactly where that offset is at most its reach.
A seat with an always-on link (reach pi) has rate 1.0 and draws nothing,
and a never-on link (reach 0) drops out. Otherwise the sampler's map from
a uniform to an orientation is monotone, so each window edge ``phi_rx -/+
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelParams, _clears, _log10
from .inputs import MC_CONFIG, check
from .scenarios import (
    OrientationDistribution,
    _std_normal_cdf,
    wrap_angles,
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


def _decide(
    phis: np.ndarray, phi_rx: np.ndarray, reach: np.ndarray
) -> np.ndarray:
    """Per-sample connectivity without shadowing at orientations
    ``phis`` over links with azimuths ``phi_rx`` and active half-widths
    ``reach``, each in (0, pi): a link clears where the offset is at most
    its reach."""
    ok = np.zeros(phis.shape[0], dtype=bool)
    for p, r in zip(phi_rx.tolist(), reach.tolist()):
        ok |= wrapped_offset(phis, p) <= r
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
    # a spread too small to divide by gives +-inf: the point-mass limit,
    # a step at the mean with an infinite slope there
    with np.errstate(over="ignore"):
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
    u: np.ndarray,
    dist: OrientationDistribution,
    phi_rx: np.ndarray,
    reach: np.ndarray,
) -> np.ndarray:
    """``_decide(_orientations(u, dist), phi_rx, reach)``, decided in
    uniform space; u may be overwritten.

    Bands around the thresholds of every window edge and of -pi and pi
    (see ``_bands``) split the block. Between two bands no uniform maps
    near an edge or across the seam, so all of them share the verdict of
    the lower band's upper end. Only the uniforms inside a band run the
    chain and the offset test. A window's edges are wrapped as the
    partitions wrap the same arc's endpoints.
    """
    edges = wrap_angles(np.concatenate([phi_rx - reach, phi_rx + reach]))
    bands = _bands(dist, [-math.pi, math.pi, *edges.tolist()])
    if len(bands) == 1:  # one band over the whole block
        return _decide(_orientations(u, dist), phi_rx, reach)
    upper = np.array([b for _, b in bands[:-1]])
    gaps = _decide(_orientations(upper, dist), phi_rx, reach)
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
        ok[idx] = _decide(_orientations(u[idx], dist), phi_rx, reach)
    return ok


def _seat_rate(
    model: PlanningModel, mc: McConfig, m: int, row: np.ndarray
) -> float:
    """Empirical connectivity of seat m over its links to the candidates
    of the boolean row ``row``, in ascending order. Without shadowing a
    seat with an always-on link gets 1.0 without drawing (the replay's own
    rule, kept apart from the partition it checks), and never-on links are
    left out."""
    if not row.any():
        return 0.0
    dist = OrientationDistribution.for_gp(model.venue, m)
    rng = _substream(mc.seed, m)
    if mc.sample_shadowing:
        rows = tuple(
            a[m, row]
            for a in (model.dist, model.phi_rx, model.psi_rx,
                      model.vertical, model.occluded)
        )
        phis = _orientations(_uniforms(rng, mc.n_samples), dist)
        tilt = model.venue.grid_positions[m].elevation
        ok = _replay_shadowed(model.params, rng, phis, tilt, rows)
    else:
        phi_rx, reach = model.phi_rx[m, row], model.reach[m, row]
        if (reach >= math.pi).any():
            return 1.0
        on = reach > 0.0
        ok = _replay_uniforms(_uniforms(rng, mc.n_samples), dist,
                              phi_rx[on], reach[on])
    return float(np.count_nonzero(ok)) / mc.n_samples


def _compare(
    empirical: float, analytic: float, n: int
) -> Tuple[float, bool]:
    err = abs(empirical - analytic)
    se = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n)
    return err, err <= 3.0 * se


def monte_carlo_coverage(
    model: PlanningModel, mc: McConfig, deployment: Deployment
) -> Dict[str, object]:
    """Replay a whole deployment and compare against the analytic report
    of ``evaluate_coverage``.

    Each served link is inside its beam, as the evaluation checks, so it
    is replayed at the main-lobe transmit gain. With shadowing off a
    seat's empirical rate should land within three binomial standard
    errors of the analytic one; with shadowing on there is no such target
    and the analytic column is reference only. Validation errors from the
    analytic evaluation propagate unchanged.
    """
    analytic = evaluate_coverage(model, deployment)
    serving = model.serving(deployment.selected)

    per_gp = []
    z_emp = np.zeros(model.M, dtype=bool)
    for m in range(model.M):
        empirical = _seat_rate(model, mc, m, serving[m])
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
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "sample_shadowing": mc.sample_shadowing,
        "generator": _GENERATOR,
        "substream_rule": _SUBSTREAM_RULE,
        "per_gp": per_gp,
        "coverage_analytic": analytic.coverage,
        "coverage_empirical": coverage_emp,
        "normalized_coverage_analytic": analytic.normalized_coverage,
        "normalized_coverage_empirical": model.normalized(coverage_emp),
    }


__all__ = [
    "McConfig",
    "monte_carlo_coverage",
]
