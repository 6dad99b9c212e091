"""Monte Carlo validation of the analytic connectivity machinery.

Samples device orientations (and optionally per-link shadowing), replays
the link budget on them, and compares the empirical success rates against
the closed-form scenario probabilities. The replay reads a seat's rows of
the planning model's ``dist``, ``phi_rx``, ``psi_rx``, ``vertical`` and
``occluded`` and decides each link with ``channel._clears``, the verdict
behind the model's ``reach``, at the main-lobe transmit gain: a served
user lies inside its beam, as ``evaluate_coverage`` checks before any
draw.

Without shadowing a link's verdict changes only at its window edges
(torso blockage, the receive cone) on the offset from the
device-to-candidate azimuth, so it is decided once per arc between them,
before any draw, and the samples are only compared with the edges;
samples within ``_EDGE_TOL`` of an edge take the exact ``arctan2``
offset, so every boolean is the one the per-sample chain gives. A seat
with a link that clears on every arc has rate 1.0 and draws nothing.
With shadowing each sample draws its own deviate and the chain runs
sample by sample.

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
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from .channel import ChannelParams, _clears, _log10
from .inputs import MC_CONFIG, check
from .scenarios import (
    OrientationDistribution,
    _std_normal_cdf,
    connectivity_probability,
)
from .solver import Deployment, PlanningModel, evaluate_coverage

_GENERATOR = "philox4x64"
_SUBSTREAM_RULE = "key = [seed, gp_id]"
# samples this close to a window edge take the exact arctan2 offset
_EDGE_TOL = 1e-9

# a seat's link rows, one element per link: (dist, phi_rx, psi_rx,
# vertical, occluded), each the model's array of that name at the seat
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 100_000
    seed: int = 0
    sample_shadowing: bool = False

    def __post_init__(self) -> None:
        check(MC_CONFIG, self)


def _substream(seed: int, gp_id: int) -> np.random.Generator:
    key = np.array([seed, gp_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_orientations(
    rng: np.random.Generator, dist: OrientationDistribution, n: int
) -> np.ndarray:
    """Inverse-CDF draws from the Gaussian renormalized to [-pi, pi]."""
    lo = _std_normal_cdf((-math.pi - dist.mean) / dist.std)
    hi = _std_normal_cdf((math.pi - dist.mean) / dist.std)
    # mean + std * ndtri(lo + u * (hi - lo)), clipped, in the uniforms'
    # buffer; IEEE addition and multiplication commute, so the bits match
    draws = rng.random(n)
    draws *= hi - lo
    draws += lo
    ndtri(draws, out=draws)
    draws *= dist.std
    draws += dist.mean
    return np.clip(draws, -math.pi, math.pi, out=draws)


def _wrapped_offset(phis: np.ndarray, phi_rx: float) -> np.ndarray:
    """Azimuth offset of each orientation from ``phi_rx``, in [0, pi]."""
    d = phis - phi_rx
    return np.abs(np.arctan2(np.sin(d), np.cos(d)))


def _within(phis: np.ndarray, phi_rx: float, half: float) -> np.ndarray:
    """``_wrapped_offset(phis, phi_rx) <= half`` for ``half < pi``.

    The window's edges ``phi_rx -/+ half``, wrapped into [-pi, pi], decide
    every sample farther than ``_EDGE_TOL`` from both; the samples near an
    edge, or near the seam at +-pi when an edge lies by it, take the exact
    offset, so each boolean is the one the offset itself gives.
    """
    lo, hi = phi_rx - half, phi_rx + half
    wraps = lo < -math.pi or hi > math.pi
    if lo < -math.pi:
        lo += 2.0 * math.pi
    elif hi > math.pi:
        hi -= 2.0 * math.pi

    def window(pad: float) -> np.ndarray:
        # the samples inside the window widened by pad at both edges
        above, below = phis >= lo - pad, phis <= hi + pad
        return np.logical_or(above, below, out=above) if wraps else (
            np.logical_and(above, below, out=above)
        )

    inside = window(-_EDGE_TOL)
    near = window(_EDGE_TOL)
    near ^= inside
    if max(abs(lo), abs(hi)) >= math.pi - _EDGE_TOL:
        near |= np.abs(phis) >= math.pi - _EDGE_TOL
    idx = np.flatnonzero(near)
    if idx.size:
        inside[idx] = _wrapped_offset(phis[idx], phi_rx) <= half
    return inside


def _arc_outcomes(
    params: ChannelParams, device_tilt: float, rows: Rows
) -> Tuple[List[float], np.ndarray]:
    """Window edges and each link's verdict between them.

    Line of sight and the main lobe each end at an offset edge
    (``self_block_half_angle``, half the device beamwidth), so a link's
    SNR takes one value per arc between the edges below pi. Returns those
    edges, ascending, and an (arcs, links) boolean array: row k holds the
    verdicts on the arc that ends at edge k, or at pi.
    """
    block, half_cone = params.self_block_half_angle, params.md_beamwidth / 2.0
    # no offset exceeds pi, so an edge at pi is never crossed
    edges = sorted({h for h in (block, half_cone) if h < math.pi})
    dist, _, psi_rx, vertical, occluded = rows
    log_d = _log10(dist)
    on = [
        _clears(params, log_d, psi_rx, vertical, occluded, device_tilt, end)
        for end in edges + [math.pi]
    ]
    return edges, np.array(on)


def _replay_success(
    params: ChannelParams,
    mc: McConfig,
    rng: np.random.Generator,
    phis: np.ndarray,
    device_tilt: float,
    rows: Rows,
) -> np.ndarray:
    """Per-sample connectivity of a seat's links for given orientations.

    Mirrors the analytic classifier exactly at zero shadowing: torso
    blockage and the receive cone are both windows around the
    device-to-candidate azimuth, boundaries inclusive. With shadowing the
    SNR chain runs per sample; without it, once per arc between window
    edges, and a link whose verdict changes at an edge is decided per
    sample by comparing with that edge.
    """
    n, (dist, phi_rx, psi_rx, vertical, occluded) = phis.shape[0], rows
    ok = np.zeros(n, dtype=bool)
    if mc.sample_shadowing:
        log_d = _log10(dist)
        for i in range(dist.shape[0]):
            chi = (rng.normal(0.0, params.sigma_los_db, n),
                   rng.normal(0.0, params.sigma_nlos_db, n))
            ok |= _clears(params, log_d[i], psi_rx[i], vertical[i],
                          occluded[i], device_tilt,
                          _wrapped_offset(phis, phi_rx[i]), chi)
        return ok
    edges, on = _arc_outcomes(params, device_tilt, rows)
    for i in range(on.shape[1]):
        flips = [h for k, h in enumerate(edges) if on[k, i] != on[k + 1, i]]
        if not flips:
            if on[0, i]:
                ok[:] = True
                return ok
            continue
        # the verdict past every edge, flipped at each edge a sample is within
        link_ok = _within(phis, phi_rx[i], flips[0])
        for h in flips[1:]:
            link_ok ^= _within(phis, phi_rx[i], h)
        if on[-1, i]:
            np.logical_not(link_ok, out=link_ok)
        ok |= link_ok
    return ok


def _seat_rate(
    model: PlanningModel, mc: McConfig, m: int, aps: Sequence[int]
) -> float:
    """Empirical connectivity of seat m over its links to the candidates
    ``aps``, in ascending order. Without shadowing, the links' verdicts
    are decided before any draw, so a seat with a link that clears at
    every offset gets 1.0 without drawing."""
    if not aps:
        return 0.0
    params = model.params
    tilt = model.venue.grid_positions[m].elevation
    rows = tuple(
        a[m, aps]
        for a in (model.dist, model.phi_rx, model.psi_rx, model.vertical,
                  model.occluded)
    )
    if not mc.sample_shadowing:
        _, on = _arc_outcomes(params, tilt, rows)
        if on.all(axis=0).any():
            return 1.0
    rng = _substream(mc.seed, m)
    phis = _sample_orientations(
        rng, OrientationDistribution.for_gp(model.venue, m), mc.n_samples
    )
    ok = _replay_success(params, mc, rng, phis, tilt, rows)
    return float(ok.sum()) / mc.n_samples


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
