"""Monte Carlo validation of the analytic connectivity machinery.

Samples device orientations (and optionally per-link shadowing), replays
the antenna-gain and SNR chain on them, and compares the empirical success
rates against the closed-form scenario probabilities.

Without shadowing a link's SNR takes at most four values, one per (line
of sight, main lobe) pair, and both flags are windows on the offset from
the device-to-candidate azimuth. So the replay decides each value once
per link and compares the samples with the window edges; samples within
``_EDGE_TOL`` of an edge take the exact ``arctan2`` offset, so every
boolean is the one the per-sample chain gives. With shadowing each sample
draws its own deviate and the chain runs sample by sample.

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

from .channel import (
    ChannelParams,
    flat_top_gain,
    linear_to_db,
    main_lobe_gain,
    snr_db,
)
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


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 100_000
    seed: int = 0
    sample_shadowing: bool = False
    # extra threshold margin applied to the replay only, for stress runs
    fade_margin_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
        # a NaN margin would fail every SNR test and report a rate of 0
        if not math.isfinite(self.fade_margin_db):
            raise ValueError(
                f"fade_margin_db must be finite, not {self.fade_margin_db!r}"
            )
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        # the Philox key holds 64 bits; a seed outside them would alias
        if not (0 <= self.seed < 1 << 64):
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")


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


@dataclass(frozen=True)
class _LinkGeometry:
    ap: int
    distance: float
    phi_rx: float
    psi_rx: float
    vertical: bool
    occluded: bool
    tx_gain_db: float


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


def _replay_success(
    params: ChannelParams,
    mc: McConfig,
    rng: np.random.Generator,
    phis: np.ndarray,
    links: Sequence[_LinkGeometry],
    device_tilt: float,
) -> np.ndarray:
    """Per-sample connectivity of a set of links for given orientations.

    Mirrors the analytic classifier exactly at zero shadowing: torso
    blockage and the receive cone are both windows around the
    device-to-candidate azimuth, boundaries inclusive. With shadowing the
    SNR chain runs per sample; without it, per link (``_replay_cut``).
    """
    if not mc.sample_shadowing:
        return _replay_cut(params, mc, phis, links, device_tilt)
    gamma = (
        params.snr_threshold_db + params.fade_margin_db + mc.fade_margin_db
    )
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    half_cone = params.md_beamwidth / 2.0
    ok = np.zeros(phis.shape[0], dtype=bool)
    for link in links:
        delta = _wrapped_offset(phis, link.phi_rx)
        los = (not link.occluded) & (delta <= params.self_block_half_angle)
        elev_ok = abs(device_tilt - link.psi_rx) <= half_cone
        if not elev_ok:
            main = np.zeros_like(los)
        elif link.vertical:
            main = np.ones_like(los)
        else:
            main = delta <= half_cone
        alpha = np.where(los, params.alpha_los, params.alpha_nlos)
        chi_los = rng.normal(0.0, params.sigma_los_db, phis.shape[0])
        chi_nlos = rng.normal(0.0, params.sigma_nlos_db, phis.shape[0])
        shadow = np.where(los, chi_los, chi_nlos)
        loss = (
            params.kappa_db
            + 10.0 * alpha * math.log10(link.distance)
            + shadow
        )
        rx_db = np.where(main, rx_main_db, params.side_lobe_gain_db)
        snr = (
            params.tx_power_dbm
            + link.tx_gain_db
            + rx_db
            - loss
            - params.noise_power_dbm
        )
        ok |= snr >= gamma
    return ok


def _replay_cut(
    params: ChannelParams,
    mc: McConfig,
    phis: np.ndarray,
    links: Sequence[_LinkGeometry],
    device_tilt: float,
) -> np.ndarray:
    """``_replay_success`` at zero shadowing, one SNR decision per arc.

    Line of sight and the main lobe each end at an offset edge
    (``self_block_half_angle``, half the device beamwidth), so a link's SNR
    takes one value per arc between the edges. Each value is decided once,
    by ``snr_db``: its operations are the per-sample chain's in the same
    order, so its bits are too. An edge whose two sides decide alike is
    dropped, and the samples are only compared with the edges left.
    """
    gamma = (
        params.snr_threshold_db + params.fade_margin_db + mc.fade_margin_db
    )
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    half_cone = params.md_beamwidth / 2.0
    block = params.self_block_half_angle
    # no offset exceeds pi, so an edge at pi is never crossed
    edges = sorted({h for h in (block, half_cone) if h < math.pi})
    ok = np.zeros(phis.shape[0], dtype=bool)
    for link in links:
        elev_ok = abs(device_tilt - link.psi_rx) <= half_cone
        # outcome[k]: offsets past the first k edges and within the rest
        outcome = []
        for k in range(len(edges) + 1):
            los = not link.occluded and block not in edges[:k]
            main = elev_ok and (link.vertical or half_cone not in edges[:k])
            rx_db = rx_main_db if main else params.side_lobe_gain_db
            snr = snr_db(params, link.distance, link.tx_gain_db, rx_db, los)
            outcome.append(snr >= gamma)
        flips = [
            h for k, h in enumerate(edges) if outcome[k] != outcome[k + 1]
        ]
        if not flips:
            if outcome[0]:
                ok[:] = True
                return ok
            continue
        # the outcome past every edge, flipped at each edge a sample is within
        link_ok = _within(phis, link.phi_rx, flips[0])
        for h in flips[1:]:
            link_ok ^= _within(phis, link.phi_rx, h)
        if outcome[-1]:
            np.logical_not(link_ok, out=link_ok)
        ok |= link_ok
    return ok


def _link_geometry(
    model: PlanningModel, m: int, l: int, tx_gain_db: float
) -> _LinkGeometry:
    return _LinkGeometry(
        ap=l,
        distance=float(model.dist[m, l]),
        phi_rx=float(model.phi_rx[m, l]),
        psi_rx=float(model.psi_rx[m, l]),
        vertical=bool(model.vertical[m, l]),
        occluded=bool(model.occluded[m, l]),
        tx_gain_db=tx_gain_db,
    )


def _compare(
    empirical: float, analytic: float, n: int
) -> Tuple[float, bool]:
    err = abs(empirical - analytic)
    se = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n)
    return err, err <= 3.0 * se


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
    venue, params = model.venue, model.params
    aps = sorted(set(int(l) for l in assigned))
    analytic = connectivity_probability(model.partitions[m], aps)

    rng = _substream(mc.seed, m)
    gp = venue.grid_positions[m]
    phis = _sample_orientations(
        rng, OrientationDistribution.for_gp(venue, m), mc.n_samples
    )
    tx_main_db = linear_to_db(main_lobe_gain(params.ap_beamwidth))
    links = [_link_geometry(model, m, l, tx_main_db) for l in aps]
    ok = _replay_success(params, mc, rng, phis, links, gp.elevation)
    empirical = float(ok.sum()) / mc.n_samples
    err, within = _compare(empirical, analytic, mc.n_samples)
    return {
        "gp": m,
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "sample_shadowing": mc.sample_shadowing,
        "generator": _GENERATOR,
        "substream_rule": _SUBSTREAM_RULE,
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

    Transmit gains use each serving beam's actual steering. Validation
    errors from the analytic evaluation propagate unchanged.
    """
    venue, params = model.venue, model.params
    analytic = evaluate_coverage(model, deployment)

    serving: Dict[int, List[_LinkGeometry]] = {}
    for ap in deployment.selected:
        for m in ap.assigned:
            l = ap.candidate
            az_off = (
                0.0
                if model.vertical[m, l]
                else float(ap.phi - model.phi_tx[m, l])
            )
            el_off = float(ap.theta - model.nadir_tx[m, l])
            tx_db = linear_to_db(
                flat_top_gain(
                    az_off,
                    el_off,
                    params.ap_beamwidth,
                    params.side_lobe_gain_db,
                )
            )
            serving.setdefault(m, []).append(
                _link_geometry(model, m, l, tx_db)
            )

    per_gp = []
    z_emp = np.zeros(model.M, dtype=bool)
    for m in range(model.M):
        links = sorted(serving.get(m, []), key=lambda g: g.ap)
        if links:
            rng = _substream(mc.seed, m)
            gp = venue.grid_positions[m]
            phis = _sample_orientations(
                rng, OrientationDistribution.for_gp(venue, m), mc.n_samples
            )
            ok = _replay_success(
                params, mc, rng, phis, links, gp.elevation
            )
            empirical = float(ok.sum()) / mc.n_samples
        else:
            empirical = 0.0
        ana = analytic.per_gp[m].prob
        err, within = _compare(empirical, ana, mc.n_samples)
        z_emp[m] = empirical >= model.betas[m]
        per_gp.append(
            {
                "id": m,
                "analytic_prob": ana,
                "empirical_prob": empirical,
                "abs_error": err,
                "within_3sigma": within,
                "z_analytic": analytic.per_gp[m].z,
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
    "monte_carlo_connectivity",
    "monte_carlo_coverage",
]
