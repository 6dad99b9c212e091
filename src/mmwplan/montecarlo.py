"""Monte Carlo validation of the analytic connectivity machinery.

Samples device orientations (and optionally per-link shadowing), replays
the full antenna-gain and SNR chain sample by sample, and compares the
empirical success rates against the closed-form scenario probabilities.

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
)
from .scenarios import (
    OrientationDistribution,
    _std_normal_cdf,
    connectivity_probability,
)
from .solver import Deployment, PlanningModel
from .venue import Venue

_GENERATOR = "philox4x64"
_SUBSTREAM_RULE = "key = [seed, gp_id]"
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 100_000
    seed: int = 0
    sample_shadowing: bool = False
    # extra threshold margin applied to the replay only, for stress runs
    fade_margin_db: float = 0.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


def _substream(seed: int, gp_id: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, gp_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_orientations(
    rng: np.random.Generator, dist: OrientationDistribution, n: int
) -> np.ndarray:
    """Inverse-CDF draws from the Gaussian renormalized to [-pi, pi]."""
    lo = _std_normal_cdf((-math.pi - dist.mean) / dist.std)
    hi = _std_normal_cdf((math.pi - dist.mean) / dist.std)
    u = rng.random(n)
    draws = dist.mean + dist.std * ndtri(lo + u * (hi - lo))
    return np.clip(draws, -math.pi, math.pi)


def sample_orientation(
    rng: np.random.Generator, dist: OrientationDistribution
) -> float:
    """One orientation draw; consumes exactly one uniform."""
    return float(_sample_orientations(rng, dist, 1)[0])


@dataclass(frozen=True)
class _LinkGeometry:
    ap: int
    distance: float
    phi_rx: float
    psi_rx: float
    vertical: bool
    occluded: bool
    tx_gain_db: float


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
    device-to-candidate azimuth, boundaries inclusive.
    """
    gamma = (
        params.snr_threshold_db + params.fade_margin_db + mc.fade_margin_db
    )
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    half_cone = params.md_beamwidth / 2.0
    ok = np.zeros(phis.shape[0], dtype=bool)
    for link in links:
        d = phis - link.phi_rx
        delta = np.abs(np.arctan2(np.sin(d), np.cos(d)))
        los = (not link.occluded) & (delta <= params.self_block_half_angle)
        elev_ok = abs(device_tilt - link.psi_rx) <= half_cone
        if not elev_ok:
            main = np.zeros_like(los)
        elif link.vertical:
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
    venue: Venue,
    params: ChannelParams,
    m: int,
    assigned: Iterable[int],
    mc: McConfig,
) -> Dict[str, object]:
    """Empirical probability that any assigned link is active for user m.

    Transmit gain is taken at the main lobe, matching what the analytic
    partition assumes for assigned links. With shadowing off the empirical
    rate should land within three binomial standard errors of the analytic
    value; with shadowing on there is no such target and the analytic
    column is reference only. Raises ``ValueError`` for an assigned id
    outside the venue's candidates.
    """
    aps = sorted(set(int(l) for l in assigned))
    if aps and not (0 <= aps[0] and aps[-1] < venue.n_candidates):
        raise ValueError(
            f"assigned ids must lie in [0, {venue.n_candidates - 1}], "
            f"got {aps}"
        )
    model = PlanningModel(venue, params, 1.0)
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
    venue: Venue,
    params: ChannelParams,
    deployment: Deployment,
    betas,
    mc: McConfig,
) -> Dict[str, object]:
    """Replay a whole deployment and compare against the analytic report.

    Transmit gains use each serving beam's actual steering. Validation
    errors from the analytic evaluation propagate unchanged.
    """
    model = PlanningModel(venue, params, betas)
    analytic = model.evaluate(deployment)

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
    "sample_orientation",
    "monte_carlo_connectivity",
    "monte_carlo_coverage",
]
