"""Millimeter-wave link budget and the array link classifier.

Antennas use a flat-top pattern: a constant main-lobe gain of
2 / (1 - cos(W/2)) inside a cone of full width W and a constant side-lobe
gain outside it. The main-lobe gain is exactly the value that makes the
pattern integrate to an isotropic radiator over the sphere cap, so
gain * (1 - cos(W/2)) / 2 == 1 for every beamwidth.

Path loss in dB is kappa + 10 * alpha * log10(d) + chi with separate
exponents and shadowing spreads for line-of-sight and blocked links.
``_snr`` is the one expression of the budget and ``_clears`` the one
verdict of a link at a body orientation. Both broadcast, so
``_active_half_width`` over every (seat, candidate) pair and the
shadowed Monte Carlo replay evaluate them, with log10(d) taken by
``math.log10`` once per distance. Planning evaluates the budget at
chi = 0; the Monte Carlo validator can draw chi per link and sample.
Without shadowing the replay reads the model's ``reach`` instead.
A served user always lies inside its beam (``PlanningModel`` holds the
one beam test), so the transmit side is always the main-lobe gain; the
side lobe only enters at the device.

A link's activity depends on the user's random body orientation in two
ways: the torso shadows candidates behind the user (self-blockage), and the
device's receive beam only points where the user faces. Because both
effects are windows centered on the device-to-candidate azimuth, the set of
orientations for which the link clears the SNR threshold is always a single
arc around that azimuth (possibly empty or the full circle), found by
testing at most three rings of offsets outward while the budget still
clears. ``_active_half_width`` does this for a whole array of links;
``PlanningModel`` runs it once over every (seat, candidate) pair, and no
per-link classifier exists beside it.

Every ``ChannelParams`` field is checked by the table ``inputs.CHANNEL``;
only the rules that tie two fields are checked here: ``alpha_los <=
alpha_nlos``, and a side lobe no stronger than the device main lobe, which
``_active_half_width`` assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import VenueFormatError
from .inputs import CHANNEL, check, read, write
from .scenarios import wrap_angle

_DEF_ELEVATIONS = (0.0, math.pi / 4.0, math.pi / 2.0)
_DEF_AZIMUTHS = tuple(wrap_angle(n * math.pi / 4.0) for n in range(8))


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget inputs and steering grids.

    Power, noise and threshold defaults (30 dBm, -74 dBm over a 1 GHz
    channel with a 10 dB noise figure, 10 dB) are engineering assumptions,
    as are ``capacity_per_beam`` and ``self_block_half_angle``; the 70 dB
    reference loss, the 2/4 exponents, the 5.2/7.6 dB shadowing spreads
    and the -2 dB side lobe are typical 60 GHz indoor measurement values.
    A fade margin is a higher ``snr_threshold_db``.

    Steering elevations in ``elevation_grid`` are measured from straight
    down (0 aims at the floor); azimuths in ``azimuth_grid`` use the shared
    atan2 convention.
    """

    kappa_db: float = 70.0
    alpha_los: float = 2.0
    alpha_nlos: float = 4.0
    sigma_los_db: float = 5.2
    sigma_nlos_db: float = 7.6
    tx_power_dbm: float = 30.0
    noise_power_dbm: float = -74.0
    snr_threshold_db: float = 10.0
    ap_beamwidth: float = 2.0 * math.pi / 3.0
    md_beamwidth: float = math.pi / 2.0
    side_lobe_gain_db: float = -2.0
    elevation_grid: Tuple[float, ...] = _DEF_ELEVATIONS
    azimuth_grid: Tuple[float, ...] = _DEF_AZIMUTHS
    capacity_per_beam: int = 32
    self_block_half_angle: float = math.pi / 2.0

    def __post_init__(self) -> None:
        check(CHANNEL, self)
        if self.alpha_los > self.alpha_nlos:
            raise VenueFormatError("alpha_los must not exceed alpha_nlos")
        main_db = linear_to_db(main_lobe_gain(self.md_beamwidth))
        if self.side_lobe_gain_db > main_db:
            raise VenueFormatError(
                f"side_lobe_gain_db {self.side_lobe_gain_db!r} exceeds the "
                f"device main lobe of {main_db:.4g} dB at md_beamwidth "
                f"{self.md_beamwidth!r}"
            )

    def to_dict(self) -> dict:
        return write(CHANNEL, self)

    @staticmethod
    def from_dict(data: dict) -> "ChannelParams":
        return ChannelParams(**read(CHANNEL, data, strict=True))


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def main_lobe_gain(beamwidth: float) -> float:
    """Flat-top main-lobe gain 2 / (1 - cos(W/2)), linear."""
    if not (0.0 < beamwidth < 2.0 * math.pi):
        raise ValueError("beamwidth must lie in (0, 2*pi)")
    return 2.0 / (1.0 - math.cos(beamwidth / 2.0))


def _log10(distance) -> np.ndarray:
    """``math.log10`` of each distance; ``np.log10`` differs from it in the
    last bit for some inputs."""
    d = np.asarray(distance, dtype=float)
    return np.reshape([math.log10(x) for x in d.ravel().tolist()], d.shape)


def _path_loss(params: ChannelParams, log_d, los, shadowing_db=0.0):
    alpha = np.where(los, params.alpha_los, params.alpha_nlos)
    return params.kappa_db + 10.0 * alpha * log_d + shadowing_db


def _snr(params: ChannelParams, log_d, tx_db, rx_db, los, shadowing_db=0.0):
    """The link budget in dB; the arguments after ``params`` broadcast
    against each other, with ``log_d`` from ``_log10``."""
    loss = _path_loss(params, log_d, los, shadowing_db)
    return params.tx_power_dbm + tx_db + rx_db - loss - params.noise_power_dbm


def _clears(params: ChannelParams, log_d, psi_rx, vertical_ray, occluded,
            device_tilt, offset, shadow=None) -> np.ndarray:
    """Whether links clear the threshold at a body orientation ``offset``
    from the device-to-candidate azimuth, the beam at the mount aligned;
    the arguments after ``params`` broadcast. Line of sight needs an
    unoccluded ray and the offset within the self-blockage window; the
    device's main lobe needs its tilt within half its beamwidth of
    ``psi_rx`` and, but for a vertical ray, the offset within that half
    too, boundaries inclusive. ``shadow`` is a pair of line-of-sight and
    blocked deviates."""
    half_cone = params.md_beamwidth / 2.0
    los = np.logical_not(occluded) & (offset <= params.self_block_half_angle)
    elev_ok = np.abs(device_tilt - psi_rx) <= half_cone
    main = elev_ok & (vertical_ray | (offset <= half_cone))
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    rx_db = np.where(main, rx_main_db, params.side_lobe_gain_db)
    tx_db = linear_to_db(main_lobe_gain(params.ap_beamwidth))
    chi = 0.0 if shadow is None else np.where(los, *shadow)
    snr = _snr(params, log_d, tx_db, rx_db, los, chi)
    return snr >= params.snr_threshold_db


def _active_half_width(
    params: ChannelParams,
    distance: np.ndarray,
    psi_rx: np.ndarray,
    vertical_ray: np.ndarray,
    occluded: np.ndarray,
    device_tilt: np.ndarray,
) -> np.ndarray:
    """Largest orientation offset from the device-to-candidate azimuth at
    which each link still clears the threshold.

    The arguments broadcast against each other, one element per link.
    Offsets split into at most three rings: inside both the self-blockage
    window and the receive cone, inside exactly one, inside neither. The
    budget is non-increasing outward (line of sight beats blocked, main
    lobe beats side lobe), so the active set is the prefix of rings that
    clear and the answer is a single cut point: 0, the first cut, the
    second or pi. Requires the side-lobe gain not to exceed the main-lobe
    gain, which ``ChannelParams`` checks, and distances of at least 1 m,
    below which blocked loss falls under line-of-sight loss;
    ``PlanningModel`` refuses a seat closer than that to a mount.
    """
    log_d = _log10(distance)
    half_cone = params.md_beamwidth / 2.0
    elev_ok = np.abs(device_tilt - psi_rx) <= half_cone
    # each window's edge, or pi for a window that is absent (no line of
    # sight, a receive cone missed in elevation) or covers every
    # orientation (a vertical ray's cone, which has no azimuth)
    a = np.where(occluded, math.pi, params.self_block_half_angle)
    b = np.where(elev_ok & ~vertical_ray, half_cone, math.pi)
    # a repeated cut gives a repeated verdict, so it changes nothing
    cuts = (np.minimum(a, b), np.maximum(a, b), math.pi)
    clears = [
        _clears(params, log_d, psi_rx, vertical_ray, occluded, device_tilt,
                cut)
        for cut in cuts
    ]
    return np.where(
        clears[0],
        np.where(clears[1], np.where(clears[2], math.pi, cuts[1]), cuts[0]),
        0.0,
    )


__all__ = [
    "ChannelParams",
    "linear_to_db",
    "main_lobe_gain",
]
