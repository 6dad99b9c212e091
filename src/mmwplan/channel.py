"""Millimeter-wave link budget and the array link classifier.

Antennas use a flat-top pattern: a constant main-lobe gain of
2 / (1 - cos(W/2)) inside a cone of full width W and a constant side-lobe
gain outside it. The main-lobe gain is exactly the value that makes the
pattern integrate to an isotropic radiator over the sphere cap, so
gain * (1 - cos(W/2)) / 2 == 1 for every beamwidth.

Path loss in dB is kappa + 10 * alpha * log10(d) + chi with separate
exponents and shadowing spreads for line-of-sight and blocked links.
Planning evaluates the chain at chi = 0; the Monte Carlo validator draws
chi per link and sample.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np

from .angles import angle_offset, wrap_angle

_DEF_ELEVATIONS = (0.0, math.pi / 4.0, math.pi / 2.0)
_DEF_AZIMUTHS = tuple(wrap_angle(n * math.pi / 4.0) for n in range(8))


def _finite_number(value) -> bool:
    """An int or float, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget inputs and steering grids.

    Power, noise and threshold defaults (30 dBm, -74 dBm over a 1 GHz
    channel with a 10 dB noise figure, 10 dB) are engineering assumptions,
    as are ``capacity_per_beam``, ``self_block_half_angle`` and
    ``fade_margin_db``; the 70 dB reference loss, the 2/4 exponents, the
    5.2/7.6 dB shadowing spreads and the -2 dB side lobe are typical 60 GHz
    indoor measurement values.

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
    fade_margin_db: float = 0.0

    def __post_init__(self) -> None:
        # a params file can hold NaN, Infinity, null, strings or booleans;
        # NaN fails every comparison below both ways, so type and
        # finiteness come first
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not _finite_number(value):
                raise ValueError(
                    f"{f.name} must be a finite number, not {value!r}"
                )
            if f.type == "int" and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
        if not (0.0 < self.ap_beamwidth < 2.0 * math.pi):
            raise ValueError("ap_beamwidth must lie in (0, 2*pi)")
        if not (0.0 < self.md_beamwidth < 2.0 * math.pi):
            raise ValueError("md_beamwidth must lie in (0, 2*pi)")
        if self.alpha_los > self.alpha_nlos:
            raise ValueError("alpha_los must not exceed alpha_nlos")
        if self.sigma_los_db < 0.0 or self.sigma_nlos_db < 0.0:
            raise ValueError("shadowing spreads must be non-negative")
        if self.capacity_per_beam < 1:
            raise ValueError("capacity_per_beam must be at least 1")
        if not (0.0 < self.self_block_half_angle <= math.pi):
            raise ValueError("self_block_half_angle must lie in (0, pi]")
        if not self.elevation_grid or not self.azimuth_grid:
            raise ValueError("steering grids must be non-empty")
        if not all(0.0 <= e <= math.pi for e in self.elevation_grid):
            raise ValueError("steering elevations must lie in [0, pi]")
        if not all(math.isfinite(a) for a in self.azimuth_grid):
            raise ValueError("steering azimuths must be finite")

    def with_beamwidths(
        self,
        ap_beamwidth: Optional[float] = None,
        md_beamwidth: Optional[float] = None,
    ) -> "ChannelParams":
        kw = {}
        if ap_beamwidth is not None:
            kw["ap_beamwidth"] = ap_beamwidth
        if md_beamwidth is not None:
            kw["md_beamwidth"] = md_beamwidth
        return replace(self, **kw) if kw else self

    def to_dict(self) -> dict:
        return {
            "kappa_db": self.kappa_db,
            "alpha_los": self.alpha_los,
            "alpha_nlos": self.alpha_nlos,
            "sigma_los_db": self.sigma_los_db,
            "sigma_nlos_db": self.sigma_nlos_db,
            "tx_power_dbm": self.tx_power_dbm,
            "noise_power_dbm": self.noise_power_dbm,
            "snr_threshold_db": self.snr_threshold_db,
            "ap_beamwidth": self.ap_beamwidth,
            "md_beamwidth": self.md_beamwidth,
            "side_lobe_gain_db": self.side_lobe_gain_db,
            "elevation_grid": list(self.elevation_grid),
            "azimuth_grid": list(self.azimuth_grid),
            "capacity_per_beam": self.capacity_per_beam,
            "self_block_half_angle": self.self_block_half_angle,
            "fade_margin_db": self.fade_margin_db,
        }

    @staticmethod
    def from_dict(data: dict) -> "ChannelParams":
        kw = dict(data)
        if "elevation_grid" in kw:
            kw["elevation_grid"] = tuple(float(v) for v in kw["elevation_grid"])
        if "azimuth_grid" in kw:
            kw["azimuth_grid"] = tuple(float(v) for v in kw["azimuth_grid"])
        return ChannelParams(**kw)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def main_lobe_gain(beamwidth: float) -> float:
    """Flat-top main-lobe gain 2 / (1 - cos(W/2)), linear."""
    if not (0.0 < beamwidth < 2.0 * math.pi):
        raise ValueError("beamwidth must lie in (0, 2*pi)")
    return 2.0 / (1.0 - math.cos(beamwidth / 2.0))


def flat_top_gain(
    offset_azimuth: float,
    offset_elevation: float,
    beamwidth: float,
    side_lobe_db: float,
) -> float:
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


def path_loss_db(
    params: ChannelParams,
    distance: float,
    los: bool,
    shadowing_db: float = 0.0,
) -> float:
    if distance <= 0.0:
        raise ValueError(f"distance must be positive, got {distance}")
    alpha = params.alpha_los if los else params.alpha_nlos
    return params.kappa_db + 10.0 * alpha * math.log10(distance) + shadowing_db


def snr_db(
    params: ChannelParams,
    distance: float,
    tx_gain_db: float,
    rx_gain_db: float,
    los: bool,
    shadowing_db: float = 0.0,
) -> float:
    return (
        params.tx_power_dbm
        + tx_gain_db
        + rx_gain_db
        - path_loss_db(params, distance, los, shadowing_db)
        - params.noise_power_dbm
    )


def _active_half_width(
    params: ChannelParams,
    distance: np.ndarray,
    psi_rx: np.ndarray,
    vertical_ray: np.ndarray,
    occluded: np.ndarray,
    device_tilt: np.ndarray,
    tx_gain_db: float,
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
    gain and distances of at least 1 m, both true for any physical
    configuration.

    The SNR is evaluated with the operations of ``snr_db`` in the same
    order, and ``log10`` is taken per distance with ``math.log10``, so
    every reach has the bits of the scalar budget.
    """
    distance = np.asarray(distance, dtype=float)
    gamma = params.snr_threshold_db + params.fade_margin_db
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    rx_side_db = params.side_lobe_gain_db
    log_d = np.fromiter(
        map(math.log10, distance.ravel().tolist()), float, distance.size
    ).reshape(distance.shape)
    elev_ok = np.abs(device_tilt - psi_rx) <= params.md_beamwidth / 2.0
    # -1 marks a window that is absent: no line of sight, or a receive
    # cone missed in elevation; a vertical ray's cone covers every
    # orientation once the tilt matches, as it has no azimuth
    half_block = np.where(occluded, -1.0, params.self_block_half_angle)
    half_cone = np.where(
        elev_ok, np.where(vertical_ray, math.pi, params.md_beamwidth / 2.0),
        -1.0,
    )
    a = np.where((half_block > 0.0) & (half_block < math.pi), half_block,
                 math.pi)
    b = np.where((half_cone > 0.0) & (half_cone < math.pi), half_cone,
                 math.pi)
    # a repeated cut gives a repeated verdict, so it changes nothing
    cuts = (np.minimum(a, b), np.maximum(a, b), math.pi)
    clears = []
    for cut in cuts:
        los = (half_block > 0.0) & (cut <= half_block)
        main = (half_cone > 0.0) & (cut <= half_cone)
        rx_db = np.where(main, rx_main_db, rx_side_db)
        alpha = np.where(los, params.alpha_los, params.alpha_nlos)
        loss = params.kappa_db + 10.0 * alpha * log_d + 0.0
        snr = (
            params.tx_power_dbm + tx_gain_db + rx_db - loss
            - params.noise_power_dbm
        )
        clears.append(snr >= gamma)
    return np.where(
        clears[0],
        np.where(clears[1], np.where(clears[2], math.pi, cuts[1]), cuts[0]),
        0.0,
    )


__all__ = [
    "ChannelParams",
    "db_to_linear",
    "linear_to_db",
    "main_lobe_gain",
    "flat_top_gain",
    "path_loss_db",
    "snr_db",
]
