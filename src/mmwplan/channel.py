"""Millimeter-wave link budget and per-link activity classification.

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
walking the offset breakpoints outward while the budget still clears.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .angles import AngularInterval, angle_offset, wrap_angle
from .errors import GeometryError
from .venue import (
    Venue,
    horizontal_distance,
    link_distance,
    nadir_angle,
    ray_occluded,
    rx_angles,
    tx_angles,
)

_DEF_ELEVATIONS = (0.0, math.pi / 4.0, math.pi / 2.0)
_DEF_AZIMUTHS = tuple(wrap_angle(n * math.pi / 4.0) for n in range(8))


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


class LinkClass(enum.Enum):
    NEVER_ON = "never_on"
    ALWAYS_ON = "always_on"
    ORIENTATION_DEPENDENT = "orientation_dependent"


@dataclass(frozen=True)
class LinkProfile:
    """Planning view of one (grid position, candidate) link.

    ``effective_interval`` is the arc of body orientations for which the
    link clears the SNR threshold; ``usable`` marks links a solver may
    assign (everything except NEVER_ON).
    """

    gp: int
    ap: int
    distance: float
    link_class: LinkClass
    effective_interval: AngularInterval
    usable: bool


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
    distance: float,
    psi_rx: float,
    vertical_ray: bool,
    occluded: bool,
    device_tilt: float,
    tx_gain_db: float,
) -> float:
    """Largest orientation offset from the device-to-candidate azimuth at
    which the link still clears the threshold.

    Offsets split into at most three rings: inside both the self-blockage
    window and the receive cone, inside exactly one, inside neither. The
    budget is non-increasing outward (line of sight beats blocked, main
    lobe beats side lobe), so the active set is the prefix of rings that
    clear and the answer is a single cut point. Requires the side-lobe gain
    not to exceed the main-lobe gain and distances of at least 1 m, both
    true for any physical configuration.
    """
    gamma = params.snr_threshold_db + params.fade_margin_db
    rx_main_db = linear_to_db(main_lobe_gain(params.md_beamwidth))
    rx_side_db = params.side_lobe_gain_db
    elev_ok = abs(device_tilt - psi_rx) <= params.md_beamwidth / 2.0
    half_block = None if occluded else params.self_block_half_angle
    if not elev_ok:
        half_cone = None
    elif vertical_ray:
        # A vertical ray has no azimuth; the receive cone covers every
        # orientation once the tilt matches.
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
        if snr_db(params, distance, tx_gain_db, rx_db, los) >= gamma:
            reach = cut
        else:
            break
    return reach


def _profile_from_reach(
    gp_id: int, ap_id: int, distance: float, phi_rx: float, reach: float
) -> LinkProfile:
    """Classify a link from its active half-width around ``phi_rx``: no
    reach is never on, a reach of pi or more is always on, anything between
    is the arc of that half-width centered on the device-to-candidate
    azimuth."""
    if reach <= 0.0:
        cls, interval = LinkClass.NEVER_ON, AngularInterval.empty()
    elif reach >= math.pi:
        cls, interval = LinkClass.ALWAYS_ON, AngularInterval.full()
    else:
        cls = LinkClass.ORIENTATION_DEPENDENT
        interval = AngularInterval.from_center(phi_rx, reach)
    return LinkProfile(
        gp=gp_id,
        ap=ap_id,
        distance=distance,
        link_class=cls,
        effective_interval=interval,
        usable=cls is not LinkClass.NEVER_ON,
    )


def link_profile(
    venue: Venue,
    params: ChannelParams,
    gp_id: int,
    ap_id: int,
    steering: Optional[Tuple[float, float]] = None,
) -> LinkProfile:
    """Classify one link at zero shadowing.

    Without ``steering`` the transmit side is assumed aligned (main lobe),
    which is what placement needs: an assignment is only legal inside the
    chosen beam anyway. With ``steering = (theta, phi)`` the transmit gain
    uses the actual boresight offsets, theta measured from straight down.
    """
    distance = link_distance(venue, gp_id, ap_id)
    if distance == 0.0:
        raise GeometryError("device and candidate positions coincide")
    phi_tx, psi_tx = tx_angles(venue, ap_id, gp_id)
    _, psi_rx = rx_angles(venue, gp_id, ap_id)
    vertical = horizontal_distance(venue, gp_id, ap_id) == 0.0
    occluded = ray_occluded(venue, gp_id, ap_id)
    if steering is None:
        tx_gain_db = linear_to_db(main_lobe_gain(params.ap_beamwidth))
    else:
        theta, phi = steering
        az_off = 0.0 if vertical else wrap_angle(phi - phi_tx)
        el_off = theta - nadir_angle(psi_tx)
        tx_gain_db = linear_to_db(
            flat_top_gain(az_off, el_off, params.ap_beamwidth,
                          params.side_lobe_gain_db)
        )
    gp = venue.grid_positions[gp_id]
    reach = _active_half_width(
        params, distance, psi_rx, vertical, occluded, gp.elevation,
        tx_gain_db,
    )
    phi_rx, _ = rx_angles(venue, gp_id, ap_id)
    return _profile_from_reach(gp_id, ap_id, distance, phi_rx, reach)


__all__ = [
    "ChannelParams",
    "LinkClass",
    "LinkProfile",
    "db_to_linear",
    "linear_to_db",
    "main_lobe_gain",
    "flat_top_gain",
    "path_loss_db",
    "snr_db",
    "link_profile",
]
