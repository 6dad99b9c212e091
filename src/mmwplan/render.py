"""Top-down SVG drawing of a venue and an optional deployment.

Users are dots colored by their connectivity probability, candidate mounts
are hollow squares, selected access points are filled markers carrying a
translucent wedge of the beam's angular width aimed at the stored steering
azimuth. Output is plain text SVG assembled with fixed float formatting,
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from html import escape
from typing import List, Optional, Tuple

from .channel import ChannelParams
from .solver import Deployment
from .venue import Venue

_WIDTH = 800.0
_PAD = 40.0
_LEGEND_W = 120.0

# blue -> yellow -> red probability ramp, endpoints included
_RAMP = (
    (0.0, (42, 66, 165)),
    (0.5, (240, 210, 60)),
    (1.0, (200, 32, 32)),
)


def _ramp_color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    for (a, ca), (b, cb) in zip(_RAMP, _RAMP[1:]):
        if v <= b:
            t = 0.0 if b == a else (v - a) / (b - a)
            rgb = tuple(
                int(round(x + t * (y - x))) for x, y in zip(ca, cb)
            )
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"
    r, g, b = _RAMP[-1][1]
    return f"rgb({r},{g},{b})"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Frame:
    """World xy to SVG pixel transform with a flipped y axis."""

    def __init__(self, xs: List[float], ys: List[float]) -> None:
        self.minx, maxx = min(xs), max(xs)
        self.miny, maxy = min(ys), max(ys)
        spanx = max(maxx - self.minx, 1e-9)
        spany = max(maxy - self.miny, 1e-9)
        self.scale = (_WIDTH - 2.0 * _PAD) / spanx
        self.height = spany * self.scale + 2.0 * _PAD
        self.width = _WIDTH + _LEGEND_W

    def x(self, wx: float) -> float:
        return _PAD + (wx - self.minx) * self.scale

    def y(self, wy: float) -> float:
        return self.height - _PAD - (wy - self.miny) * self.scale

    def pt(self, wx: float, wy: float) -> Tuple[float, float]:
        return self.x(wx), self.y(wy)


def _wedge_path(
    frame: _Frame,
    cx: float,
    cy: float,
    azimuth: float,
    width: float,
    radius: float,
) -> str:
    a0 = azimuth - width / 2.0
    a1 = azimuth + width / 2.0
    x0, y0 = frame.pt(cx + radius * math.cos(a0), cy + radius * math.sin(a0))
    x1, y1 = frame.pt(cx + radius * math.cos(a1), cy + radius * math.sin(a1))
    sx, sy = frame.pt(cx, cy)
    r = radius * frame.scale
    large = 1 if width > math.pi else 0
    # world counterclockwise renders clockwise once y flips
    return (
        f"M {_fmt(sx)} {_fmt(sy)} L {_fmt(x0)} {_fmt(y0)} "
        f"A {_fmt(r)} {_fmt(r)} 0 {large} 0 {_fmt(x1)} {_fmt(y1)} Z"
    )


def _legend(frame: _Frame) -> List[str]:
    x = _WIDTH + 10.0
    top, bot = _PAD, min(frame.height - _PAD, _PAD + 200.0)
    steps = 20
    parts = [
        f'<text x="{_fmt(x)}" y="{_fmt(top - 8.0)}" font-size="12" '
        f'fill="#333">connectivity</text>'
    ]
    for i in range(steps):
        v0 = 1.0 - i / steps
        y0 = top + (bot - top) * i / steps
        h = (bot - top) / steps
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y0)}" width="18" '
            f'height="{_fmt(h + 0.5)}" fill="{_ramp_color(v0)}"/>'
        )
    for v in (0.0, 0.5, 1.0):
        y = bot - (bot - top) * v
        parts.append(
            f'<text x="{_fmt(x + 24.0)}" y="{_fmt(y + 4.0)}" '
            f'font-size="11" fill="#333">{v:.1f}</text>'
        )
    return parts


def render_svg(
    venue: Venue,
    deployment: Optional[Deployment] = None,
    beamwidth: float = ChannelParams.ap_beamwidth,
) -> str:
    """Render to an SVG string. Without a deployment the venue is drawn
    alone and users stay a neutral gray. Beam wedges reach 12% of the
    larger extent of the drawn points.

    Raises ``ValueError`` when the deployment names a candidate id outside
    the venue or carries a probability count other than one per user.
    """
    xs = [gp.position[0] for gp in venue.grid_positions]
    ys = [gp.position[1] for gp in venue.grid_positions]
    xs += [c.position[0] for c in venue.candidates]
    ys += [c.position[1] for c in venue.candidates]
    frame = _Frame(xs, ys)
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    wedge_radius = 0.12 * span

    probs = None
    selected = []
    if deployment is not None:
        probs = deployment.per_gp_prob
        selected = deployment.selected
        for ap in selected:
            if not (0 <= ap.candidate < venue.n_candidates):
                raise ValueError(
                    f"deployment names candidate {ap.candidate}; the venue "
                    f"has ids 0..{venue.n_candidates - 1}"
                )
        if len(probs) != venue.n_grid:
            raise ValueError(
                f"deployment has {len(probs)} per-user probabilities; the "
                f"venue has {venue.n_grid} grid positions"
            )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        f'<rect x="0" y="0" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" fill="#fafafa"/>',
        f'<text x="{_fmt(_PAD)}" y="24" font-size="16" fill="#111">'
        f"{escape(venue.name)}</text>",
    ]

    for ap in selected:
        c = venue.candidates[ap.candidate]
        parts.append(
            f'<path d="'
            + _wedge_path(
                frame,
                c.position[0],
                c.position[1],
                ap.phi,
                beamwidth,
                wedge_radius,
            )
            + f'" fill="rgba(60,120,216,0.25)" stroke="none" '
            f'class="beam" data-candidate="{ap.candidate}" '
            f'data-azimuth="{ap.phi!r}" data-theta="{ap.theta!r}"/>'
        )

    for cand in venue.candidates:
        x, y = frame.pt(cand.position[0], cand.position[1])
        parts.append(
            f'<rect x="{_fmt(x - 4.0)}" y="{_fmt(y - 4.0)}" width="8" '
            f'height="8" fill="none" stroke="#888" stroke-width="1" '
            f'class="candidate" data-candidate="{cand.id}"/>'
        )

    for ap in selected:
        c = venue.candidates[ap.candidate]
        x, y = frame.pt(c.position[0], c.position[1])
        parts.append(
            f'<rect x="{_fmt(x - 5.0)}" y="{_fmt(y - 5.0)}" width="10" '
            f'height="10" fill="#1b4fa0" stroke="#0c2a58" '
            f'stroke-width="1.5" class="access-point" '
            f'data-candidate="{ap.candidate}"/>'
        )

    for gp in venue.grid_positions:
        x, y = frame.pt(gp.position[0], gp.position[1])
        if probs is None:
            fill = "#bbbbbb"
        else:
            fill = _ramp_color(probs[gp.id])
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.2" '
            f'fill="{fill}" stroke="#333" stroke-width="0.4" '
            f'class="grid-position" data-gp="{gp.id}"/>'
        )

    parts.extend(_legend(frame))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


__all__ = ["render_svg"]
