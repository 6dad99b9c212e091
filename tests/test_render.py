"""SVG output structure and byte determinism."""

import math
import xml.etree.ElementTree as ET

from conftest import random_toy
from mmwplan import (
    ChannelParams,
    PlanningModel,
    generate_venue,
    greedy_place,
    render_svg,
)
from mmwplan.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"


def _by_class(svg, cls):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == cls]


def test_identical_inputs_identical_bytes(tight_params):
    v = random_toy(72)
    dep, _ = greedy_place(PlanningModel(v, tight_params, 0.7), 0.9)
    assert render_svg(v, dep) == render_svg(v, dep)


def test_save_matches_render(tmp_path, toy_venue):
    # the file `mmwplan render` writes is render_svg's text, unchanged
    venue_path, out = tmp_path / "toy.json", tmp_path / "venue.svg"
    toy_venue.save(str(venue_path))
    assert main(["render", "--venue", str(venue_path),
                 "--out", str(out)]) == 0
    assert out.read_text() == render_svg(toy_venue, None)


def test_marker_counts(tight_params):
    v = random_toy(72)
    dep, _ = greedy_place(PlanningModel(v, tight_params, 0.7), 0.9)
    svg = render_svg(v, dep)
    assert len(_by_class(svg, "grid-position")) == v.n_grid
    assert len(_by_class(svg, "candidate")) == v.n_candidates
    assert len(_by_class(svg, "access-point")) == len(dep.selected)
    assert len(_by_class(svg, "beam")) == len(dep.selected)


def test_wedges_carry_stored_steering(tight_params):
    v = random_toy(73)
    dep, _ = greedy_place(PlanningModel(v, tight_params, 0.7), 0.9)
    beams = {int(b.get("data-candidate")): b
             for b in _by_class(render_svg(v, dep), "beam")}
    for ap in dep.selected:
        b = beams[ap.candidate]
        assert b.get("data-azimuth") == repr(ap.phi)
        assert b.get("data-theta") == repr(ap.theta)


def test_venue_only_render(toy_venue):
    svg = render_svg(toy_venue, None)
    assert _by_class(svg, "beam") == []
    assert _by_class(svg, "access-point") == []
    dots = _by_class(svg, "grid-position")
    assert all(d.get("fill") == "#bbbbbb" for d in dots)


def test_probability_colors_hit_ramp_ends(tight_params):
    v = random_toy(74)
    dep, _ = greedy_place(PlanningModel(v, tight_params, 0.7), 0.9)
    dep.per_gp_prob[0] = 1.0
    dep.per_gp_prob[1] = 0.0
    dots = {int(d.get("data-gp")): d
            for d in _by_class(render_svg(v, dep), "grid-position")}
    assert dots[0].get("fill") == "rgb(200,32,32)"
    assert dots[1].get("fill") == "rgb(42,66,165)"


def test_legend_present(toy_venue):
    svg = render_svg(toy_venue, None)
    assert "connectivity" in svg
    assert svg.count("<rect") >= 20


def test_hall_markers_stay_inside_canvas():
    hall = generate_venue("hall")
    p = ChannelParams(ap_beamwidth=2.0 * math.pi / 3.0,
                      md_beamwidth=math.pi / 3.0)
    dep, _ = greedy_place(PlanningModel(hall, p, 0.95), 0.75)
    svg = render_svg(hall, dep)
    root = ET.fromstring(svg)
    width = float(root.get("width"))
    height = float(root.get("height"))
    for el in _by_class(svg, "access-point"):
        x, y = float(el.get("x")), float(el.get("y"))
        assert 0.0 <= x <= width
        assert 0.0 <= y <= height
    for el in _by_class(svg, "grid-position"):
        x, y = float(el.get("cx")), float(el.get("cy"))
        assert 0.0 <= x <= width
        assert 0.0 <= y <= height
