"""Circle arithmetic: wrapping, offsets, and the oracles' closed arcs."""

import math

import numpy as np

from mmwplan.scenarios import wrap_angle
from oracles import AngularInterval, angle_offset


def test_wrap_angle_range():
    rng = np.random.default_rng(7)
    for a in rng.uniform(-50.0, 50.0, 500):
        w = wrap_angle(float(a))
        assert -math.pi <= w <= math.pi
        # same point on the circle
        assert abs(math.sin(w) - math.sin(a)) < 1e-9
        assert abs(math.cos(w) - math.cos(a)) < 1e-9


def test_wrap_angle_identity_inside():
    for a in (-3.0, -1.0, 0.0, 1.0, 3.0):
        assert wrap_angle(a) == a


def test_angle_offset_symmetric_and_bounded():
    rng = np.random.default_rng(8)
    for a, b in rng.uniform(-10.0, 10.0, (300, 2)):
        d = angle_offset(float(a), float(b))
        assert 0.0 <= d <= math.pi
        assert abs(d - angle_offset(float(b), float(a))) < 1e-12


def test_angle_offset_examples():
    assert angle_offset(0.0, 0.0) == 0.0
    assert abs(angle_offset(math.pi - 0.1, -math.pi + 0.1) - 0.2) < 1e-12
    assert abs(angle_offset(0.0, math.pi) - math.pi) < 1e-12


def test_arc_basic_membership():
    iv = AngularInterval.arc(-1.0, 1.0)
    assert iv.contains(0.0)
    assert iv.contains(1.0) and iv.contains(-1.0)  # closed ends
    assert not iv.contains(1.5)
    assert abs(iv.length() - 2.0) < 1e-12


def test_arc_wraparound():
    # crosses the pi seam
    iv = AngularInterval.arc(math.pi / 4.0, -3.0 * math.pi / 4.0)
    assert iv.contains(math.pi)
    assert iv.contains(-math.pi)
    assert not iv.contains(0.0)
    segs = iv.segments()
    assert len(segs) == 2
    total = sum(b - a for a, b in segs)
    assert abs(total - iv.length()) < 1e-12


def test_empty_and_full():
    e = AngularInterval.empty()
    f = AngularInterval.full()
    assert e.is_empty and not e.contains(0.0) and e.length() == 0.0
    assert f.is_full and f.contains(2.0) and abs(
        f.length() - 2.0 * math.pi) < 1e-12


def test_from_center_midpoint_and_width():
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = float(rng.uniform(-math.pi, math.pi))
        h = float(rng.uniform(0.01, math.pi - 0.01))
        iv = AngularInterval.from_center(c, h)
        assert abs(iv.length() - 2.0 * h) < 1e-12
        assert abs(wrap_angle(iv.center() - c)) < 1e-9
        assert iv.contains(c)


def test_from_center_full_when_half_width_reaches_pi():
    assert AngularInterval.from_center(0.3, math.pi).is_full
    assert AngularInterval.from_center(0.3, 4.0).is_full


def test_segments_cover_exactly_the_members():
    rng = np.random.default_rng(10)
    for _ in range(100):
        c = float(rng.uniform(-math.pi, math.pi))
        h = float(rng.uniform(0.05, 3.0))
        iv = AngularInterval.from_center(c, min(h, math.pi))
        for x in rng.uniform(-math.pi, math.pi, 50):
            inside = any(a - 1e-12 <= x <= b + 1e-12
                         for a, b in iv.segments())
            if abs(abs(wrap_angle(x - c)) - min(h, math.pi)) > 1e-9:
                assert inside == iv.contains(float(x))
