import hashlib
import math
import re

import pytest

from hyperk import (
    INFINITY,
    BoundaryPoint,
    Q,
    SvgScene,
    UHPPoint,
    make_geodesic,
    make_horocycle,
    render_panels,
    render_scene,
)
from hyperk.errors import InvalidInputError

F = BoundaryPoint.finite


@pytest.mark.parametrize("window", [
    (1.0, 1.0, 3.0), (5.0, 1.0, 3.0), (-3.0, 3.0, 0.0), (-3.0, 3.0, -1.0),
    (math.nan, 3.0, 3.0), (-3.0, math.inf, 3.0), (-math.inf, 3.0, 3.0), (-3.0, 3.0, math.inf),
])
def test_scene_refuses_a_window_it_cannot_draw(window):
    x_min, x_max, height = window
    with pytest.raises(InvalidInputError, match="finite x_min < x_max and height > 0"):
        SvgScene(x_min=x_min, x_max=x_max, height=height)


def test_deterministic_output():
    scene = SvgScene()
    scene.add(make_geodesic(F(-1), F(1)), make_horocycle(F(0), Q(1, 2)))
    assert render_scene(scene) == render_scene(scene)


def test_six_decimal_coordinates():
    scene = SvgScene()
    scene.add(make_geodesic(F(-1), F(1)))
    svg = render_scene(scene)
    for num in re.findall(r'[xy][12]?="(-?\d+\.\d+)"', svg):
        assert len(num.split(".")[1]) == 6


def test_axis_always_present():
    svg = render_scene(SvgScene())
    assert "<line" in svg


def test_clip_to_upper_half_plane():
    svg = render_scene(SvgScene())
    assert "clipPath" in svg


def test_panels():
    s1, s2 = SvgScene(), SvgScene()
    s1.add(make_geodesic(F(0), INFINITY))
    s2.add(make_horocycle(INFINITY, 1))
    svg = render_panels([s1, s2])
    assert svg.count("<svg") == 1  # one document
    assert "translate" in svg


def test_marked_points_rendered():
    scene = SvgScene()
    scene.mark(UHPPoint(0, 1))
    svg = render_scene(scene)
    assert "circle" in svg


def _labelled_scene():
    scene = SvgScene(x_min=-2.0, x_max=4.0, height=2.5, pixels_per_unit=50.0,
                     labels=[(0.5, 1.5, "h(0,1/2)"), (-1.0, 0.2, "g")])
    scene.add(make_geodesic(F(-1), F(3)), make_geodesic(F(2), INFINITY),
              make_horocycle(F(0), Q(1, 2)), make_horocycle(INFINITY, 2))
    scene.mark(UHPPoint(1, 2), UHPPoint(Q(1, 3), Q(1, 7)))
    return scene


#: sha256 of the SVG text of each rendering below
PINNED = {
    "figure-one panels": "b5bbe2cf16b593dbbf0480cefa4e8873ef1333135064126b3a9c630b431998fc",
    "dyadic scene": "9d6837d3f8b71d32ac83eca56a4d15129c84552240fb4c0fc477cc8f0125c230",
    "labelled scene": "7cb2ad4dc71bf3261e8e90c90ff4297b01e97c177912ba6490ef53334386dbb8",
    "labelled and dyadic panels": "1f2a8762393a6eaf19135590d3427e800a49086e909c329cec9ef6bc7079418b",
}


def test_renderings_are_pinned():
    from hyperk.cli import _scene_from_preset

    svgs = {
        "figure-one panels": render_panels(_scene_from_preset("figure-one")),
        "dyadic scene": render_scene(_scene_from_preset("dyadic")[0]),
        "labelled scene": render_scene(_labelled_scene()),
        "labelled and dyadic panels": render_panels(
            [_labelled_scene(), _scene_from_preset("dyadic")[0]]),
    }
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in svgs.items()} == PINNED
