"""Deterministic SVG rendering of half-plane scenes.

Scenes live in the upper half-plane: the boundary axis is always drawn and
all curves are clipped to y > 0.  Output is deterministic: elements are
emitted in input order and every coordinate is formatted with six decimal
places.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ._record import Record
from .errors import InvalidInputError
from .model import Curve, UHPPoint

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class SvgScene(Record):
    """A real-axis window [x_min, x_max], a height, curves, and marked
    points; rendering clips everything to the open half-plane."""

    __slots__ = ("x_min", "x_max", "height", "curves", "points", "labels", "pixels_per_unit")
    __hash__ = None

    def __init__(self, x_min: float = -3.0, x_max: float = 3.0, height: float = 3.0,
                 curves: Optional[List[Curve]] = None, points: Optional[List[UHPPoint]] = None,
                 labels: Optional[List[Tuple[float, float, str]]] = None,
                 pixels_per_unit: float = 80.0):
        if not (-math.inf < x_min < x_max < math.inf and 0 < height < math.inf):
            raise InvalidInputError(f"scene window needs finite x_min < x_max and height > 0, "
                                    f"got x_min={x_min}, x_max={x_max}, height={height}")
        self.x_min, self.x_max, self.height = x_min, x_max, height
        self.curves = [] if curves is None else curves
        self.points = [] if points is None else points
        self.labels = [] if labels is None else labels
        self.pixels_per_unit = pixels_per_unit

    def add(self, *curves: Curve) -> "SvgScene":
        self.curves.extend(curves)
        return self

    def mark(self, *points: UHPPoint) -> "SvgScene":
        self.points.extend(points)
        return self


def _f(v: float) -> str:
    if not math.isfinite(v):
        raise InvalidInputError("a scene coordinate is outside the float range")
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


class _Mapper:
    def __init__(self, scene: SvgScene, pad: float = 0.25):
        self.x0 = scene.x_min - pad
        self.x1 = scene.x_max + pad
        self.y1 = scene.height
        self.scale = scene.pixels_per_unit
        self.width = (self.x1 - self.x0) * self.scale
        self.height_px = (self.y1 + pad) * self.scale

    def to_pixel(self, x: float, y: float) -> Tuple[float, float]:
        return (x - self.x0) * self.scale, self.height_px - y * self.scale


def _curve_element(curve: Curve, mapper: _Mapper, color: str, clip: str) -> str:
    style = f'fill="none" stroke="{color}" stroke-width="1.5"'
    circle = curve.euclidean_center_radius()
    if circle is not None:
        cx, cy, r = circle
        if r == 0:
            return ""
        px, py = mapper.to_pixel(cx, cy)
        return (
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(r * mapper.scale)}" '
            f'{style} clip-path="url(#{clip})"/>'
        )
    # a line b x + c y + d = 0; an exact line's quotients are int / int,
    # correctly rounded, so it is drawn whenever its position is a float
    _a, b, c, d = curve.circle.coeffs()
    try:
        if abs(c) <= (0 if curve.exact else 1e-13):
            x = -d / b  # vertical line
            p0 = mapper.to_pixel(x, 0.0)
            p1 = mapper.to_pixel(x, mapper.y1 + 1.0)
        else:
            y0, slope = -d / c, -b / c
            p0 = mapper.to_pixel(mapper.x0, y0 + slope * mapper.x0)
            p1 = mapper.to_pixel(mapper.x1, y0 + slope * mapper.x1)
    except OverflowError:
        raise InvalidInputError("a scene coordinate is outside the float range") from None
    return (
        f'<line x1="{_f(p0[0])}" y1="{_f(p0[1])}" x2="{_f(p1[0])}" '
        f'y2="{_f(p1[1])}" {style} clip-path="url(#{clip})"/>'
    )


def _elements(scene: SvgScene, mapper: _Mapper, clip: str) -> List[str]:
    """The scene's drawn elements, in order, its curves clipped to `clip`."""
    w, h = mapper.width, mapper.height_px
    axis_y = mapper.to_pixel(0.0, 0.0)[1]
    parts = [
        f'<rect x="0" y="0" width="{_f(w)}" height="{_f(h)}" fill="white"/>',
        # the boundary axis is always drawn
        f'<line x1="0" y1="{_f(axis_y)}" x2="{_f(w)}" y2="{_f(axis_y)}" '
        'stroke="black" stroke-width="2"/>',
    ]
    for i, curve in enumerate(scene.curves):
        el = _curve_element(curve, mapper, _PALETTE[i % len(_PALETTE)], clip)
        if el:
            parts.append(el)
    for pt in scene.points:
        x, y = pt.as_floats()
        if y <= 0:
            continue
        px, py = mapper.to_pixel(x, y)
        parts.append(f'<circle cx="{_f(px)}" cy="{_f(py)}" r="3" fill="black"/>')
    for x, y, text in scene.labels:
        px, py = mapper.to_pixel(x, y)
        parts.append(
            f'<text x="{_f(px)}" y="{_f(py)}" font-size="12" '
            f'font-family="monospace">{text}</text>'
        )
    return parts


def _document(width: float, height: float, clips, body: List[str]) -> str:
    """The SVG of `body`, with a clip path to the window above the axis for
    each (mapper, id) of `clips`."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
        "<defs>",
    ]
    for mapper, clip in clips:
        parts.append(
            f'<clipPath id="{clip}"><rect x="0" y="0" width="{_f(mapper.width)}" '
            f'height="{_f(mapper.to_pixel(0.0, 0.0)[1])}"/></clipPath>'
        )
    return "\n".join([*parts, "</defs>", *body, "</svg>"]) + "\n"


def render_scene(scene: SvgScene) -> str:
    """Render the scene to an SVG string."""
    mapper = _Mapper(scene)
    return _document(mapper.width, mapper.height_px, [(mapper, "uhp")],
                     _elements(scene, mapper, "uhp"))


def render_panels(scenes: Sequence[SvgScene]) -> str:
    """Render several scenes side by side in one SVG (e.g. before/after
    panels), each clipped to its own window."""
    if not scenes:
        raise InvalidInputError("need at least one scene")
    clips = [(_Mapper(scene), f"uhp{k}") for k, scene in enumerate(scenes)]
    body = []
    offset = 0.0
    for scene, (mapper, clip) in zip(scenes, clips):
        body.append(f'<g transform="translate({_f(offset)},0)">')
        body += _elements(scene, mapper, clip)
        body.append("</g>")
        offset += mapper.width + 20.0
    return _document(offset - 20.0, max(m.height_px for m, _ in clips), clips, body)


def write_svg(svg: str, path: str) -> None:
    """Write the SVG; IO errors surface as-is for the CLI to map to exit 4."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(svg)
