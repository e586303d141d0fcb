"""Deterministic SVG rendering of half-plane scenes.

Scenes live in the upper half-plane: the boundary axis is always drawn and
all curves are clipped to y > 0.  Output is deterministic: elements are
emitted in input order and every coordinate is formatted with six decimal
places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .errors import InvalidInputError
from .model import Curve, UHPPoint

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class SvgScene:
    """A real-axis window [x_min, x_max], a height, curves, and marked
    points; rendering clips everything to the open half-plane."""

    x_min: float = -3.0
    x_max: float = 3.0
    height: float = 3.0
    curves: List[Curve] = field(default_factory=list)
    points: List[UHPPoint] = field(default_factory=list)
    labels: List[Tuple[float, float, str]] = field(default_factory=list)
    pixels_per_unit: float = 80.0

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


def _curve_element(curve: Curve, mapper: _Mapper, color: str) -> str:
    style = f'fill="none" stroke="{color}" stroke-width="1.5"'
    circle = curve.euclidean_center_radius()
    if circle is not None:
        cx, cy, r = circle
        if r == 0:
            return ""
        px, py = mapper.to_pixel(cx, cy)
        return (
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(r * mapper.scale)}" '
            f'{style} clip-path="url(#uhp)"/>'
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
        f'y2="{_f(p1[1])}" {style} clip-path="url(#uhp)"/>'
    )


def render_scene(scene: SvgScene) -> str:
    """Render the scene to an SVG string."""
    mapper = _Mapper(scene)
    w, h = mapper.width, mapper.height_px
    axis_y = mapper.to_pixel(0.0, 0.0)[1]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(w)}" '
        f'height="{_f(h)}" viewBox="0 0 {_f(w)} {_f(h)}">',
        "<defs>",
        f'<clipPath id="uhp"><rect x="0" y="0" width="{_f(w)}" '
        f'height="{_f(axis_y)}"/></clipPath>',
        "</defs>",
        f'<rect x="0" y="0" width="{_f(w)}" height="{_f(h)}" fill="white"/>',
        # the boundary axis is always drawn
        f'<line x1="0" y1="{_f(axis_y)}" x2="{_f(w)}" y2="{_f(axis_y)}" '
        'stroke="black" stroke-width="2"/>',
    ]
    for i, curve in enumerate(scene.curves):
        color = _PALETTE[i % len(_PALETTE)]
        el = _curve_element(curve, mapper, color)
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_panels(scenes: Sequence[SvgScene]) -> str:
    """Render several scenes side by side in one SVG (e.g. before/after
    panels)."""
    if not scenes:
        raise InvalidInputError("need at least one scene")
    rendered = []
    offset = 0.0
    total_h = 0.0
    for scene in scenes:
        mapper = _Mapper(scene)
        body = render_scene(scene)
        # strip the outer document, keep the drawable elements
        inner = body.split("\n")[2:-2]
        inner = [ln for ln in inner if not ln.startswith("<defs") and "clipPath id" not in ln and ln != "</defs>"]
        rendered.append((offset, mapper, inner))
        offset += mapper.width + 20.0
        total_h = max(total_h, mapper.height_px)
    total_w = offset - 20.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(total_w)}" '
        f'height="{_f(total_h)}" viewBox="0 0 {_f(total_w)} {_f(total_h)}">',
        "<defs>",
    ]
    for k, (off, mapper, _inner) in enumerate(rendered):
        axis_y = mapper.to_pixel(0.0, 0.0)[1]
        parts.append(
            f'<clipPath id="uhp{k}"><rect x="0" y="0" width="{_f(mapper.width)}" '
            f'height="{_f(axis_y)}"/></clipPath>'
        )
    parts.append("</defs>")
    for k, (off, _mapper, inner) in enumerate(rendered):
        parts.append(f'<g transform="translate({_f(off)},0)">')
        for ln in inner:
            parts.append(ln.replace('url(#uhp)', f'url(#uhp{k})'))
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(svg: str, path: str) -> None:
    """Write the SVG; IO errors surface as-is for the CLI to map to exit 4."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(svg)
