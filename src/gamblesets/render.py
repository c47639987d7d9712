"""Deterministic SVG figures of weak-background cones over a two-atom space.

Each requested picking becomes one exact region (the positive hull of its
gambles and the two atom indicators) clipped to a fixed square canvas; the
generators are drawn as labelled points and the origin is filled when zero
lies in some rendered cone.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Sequence

from .cones import ConeGenerators, zero_in_desext
from .gambles import Gamble

_VIEW = Fraction(22, 10)  # world half-width
_SIZE = 360  # pixels


def _px(x: Fraction) -> str:
    return f"{float((x + _VIEW) * _SIZE / (2 * _VIEW)):.2f}"


def _py(y: Fraction) -> str:
    return f"{float((_VIEW - y) * _SIZE / (2 * _VIEW)):.2f}"


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _dot2(u, v) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def _direction_sorted(vectors) -> list[tuple[Fraction, Fraction]]:
    """Distinct directions sorted counterclockwise from the positive x axis."""
    dirs: list[tuple[Fraction, Fraction]] = []
    for v in vectors:
        if v == (0, 0):
            continue
        if any(_cross(d, v) == 0 and _dot2(d, v) > 0 for d in dirs):
            continue
        dirs.append(v)

    def half(u) -> int:
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(u, v) -> int:
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu - hv
        c = _cross(u, v)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(dirs, key=functools.cmp_to_key(cmp))


def _cone_region(dirs: list[tuple[Fraction, Fraction]]):
    """Classify the positive hull of the directions: ("plane", None),
    ("half-plane", u) with the hull equal to {x : cross(u, x) <= 0}, or
    ("sector", (a, b)) spanning counterclockwise from a to b by less than pi.

    The direction list always contains both indicators here, so at most one
    counterclockwise gap between consecutive directions reaches pi and the
    degenerate line case never arises.
    """
    n = len(dirs)
    for i in range(n):
        u, w = dirs[i], dirs[(i + 1) % n]
        c = _cross(u, w)
        if c < 0:  # gap beyond pi: hull is the complementary sector
            return "sector", (w, u)
        if c == 0 and _dot2(u, w) < 0:  # gap of exactly pi
            return "half-plane", u
    return "plane", None


def _clip_polygon(poly, inside):
    """Sutherland-Hodgman against one half-plane given by inside(p) >= 0."""
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        a, b = inside(cur), inside(nxt)
        if a >= 0:
            out.append(cur)
        if (a >= 0) != (b >= 0):
            t = a / (a - b)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return out


_REGION_FILLS = ("#bcd6ee", "#c9e7c0", "#f2d3b3", "#e3c7e8", "#f0e6a8")
_REGION_STROKES = ("#4878a8", "#5d9a50", "#c08a40", "#9a5fa5", "#b0a030")


def _region_polygon(E: ConeGenerators):
    """Exact region of the weak-background cone, clipped to the canvas."""
    ind = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    vectors = [tuple(g.values) for g in E.generators] + ind
    dirs = _direction_sorted(vectors)
    kind, data = _cone_region(dirs)
    corners = [
        (-_VIEW, -_VIEW),
        (_VIEW, -_VIEW),
        (_VIEW, _VIEW),
        (-_VIEW, _VIEW),
    ]
    if kind == "plane":
        poly = corners
    elif kind == "half-plane":
        u = data
        poly = _clip_polygon(corners, lambda p: -_cross(u, p))
    else:
        a, b = data
        poly = _clip_polygon(corners, lambda p: _cross(a, p))
        poly = _clip_polygon(poly, lambda p: _cross(p, b))
    deduped = [p for i, p in enumerate(poly) if p != poly[(i - 1) % len(poly)]]
    return kind, deduped or poly[:1]


def render_cone_svg(
    gambles: Mapping[str, Gamble], cones: Sequence[ConeGenerators]
) -> tuple[str, list[dict]]:
    """Deterministic SVG over a two-atom space: axes, generator points, and
    one weak-background cone region per requested picking. A generator is
    labelled with the first name (in sorted order) that ``gambles`` gives it."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]
    regions = []
    for i, E in enumerate(cones):
        kind, poly = _region_polygon(E)
        zero_in = zero_in_desext(E) is not None
        regions.append(
            {
                "generators": [g.serialized() for g in E.generators],
                "region": kind,
                "zero_in_cone": zero_in,
            }
        )
        points = " ".join(f"{_px(x)},{_py(y)}" for x, y in poly)
        fill = _REGION_FILLS[i % len(_REGION_FILLS)]
        stroke = _REGION_STROKES[i % len(_REGION_STROKES)]
        opacity = "0.85" if len(cones) == 1 else "0.45"
        lines.append(
            f'<polygon points="{points}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
    lines.append(
        f'<line x1="{_px(-_VIEW)}" y1="{_py(Fraction(0))}" x2="{_px(_VIEW)}" '
        f'y2="{_py(Fraction(0))}" stroke="#333333" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{_px(Fraction(0))}" y1="{_py(-_VIEW)}" x2="{_px(Fraction(0))}" '
        f'y2="{_py(_VIEW)}" stroke="#333333" stroke-width="1"/>'
    )
    for t in (-2, -1, 1, 2):
        ft = Fraction(t)
        lines.append(
            f'<line x1="{_px(ft)}" y1="{_py(Fraction(-1, 20))}" x2="{_px(ft)}" '
            f'y2="{_py(Fraction(1, 20))}" stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<line x1="{_px(Fraction(-1, 20))}" y1="{_py(ft)}" '
            f'x2="{_px(Fraction(1, 20))}" y2="{_py(ft)}" stroke="#333333" stroke-width="1"/>'
        )
    value_to_name = {}
    for name in sorted(gambles):
        value_to_name.setdefault(gambles[name].values, name)
    drawn = set()
    for E in cones:
        for g in E.generators:
            if g.values in drawn:
                continue
            drawn.add(g.values)
            x, y = g.values
            label = value_to_name.get(g.values, "")
            lines.append(
                f'<circle cx="{_px(x)}" cy="{_py(y)}" r="3.5" fill="#1f3d5c"/>'
            )
            if label:
                lines.append(
                    f'<text x="{float((x + _VIEW) * _SIZE / (2 * _VIEW)) + 6:.2f}" '
                    f'y="{float((_VIEW - y) * _SIZE / (2 * _VIEW)) - 6:.2f}" '
                    f'font-family="sans-serif" font-size="12" fill="#1f3d5c">{label}</text>'
                )
    any_zero = any(r["zero_in_cone"] for r in regions)
    origin_fill = "#1f3d5c" if any_zero else "#ffffff"
    lines.append(
        f'<circle cx="{_px(Fraction(0))}" cy="{_py(Fraction(0))}" r="3.5" '
        f'fill="{origin_fill}" stroke="#1f3d5c" stroke-width="1.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n", regions
