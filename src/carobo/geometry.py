"""Exact 2D intersection math used by the simulator.

All shapes are circles or simple polygons in the ground plane. Rays are
parameterized as origin + t * direction with a unit direction; every function
returns distances in meters or None when there is no hit.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

Point = Tuple[float, float]

EPS = 1e-12


def unit(direction_deg: float) -> Point:
    rad = math.radians(direction_deg)
    return (math.cos(rad), math.sin(rad))


def norm_heading(deg: float) -> float:
    """Normalize an absolute heading into [0, 360)."""
    h = deg % 360.0
    # tiny negative inputs round the modulo up to exactly 360.0
    return 0.0 if h >= 360.0 else h


def rel_bearing(deg: float) -> float:
    """Normalize a relative bearing into (-180, 180]."""
    b = deg % 360.0
    if b > 180.0:
        b -= 360.0
    return b


def ray_circle(origin: Point, d: Point, center: Point, radius: float) -> Optional[float]:
    """Smallest t >= 0 where the ray meets the circle boundary."""
    mx, my = origin[0] - center[0], origin[1] - center[1]
    b = mx * d[0] + my * d[1]
    c = mx * mx + my * my - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t = -b - sq
    if t < 0.0:
        t = -b + sq  # origin inside: report the exit point
    return t if t >= 0.0 else None


def ray_segment(origin: Point, d: Point, a: Point, b: Point) -> Optional[float]:
    """Smallest t >= 0 where the ray crosses segment ab, or None."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    denom = d[0] * ey - d[1] * ex
    if abs(denom) < EPS:
        return None  # parallel; grazing overlap handled by adjacent edges
    ax, ay = a[0] - origin[0], a[1] - origin[1]
    t = (ax * ey - ay * ex) / denom
    u = (ax * d[1] - ay * d[0]) / denom
    if t >= 0.0 and -EPS <= u <= 1.0 + EPS:
        return t
    return None


def ray_polygon(origin: Point, d: Point, vertices: Sequence[Point]) -> Optional[float]:
    best = None
    n = len(vertices)
    for i in range(n):
        t = ray_segment(origin, d, vertices[i], vertices[(i + 1) % n])
        if t is not None and (best is None or t < best):
            best = t
    return best


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ex, ey = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    denom = ex * ex + ey * ey
    if denom < EPS:
        return math.hypot(px, py)
    t = (px * ex + py * ey) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(px - t * ex, py - t * ey)


def point_in_polygon(p: Point, vertices: Sequence[Point]) -> bool:
    """Even-odd crossing test; boundary points may land either way."""
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > p[1]) != (y2 > p[1]):
            x_cross = x1 + (p[1] - y1) * (x2 - x1) / (y2 - y1)
            if p[0] < x_cross:
                inside = not inside
    return inside


def circle_distance(p: Point, center: Point, radius: float) -> float:
    """Distance from p to the circle boundary; negative when p is inside."""
    return math.hypot(p[0] - center[0], p[1] - center[1]) - radius


def polygon_distance(p: Point, vertices: Sequence[Point]) -> float:
    """Distance from p to the polygon boundary; negative when p is inside."""
    n = len(vertices)
    best = min(
        point_segment_distance(p, vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )
    return -best if point_in_polygon(p, vertices) else best
