"""Ray casting and distance primitives, checked against brute-force oracles."""
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from carobo import geometry as geo
from carobo.sim import SchemaError, Shape


def test_unit_vectors_at_cardinal_angles():
    for deg, expect in [(0, (1, 0)), (90, (0, 1)), (180, (-1, 0)), (270, (0, -1))]:
        ux, uy = geo.unit(deg)
        ex, ey = expect
        assert math.isclose(ux, ex, abs_tol=1e-12)
        assert math.isclose(uy, ey, abs_tol=1e-12)


@given(st.floats(-1e6, 1e6))
def test_norm_heading_lands_in_range(h):
    n = geo.norm_heading(h)
    assert 0.0 <= n < 360.0
    assert math.isclose(math.cos(math.radians(n)), math.cos(math.radians(h)), abs_tol=1e-6)
    assert math.isclose(math.sin(math.radians(n)), math.sin(math.radians(h)), abs_tol=1e-6)


@given(st.floats(-720, 720))
def test_rel_bearing_halfopen_range(b):
    r = geo.rel_bearing(b)
    assert -180.0 < r <= 180.0
    assert math.isclose(math.cos(math.radians(r)), math.cos(math.radians(b)), abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Ray vs circle

def test_ray_circle_head_on():
    t = geo.ray_circle((0, 0), (1, 0), (3, 0), 0.5)
    assert math.isclose(t, 2.5, abs_tol=1e-12)


def test_ray_circle_miss_and_behind():
    assert geo.ray_circle((0, 0), (1, 0), (3, 2), 0.5) is None
    assert geo.ray_circle((0, 0), (1, 0), (-3, 0), 0.5) is None


def test_ray_circle_from_inside_reports_exit():
    t = geo.ray_circle((0, 0), (1, 0), (0.1, 0), 0.5)
    assert t is not None and math.isclose(t, 0.6, abs_tol=1e-12)


def test_ray_circle_matches_marching_oracle():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        center = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        radius = rng.uniform(0.1, 1.0)
        origin = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if math.hypot(origin[0] - center[0], origin[1] - center[1]) <= radius + 1e-3:
            continue
        angle = rng.uniform(0, 360)
        direction = geo.unit(angle)
        t = geo.ray_circle(origin, direction, center, radius)
        # march in fine steps and find the first sample inside the circle
        step, reach = 1e-4, 8.0
        marched = None
        n = int(reach / step)
        for i in range(n):
            d = i * step
            p = (origin[0] + direction[0] * d, origin[1] + direction[1] * d)
            if math.hypot(p[0] - center[0], p[1] - center[1]) <= radius:
                marched = d
                break
        if t is None or t > reach:
            assert marched is None or marched >= (t or reach) - 1e-3
        else:
            assert marched is not None
            assert abs(marched - t) <= 1e-3
        checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# Ray vs segment / polygon

def test_ray_segment_perpendicular_hit():
    t = geo.ray_segment((0, 0), (1, 0), (2, -1), (2, 1))
    assert math.isclose(t, 2.0, abs_tol=1e-12)


def test_ray_segment_parallel_is_none():
    assert geo.ray_segment((0, 0), (1, 0), (1, 1), (5, 1)) is None


def test_ray_segment_endpoint_clip():
    assert geo.ray_segment((0, 0), (1, 0), (2, 1), (2, 3)) is None


SQUARE = [(1, -1), (3, -1), (3, 1), (1, 1)]


def test_ray_polygon_nearest_edge():
    t = geo.ray_polygon((0, 0), (1, 0), SQUARE)
    assert math.isclose(t, 1.0, abs_tol=1e-12)


def test_ray_polygon_from_inside_hits_far_wall():
    t = geo.ray_polygon((2, 0), (1, 0), SQUARE)
    assert math.isclose(t, 1.0, abs_tol=1e-12)


def test_point_in_polygon_basics():
    assert geo.point_in_polygon((2, 0), SQUARE)
    assert not geo.point_in_polygon((0, 0), SQUARE)
    assert not geo.point_in_polygon((4, 0), SQUARE)


def test_polygon_area_shoelace():
    """The square's centroid is its vertex mean; a sliver whose shoelace area
    is 1e-9 is a polygon, one of half that area is collinear."""
    assert Shape("polygon", vertices=tuple(SQUARE)).bound[:2] == (2.0, 0.0)
    Shape("polygon", vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 2e-9)))
    with pytest.raises(SchemaError, match="collinear"):
        Shape("polygon", vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1e-9)))


def _separate_sums(vertices):
    """The centroid sums and the shoelace area as three loops over the vertices."""
    sx = sy = acc = 0.0
    for x, y in vertices:
        sx += x
        sy += y
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return sx, sy, 0.5 * acc


@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)), min_size=3, max_size=7))
@example(SQUARE)
@example([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
def test_polygon_sums_add_as_separate_loops_do(vertices):
    """Bit for bit, signed zeros and overflow to inf included: the sums decide
    each polygon's bounding disc and whether it is collinear."""
    sx, sy, area = _separate_sums(vertices)
    try:
        shape = Shape("polygon", vertices=tuple(vertices))
    except SchemaError as exc:
        assert str(exc) == "bad polygon shape: polygon vertices are collinear"
        assert abs(area) < 1e-9
        return
    assert not abs(area) < 1e-9
    n = len(vertices)
    assert [repr(v) for v in shape.bound[:2]] == [repr(sx / n), repr(sy / n)]


# ---------------------------------------------------------------------------
# Distances

def test_circle_distance_signs():
    assert math.isclose(geo.circle_distance((0, 0), (3, 0), 1.0), 2.0, abs_tol=1e-12)
    assert geo.circle_distance((2.5, 0), (3, 0), 1.0) < 0


def test_polygon_distance_outside_edge_and_corner():
    assert math.isclose(geo.polygon_distance((0, 0), SQUARE), 1.0, abs_tol=1e-12)
    corner = geo.polygon_distance((0, -2), SQUARE)
    assert math.isclose(corner, math.hypot(1, 1), abs_tol=1e-12)


def test_polygon_distance_inside_is_negative():
    d = geo.polygon_distance((2, 0), SQUARE)
    assert d < 0
    assert math.isclose(-d, 1.0, abs_tol=1e-12)


@given(
    st.floats(-2, 2), st.floats(-2, 2),
    st.floats(-2, 2), st.floats(-2, 2),
    st.floats(0.05, 1.5),
)
def test_circle_distance_matches_definition(px, py, cx, cy, r):
    d = geo.circle_distance((px, py), (cx, cy), r)
    assert math.isclose(d, math.hypot(px - cx, py - cy) - r, abs_tol=1e-12)


def test_point_segment_distance():
    assert math.isclose(geo.point_segment_distance((0, 1), (-1, 0), (1, 0)), 1.0, abs_tol=1e-12)
    assert math.isclose(geo.point_segment_distance((3, 0), (-1, 0), (1, 0)), 2.0, abs_tol=1e-12)
