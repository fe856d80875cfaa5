"""Deterministic 2D simulator for the car-type robot.

The world is a plane of circle/polygon obstacles with heights; the robot is a
disc footprint with a heading, a pitch-adjustable camera, an ultrasonic range
finder and two IR proximity switches. Command execution is pure: it returns a
new world plus an execution report, so episodes replay bit-for-bit.

A shape, built or decoded, is checked and measured by one loop over its points
(`_measure`); a robot pose and a world check themselves, and `load_world` adds
the start-overlap rule. Each world gathers one row table of its objects'
padded bounding discs, once, and every query culls objects by those discs
before an exact geometry test. A world of at least GRID_MIN_OBJECTS objects
also buckets the rows into a uniform grid, built once on the first query: the
sensor rays walk its cells nearest first, and a drive takes the rows of the
cells around its path. Both give exactly what a scan of every row gives.
Smaller worlds, and queries from outside the grid, scan; so does the
start-pose overlap check. An IR ray stops at its switch's reach, and a drive
skips the checks over the travel that its near discs prove free
(`_clear_spans`). The camera scans the row table. It works out its frame's
constants (the field of view's cosine and sine, the heading's unit vector, the
vertical window's tangents) and each occluder's offset from the robot once per
frame, and judges each line of sight once per robot position: a render after a
turn, a camera move or a drive that did not move reuses the verdicts of the
one before. A render at the exact pose of the one before, and a sensor read at
the position and heading of the one before, return its result: in one pass of
the clutter benchmark, 88 of 640 renders and 163 of 640 reads (after a buzzer,
a camera move, or a drive that did not move).
"""
from __future__ import annotations

import hashlib
import math
import reprlib
import struct
from dataclasses import field
from functools import cached_property
from math import asin, atan2, cos, degrees, hypot, inf, isfinite, nextafter, radians, sin, tan
from operator import add, itemgetter, sub
from typing import Optional, Tuple

from . import geometry as geo
from .model import (
    PITCH_RANGE,
    CaroboError,
    Command,
    ExecOutcome,
    ExecResult,
    Observation,
    SchemaError,
    SensorData,
    VisibleObject,
    _float,
    _list,
    _mismatch,
    canonical_json,
    codec,
    read_json,
    read_text,
    value_class,
)

OBJECT_KINDS = ("box", "wall", "person", "paper", "refrigerator", "marker")


class OverlapError(CaroboError):
    """Robot footprint starts inside an object."""


def _within(low: float, high: float, default: float):
    """A field whose documents must hold a number in [low, high]."""
    return field(default=default, metadata={"range": (low, high)})


@codec(strict=True)
@value_class
class SimParams:
    """The simulator's parameters, each checked within its closed range when
    built or decoded. The lower bounds keep every drive finite: a step of
    1 mm takes 10^4 increments for the longest legal drive."""

    footprint_radius: float = _within(0.001, 10.0, 0.10)
    ultrasonic_max: float = _within(0.001, 100.0, 4.0)
    avoid_threshold: float = _within(0.0, 10.0, 0.30)
    integration_step: float = _within(0.001, 1.0, 0.05)
    hfov: float = _within(1.0, 360.0, 62.0)
    vfov: float = _within(1.0, 179.0, 49.0)
    ir_range: float = _within(0.0, 10.0, 0.20)
    ir_angle: float = _within(0.0, 180.0, 30.0)
    camera_height: float = _within(0.0, 10.0, 0.12)


@codec
@value_class
class RobotPose:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0  # degrees CCW from +x, kept in [0, 360)
    camera_pitch: float = _within(*PITCH_RANGE, 0.0)  # a pitch no camera_move could reach is refused

    def __post_init__(self):
        # x, y and heading as the decoder reads them: finite floats, an int converted
        for name in ("x", "y", "heading"):
            value = getattr(self, name)
            if type(value) is not float or not isfinite(value):
                try:
                    object.__setattr__(self, name, _float(value))
                except SchemaError as exc:
                    raise SchemaError(f"RobotPose.{name}: {exc}") from None
        object.__setattr__(self, "heading", geo.norm_heading(self.heading))

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)


# Relative and absolute padding of a shape's bounding disc. It exceeds the
# geometry functions' own tolerances (EPS on a segment's ends) and the rounding
# of the culling arithmetic for coordinates up to about 1e3 m, so a culled
# object never held a hit or an overlap that the exact test would report. The
# one exception: a ray within about 1e-7 rad of parallel to a polygon edge,
# where ray_segment's own rounding of the hit distance can exceed the margin.
BOUND_MARGIN = 1e-9


def _measure(kind: str, center, radius, vertices) -> dict:
    """The fields of a `Shape`, its numbers as finite floats, with its padded
    bounding disc (cx, cy, r) about its centroid; a bad shape raises SchemaError.

    One loop checks each point and sums the x, the y and the shoelace terms
    x1 * y2 - x2 * y1 left to right from 0.0, as sum() added floats before
    Python 3.12; its compensated sum since would change every centroid's bits.
    """
    if kind not in ("circle", "polygon"):
        raise SchemaError(f"unknown shape type: {reprlib.repr(kind)}")
    try:
        if kind == "circle":
            radius = r = _float(radius)
            if radius <= 0:
                raise SchemaError("radius must be positive")
            points = (center,)
        else:
            radius, points = 0.0, _list(vertices)
        vertices = []
        # the first point's shoelace term, 0.0 * y - x * 0.0, is a zero: acc stays 0.0
        sx = sy = acc = px = py = 0.0
        for point in points:
            if (type(point) is not list and type(point) is not tuple) or len(point) != 2:
                raise _mismatch("a list of 2", point)
            x, y = point
            if type(x) is not float or not isfinite(x):
                x = _float(x)
            if type(y) is not float or not isfinite(y):
                y = _float(y)
            acc += px * y - x * py
            sx += x
            sy += y
            px, py = x, y
            vertices.append((x, y))
        if kind == "circle":
            center, vertices, (cx, cy) = vertices[0], (), vertices[0]
        else:
            n = len(vertices)
            if n < 3:
                raise SchemaError("a polygon needs at least 3 vertices")
            x, y = vertices[0]
            acc += px * y - x * py
            if abs(0.5 * acc) < 1e-9:
                raise SchemaError("polygon vertices are collinear")
            cx, cy = sx / n, sy / n
            r = max([hypot(x - cx, y - cy) for x, y in vertices])
            center, vertices = None, tuple(vertices)
    except SchemaError as exc:
        raise SchemaError(f"bad {kind} shape: {exc}") from None
    return {"kind": kind, "center": center, "radius": radius, "vertices": vertices,
            "bound": (cx, cy, r + BOUND_MARGIN * (1.0 + r + abs(cx) + abs(cy)))}


@value_class
class Shape:
    """A circle or a simple polygon, checked and measured by `_measure`, built or decoded."""

    kind: str  # "circle" | "polygon"
    center: Optional[Tuple[float, float]] = None
    radius: float = 0.0
    vertices: Tuple[Tuple[float, float], ...] = ()
    # (cx, cy, r): a padded disc enclosing the shape; never serialized
    bound: Tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__.update(_measure(self.kind, self.center, self.radius, self.vertices))

    def centroid(self) -> Tuple[float, float]:
        return self.bound[:2]

    def distance_from(self, point) -> float:
        if self.kind == "circle":
            return geo.circle_distance(point, self.center, self.radius)
        return geo.polygon_distance(point, self.vertices)

    def ray_hit(self, origin, direction) -> Optional[float]:
        if self.kind == "circle":
            return geo.ray_circle(origin, direction, self.center, self.radius)
        return geo.ray_polygon(origin, direction, self.vertices)

    def to_dict(self) -> dict:
        if self.kind == "circle":
            return {"type": "circle", "center": list(self.center), "radius": self.radius}
        return {"type": "polygon", "vertices": [list(v) for v in self.vertices]}

    def to_json(self) -> str:
        """canonical_json(self.to_dict()), written without building the dict.

        A circle's three finite floats are written by their repr. A polygon's
        vertices take one call of the C encoder, which a Python loop writing
        their coordinates by repr did not beat.
        """
        if self.kind == "circle":
            (x, y), r = self.center, self.radius
            return f'{{"center":[{x!r},{y!r}],"radius":{r!r},"type":"circle"}}'
        return f'{{"type":"polygon","vertices":{canonical_json(self.vertices)}}}'

    @classmethod
    def from_dict(cls, data: dict) -> "Shape":
        """The shape of a document, checked and measured as the constructor does."""
        if type(data) is not dict or "type" not in data:
            raise SchemaError(f"shape document must be an object with a type: {reprlib.repr(data)}")
        shape = object.__new__(cls)
        shape.__dict__.update(_measure(data["type"], data.get("center"), data.get("radius"), data.get("vertices")))
        return shape


@codec
@value_class
class SimObject:
    id: str
    kind: str
    shape: Shape
    label: Optional[str] = None  # None: the kind
    color: str = "gray"
    height: float = 0.5
    text_on_object: Optional[str] = None

    def __post_init__(self):
        if self.kind not in OBJECT_KINDS:
            raise SchemaError(f"unknown object kind: {self.kind!r}")
        if not self.height > 0:  # NaN included
            raise SchemaError(f"object {self.id!r}: height must be positive")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)


# A world with fewer objects keeps the plain scan. On worlds of the clutter
# benchmark's density, one episode's sensor reads and drives (its seven
# commands, grid build included) cost the same either way at 24 to 28 objects
# (Python 3.11, a 2-vCPU host); at 32 the grid saved 6-8%, at 150 about 45%.
GRID_MIN_OBJECTS = 32


# exact bits of a pair (a position, or a heading and a pitch) and of one float, so that 0.0 and -0.0 differ
_pair_bits = struct.Struct("<dd").pack
_float_bits = struct.Struct("<d").pack


class Spot:
    """What the queries at one robot position have found there.

    `hidden` holds the camera's line-of-sight verdicts, object index -> hidden:
    they depend on the position and the objects alone. `render` and `sensors`
    hold the last `render_camera` and `read_sensors` results there, as
    (pose bits, params, result): the exact bits of the heading and pitch (of
    the heading alone for the sensors), and the `SimParams` object they were
    computed with, compared by identity. Each is replaced whole, so a reader
    never sees the key of one result with another.
    """

    __slots__ = ("bits", "hidden", "render", "sensors")

    def __init__(self, bits: bytes):
        self.bits = bits
        self.hidden = {}
        self.render = self.sensors = (b"", None, None)


class ObjectSet(tuple):
    """A world's objects in world order, with what queries derive from them.

    Objects never move, so the row table and the grid are built once, on
    the first query that wants them, and kept with the tuple: every
    WorldState that shares the tuple shares them, and a new tuple can never
    carry a stale one. What the queries found at the last position queried
    is kept the same way, as a `Spot`.
    """

    _spot = Spot(b"")  # never returned: no position packs to b""

    @cached_property
    def rows(self) -> Tuple[tuple, float]:
        """(table, extent): in world order, the row (i, cx, cy, r, object) of
        each object, its index and its `Shape.bound`; and the largest
        1 + r + |cx| + |cy| of the rows (1.0 for none), which bounds every
        disc's own padding. Every scan, the grid's cells and the camera's cull
        read these rows."""
        table = tuple([(i, *obj.shape.bound, obj) for i, obj in enumerate(self)])
        return table, max([1.0 + r + abs(cx) + abs(cy) for _, cx, cy, r, _ in table], default=1.0)

    @cached_property
    def grid(self) -> Optional["Grid"]:
        """The grid over the rows' bounding discs; None keeps the plain scan."""
        return Grid.build(self.rows[0]) if len(self) >= GRID_MIN_OBJECTS else None

    def spot(self, x: float, y: float) -> Spot:
        """The record of position (x, y): the last one if it was queried at
        these exact coordinates, else a new one. The record swaps in whole, so
        a query on another thread keeps the record of its own position."""
        key = _pair_bits(x, y)
        spot = self._spot
        if spot.bits != key:
            spot = self._spot = Spot(key)
        return spot


class Grid:
    """A uniform grid of square cells over a world's padded bounding discs.

    Each cell lists, in world order, the rows of the objects whose bound,
    grown by `pad`, overlaps it (Ericson, Real-Time Collision Detection, 2004, ch. 7).
    `pad` covers the rounding of cell indices and of a ray's crossing
    distances, so the cells a query visits hold every object that can change
    its result. A query whose origin lies outside the grid returns None, and
    the caller scans.
    """

    __slots__ = ("x0", "y0", "size", "nx", "ny", "pad", "cells")

    @classmethod
    def build(cls, rows) -> Optional["Grid"]:
        """The grid of a world's rows, `ObjectSet.rows`, or None where it would be unbounded.

        The cell side is the larger of the widest bound's diameter and the side
        that makes about one cell per object over the bounds' box, so a grid
        has at most n cells and 4 n memberships, but for a disc as wide as a
        cell that rounding at a cell edge spreads over three (at most 3 x 3).
        Every bound lies within WORLD_LIMIT (see `WorldState`); None when the
        cell side still overflows, as for about 10^7 discs spread that far.
        """
        n = len(rows)
        _, xs, ys, rs, _ = zip(*rows)
        lo_x, hi_x = min(map(sub, xs, rs)), max(map(add, xs, rs))
        lo_y, hi_y = min(map(sub, ys, rs)), max(map(add, ys, rs))
        pad = BOUND_MARGIN * (1.0 + max(abs(lo_x), abs(hi_x), abs(lo_y), abs(hi_y)))
        x0, y0 = lo_x - pad, lo_y - pad
        # a disc's cells run from (c - r - (x0 + pad)) / size to (c + r + (pad - x0)) / size
        low_x, high_x, low_y, high_y = x0 + pad, pad - x0, y0 + pad, pad - y0
        w, h = hi_x + high_x, hi_y + high_y
        # at least the widest disc, so that each spans at most 2 x 2 cells, and at least
        # the side s at which (w / s + 1) * (h / s + 1) = n, written without cancellation
        size = max(2.0 * (max(rs) + pad),
                   (w + h + math.sqrt((w + h) * (w + h) + 4.0 * w * h * (n - 1))) / (2.0 * max(1, n - 1)))
        if not math.isfinite(w + h + size):
            return None
        nx, ny = int(w / size) + 1, int(h / size) + 1
        cells = [[] for _ in range(nx * ny)]
        for row, cx, cy, r in zip(rows, xs, ys, rs):
            # int() truncates a low end within rounding below 0 to 0, and a high
            # end cannot pass w or h, the same sums over the largest disc
            ix, ix1 = int((cx - r - low_x) / size), int((cx + r + high_x) / size)
            iy, iy1 = int((cy - r - low_y) / size), int((cy + r + high_y) / size)
            k = ix * ny + iy
            if ix1 - ix > 1 or iy1 - iy > 1:  # rounding at a cell edge puts a disc as wide as a cell in three
                for col in range(k, ix1 * ny + iy + 1, ny):
                    for cell in cells[col:col + iy1 - iy + 1]:
                        cell.append(row)
                continue
            cells[k].append(row)
            if iy1 > iy:
                cells[k + 1].append(row)
            if ix1 > ix:
                cells[k + ny].append(row)
                if iy1 > iy:
                    cells[k + ny + 1].append(row)
        grid = cls()
        grid.x0, grid.y0, grid.size, grid.nx, grid.ny, grid.pad, grid.cells = x0, y0, size, nx, ny, pad, cells
        return grid

    def nearest_hit(self, origin, direction, limit: float) -> Optional[float]:
        """`_nearest_hit` over the cells the ray crosses, nearest first.

        The walk steps from cell to cell at the ray's next crossing of a cell
        edge (Amanatides and Woo, "A Fast Voxel Traversal Algorithm for Ray
        Tracing", 1987). Each cell's objects get the scan's disc cull and then
        the exact test, once per object however many cells it spans. The walk
        stops at the grid's edge, or once the best hit lies before the next
        cell's entry distance by more than `pad`: no object met after that
        could hit nearer. The minimum does not depend on the order of the tests.
        """
        ox, oy = origin
        dx, dy = direction
        x0, y0, size, ny, pad, cells = self.x0, self.y0, self.size, self.ny, self.pad, self.cells
        fx, fy = (ox - x0) / size, (oy - y0) / size
        if not (0.0 <= fx < self.nx and 0.0 <= fy < ny):
            return None
        ix, iy = int(fx), int(fy)
        step_x, edge_x = (1, 1) if dx > 0.0 else (-1, 0)
        step_y, edge_y = (1, 1) if dy > 0.0 else (-1, 0)
        best = limit
        tested = set()
        while True:
            for i, cx, cy, r, obj in cells[ix * ny + iy]:
                # the scan's disc cull, then its exact test
                mx, my = cx - ox, cy - oy
                along = mx * dx + my * dy
                d2 = mx * mx + my * my
                rr = r * r
                if d2 > rr and (along < 0.0 or d2 - along * along > rr or along - r >= best):
                    continue
                if i in tested:
                    continue
                tested.add(i)
                t = obj.shape.ray_hit(origin, direction)
                if t is not None and t < best:
                    best = t
            tx = (x0 + (ix + edge_x) * size - ox) / dx if dx else math.inf
            ty = (y0 + (iy + edge_y) * size - oy) / dy if dy else math.inf
            if tx < ty:
                ix += step_x
                if tx - pad > best or not 0 <= ix < self.nx:
                    return best
            else:
                iy += step_y
                if ty - pad > best or not 0 <= iy < ny:
                    return best

    def near_box(self, start, end, reach: float) -> Optional[list]:
        """The rows, in world order, listed in the cells that the box of the
        segment start-end, grown by `reach`, overlaps: a superset of those whose
        bounding disc comes within `reach` of the segment.

        None when `start` lies outside the grid.
        """
        x0, y0, size, ny, pad = self.x0, self.y0, self.size, self.ny, self.pad
        sx, sy = start
        if not (0.0 <= (sx - x0) / size < self.nx and 0.0 <= (sy - y0) / size < ny):
            return None
        grow = reach + pad
        ix0 = max(0, math.floor((min(sx, end[0]) - grow - x0) / size))
        ix1 = min(self.nx - 1, math.floor((max(sx, end[0]) + grow - x0) / size))
        iy0 = max(0, math.floor((min(sy, end[1]) - grow - y0) / size))
        iy1 = min(ny - 1, math.floor((max(sy, end[1]) + grow - y0) / size))
        found = {}
        for ix in range(ix0, ix1 + 1):
            for cell in self.cells[ix * ny + iy0:ix * ny + iy1 + 1]:
                for row in cell:
                    found[row[0]] = row
        return [found[i] for i in sorted(found)]


# How far from the origin, in meters, a world may reach: then no difference of
# two of its coordinates passes 1e150, and no sum of two squares of such
# differences overflows (a float's square does past about 1.3e154).
WORLD_LIMIT = 1e150


@codec
@value_class
class WorldState:
    """The robot, the objects and the parameters of one world.

    Its robot's x, y and heading are finite floats (`RobotPose` checks them),
    and so is every buzzer event, whatever the objects. A world on a new
    sequence of objects, built or decoded, is checked further: its object ids
    are unique, and it reaches no farther than WORLD_LIMIT from the origin, as
    its rows' extent plus the robot's |x| + |y|. A world on another's
    `ObjectSet`, as a command's, is not.
    """

    robot: RobotPose
    objects: Tuple[SimObject, ...] = ()  # an ObjectSet: __post_init__ wraps any other sequence
    params: SimParams = field(default_factory=SimParams)
    buzzer_events: Tuple[float, ...] = ()
    # commands executed so far; doubles as the sim clock. A buzzer event
    # records float(tick), which must be exact.
    tick: int = _within(0, 2**53 - 1, 0)

    def __post_init__(self):
        events = self.buzzer_events
        for event in events:
            if type(event) is not float or not isfinite(event):
                try:
                    events = tuple([_float(value) for value in events])
                except SchemaError as exc:
                    raise SchemaError(f"WorldState.buzzer_events: {exc}") from None
                object.__setattr__(self, "buzzer_events", events)
                break
        if type(self.objects) is ObjectSet:
            return
        objects = ObjectSet(self.objects)
        if len({obj.id for obj in objects}) != len(objects):
            raise SchemaError("object ids must be unique")
        if not objects.rows[1] + abs(self.robot.x) + abs(self.robot.y) <= WORLD_LIMIT:
            raise SchemaError(f"the world reaches past {WORLD_LIMIT:g} m from the origin")
        object.__setattr__(self, "objects", objects)

    def object_by_id(self, object_id: str) -> SimObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)


def load_world(document: dict) -> WorldState:
    """Build a world from a plain document, filling parameter defaults; a
    robot whose footprint starts on an object raises OverlapError."""
    world = WorldState.from_dict(document)
    blocker = _overlapping_object(world.objects.rows[0], world.robot.position, world.params.footprint_radius)
    if blocker is not None:
        raise OverlapError(f"robot footprint overlaps object {blocker.id!r}")
    return world


def load_world_file(path) -> WorldState:
    """Build a world from a JSON world file; an unreadable file raises SchemaError."""
    return load_world(read_json(read_text(path, "world"), f"world {path}"))


def _overlapping_object(rows, position, radius: float) -> Optional[SimObject]:
    """The first object of `rows` nearer than `radius` to `position`, else None.

    The exact test runs only for an object whose bounding disc comes within
    `radius` of the point; a farther disc holds no point of its shape that near.
    """
    px, py = position
    for _, cx, cy, r, obj in rows:
        mx, my = cx - px, cy - py
        if mx * mx + my * my > (r + radius) * (r + radius):
            continue
        if obj.shape.distance_from(position) < radius:
            return obj
    return None


def _nearest_hit(rows, grid: Optional[Grid], origin, direction, limit: float) -> float:
    """Smallest ray hit below `limit` among the objects of `rows`, else `limit`.

    The ray walks `grid`, a world's grid over the same rows; with none, or
    from an origin outside it, the rows are scanned. The exact test runs only
    for an object whose bounding disc holds the origin or lies ahead, across
    the ray's line and nearer than the best hit so far; an object skipped
    could not have lowered the result.
    """
    if grid is not None:
        best = grid.nearest_hit(origin, direction, limit)
        if best is not None:
            return best
    ox, oy = origin
    dx, dy = direction
    best = limit
    for _, cx, cy, r, obj in rows:
        mx, my = cx - ox, cy - oy
        along = mx * dx + my * dy
        d2 = mx * mx + my * my
        rr = r * r
        if d2 > rr and (along < 0.0 or d2 - along * along > rr or along - r >= best):
            continue
        t = obj.shape.ray_hit(origin, direction)
        if t is not None and t < best:
            best = t
    return best


def raycast(world: WorldState, origin, direction_deg: float, max_range: float) -> float:
    """Distance to the nearest object boundary along the ray, capped at max_range."""
    objects = world.objects
    return _nearest_hit(objects.rows[0], objects.grid, origin, geo.unit(direction_deg), max_range)


def _ir_reach(p: SimParams) -> float:
    """The least distance L with L - footprint_radius > ir_range, capped at
    ultrasonic_max. Float subtraction is monotone, so every reading at or past
    L reads "nothing" as L does, and an IR ray cast to L answers as one cast to
    ultrasonic_max.

    L is the rounded sum S = footprint_radius + ir_range or the float below
    it when S qualifies, and one of the two floats above S when it does not;
    that holds for all parameters within their ranges, the only ones a
    SimParams can hold.
    """
    radius, ir_range = p.footprint_radius, p.ir_range
    reach = radius + ir_range
    if reach - radius > ir_range:
        below = nextafter(reach, -inf)
        if below - radius > ir_range:
            reach = below
    else:
        reach = nextafter(reach, inf)
        if not reach - radius > ir_range:
            reach = nextafter(reach, inf)
    cap = p.ultrasonic_max
    return reach if reach < cap else cap


def read_sensors(world: WorldState) -> SensorData:
    """Ultrasonic from the footprint's front edge; IR switches at +/-ir_angle.

    The sonar casts to ultrasonic_max. An IR switch only tells whether a hit
    lies within footprint_radius + ir_range, so its ray stops at `_ir_reach`.
    A read at the position and heading of the last read there, with the same
    params object, returns that read's result.
    """
    p = world.params
    pose = world.robot
    objects = world.objects
    spot = objects.spot(pose.x, pose.y)
    key = _float_bits(pose.heading)
    bits, params, sensors = spot.sensors
    if bits == key and params is p:
        return sensors
    clearance = _front_clearance(objects.rows[0], objects.grid, p.footprint_radius, pose.position,
                                 geo.unit(pose.heading), p.ultrasonic_max)
    reach = _ir_reach(p)

    def ir(side_deg: float) -> bool:
        d = raycast(world, pose.position, pose.heading + side_deg, reach)
        return d - p.footprint_radius <= p.ir_range

    sensors = SensorData(
        ultrasonic_clearance=clearance,
        ir_left=ir(+p.ir_angle),
        ir_right=ir(-p.ir_angle),
    )
    spot.sensors = (key, p, sensors)
    return sensors


def _max_free_advance(rows, radius: float, start, direction, limit: float, clear: float) -> float:
    """Largest travel in [0, limit] that keeps the footprint off every object of `rows`.

    Bisects the overlap predicate; 60 halvings put the answer well below 1e-12
    of the true contact point, so clamped stops never overlap. A travel of at
    most `clear` is known free, so a midpoint there is taken as free untested:
    the test would find it free. The halvings, and so the answer's bits, are
    those of testing every midpoint.
    """
    end = (start[0] + direction[0] * limit, start[1] + direction[1] * limit)
    if _overlapping_object(rows, end, radius) is None:
        return limit
    lo, hi = 0.0, limit  # lo is known free (current pose is legal)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid <= clear or _overlapping_object(rows, (start[0] + direction[0] * mid,
                                                      start[1] + direction[1] * mid), radius) is None:
            lo = mid
        else:
            hi = mid
    return lo


def _front_clearance(rows, grid: Optional[Grid], radius: float, position, front, limit: float) -> float:
    """The sonar's reading, capped at `limit`, from the edge of a footprint of
    `radius` along the unit vector `front`."""
    edge = (position[0] + front[0] * radius, position[1] + front[1] * radius)
    return _nearest_hit(rows, grid, edge, front, limit)


def _clear_spans(rows, origin, direction, p: SimParams, forward: bool, pad: float) -> Tuple[float, float]:
    """(free, sonar): how far a drive from `origin` along the unit vector
    `direction` can travel, by the bounding discs of `rows` alone, with its
    footprint surely touching none of them, and, for a forward drive, with its
    sonar surely reading at least avoid_threshold from each travel up to there.

    The footprint's centre enters a disc (c, r) grown by footprint_radius at the
    travel along - chord, where `along` and `cross` are the offsets of c along
    and across the path; the sonar meets the disc first at along - chord -
    footprint_radius from its cast. `pad`, which must exceed the rounding of
    the points the drive tests, of these offsets and of the discs' own culls,
    grows each disc and shortens each span, and (g - cross) * (g + cross) keeps
    the chord well conditioned where the path grazes a disc. So over each span
    the exact tests that the drive skips would find nothing. A disc that the
    path misses, or that lies wholly behind the footprint or the sonar's cast,
    bounds neither. A drive backward checks no sonar: its sonar span is inf.
    """
    radius, threshold = p.footprint_radius, p.avoid_threshold
    # with no hit at all, the sonar reads ultrasonic_max
    free, sonar = inf, (inf if not forward or p.ultrasonic_max >= threshold else -inf)
    ox, oy = origin
    dx, dy = direction
    for _, cx, cy, r, _ in rows:
        mx, my = cx - ox, cy - oy
        along = mx * dx + my * dy
        cross = abs(mx * dy - my * dx)
        g = r + radius + pad
        if cross < g:
            chord = math.sqrt((g - cross) * (g + cross))
            if along + chord > 0.0 and along - chord - pad < free:
                free = along - chord - pad
        g = r + pad
        if forward and cross < g:
            chord = math.sqrt((g - cross) * (g + cross))
            if along + chord >= radius and along - chord - radius - threshold - pad < sonar:
                sonar = along - chord - radius - threshold - pad
    return free, sonar


def _near_segment(objects: ObjectSet, start, end, reach: float) -> list:
    """The rows whose bounding disc comes within `reach` of the segment
    start-end, in world order; from those of the world's grid cells near the
    segment, or from all of them where the grid does not serve."""
    grid = objects.grid
    rows = None if grid is None else grid.near_box(start, end, reach)
    if rows is None:
        rows = objects.rows[0]
    sx, sy = start
    ex, ey = end[0] - sx, end[1] - sy
    length2 = ex * ex + ey * ey
    inv = 1.0 / length2 if length2 > 0.0 else 0.0
    near = []
    for row in rows:
        _, cx, cy, r, _ = row
        px, py = cx - sx, cy - sy
        u = min(1.0, max(0.0, (px * ex + py * ey) * inv))
        qx, qy = px - u * ex, py - u * ey
        if qx * qx + qy * qy <= (r + reach) * (r + reach):  # ** raises OverflowError past 1e154
            near.append(row)
    return near


def _drive(world: WorldState, requested: float, forward: bool) -> Tuple[RobotPose, ExecOutcome, float, float]:
    """Integrate a straight drive; forward motion auto-avoids, reverse does not.

    Returns the robot's pose after the drive, the outcome, the distance
    travelled and the heading change.

    Only objects near the path can stop it: the footprint sweeps within
    footprint_radius of the segment, and the avoid check looks avoid_threshold
    further along it. Once per drive, `_clear_spans` bounds from their discs
    the travel over which the footprint surely touches nothing, and the one
    from which the sonar surely reads at least avoid_threshold. An increment
    that ends within the first makes no overlap test; one that starts within
    the second makes no avoid check. Both are unbounded with nothing near, but
    for a sonar shorter than the threshold, which turns the drive at once. An
    avoid check that remains casts only to avoid_threshold, the one reading it
    compares.
    """
    p = world.params
    pose = world.robot
    travel_heading = pose.heading if forward else geo.norm_heading(pose.heading + 180.0)
    direction = geo.unit(travel_heading)
    origin = pose.position
    reach = p.footprint_radius + (p.avoid_threshold if forward else 0.0)
    end = (origin[0] + direction[0] * requested, origin[1] + direction[1] * requested)
    objects = world.objects
    near = _near_segment(objects, origin, end, reach)
    # the scale of every coordinate the drive computes, as in render_camera's cull
    pad = 2.0 * BOUND_MARGIN * (objects.rows[1] + abs(origin[0]) + abs(origin[1]) + requested + reach)
    free_to, sonar_to = _clear_spans(near, origin, direction, p, forward, pad)
    travelled = 0.0
    outcome = ExecOutcome.OK
    heading = pose.heading
    heading_change = 0.0
    step, radius, threshold = p.integration_step, p.footprint_radius, p.avoid_threshold
    sonar_limit = min(p.ultrasonic_max, threshold)
    while travelled < requested - 1e-12:
        remaining = requested - travelled
        inc = remaining if remaining < step else step  # min(step, remaining), bit for bit
        free = inc
        if travelled > sonar_to or inc > free_to - travelled:
            here = (origin[0] + direction[0] * travelled, origin[1] + direction[1] * travelled)
            # obstacle-avoid check happens before every increment; forward, the travel direction is the sonar's
            if travelled > sonar_to and _front_clearance(near, None, radius, here, direction, sonar_limit) < threshold:
                outcome = ExecOutcome.AVOIDED
                heading -= 90.0  # RobotPose normalizes it
                heading_change = -90.0
                break
            clear = free_to - travelled  # the travel from here that surely touches nothing
            if inc > clear:
                free = _max_free_advance(near, radius, here, direction, inc, clear)
        travelled += free
        if free < inc - 1e-12:
            outcome = ExecOutcome.BLOCKED
            break
    final = (origin[0] + direction[0] * travelled, origin[1] + direction[1] * travelled)
    return RobotPose(final[0], final[1], heading, pose.camera_pitch), outcome, travelled, heading_change


def apply_command(world: WorldState, command: Command) -> Tuple[WorldState, ExecResult]:
    """Execute one command and report what actually happened.

    A Command is range-checked when it is built, so every one is executed as given.
    """
    outcome = ExecOutcome.OK
    travelled = 0.0
    heading_change = 0.0
    pose = world.robot
    buzzer_events = world.buzzer_events
    if command.name in ("car_forward", "car_back"):
        pose, outcome, travelled, heading_change = _drive(
            world, command.value, forward=command.name == "car_forward"
        )
    elif command.name in ("car_left", "car_right"):
        sign = 1.0 if command.name == "car_left" else -1.0
        heading_change = sign * command.value
        pose = RobotPose(pose.x, pose.y, pose.heading + heading_change, pose.camera_pitch)
    elif command.name == "camera_move":
        pose = RobotPose(pose.x, pose.y, pose.heading, command.value)
    elif command.name == "buzzer":
        buzzer_events = buzzer_events + (float(world.tick),)
    world = WorldState(robot=pose, objects=world.objects, params=world.params,
                       buzzer_events=buzzer_events, tick=world.tick + 1)
    result = ExecResult(
        command_echo=command,
        outcome=outcome,
        distance_travelled=travelled,
        heading_change=heading_change,
        sensor_after=read_sensors(world),
    )
    return world, result


def visible_height_band(world: WorldState, obj: SimObject) -> Tuple[float, float]:
    """Portion of the object's height [lo, hi] inside the camera's vertical window.

    Returns (0, 0) when the window misses the object entirely. `render_camera`
    makes the same test inline, with the window's tangents taken once per frame.
    """
    p, pose = world.params, world.robot
    half = p.vfov / 2.0
    cx, cy = obj.shape.centroid()
    d = max(hypot(cx - pose.x, cy - pose.y), 1e-9)
    lo = max(0.0, p.camera_height + d * tan(radians(pose.camera_pitch - half)))
    hi = min(obj.height, p.camera_height + d * tan(radians(pose.camera_pitch + half)))
    if hi <= lo:
        return (0.0, 0.0)
    return (lo, hi)


def _hidden(occluders, origin, target: SimObject, angle: float, distance: float, edge: float) -> bool:
    """Whether an object other than `target` hides it from `origin`.

    The line of sight runs to the target's centroid, at `distance` and at the
    absolute angle `angle` in degrees, the one `render_camera` found for its
    bearing; `edge` is the near edge of the target's bounding disc. It is
    hidden when another object has an exact ray hit below t_self - 1e-9,
    where t_self is the target's own hit, or `distance` if the ray misses it.

    `occluders` holds (near edge, dx, dy, dx * dx + dy * dy, r * r, object)
    sorted by the near edge, the distance from the origin to the object's
    bounding disc (cx, cy, r), with (dx, dy) = (cx, cy) - origin: the frame
    works each out once, not once per target. No hit on an object lies nearer
    than its near edge, the target's own included. So a hit below the
    target's near edge less 1e-9 hides it, and t_self is found only once the
    walk meets a later hit or near edge. The walk answers "visible" at the
    first near edge at or beyond t_self - 1e-9.
    """
    direction = geo.unit(angle)
    ux, uy = direction
    below = edge - 1e-9  # at most t_self - 1e-9
    limit = None  # t_self - 1e-9, once the walk needs it
    target_id = target.id
    for near, mx, my, d2, rr, obj in occluders:
        if near >= below:
            if limit is None:
                limit = _sight_limit(target, origin, direction, distance)
            if near >= limit:
                return False
        along = mx * ux + my * uy
        if d2 > rr and (along < 0.0 or d2 - along * along > rr):
            continue
        if obj.id == target_id:
            continue
        t = obj.shape.ray_hit(origin, direction)
        if t is None:
            continue
        if t < below:
            return True
        if limit is None:
            limit = _sight_limit(target, origin, direction, distance)
        if t < limit:
            return True
    return False


def _sight_limit(target: SimObject, origin, direction, distance: float) -> float:
    """t_self - 1e-9: a hit on another object nearer than this hides the target."""
    t_self = target.shape.ray_hit(origin, direction)
    return (distance if t_self is None else t_self) - 1e-9


_near_edge = itemgetter(0)  # an occluder's sort key
_distance_and_id = itemgetter(0, 1)  # a candidate's sort key


def render_camera(world: WorldState) -> Observation:
    """Symbolic camera: items for every unoccluded object inside both FOV axes.

    The frame's constants (the half-angle's cosine and sine, the heading's
    unit vector, the tangents of the vertical window's edges) are worked out
    once per render. A bounding disc that lies wholly outside the field of
    view can neither be seen nor hide anything seen. A dot/cross test, padded
    like the discs, rejects it before any trigonometry. Each object in view
    then needs its verdict: whether a nearer object hides it along its line of
    sight. That depends on the robot's position alone, not on where the robot
    looks, so the verdicts at this position are kept in the world's
    `ObjectSet.spot`, and `_hidden` finds only those not yet judged there,
    over occluders whose offsets from the robot the cull worked out once. A
    render at the pose of the last render there, with the same params object,
    returns its result.
    """
    p = world.params
    pose = world.robot
    x, y, heading, pitch = pose.x, pose.y, pose.heading, pose.camera_pitch
    spot = world.objects.spot(x, y)
    key = _pair_bits(heading, pitch)
    bits, params, observation = spot.render
    if bits == key and params is p:
        return observation
    half = p.hfov / 2.0
    cos_half, sin_half = cos(radians(half)), sin(radians(half))
    fx, fy = cos(radians(heading)), sin(radians(heading))  # geo.unit(heading)
    # the vertical window of visible_height_band
    camera_height, half_v = p.camera_height, p.vfov / 2.0
    tan_lo, tan_hi = tan(radians(pitch - half_v)), tan(radians(pitch + half_v))
    table, extent = world.objects.rows
    # twice the largest of the discs' own paddings, BOUND_MARGIN * (1 + r + |dx| + |dy|),
    # as |dx| <= |cx| + |x|: a looser cull only adds objects that the exact tests turn away
    pad = 2.0 * BOUND_MARGIN * (extent + abs(x) + abs(y))
    in_view, occluders = [], []
    for i, cx, cy, r, obj in table:
        dx, dy = cx - x, cy - y
        # `past`: how far the centre lies beyond the line of the field of
        # view's edge on its side. Below 180 degrees the view is a convex cone
        # that lies at least `past` away; above, what it leaves out is a convex
        # wedge behind the robot, and `past` is the centre's depth inside it.
        # Either way a disc more than its radius past the line is out of view.
        past = abs(dx * fy - dy * fx) * cos_half - (dx * fx + dy * fy) * sin_half
        if past > r + pad:
            continue
        distance = hypot(dx, dy)
        angle = degrees(atan2(dy, dx))
        bearing = (angle - heading) % 360.0  # geo.rel_bearing, into (-180, 180]
        if bearing > 180.0:
            bearing -= 360.0
        off = abs(bearing)
        # every line of sight below lies in the field of view; a disc that
        # stays outside it cannot occlude. A bearing within half passes
        # without the asin, as half plus a nonnegative angle is at least half.
        if distance <= r or off <= half or off <= half + degrees(asin(r / distance)):
            occluders.append((distance - r, dx, dy, dx * dx + dy * dy, r * r, obj))
        if distance < 1e-9 or off > half:
            continue
        # visible_height_band's test, min(height, hi) > max(0.0, lo), for distance >= 1e-9
        lo = camera_height + distance * tan_lo
        hi = camera_height + distance * tan_hi
        height = obj.height
        if (hi if hi < height else height) > (lo if lo > 0.0 else 0.0):
            in_view.append((i, obj, angle, distance, bearing, distance - r))
    occluders.sort(key=_near_edge)
    hidden = spot.hidden
    candidates = []
    for i, obj, angle, distance, bearing, edge in in_view:
        verdict = hidden.get(i)
        if verdict is None:
            verdict = hidden[i] = _hidden(occluders, (x, y), obj, angle, distance, edge)
        if verdict:
            continue
        candidates.append(
            (
                distance,
                obj.id,
                VisibleObject(
                    label=obj.label,
                    color=obj.color,
                    shape=obj.shape.kind,
                    text_on_object=obj.text_on_object,
                    distance=distance,
                    bearing=bearing,
                ),
            )
        )
    candidates.sort(key=_distance_and_id)
    observation = Observation.from_items(tuple(c[2] for c in candidates))
    spot.render = (key, p, observation)
    return observation


def world_digest(world: WorldState) -> str:
    """Hex sha256 of the world's canonical JSON, `canonical_json(world.to_dict())`, in UTF-8.

    `world.to_json()` writes those bytes without building the dicts.
    """
    return hashlib.sha256(world.to_json().encode("utf-8")).hexdigest()


class SimRobot:
    """The simulator exposed as a robot handle, no transport in between.

    The bridge serves one of these, and its client-side `BridgeRobot` has the
    same connect()/execute()/world surface, so the episode loop cannot tell
    them apart. `world` is the current world state.
    """

    def __init__(self, world: WorldState):
        self.world = world

    def connect(self):
        return read_sensors(self.world), render_camera(self.world)

    def execute(self, command: Command):
        self.world, result = apply_command(self.world, command)
        return result, result.sensor_after, render_camera(self.world)
