"""Deterministic 2D simulator for the car-type robot.

The world is a plane of circle/polygon obstacles with heights; the robot is a
disc footprint with a heading, a pitch-adjustable camera, an ultrasonic range
finder and two IR proximity switches. Command execution is pure: it returns a
new world plus an execution report, so episodes replay bit-for-bit.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

from . import geometry as geo
from .model import (
    CaroboError,
    Command,
    ExecOutcome,
    ExecResult,
    InvalidCommand,
    Observation,
    SchemaError,
    SensorData,
    VisibleObject,
    canonical_json,  # unused since world_digest hashes to_json(); perfbench/tracer.py wraps sim.canonical_json
    codec,
    field_codec,
    validate_command,
)

OBJECT_KINDS = ("box", "wall", "person", "paper", "refrigerator", "marker")


class OverlapError(CaroboError):
    """Robot footprint starts inside an object."""


# name -> (low, high): the closed range of each simulator parameter. The
# lower bounds keep every drive finite: a step of 1 mm takes 10^4 increments
# for the longest legal drive.
PARAM_RANGES = {
    "footprint_radius": (0.001, 10.0),
    "ultrasonic_max": (0.001, 100.0),
    "avoid_threshold": (0.0, 10.0),
    "integration_step": (0.001, 1.0),
    "hfov": (1.0, 360.0),
    "vfov": (1.0, 179.0),
    "ir_range": (0.0, 10.0),
    "ir_angle": (0.0, 180.0),
    "camera_height": (0.0, 10.0),
}


@codec(strict=True)
@dataclass(frozen=True)
class SimParams:
    footprint_radius: float = 0.10
    ultrasonic_max: float = 4.0
    avoid_threshold: float = 0.30
    integration_step: float = 0.05
    hfov: float = 62.0
    vfov: float = 49.0
    ir_range: float = 0.20
    ir_angle: float = 30.0
    camera_height: float = 0.12

    def __post_init__(self):
        for name, (low, high) in PARAM_RANGES.items():
            if not low <= getattr(self, name) <= high:
                raise SchemaError(f"params.{name}={getattr(self, name)!r} outside [{low:g}, {high:g}]")


@codec
@dataclass(frozen=True)
class RobotPose:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0  # degrees CCW from +x, kept in [0, 360)
    camera_pitch: float = 0.0

    def __post_init__(self):
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

_, _number, _write_number = field_codec(float)
_, _point, _write_point = field_codec(Tuple[float, float])
_, _points, _write_points = field_codec(Tuple[Tuple[float, float], ...])


@dataclass(frozen=True)
class Shape:
    kind: str  # "circle" | "polygon"
    center: Optional[Tuple[float, float]] = None
    radius: float = 0.0
    vertices: Tuple[Tuple[float, float], ...] = ()
    # (cx, cy, r): a padded disc enclosing the shape; never serialized
    bound: Tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cx, cy = self.centroid()
        if self.kind == "circle":
            r = self.radius
        else:
            r = max(math.hypot(x - cx, y - cy) for x, y in self.vertices)
        r += BOUND_MARGIN * (1.0 + r + abs(cx) + abs(cy))
        object.__setattr__(self, "bound", (cx, cy, r))

    def centroid(self) -> Tuple[float, float]:
        if self.kind == "circle":
            return self.center
        n = len(self.vertices)
        return (
            sum(v[0] for v in self.vertices) / n,
            sum(v[1] for v in self.vertices) / n,
        )

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
        """canonical_json(self.to_dict()), written without building the dict."""
        if self.kind == "circle":
            return f'{{"center":{_write_point(self.center)},"radius":{_write_number(self.radius)},"type":"circle"}}'
        return f'{{"type":"polygon","vertices":{_write_points(self.vertices)}}}'

    @classmethod
    def from_dict(cls, data: dict) -> "Shape":
        if type(data) is not dict or "type" not in data:
            raise SchemaError(f"shape document must be an object with a type: {data!r}")
        kind = data["type"]
        try:
            if kind == "circle":
                radius = _number(data.get("radius"))
                if radius <= 0:
                    raise SchemaError("radius must be positive")
                return cls(kind="circle", center=_point(data.get("center")), radius=radius)
            if kind == "polygon":
                vertices = _points(data.get("vertices"))
                if len(vertices) < 3:
                    raise SchemaError("a polygon needs at least 3 vertices")
                if abs(geo.polygon_area(vertices)) < 1e-9:
                    raise SchemaError("polygon vertices are collinear")
                return cls(kind="polygon", vertices=vertices)
        except SchemaError as exc:
            raise SchemaError(f"bad {kind} shape: {exc}") from None
        raise SchemaError(f"unknown shape type: {kind!r}")


@codec
@dataclass(frozen=True)
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
        if self.height <= 0:
            raise SchemaError(f"object {self.id}: height must be positive")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)


@codec
@dataclass(frozen=True)
class WorldState:
    robot: RobotPose
    objects: Tuple[SimObject, ...] = ()
    params: SimParams = field(default_factory=SimParams)
    buzzer_events: Tuple[float, ...] = ()
    tick: int = 0  # commands executed so far; doubles as the sim clock

    def object_by_id(self, object_id: str) -> SimObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)


def load_world(document: dict) -> WorldState:
    """Build a world from a plain document, filling parameter defaults."""
    world = WorldState.from_dict(document)
    ids = [o.id for o in world.objects]
    if len(set(ids)) != len(ids):
        raise SchemaError("object ids must be unique")
    blocker = _overlapping_object(world.objects, world.robot.position, world.params.footprint_radius)
    if blocker is not None:
        raise OverlapError(f"robot footprint overlaps object {blocker.id!r}")
    return world


def load_world_file(path) -> WorldState:
    """Build a world from a JSON world file; an unreadable file raises SchemaError."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read world {path}: {exc}") from exc
    return load_world(document)


def _overlapping_object(objects, position, radius: float) -> Optional[SimObject]:
    """The first object nearer than `radius` to `position`, else None.

    The exact test runs only for an object whose bounding disc comes within
    `radius` of the point; a farther disc holds no point of its shape that near.
    """
    px, py = position
    for obj in objects:
        cx, cy, r = obj.shape.bound
        mx, my = cx - px, cy - py
        if mx * mx + my * my > (r + radius) * (r + radius):
            continue
        if obj.shape.distance_from(position) < radius:
            return obj
    return None


def _nearest_hit(objects, origin, direction, limit: float) -> float:
    """Smallest ray hit below `limit` among `objects`, else `limit`.

    The exact test runs only for an object whose bounding disc holds the
    origin or lies ahead, across the ray's line and nearer than the best hit
    so far; an object skipped could not have lowered the result.
    """
    ox, oy = origin
    dx, dy = direction
    best = limit
    for obj in objects:
        cx, cy, r = obj.shape.bound
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
    return _nearest_hit(world.objects, origin, geo.unit(direction_deg), max_range)


def read_sensors(world: WorldState) -> SensorData:
    """Ultrasonic from the footprint's front edge; IR switches at +/-ir_angle."""
    p = world.params
    pose = world.robot
    clearance = _front_clearance(world.objects, p, pose.position, pose.heading)

    def ir(side_deg: float) -> bool:
        d = raycast(world, pose.position, pose.heading + side_deg, p.ultrasonic_max)
        return d - p.footprint_radius <= p.ir_range

    return SensorData(
        ultrasonic_clearance=clearance,
        ir_left=ir(+p.ir_angle),
        ir_right=ir(-p.ir_angle),
    )


def _max_free_advance(objects, radius: float, start, direction, limit: float) -> float:
    """Largest travel in [0, limit] that keeps the footprint off every object.

    Bisects the overlap predicate; 60 halvings put the answer well below 1e-12
    of the true contact point, so clamped stops never overlap.
    """
    end = (start[0] + direction[0] * limit, start[1] + direction[1] * limit)
    if _overlapping_object(objects, end, radius) is None:
        return limit
    lo, hi = 0.0, limit  # lo is known free (current pose is legal)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p = (start[0] + direction[0] * mid, start[1] + direction[1] * mid)
        if _overlapping_object(objects, p, radius) is None:
            lo = mid
        else:
            hi = mid
    return lo


def _front_clearance(objects, p: SimParams, position, heading: float) -> float:
    front = geo.unit(heading)
    edge = (position[0] + front[0] * p.footprint_radius, position[1] + front[1] * p.footprint_radius)
    return _nearest_hit(objects, edge, front, p.ultrasonic_max)


def _near_segment(objects, start, end, reach: float) -> list:
    """The objects whose bounding disc comes within `reach` of the segment start-end."""
    sx, sy = start
    ex, ey = end[0] - sx, end[1] - sy
    length2 = ex * ex + ey * ey
    inv = 1.0 / length2 if length2 > 0.0 else 0.0
    near = []
    for obj in objects:
        cx, cy, r = obj.shape.bound
        px, py = cx - sx, cy - sy
        u = min(1.0, max(0.0, (px * ex + py * ey) * inv))
        qx, qy = px - u * ex, py - u * ey
        if qx * qx + qy * qy <= (r + reach) ** 2:
            near.append(obj)
    return near


def _drive(world: WorldState, requested: float, forward: bool) -> Tuple[WorldState, ExecOutcome, float, float]:
    """Integrate a straight drive; forward motion auto-avoids, reverse does not.

    Only objects near the path can stop it: the footprint sweeps within
    footprint_radius of the segment, and the avoid check looks avoid_threshold
    further along it.
    """
    p = world.params
    pose = world.robot
    travel_heading = pose.heading if forward else geo.norm_heading(pose.heading + 180.0)
    direction = geo.unit(travel_heading)
    origin = pose.position
    reach = p.footprint_radius + (p.avoid_threshold if forward else 0.0)
    end = (origin[0] + direction[0] * requested, origin[1] + direction[1] * requested)
    near = _near_segment(world.objects, origin, end, reach)
    travelled = 0.0
    outcome = ExecOutcome.OK
    heading = pose.heading
    heading_change = 0.0
    while travelled < requested - 1e-12:
        here = (origin[0] + direction[0] * travelled, origin[1] + direction[1] * travelled)
        if forward:
            # obstacle-avoid check happens before every increment
            if _front_clearance(near, p, here, heading) < p.avoid_threshold:
                outcome = ExecOutcome.AVOIDED
                heading = geo.norm_heading(heading - 90.0)
                heading_change = -90.0
                break
        inc = min(p.integration_step, requested - travelled)
        free = _max_free_advance(near, p.footprint_radius, here, direction, inc)
        travelled += free
        if free < inc - 1e-12:
            outcome = ExecOutcome.BLOCKED
            break
    final = (origin[0] + direction[0] * travelled, origin[1] + direction[1] * travelled)
    new_pose = replace(pose, x=final[0], y=final[1], heading=heading)
    return replace(world, robot=new_pose), outcome, travelled, heading_change


def apply_command(world: WorldState, command: Command) -> Tuple[WorldState, ExecResult]:
    """Execute one command and report what actually happened.

    Distances, angles and buzzer durations are range-checked; camera pitch is
    clamped instead of rejected so a defensive caller still gets a legal world.
    """
    if command.name != "camera_move":
        validate_command(command)
    outcome = ExecOutcome.OK
    travelled = 0.0
    heading_change = 0.0
    if command.name in ("car_forward", "car_back"):
        world, outcome, travelled, heading_change = _drive(
            world, command.value, forward=command.name == "car_forward"
        )
    elif command.name in ("car_left", "car_right"):
        sign = 1.0 if command.name == "car_left" else -1.0
        heading_change = sign * command.value
        pose = world.robot
        world = replace(world, robot=replace(pose, heading=geo.norm_heading(pose.heading + heading_change)))
    elif command.name == "camera_move":
        pitch = min(60.0, max(-30.0, command.value))
        if pitch != command.value:
            outcome = ExecOutcome.CLAMPED
        world = replace(world, robot=replace(world.robot, camera_pitch=pitch))
    elif command.name == "buzzer":
        world = replace(world, buzzer_events=world.buzzer_events + (float(world.tick),))
    else:  # pragma: no cover - Command constructor rejects unknown names
        raise InvalidCommand(command.name)
    world = replace(world, tick=world.tick + 1)
    result = ExecResult(
        command_echo=command,
        outcome=outcome,
        distance_travelled=travelled,
        heading_change=heading_change,
        sensor_after=read_sensors(world),
    )
    return world, result


def _vertical_window(world: WorldState):
    """The camera's vertical window, as (height, distance) -> (lo, hi).

    The portion [lo, hi] of an object of that height, at that ground distance
    from the camera, that the window sees; (0, 0) when it sees none. The
    tangents of the window's two edges are taken once per call of this
    function, not once per object.
    """
    p = world.params
    half = p.vfov / 2.0
    tan_lo = math.tan(math.radians(world.robot.camera_pitch - half))
    tan_hi = math.tan(math.radians(world.robot.camera_pitch + half))

    def band(height: float, distance: float) -> Tuple[float, float]:
        d = max(distance, 1e-9)
        lo = max(0.0, p.camera_height + d * tan_lo)
        hi = min(height, p.camera_height + d * tan_hi)
        if hi <= lo:
            return (0.0, 0.0)
        return (lo, hi)

    return band


def visible_height_band(world: WorldState, obj: SimObject) -> Tuple[float, float]:
    """Portion of the object's height [lo, hi] inside the camera's vertical window.

    Returns (0, 0) when the window misses the object entirely.
    """
    cx, cy = obj.shape.centroid()
    return _vertical_window(world)(obj.height, math.hypot(cx - world.robot.x, cy - world.robot.y))


def _occluded(occluders, origin, direction, limit: float, target_id: str) -> bool:
    """Whether an occluder other than `target_id` has an exact ray hit below `limit`.

    `occluders` holds (near edge, cx, cy, r, object) sorted by the near edge,
    the distance from the origin to the object's bounding disc (cx, cy, r). No
    hit on an object lies nearer than its near edge, so the walk answers "not
    occluded" at the first near edge at or beyond `limit`, and "occluded" at
    the first exact hit below it.
    """
    ox, oy = origin
    dx, dy = direction
    for near, cx, cy, r, obj in occluders:
        if near >= limit:
            return False
        mx, my = cx - ox, cy - oy
        along = mx * dx + my * dy
        d2 = mx * mx + my * my
        rr = r * r
        if d2 > rr and (along < 0.0 or d2 - along * along > rr):
            continue
        if obj.id == target_id:
            continue
        t = obj.shape.ray_hit(origin, direction)
        if t is not None and t < limit:
            return True
    return False


def render_camera(world: WorldState) -> Observation:
    """Symbolic camera: items for every unoccluded object inside both FOV axes.

    A bounding disc that lies wholly outside the field of view can neither be
    seen nor hide anything seen. A dot/cross test, padded like the discs,
    rejects it before any trigonometry. Each object in view then looks for an
    occluder along its line of sight, nearest disc first, and stops at the
    first exact hit.
    """
    p = world.params
    pose = world.robot
    half = p.hfov / 2.0
    band = _vertical_window(world)
    fx, fy = geo.unit(pose.heading)
    cos_half, sin_half = math.cos(math.radians(half)), math.sin(math.radians(half))
    in_view, occluders = [], []
    for obj in world.objects:
        cx, cy, r = obj.shape.bound  # centred on the centroid
        dx, dy = cx - pose.x, cy - pose.y
        # `past`: how far the centre lies beyond the line of the field of
        # view's edge on its side. Below 180 degrees the view is a convex cone
        # that lies at least `past` away; above, what it leaves out is a convex
        # wedge behind the robot, and `past` is the centre's depth inside it.
        # Either way a disc more than its radius past the line is out of view.
        past = abs(dx * fy - dy * fx) * cos_half - (dx * fx + dy * fy) * sin_half
        if past > r + BOUND_MARGIN * (1.0 + r + abs(dx) + abs(dy)):
            continue
        distance = math.hypot(dx, dy)
        bearing = geo.rel_bearing(math.degrees(math.atan2(dy, dx)) - pose.heading)
        # every line of sight below lies in the field of view; a disc that
        # stays outside it cannot occlude
        if distance <= r or abs(bearing) <= half + math.degrees(math.asin(r / distance)):
            occluders.append((distance - r, cx, cy, r, obj))
        if distance < 1e-9 or abs(bearing) > half:
            continue
        lo, hi = band(obj.height, distance)
        if hi > lo:
            in_view.append((obj, dx, dy, distance, bearing))
    occluders.sort(key=lambda occluder: occluder[0])
    candidates = []
    for obj, dx, dy, distance, bearing in in_view:
        # occlusion along the center line: a nearer object hiding this one
        direction = geo.unit(math.degrees(math.atan2(dy, dx)))
        t_self = obj.shape.ray_hit(pose.position, direction)
        if t_self is None:
            t_self = distance
        if _occluded(occluders, pose.position, direction, t_self - 1e-9, obj.id):
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
    candidates.sort(key=lambda c: (c[0], c[1]))
    return Observation.from_items(tuple(c[2] for c in candidates))


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
