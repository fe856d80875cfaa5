"""The simulator's full-scan loops, kept as the reference for its broad phase.

These are the drive, sensor and camera loops as they were before `sim` culled
objects by their bounding discs: every object gets its exact geometry test.
tests/test_sim.py requires the culled simulator to return exactly what these
return, bit for bit.
"""
import math
from dataclasses import replace
from typing import Optional, Tuple

from carobo import geometry as geo
from carobo import sim
from carobo.model import (
    Command,
    ExecOutcome,
    ExecResult,
    Observation,
    SensorData,
    VisibleObject,
)
from carobo.sim import SimObject, WorldState, visible_height_band


def _overlapping_object(world: WorldState, position) -> Optional[SimObject]:
    for obj in world.objects:
        if obj.shape.distance_from(position) < world.params.footprint_radius:
            return obj
    return None


def raycast(world: WorldState, origin, direction_deg: float, max_range: float) -> float:
    """Distance to the nearest object boundary along the ray, capped at max_range."""
    direction = geo.unit(direction_deg)
    best = max_range
    for obj in world.objects:
        t = obj.shape.ray_hit(origin, direction)
        if t is not None and t < best:
            best = t
    return best


def read_sensors(world: WorldState) -> SensorData:
    """Ultrasonic from the footprint's front edge; IR switches at +/-ir_angle."""
    p = world.params
    pose = world.robot
    clearance = _front_clearance(world, pose.position, pose.heading)

    def ir(side_deg: float) -> bool:
        d = raycast(world, pose.position, pose.heading + side_deg, p.ultrasonic_max)
        return d - p.footprint_radius <= p.ir_range

    return SensorData(
        ultrasonic_clearance=clearance,
        ir_left=ir(+p.ir_angle),
        ir_right=ir(-p.ir_angle),
    )


def _max_free_advance(world: WorldState, start, direction, limit: float) -> float:
    """Largest travel in [0, limit] that keeps the footprint off every object.

    Bisects the overlap predicate; 60 halvings put the answer well below 1e-12
    of the true contact point, so clamped stops never overlap.
    """
    end = (start[0] + direction[0] * limit, start[1] + direction[1] * limit)
    if _overlapping_object(world, end) is None:
        return limit
    lo, hi = 0.0, limit  # lo is known free (current pose is legal)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p = (start[0] + direction[0] * mid, start[1] + direction[1] * mid)
        if _overlapping_object(world, p) is None:
            lo = mid
        else:
            hi = mid
    return lo


def _front_clearance(world: WorldState, position, heading: float) -> float:
    p = world.params
    front = geo.unit(heading)
    edge = (position[0] + front[0] * p.footprint_radius, position[1] + front[1] * p.footprint_radius)
    return raycast(world, edge, heading, p.ultrasonic_max)


def _drive(world: WorldState, requested: float, forward: bool) -> Tuple[WorldState, ExecOutcome, float, float]:
    """Integrate a straight drive; forward motion auto-avoids, reverse does not."""
    p = world.params
    pose = world.robot
    travel_heading = pose.heading if forward else geo.norm_heading(pose.heading + 180.0)
    direction = geo.unit(travel_heading)
    origin = pose.position
    travelled = 0.0
    outcome = ExecOutcome.OK
    heading = pose.heading
    heading_change = 0.0
    while travelled < requested - 1e-12:
        here = (origin[0] + direction[0] * travelled, origin[1] + direction[1] * travelled)
        if forward:
            # obstacle-avoid check happens before every increment
            if _front_clearance(world, here, heading) < p.avoid_threshold:
                outcome = ExecOutcome.AVOIDED
                heading = geo.norm_heading(heading - 90.0)
                heading_change = -90.0
                break
        inc = min(p.integration_step, requested - travelled)
        free = _max_free_advance(world, here, direction, inc)
        travelled += free
        if free < inc - 1e-12:
            outcome = ExecOutcome.BLOCKED
            break
    final = (origin[0] + direction[0] * travelled, origin[1] + direction[1] * travelled)
    new_pose = replace(pose, x=final[0], y=final[1], heading=heading)
    return replace(world, robot=new_pose), outcome, travelled, heading_change

def apply_command(world: WorldState, command: Command) -> Tuple[WorldState, ExecResult]:
    """`sim.apply_command` with the full-scan drive and sensors."""
    if command.name not in ("car_forward", "car_back"):
        world, result = sim.apply_command(world, command)
        return world, replace(result, sensor_after=read_sensors(world))
    world, outcome, travelled, heading_change = _drive(
        world, command.value, forward=command.name == "car_forward"
    )
    world = replace(world, tick=world.tick + 1)
    result = ExecResult(
        command_echo=command,
        outcome=outcome,
        distance_travelled=travelled,
        heading_change=heading_change,
        sensor_after=read_sensors(world),
    )
    return world, result


def render_camera(world: WorldState) -> Observation:
    """Symbolic camera: items for every unoccluded object inside both FOV axes."""
    p = world.params
    pose = world.robot
    candidates = []
    for obj in world.objects:
        cx, cy = obj.shape.centroid()
        dx, dy = cx - pose.x, cy - pose.y
        distance = math.hypot(dx, dy)
        if distance < 1e-9:
            continue
        bearing = geo.rel_bearing(math.degrees(math.atan2(dy, dx)) - pose.heading)
        if abs(bearing) > p.hfov / 2.0:
            continue
        lo, hi = visible_height_band(world, obj)
        if hi <= lo:
            continue
        # occlusion along the center line: a nearer object hiding this one
        direction = geo.unit(math.degrees(math.atan2(dy, dx)))
        t_self = obj.shape.ray_hit(pose.position, direction)
        if t_self is None:
            t_self = distance
        occluded = False
        for other in world.objects:
            if other.id == obj.id:
                continue
            t_other = other.shape.ray_hit(pose.position, direction)
            if t_other is not None and t_other < t_self - 1e-9:
                occluded = True
                break
        if occluded:
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

