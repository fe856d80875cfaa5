"""Simulator semantics: driving, avoidance, sensors, the symbolic camera."""
import dataclasses
import math
import random
import struct
import sys
import threading
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fullscan_sim
from carobo import geometry, sim
from carobo.model import ArgOutOfRange, Command, ExecOutcome
from carobo.sim import (
    OverlapError,
    SchemaError,
    SimParams,
    SimRobot,
    apply_command,
    load_world,
    raycast,
    read_sensors,
    render_camera,
    visible_height_band,
    world_digest,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def make_world(objects=(), robot=None, params=None):
    doc = {
        "robot": robot or {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0},
        "objects": list(objects),
    }
    if params:
        doc["params"] = params
    return load_world(doc)


def box(oid, cx, cy, half=0.15, **extra):
    doc = {
        "id": oid,
        "kind": "box",
        "shape": {
            "type": "polygon",
            "vertices": [
                [cx - half, cy - half], [cx + half, cy - half],
                [cx + half, cy + half], [cx - half, cy + half],
            ],
        },
    }
    doc.update(extra)
    return doc


def disc(oid, cx, cy, r, **extra):
    doc = {"id": oid, "kind": "box", "shape": {"type": "circle", "center": [cx, cy], "radius": r}}
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# World loading

def test_default_params():
    p = SimParams()
    assert (p.footprint_radius, p.ultrasonic_max, p.avoid_threshold) == (0.10, 4.0, 0.30)
    assert (p.integration_step, p.hfov, p.vfov) == (0.05, 62.0, 49.0)
    assert (p.ir_range, p.ir_angle, p.camera_height) == (0.20, 30.0, 0.12)


def test_load_world_requires_robot():
    with pytest.raises(SchemaError):
        load_world({"objects": []})


def test_load_world_rejects_unknown_params():
    with pytest.raises(SchemaError):
        make_world(params={"warp_speed": 9})


def test_load_world_rejects_duplicate_ids():
    with pytest.raises(SchemaError):
        make_world([box("b", 1, 0), box("b", 2, 0)])


def test_load_world_rejects_unknown_kind():
    bad = box("b", 1, 0)
    bad["kind"] = "dragon"
    with pytest.raises(SchemaError):
        make_world([bad])


def test_load_world_rejects_bad_polygons():
    flat = {"id": "f", "kind": "box",
            "shape": {"type": "polygon", "vertices": [[0, 0], [1, 0], [2, 0]]}}
    with pytest.raises(SchemaError):
        make_world([flat])
    two = {"id": "t", "kind": "box", "shape": {"type": "polygon", "vertices": [[0, 0], [1, 0]]}}
    with pytest.raises(SchemaError):
        make_world([two])


def test_load_world_rejects_nonpositive_height():
    with pytest.raises(SchemaError):
        make_world([box("b", 1, 0, height=0.0)])


def test_load_world_rejects_initial_overlap():
    with pytest.raises(OverlapError):
        make_world([box("b", 0.2, 0.0)])  # face at 0.05, footprint radius 0.10


def polygon(oid, *vertices):
    return {"id": oid, "kind": "box", "shape": {"type": "polygon", "vertices": [list(v) for v in vertices]}}


# a triangle whose coordinates are finite but whose differences overflow: the
# camera saw it at distance inf, which the bridge then refused to decode
FAR_TRIANGLE = polygon("far", (1e308, 1e307), (1.5e308, 1e307), (1.2e308, 1.5e308))


@pytest.mark.parametrize("doc", [
    {"objects": [FAR_TRIANGLE]},
    # the robot stands inside it, but its vertex sums overflow, and so did the overlap check
    {"objects": [polygon("huge", (-1e308, -1e308), (1e308, -1e308), (0.0, 1e308))]},
    {"robot": {"x": 1e200}},
    {"robot": {"x": 6e149, "y": -6e149}},
    {"robot": {"x": -6e149}, "objects": [disc("d", 6e149, 0.0, 0.5)]},
], ids=["far triangle", "robot in a huge triangle", "far robot", "robot past the limit by |x| + |y|",
        "disc and robot past the limit together"])
def test_load_world_refuses_a_world_past_the_limit(doc):
    doc = {"robot": {}, **doc}
    with pytest.raises(SchemaError, match=r"^the world reaches past 1e\+150 m from the origin$"):
        load_world(doc)


def test_a_world_within_the_limit_loads_and_reads_finite():
    reach = sim.WORLD_LIMIT / 5
    world = make_world([disc("d", reach, -reach, 0.5)], robot={"x": -reach, "y": reach, "heading": 315.0})
    observation = render_camera(world)
    assert [item.label for item in observation.items] == ["box"]
    assert math.isfinite(observation.items[0].distance)
    assert math.isfinite(read_sensors(world).ultrasonic_clearance)


def test_world_roundtrips_through_dict():
    world = make_world([box("b", 1, 0, color="red", label="crate", height=0.4)])
    again = load_world(world.to_dict())
    assert again.to_dict() == world.to_dict()
    assert world_digest(again) == world_digest(world)


def test_heading_normalized_on_load():
    world = make_world(robot={"x": 0, "y": 0, "heading": 540.0, "camera_pitch": 0})
    assert world.robot.heading == 180.0


# ---------------------------------------------------------------------------
# Driving

def test_forward_clear_path_is_exact():
    world = make_world()
    world, result = apply_command(world, Command("car_forward", 1.25))
    assert result.outcome is ExecOutcome.OK
    assert math.isclose(result.distance_travelled, 1.25, abs_tol=1e-9)
    assert math.isclose(world.robot.x, 1.25, abs_tol=1e-9)
    assert abs(world.robot.y) < 1e-12
    assert result.heading_change == 0.0


def test_forward_avoids_when_clearance_drops():
    # box face at x=0.45; clearance from the front edge starts at 0.35
    world = make_world([box("wall", 0.6, 0.0)])
    world, result = apply_command(world, Command("car_forward", 1.0))
    assert result.outcome is ExecOutcome.AVOIDED
    assert result.heading_change == -90.0
    assert world.robot.heading == 270.0
    # it stopped at the first integration point reading clearance under 0.30
    clearance = 0.45 - (world.robot.x + 0.10)
    assert clearance < 0.30 + 1e-9
    assert clearance > 0.30 - 0.05 - 1e-9
    assert result.distance_travelled < 1.0


def test_avoid_check_happens_before_moving():
    # already closer than the threshold: no travel at all, just the turn
    world = make_world([box("wall", 0.5, 0.0)], robot={"x": 0.12, "y": 0, "heading": 0, "camera_pitch": 0})
    world, result = apply_command(world, Command("car_forward", 0.5))
    assert result.outcome is ExecOutcome.AVOIDED
    assert result.distance_travelled == 0.0
    assert world.robot.x == 0.12
    assert world.robot.heading == 270.0


def test_forward_blocked_by_grazing_contact():
    # off the ray line, so the ultrasonic never warns, but the footprint clips it
    world = make_world([disc("pebble", 0.3, 0.12, 0.05)])
    world, result = apply_command(world, Command("car_forward", 1.0))
    assert result.outcome is ExecOutcome.BLOCKED
    assert math.isclose(result.distance_travelled, 0.21, abs_tol=1e-6)
    gap = math.hypot(world.robot.x - 0.3, world.robot.y - 0.12) - 0.05
    assert gap >= 0.10 - 1e-9  # footprint still off the object


def test_back_drives_into_contact_without_avoidance():
    world = make_world([box("wall", -0.5, 0.0)])
    world, result = apply_command(world, Command("car_back", 1.0))
    assert result.outcome is ExecOutcome.BLOCKED
    assert math.isclose(result.distance_travelled, 0.25, abs_tol=1e-9)
    assert math.isclose(world.robot.x, -0.25, abs_tol=1e-9)
    assert result.heading_change == 0.0
    assert world.robot.heading == 0.0


def test_back_clear_path():
    world = make_world()
    world, result = apply_command(world, Command("car_back", 0.7))
    assert result.outcome is ExecOutcome.OK
    assert math.isclose(world.robot.x, -0.7, abs_tol=1e-9)


def test_rotations_are_pure_heading_changes():
    world = make_world()
    world, r1 = apply_command(world, Command("car_left", 30))
    assert world.robot.heading == 30.0 and r1.heading_change == 30.0
    world, r2 = apply_command(world, Command("car_right", 90))
    assert world.robot.heading == 300.0 and r2.heading_change == -90.0
    assert r1.outcome is ExecOutcome.OK and r2.outcome is ExecOutcome.OK
    assert (world.robot.x, world.robot.y) == (0.0, 0.0)


def test_camera_move_sets_an_in_range_pitch_exactly():
    world = make_world()
    for pitch in (45, 60.0, -30.0, 0.0):
        world, r = apply_command(world, Command("camera_move", pitch))
        assert world.robot.camera_pitch == pitch and r.outcome is ExecOutcome.OK
    # an out-of-range pitch never reaches the simulator: it cannot be built
    for pitch in (99.0, -77.0, math.nextafter(60.0, math.inf), math.nextafter(-30.0, -math.inf)):
        with pytest.raises(ArgOutOfRange):
            Command("camera_move", pitch)


@pytest.mark.parametrize("pitch", [-30.0, 0.0, 60.0, 99.0, -77.0, math.nextafter(60.0, math.inf),
                                   math.nextafter(-30.0, -math.inf)])
def test_a_world_starts_its_camera_at_a_pitch_a_command_can_reach(pitch):
    robot = {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": pitch}
    if -30.0 <= pitch <= 60.0:
        assert make_world(robot=robot).robot.camera_pitch == pitch
    else:
        with pytest.raises(SchemaError, match=r"camera_pitch=.* outside \[-30, 60\]"):
            make_world(robot=robot)


def test_out_of_range_drive_rejected_even_in_sim():
    with pytest.raises(ArgOutOfRange):
        Command(name="car_forward", value=11.0)


def test_buzzer_records_the_command_clock():
    world = make_world()
    world, _ = apply_command(world, Command("car_left", 10))
    world, _ = apply_command(world, Command("buzzer", 0.5))
    world, _ = apply_command(world, Command("car_left", 10))
    world, _ = apply_command(world, Command("buzzer", 0.5))
    assert world.buzzer_events == (1.0, 3.0)
    assert world.tick == 4


def test_buzzer_changes_the_digest():
    world = make_world()
    before = world_digest(world)
    world, _ = apply_command(world, Command("buzzer", 1.0))
    assert world_digest(world) != before


# ---------------------------------------------------------------------------
# Sensors

def test_ultrasonic_measured_from_front_edge():
    world = make_world([box("wall", 1.0, 0.0)])
    s = read_sensors(world)
    # face at 0.85, front edge at 0.10
    assert math.isclose(s.ultrasonic_clearance, 0.75, abs_tol=1e-9)


def test_ultrasonic_caps_at_max_range():
    world = make_world()
    assert read_sensors(world).ultrasonic_clearance == 4.0


def test_ir_side_switches():
    # boundary within 0.3 m of center along the +30 degree ray
    world = make_world([disc("l", 0.25 * math.cos(math.radians(30)),
                             0.25 * math.sin(math.radians(30)), 0.05)])
    s = read_sensors(world)
    assert s.ir_left and not s.ir_right


def test_raycast_respects_cap():
    world = make_world([box("far", 3.9, 0.0)])
    assert raycast(world, (0.0, 0.0), 0.0, 2.0) == 2.0
    assert math.isclose(raycast(world, (0.0, 0.0), 0.0, 4.0), 3.75, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Camera model

def person(oid, cx, cy, height=1.6):
    return {
        "id": oid, "kind": "person", "height": height,
        "shape": {"type": "circle", "center": [cx, cy], "radius": 0.15},
    }


def test_height_band_truncates_a_tall_person_at_level_pitch():
    world = make_world([person("p", 0.8, 0.0)])
    lo, hi = visible_height_band(world, world.object_by_id("p"))
    assert lo == 0.0
    assert math.isclose(hi, 0.12 + 0.8 * math.tan(math.radians(24.5)), abs_tol=1e-9)
    assert hi < 1.6  # head and face are cut off


def test_height_band_reaches_the_top_once_tilted_up():
    world = make_world([person("p", 0.8, 0.0)])
    world, _ = apply_command(world, Command("camera_move", 40))
    lo, hi = visible_height_band(world, world.object_by_id("p"))
    assert hi == 1.6
    assert lo > 0.0


def test_camera_fov_cut():
    inside = box("seen", 1.0, 0.0)
    off = box("offside", 0.0, 2.0)  # bearing 90, outside the 31 degree half-angle
    world = make_world([inside, off])
    obs = render_camera(world)
    assert [i.label for i in obs.items] == ["box"]
    assert obs.items[0].distance == pytest.approx(1.0)


def test_camera_occlusion_hides_the_far_object():
    front = box("front", 1.0, 0.0)
    rear = box("rear", 2.0, 0.0)
    world = make_world([front, rear])
    ids = [i.distance for i in render_camera(world).items]
    assert len(ids) == 1 and ids[0] == pytest.approx(1.0)


def test_a_hidden_object_still_hides_what_lies_behind_it():
    """G hides H, and H hides T: the camera shows G alone, and removing H,
    which it does not show, shows T."""
    t, h, g = (disc(oid, cx, cy, r, label=oid) for oid, cx, cy, r in
               (("T", 5.0, 0.0, 0.2), ("H", 2.0, 0.25, 0.3), ("G", 0.992, 0.124, 0.05)))
    assert [item.label for item in render_camera(make_world([t, h, g])).items] == ["G"]
    assert [item.label for item in render_camera(make_world([t, g])).items] == ["G", "T"]


def test_camera_sorts_by_distance_then_id():
    a = box("zeta", 1.0, 0.3)
    b = box("alpha", 1.0, -0.3)
    world = make_world([a, b])
    obs = render_camera(world)
    assert len(obs.items) == 2
    assert obs.items[0].bearing < 0  # alpha sits to the right, same distance, earlier id


def test_camera_free_text_matches_items():
    from carobo.model import render_items
    world = make_world([box("b", 1.2, 0.0, color="yellow", text_on_object="CAUTION", height=0.3)])
    obs = render_camera(world)
    assert obs.free_text == render_items(obs.items)
    assert "CAUTION" in obs.free_text


def test_camera_misses_flat_paper_when_tilted_far_up():
    paper = {
        "id": "p", "kind": "paper", "height": 0.01,
        "shape": {"type": "polygon",
                  "vertices": [[0.9, -0.1], [1.1, -0.1], [1.1, 0.1], [0.9, 0.1]]},
    }
    world = make_world([paper])
    assert len(render_camera(world).items) == 1
    world, _ = apply_command(world, Command("camera_move", 60))
    assert len(render_camera(world).items) == 0


# ---------------------------------------------------------------------------
# Robot handle

def test_sim_robot_handle_surface():
    world = make_world([box("b", 1.0, 0.0)])
    robot = SimRobot(world)
    sensors, obs = robot.connect()
    assert sensors.ultrasonic_clearance == pytest.approx(0.75)
    assert len(obs.items) == 1
    result, sensors2, obs2 = robot.execute(Command("car_left", 180))
    assert result.heading_change == 180.0
    assert len(obs2.items) == 0
    assert robot.world is not world and robot.world.robot.heading == 180.0


# ---------------------------------------------------------------------------
# Broad phase: the culled simulator against the full-scan reference

def _shape_doc(rng, cx, cy):
    """A circle or a convex polygon of 3-6 vertices around (cx, cy)."""
    if rng.random() < 0.5:
        return {"type": "circle", "center": [cx, cy], "radius": rng.uniform(0.03, 0.4)}
    n = rng.randint(3, 6)
    r = rng.uniform(0.05, 0.4)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return {"type": "polygon", "vertices": [
        [cx + r * math.cos(phase + (i + rng.uniform(-0.3, 0.3)) * 2.0 * math.pi / n),
         cy + r * math.sin(phase + (i + rng.uniform(-0.3, 0.3)) * 2.0 * math.pi / n)]
        for i in range(n)
    ]}


GRAZES = ("corridor", "avoid band", "sonar ray", "fov edge", "ir reach")


def _graze_doc(rng, kind, pose, params, travel_heading, length):
    """A shape on an edge that culling must respect: the swept corridor, the
    avoid band past the end of the drive, the ultrasonic ray, where the
    farthest vertex of a triangle lies within EPS of the ray's line, the
    edge of the camera's field of view, which a circle touches from just
    inside or just outside, or the reach of an IR switch, where a circle's
    hit on its ray lies at footprint_radius + ir_range or a tiny either side."""
    R = params["footprint_radius"]
    x, y = pose["x"], pose["y"]
    tiny = rng.choice((0.0, 1e-13, -1e-13, 1e-10, 1e-9, 2e-9, 1e-6))
    side = rng.choice((-1.0, 1.0))
    r = rng.uniform(0.03, 0.3)
    d = geometry.unit(travel_heading)
    n = (-d[1], d[0])
    if kind == "ir reach":
        ray = geometry.unit(pose["heading"] + side * params.get("ir_angle", SimParams.ir_angle))
        dist = R + params.get("ir_range", SimParams.ir_range) + tiny + r
        return {"type": "circle", "radius": r, "center": [x + ray[0] * dist, y + ray[1] * dist]}
    if kind == "corridor":
        s = rng.uniform(0.0, length)
        off = side * (R + r + tiny)
        return {"type": "circle", "radius": r, "center": [x + d[0] * s + n[0] * off, y + d[1] * s + n[1] * off]}
    if kind == "avoid band":
        a = length + R + r + rng.uniform(-0.05, 1.2) * params["avoid_threshold"] + tiny
        lateral = rng.uniform(-0.9, 0.9) * r
        return {"type": "circle", "radius": r,
                "center": [x + d[0] * a + n[0] * lateral, y + d[1] * a + n[1] * lateral]}
    if kind == "fov edge":
        half = math.radians(params.get("hfov", sim.SimParams.hfov) / 2.0)
        dist = R + r + rng.uniform(0.05, 3.0)
        angle = (half + math.asin(r / dist)) * rng.choice((1.0 - 1e-12, 1.0 + 1e-12))
        c = geometry.unit(pose["heading"] + side * math.degrees(angle))
        return {"type": "circle", "radius": r, "center": [x + c[0] * dist, y + c[1] * dist]}
    f = geometry.unit(pose["heading"])
    m = (-f[1], f[0])
    ahead = R + rng.uniform(0.02, 0.6)
    depth = rng.uniform(0.05, 0.3)
    width = 0.4 * depth  # keeps (vx, vy) the vertex farthest from the centroid
    # ray_segment accepts a hit up to EPS * edge length past a segment's end
    off = side * rng.uniform(0.1, 0.8) * geometry.EPS * depth
    vx, vy = x + f[0] * ahead + m[0] * off, y + f[1] * ahead + m[1] * off
    return {"type": "polygon", "vertices": [
        [vx, vy],
        [vx + side * m[0] * depth + f[0] * width, vy + side * m[1] * depth + f[1] * width],
        [vx + side * m[0] * depth - f[0] * width, vy + side * m[1] * depth - f[1] * width],
    ]}


def seeded_world(seed, n_objects, half_extent, pose, params, extra=(), centre=None):
    """A world of `n_objects` seeded shapes in a square around `centre` (the
    robot by default), plus the `extra` shape documents; shapes that would
    overlap the robot's footprint are dropped."""
    rng = random.Random(seed)
    cx, cy = centre or (pose["x"], pose["y"])
    docs = [_shape_doc(rng, cx + rng.uniform(-half_extent, half_extent), cy + rng.uniform(-half_extent, half_extent))
            for _ in range(n_objects)]
    objects = []
    for doc in docs + list(extra):
        if sim.Shape.from_dict(doc).distance_from((pose["x"], pose["y"])) < params.get("footprint_radius", 0.10):
            continue
        objects.append({"id": f"o{len(objects)}", "kind": rng.choice(sim.OBJECT_KINDS), "shape": doc,
                        "height": rng.uniform(0.05, 1.8)})
    return load_world({"robot": pose, "objects": objects, "params": params})


SONAR_SHORTER_THAN_AVOID = {"ultrasonic_max": 0.1, "avoid_threshold": 0.3}
COMMANDS = ("car_forward",) * 4 + ("car_back",) * 2 + ("car_left", "car_right", "camera_move", "buzzer")


@st.composite
def fuzzed_cases(draw):
    params = {
        "footprint_radius": draw(st.floats(0.02, 0.3)),
        "avoid_threshold": draw(st.floats(0.0, 0.8)),
        "integration_step": draw(st.sampled_from((0.02, 0.05, 0.1, 0.25))),
        # below avoid_threshold in about one draw of five: the avoid turn comes before any increment
        "ultrasonic_max": draw(st.floats(0.001, 1.0) | st.floats(0.5, 6.0)),
        "hfov": draw(st.floats(1.0, 360.0)),
        "vfov": draw(st.floats(1.0, 179.0)),
        "ir_angle": draw(st.floats(0.0, 180.0)),
        "ir_range": draw(st.floats(0.0, 0.5)),
    }
    pose = {"x": draw(st.floats(-20.0, 20.0)), "y": draw(st.floats(-20.0, 20.0)),
            "heading": draw(st.floats(0.0, 360.0, exclude_max=True)),
            "camera_pitch": draw(st.floats(-30.0, 60.0))}
    name = draw(st.sampled_from(COMMANDS))
    low, high = {"camera_move": (-30.0, 60.0), "car_left": (0.0, 360.0), "car_right": (0.0, 360.0)}.get(
        name, (0.0, 10.0))
    value = draw(st.floats(low, high, exclude_min=name != "camera_move"))
    seed = draw(st.integers(0, 2**32 - 1))
    n_objects = draw(st.integers(0, 300))
    half_extent = draw(st.floats(0.5, 15.0))
    rng = random.Random(seed ^ 0x5EED)
    travel = pose["heading"] + (180.0 if name == "car_back" else 0.0)
    length = value if name in ("car_forward", "car_back") else 1.0
    grazing = [_graze_doc(rng, kind, pose, params, travel, length)
               for kind in draw(st.lists(st.sampled_from(GRAZES), max_size=4))]
    world = seeded_world(seed, n_objects, half_extent, pose, params, grazing)
    return world, Command(name=name, value=value)


def graze_case(kind, seed, **params):
    """One shape on a culling edge in front of the robot at the origin, with
    the given params over the defaults; with a bounding disc that is not
    padded, or a drive corridor without the avoid band, the culled simulator
    differs from the full scan here."""
    pose = {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0}
    params = {"footprint_radius": 0.1, "avoid_threshold": 0.3, **params}
    doc = _graze_doc(random.Random(seed), kind, pose, params, 0.0, 1.0)
    return seeded_world(seed, 0, 1.0, pose, params, [doc]), Command("car_forward", 1.0)


def contact_case(increments, tiny, lateral=0.1):
    """A forward drive whose footprint first touches a circle `tiny` past the
    end of its increment number `increments`. The circle's centre lies
    `lateral` off the sonar's line, so it stops the drive instead of turning it."""
    pose = {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0}
    params = {"footprint_radius": 0.1, "avoid_threshold": 0.3, "integration_step": 0.05}
    end = 0.0
    for _ in range(increments):
        end += 0.05  # as the drive sums its increments
    r = 0.05
    along = end + tiny + math.sqrt((0.1 + r) ** 2 - lateral ** 2)
    doc = {"type": "circle", "radius": r, "center": [along, lateral]}
    return seeded_world(0, 0, 1.0, pose, params, [doc]), Command("car_forward", 1.0)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(graze_case("sonar ray", 1))
@example(graze_case("avoid band", 2))
@example(graze_case("fov edge", 3))
@example(graze_case("ir reach", 28, ir_range=0.0))  # its hit lies at footprint_radius
# a sonar shorter than an IR switch's reach: with nothing within it, both switches read "near"
@example(graze_case("ir reach", 5, ultrasonic_max=0.25, avoid_threshold=0.2))
@example(contact_case(4, 1e-10))
# the footprint's path crosses the circle over 5 cm only, from 2 cm after its start
@example(contact_case(0, 0.02, lateral=0.148))
@example((seeded_world(0, 0, 1.0, {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0},
                       SONAR_SHORTER_THAN_AVOID), Command("car_forward", 1.0)))
@given(fuzzed_cases())
def test_broad_phase_matches_the_full_scan(time_limit, case):
    world, command = case
    grid = world.objects.grid
    # the cell side gives at most one cell per object, so no query box can cover more cells than that
    assert grid is None or grid.nx * grid.ny <= len(world.objects)
    with time_limit(20.0):
        assert read_sensors(world) == fullscan_sim.read_sensors(world)
        assert render_camera(world).to_dict() == fullscan_sim.render_camera(world).to_dict()
        after, result = apply_command(world, command)
        ref_after, ref_result = fullscan_sim.apply_command(world, command)
        assert result == ref_result
        assert after.robot == ref_after.robot
        assert world_digest(after) == world_digest(ref_after)
        assert render_camera(after).to_dict() == fullscan_sim.render_camera(after).to_dict()


@st.composite
def drive_cases(draw):
    """A drive at an integration step down to 1 mm, forward or back, from a
    pose up to 200 m out, among up to 60 circles near its path. The
    footprint first touches about 40% of them between 0.1 mm and 15 cm from
    its start, and its path crosses them over a chord of 0.1% to 44% of their
    grown radius; the sonar's line crosses another 20%, which it meets within
    15 cm of avoid_threshold. The drive takes at most about 400 increments."""
    radius = draw(st.floats(0.02, 0.3))
    threshold = draw(st.floats(0.0, 0.8))
    step = draw(st.floats(0.001, 0.25))
    params = {"footprint_radius": radius, "avoid_threshold": threshold, "integration_step": step,
              "ultrasonic_max": draw(st.floats(0.001, 1.0) | st.floats(0.5, 6.0))}
    pose = {"x": draw(st.floats(-200.0, 200.0)), "y": draw(st.floats(-200.0, 200.0)),
            "heading": draw(st.floats(0.0, 360.0, exclude_max=True)), "camera_pitch": 0.0}
    name = draw(st.sampled_from(("car_forward", "car_back")))
    length = draw(st.floats(0.05, 1.0)) * min(10.0, 400 * step)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    d = geometry.unit(pose["heading"] + (180.0 if name == "car_back" else 0.0))
    circles = []
    for _ in range(draw(st.integers(1, 60))):
        r = rng.uniform(0.005, 0.3)
        g = radius + r  # the footprint touches the circle where its centre is g from the circle's
        near = 10.0 ** rng.uniform(-4.0, math.log10(0.15))  # log-uniform, from 0.1 mm
        kind = rng.random()
        if kind < 0.4:  # a chord down to 0.1% of g, the footprint first touching it `near` from the start
            cross = g * (1.0 - 10.0 ** rng.uniform(-6.0, -1.0))
            along = math.sqrt((g - cross) * (g + cross)) + near
        elif kind < 0.6:  # on the sonar's line, which meets it `near` past avoid_threshold or before
            cross = rng.uniform(0.0, 1.0) * r
            along = radius + math.sqrt((r - cross) * (r + cross)) + max(0.0, threshold + rng.choice((-1, 1)) * near)
        else:
            cross = rng.uniform(0.0, 1.0) * (g + 0.05)
            along = rng.uniform(-0.3, length + threshold + 0.3)
        cross *= rng.choice((-1.0, 1.0))
        circles.append({"type": "circle", "radius": r, "center": [pose["x"] + d[0] * along - d[1] * cross,
                                                                  pose["y"] + d[1] * along + d[0] * cross]})
    return seeded_world(seed, 0, 1.0, pose, params, circles), Command(name=name, value=length)


def after_a_blocked_stop(r):
    """A forward drive from where the last one stopped BLOCKED, an increment
    of 0.5 m having carried it from clearance 0.4 m onto a disc of radius `r`
    dead ahead. The disc now reaches no farther than 2 r past the footprint's
    front edge, and the drive turns (AVOIDED) before it moves."""
    pose = {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0}
    params = {"footprint_radius": 0.1, "avoid_threshold": 0.3, "integration_step": 0.5}
    world = seeded_world(0, 0, 1.0, pose, params, [{"type": "circle", "radius": r, "center": [0.5 + r, 0.0]}])
    world, result = apply_command(world, Command("car_forward", 1.0))
    assert result.outcome is ExecOutcome.BLOCKED
    return world, Command("car_forward", 1.0)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(after_a_blocked_stop(0.002))
@given(drive_cases())
def test_drives_among_discs_near_their_start_match_the_full_scan(time_limit, case):
    """The drives that `_clear_spans` bounds most tightly: the broad phase's
    fuzzed cases take steps of 2 cm or more among a few shapes near the path."""
    world, command = case
    with time_limit(20.0):
        after, result = apply_command(world, command)
        ref_after, ref_result = fullscan_sim.apply_command(world, command)
        assert result == ref_result
        assert after.robot == ref_after.robot


def _circles(centers, radius: float) -> tuple:
    return tuple(sim.SimObject(f"o{i}", "box", sim.Shape("circle", c, radius)) for i, c in enumerate(centers))


_N = sim.GRID_MIN_OBJECTS


def _scans_as_the_full_scan_does(world):
    """The world's readings, drives and renders are those of the full scan."""
    for command in (Command("car_forward", 1.0), Command("car_left", 90.0), Command("camera_move", 20.0),
                    Command("car_back", 0.5)):
        assert read_sensors(world) == fullscan_sim.read_sensors(world)
        assert render_camera(world).to_json() == fullscan_sim.render_camera(world).to_json()
        after, result = apply_command(world, command)
        ref_after, ref_result = fullscan_sim.apply_command(world, command)
        assert result == ref_result
        assert world_digest(after) == world_digest(ref_after)
        world = after


def test_a_polygon_with_a_repeated_vertex_scans_as_the_full_scan_does(monkeypatch):
    """A repeated vertex makes an edge of zero length, whose distance is the
    distance to its one point; the drive past the polygon tests that edge."""
    zero_edges = []
    monkeypatch.setattr(geometry, "point_segment_distance", lambda p, a, b, fn=geometry.point_segment_distance:
                        zero_edges.append(a == b) or fn(p, a, b))
    world = make_world([polygon("twice", (0.4, 0.12), (0.6, 0.12), (0.6, 0.12), (0.6, 0.32), (0.4, 0.32))])
    _scans_as_the_full_scan_does(world)
    assert any(zero_edges)


def test_grid_build_refuses_bounds_whose_cell_arithmetic_overflows():
    """No world holds these rows, which reach past WORLD_LIMIT: the bounds'
    box is finite, but its width plus its height is not. About 10^7 discs
    spread out to the limit overflow the cell side instead. Scaled into the
    limit, the same rows get a grid."""
    rows = tuple((i, 1e308 * (-1) ** i, 1e308 * (-1) ** (i // 2), 0.5, None) for i in range(_N))
    assert sim.Grid.build(rows) is None
    assert sim.Grid.build(tuple((i, cx * 1e-158, cy * 1e-158, r, obj) for i, cx, cy, r, obj in rows)) is not None


def test_a_disc_that_rounding_puts_in_three_columns_gets_a_grid():
    """The widest disc spans exactly one cell side, and rounding puts its ends
    in cells 0 and 2: it is listed in all three columns, and the grid's
    queries are those of the full scan."""
    world = sim.WorldState(sim.RobotPose(-1.0, 0.1), _circles(
        [(0.0, 0.0)] * (_N - 1) + [(0.5000000075000001, 0.0)], 0.25))
    grid = world.objects.grid
    assert grid is not None
    last = world.objects.rows[0][-1]
    assert {k // grid.ny for k, cell in enumerate(grid.cells) if last in cell} == {0, 1, 2}
    _scans_as_the_full_scan_does(world)


def test_a_sonar_shorter_than_the_avoid_threshold_turns_before_moving():
    """With nothing near the path the sonar reads ultrasonic_max; below the
    avoid threshold, the drive turns away at once, as in the full scan."""
    world = make_world(params=SONAR_SHORTER_THAN_AVOID)
    for sim_module in (sim, fullscan_sim):
        after, result = sim_module.apply_command(world, Command("car_forward", 1.0))
        assert result.outcome is ExecOutcome.AVOIDED and result.distance_travelled == 0.0
        assert (after.robot.x, after.robot.y, after.robot.heading) == (0.0, 0.0, 270.0)


EXACT_TESTS = ("ray_circle", "ray_segment", "circle_distance", "polygon_distance")


def test_exact_tests_stay_bounded_as_the_world_grows(monkeypatch):
    """Objects off the path, off the sensor rays and outside the field of view
    cost no exact geometry test: a drive through open space and a render of a
    few objects ahead make the same small number of tests whether 1000 or 2000
    objects lie behind the robot."""
    counts = {}
    for name in EXACT_TESTS:
        def counted(*args, fn=getattr(geometry, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(geometry, name, counted)
    pose = {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0}
    ahead = [{"type": "circle", "center": list(c), "radius": 0.2}
             for c in ((3.0, 0.0), (2.5, 1.0), (4.0, -1.2), (5.0, 0.4), (3.5, -0.5))]
    seen = []
    for n_objects in (1000, 2000):
        world = seeded_world(n_objects, n_objects, 15.0, pose, {}, extra=ahead, centre=(-16.0, 0.0))
        counts.clear()
        _, result = apply_command(world, Command("car_forward", 0.5))
        drive = sum(counts.values())
        counts.clear()
        items = render_camera(world).items
        seen.append((result.outcome, drive, len(items), sum(counts.values())))
    assert seen[0] == seen[1]
    outcome, drive, n_items, render = seen[0]
    assert outcome is ExecOutcome.OK and n_items == 5
    assert drive <= 10 and render <= 20


def test_a_render_after_a_turn_judges_only_what_it_has_not_judged(monkeypatch):
    """The line-of-sight verdicts depend on the robot's position alone: after
    a turn or a camera move, a render makes no exact test for an object
    already judged there, and a turn back makes none at all. A drive that
    moves the robot judges again."""
    judged, counts = [], {}
    for name in EXACT_TESTS:
        def counted(*args, fn=getattr(geometry, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(geometry, name, counted)
    monkeypatch.setattr(sim, "_hidden", lambda occluders, origin, target, *rest, fn=sim._hidden:
                        judged.append(target.id) or fn(occluders, origin, target, *rest))
    pose = {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 45.0}
    world = seeded_world(5, 400, 12.0, pose, {})
    renders = []
    for command in (None, Command("camera_move", 0.0), Command("car_left", 20.0),
                    Command("car_right", 20.0), Command("car_forward", 0.5)):
        if command is not None:
            world, _ = apply_command(world, command)
        judged.clear()
        counts.clear()
        items = render_camera(world).items
        renders.append((judged[:], sum(counts.values()), len(items)))
        assert items == fullscan_sim.render_camera(world).items
    first, tilted, turned, back, moved = renders
    assert first[0] and first[1] > 0
    # only the objects that the camera move, then the turn, brought into view
    assert tilted[0] and not set(tilted[0]) & set(first[0])
    assert turned[0] and not set(turned[0]) & set(first[0] + tilted[0])
    assert back[:2] == ([], 0) and back[2] > 0
    assert moved[0] and moved[1] > 0 and world.robot.x > 0.0


@st.composite
def renders_at_one_position(draw):
    """A seeded world, and a sequence of (x, y, heading, pitch) to render at:
    mostly one drawn position, whose zero coordinates may change sign from
    step to step, and at times a second one."""
    params = {"hfov": draw(st.floats(1.0, 360.0)), "vfov": draw(st.floats(1.0, 179.0))}
    coordinate = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
    here, there = (draw(coordinate), draw(coordinate)), (draw(coordinate), draw(coordinate))
    pose = {"x": here[0], "y": here[1], "heading": 0.0, "camera_pitch": 0.0}
    world = seeded_world(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 200)), draw(st.floats(0.5, 12.0)),
                         pose, params, extra=[{"type": "circle", "center": [here[0] - 1.0, -0.0], "radius": 0.2}])
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        x, y = draw(st.sampled_from([here, here, here, there]))
        if draw(st.booleans()):
            x, y = (-x if x == 0.0 else x), (-y if y == 0.0 else y)
        steps.append((x, y, draw(st.floats(0.0, 360.0, exclude_max=True)), draw(st.floats(-30.0, 60.0))))
    return world, steps


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(renders_at_one_position())
def test_renders_that_reuse_their_verdicts_match_the_full_scan(time_limit, case):
    world, steps = case
    with time_limit(20.0):
        for x, y, heading, pitch in steps:
            at = sim.WorldState(robot=sim.RobotPose(x, y, heading, pitch), objects=world.objects,
                                params=world.params)
            assert render_camera(at).to_dict() == fullscan_sim.render_camera(at).to_dict()


@st.composite
def worlds_and_one_more(draw):
    """(robot, objects, one more object, params): a world drawn as
    `fuzzed_cases` draws it, each object labelled by its id, and one more
    seeded shape, in the horizontal field of view up to 8 m away."""
    world, _ = draw(fuzzed_cases())
    pose, half = world.robot, world.params.hfov / 2.0
    ux, uy = geometry.unit(pose.heading + draw(st.floats(-half, half)))
    distance = draw(st.floats(0.2, 8.0))
    doc = _shape_doc(random.Random(draw(st.integers(0, 2**32 - 1))), pose.x + ux * distance, pose.y + uy * distance)
    extra = sim.SimObject("extra", "box", sim.Shape.from_dict(doc), "extra", height=draw(st.floats(0.05, 1.8)))
    objects = tuple(dataclasses.replace(obj, label=obj.id) for obj in world.objects)
    return pose, objects, extra, world.params


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds_and_one_more())
def test_one_more_object_never_shows_what_was_hidden(time_limit, case):
    """Occlusion is monotone: with one more object in the world, the camera
    shows no item, by label, distance and bearing, that it did not show
    without it. So removing an object never hides one the camera showed."""
    robot, objects, extra, params = case
    with time_limit(20.0):
        without = render_camera(sim.WorldState(robot, objects, params)).items
        with_extra = render_camera(sim.WorldState(robot, objects + (extra,), params)).items
    shown = {(item.label, item.distance, item.bearing) for item in without}
    assert {(item.label, item.distance, item.bearing) for item in with_extra if item.label != "extra"} <= shown


STILL_COMMANDS = st.one_of(
    st.builds(Command, st.just("buzzer"), st.floats(0.0, 10.0, exclude_min=True)),
    st.builds(Command, st.just("camera_move"), st.sampled_from([0.0, -0.0]) | st.floats(-30.0, 60.0)),
    st.builds(Command, st.sampled_from(["car_left", "car_right"]),
              st.sampled_from([90.0, 180.0, 360.0]) | st.floats(0.0, 360.0, exclude_min=True)),
    # the disc behind the robot blocks a drive back, and once the robot has turned to face it, the
    # sonar turns a drive forward away before it moves
    st.builds(Command, st.sampled_from(["car_forward", "car_back"]), st.floats(0.0, 0.3, exclude_min=True)),
)


def world_with_a_disc_behind(seed, n_objects, half_extent, pose, params, gap):
    """A seeded world with a disc of radius 0.2 whose edge lies `gap` behind the robot's footprint."""
    back = geometry.unit(pose["heading"] + 180.0)
    reach = params["footprint_radius"] + 0.2 + gap
    behind = {"type": "circle", "center": [pose["x"] + back[0] * reach, pose["y"] + back[1] * reach], "radius": 0.2}
    return seeded_world(seed, n_objects, half_extent, pose, params, extra=[behind])


@st.composite
def still_poses(draw):
    """A world of at least GRID_MIN_OBJECTS seeded objects, with a disc just
    behind the robot, and commands that often leave its pose, or its position
    and heading, as they were: buzzers, camera moves, turns, blocked drives."""
    pose = {"x": draw(st.floats(-5.0, 5.0)), "y": draw(st.floats(-5.0, 5.0)),
            "heading": draw(st.floats(0.0, 360.0, exclude_max=True)), "camera_pitch": draw(st.floats(-30.0, 60.0))}
    params = {"footprint_radius": 0.1, "hfov": draw(st.floats(1.0, 360.0)), "avoid_threshold": draw(st.floats(0.0, 0.8))}
    world = world_with_a_disc_behind(draw(st.integers(0, 2**32 - 1)), draw(st.integers(sim.GRID_MIN_OBJECTS + 8, 160)),
                                     draw(st.floats(2.0, 8.0)), pose, params, draw(st.floats(1e-9, 0.1)))
    assume(len(world.objects) >= sim.GRID_MIN_OBJECTS)
    return world, draw(st.lists(STILL_COMMANDS, min_size=1, max_size=8))


# two drives back, the second blocked where it starts; a turn to face the disc, and a drive forward
# that the sonar turns away before it moves
STANDING_STILL = (world_with_a_disc_behind(11, 60, 4.0, {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0},
                                           {"footprint_radius": 0.1, "avoid_threshold": 0.3}, 1e-9),
                  [Command("car_back", 0.3), Command("car_back", 0.3), Command("car_left", 180.0),
                   Command("car_forward", 0.3), Command("buzzer", 1.0), Command("camera_move", 20.0)])


def _pose_bits(pose, pitch=True):
    return struct.pack("<dddd", pose.x, pose.y, pose.heading, pose.camera_pitch if pitch else 0.0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(STANDING_STILL)
@given(still_poses())
def test_a_pose_the_robot_has_not_left_is_answered_from_memory(time_limit, case):
    """After each command, the camera and the sensors give what a fresh copy
    of the world's objects gives. A render at the exact pose of the last
    render, or a read at the position and heading of the last read, returns
    that result itself; an equal but distinct SimParams computes anew."""
    world, commands = case
    with time_limit(20.0):
        sensors, view = read_sensors(world), render_camera(world)
        for command in commands:
            before = world.robot
            world, result = apply_command(world, command)
            pose = world.robot
            fresh = sim.WorldState(robot=pose, objects=sim.ObjectSet(tuple(world.objects)), params=world.params)
            observation = render_camera(world)
            assert result.sensor_after == read_sensors(fresh)
            assert observation == render_camera(fresh)
            assert read_sensors(world) is result.sensor_after
            assert (result.sensor_after is sensors) == (_pose_bits(pose, False) == _pose_bits(before, False))
            assert (observation is view) == (_pose_bits(pose) == _pose_bits(before))
            sensors, view = result.sensor_after, observation
        twin = sim.WorldState(robot=world.robot, objects=world.objects, params=dataclasses.replace(world.params))
        twin_view, twin_sensors = render_camera(twin), read_sensors(twin)
        assert twin_view == view and twin_view is not view
        assert twin_sensors == sensors and twin_sensors is not sensors


def test_threads_querying_one_world_each_get_the_answer_of_their_own_pose(time_limit):
    """Threads that render and read at poses of one world, each cycling
    through them from its own start, with a short switch interval, get what
    a fresh copy of the world gives at each pose. Four poses share a heading
    and pitch at different positions, so a record of another position would
    answer with the wrong objects."""
    world = seeded_world(7, 60, 4.0, {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0}, {})
    poses = [sim.RobotPose(x, y, 30.0, 10.0) for x, y in ((0.0, 0.0), (1.5, -0.5), (-2.0, 1.0), (0.5, 2.5))]
    poses += [sim.RobotPose(0.0, 0.0, 210.0, 10.0), sim.RobotPose(1.5, -0.5, 30.0, -20.0)]
    worlds = [sim.WorldState(robot=pose, objects=world.objects, params=world.params) for pose in poses]
    fresh = [sim.WorldState(robot=pose, objects=tuple(world.objects), params=world.params) for pose in poses]
    expected = [(render_camera(w), read_sensors(w)) for w in fresh]
    wrong = []
    start = threading.Barrier(len(poses))

    def query(i):
        start.wait(timeout=10.0)
        for k in range(i, i + 300):
            j = k % len(poses)
            if (render_camera(worlds[j]), read_sensors(worlds[j])) != expected[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with time_limit(30.0):
            threads = [threading.Thread(target=query, args=(i,)) for i in range(len(poses))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=25.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# The uniform grid

def test_centroid_adds_left_to_right():
    """Python 3.12's compensated sum() would give 1/3 and change every bound's bits."""
    shape = sim.Shape(kind="polygon", vertices=((1e16, 0.0), (1.0, 1.0), (-1e16, 0.0)))
    assert shape.centroid()[0] == 0.0


def test_sensor_rays_walk_a_bounded_number_of_cells(monkeypatch):
    """n circles on the robot's heading, listed far to near: the scan makes an
    exact test for each, since each is nearer than the last; the grid walks
    from the robot and stops at the nearest."""
    calls = []
    monkeypatch.setattr(geometry, "ray_circle", lambda *args, fn=geometry.ray_circle: calls.append(1) or fn(*args))
    counts = []
    for n in (500, 5000):
        ahead = [disc(f"a{i}", 3.9 - 3.6 * i / (n - 1), 0.0, 1e-4) for i in range(n)]
        world = make_world(ahead + [disc("behind", -0.5, 0.0, 1e-4)])
        calls.clear()
        sensors = read_sensors(world)
        counts.append(len(calls))
        assert sensors == fullscan_sim.read_sensors(world)
        assert sensors.ultrasonic_clearance == pytest.approx(0.2 - 1e-4)
    assert counts[0] == counts[1] <= 4, counts


def test_an_ir_ray_stops_at_the_switch_reach(monkeypatch):
    """Circles on both IR lines, listed far to near between a switch's reach,
    footprint_radius + ir_range, and ultrasonic_max: a read makes no exact ray
    test on any of them, whether its rays scan the rows or walk the grid. A
    circle within reach on the left line still sets that switch."""
    tested = []
    monkeypatch.setattr(geometry, "ray_circle", lambda origin, d, center, radius, fn=geometry.ray_circle:
                        tested.append(center) or fn(origin, d, center, radius))
    p = SimParams()
    reach = p.footprint_radius + p.ir_range
    left = geometry.unit(p.ir_angle)
    for n in (10, 500):
        beyond = []
        for side in (1.0, -1.0):
            ux, uy = geometry.unit(side * p.ir_angle)
            for i in range(n):
                d = p.ultrasonic_max - 0.1 - (p.ultrasonic_max - 0.11 - reach) * i / (n - 1)
                beyond.append(disc(f"{side}:{i}", ux * d, uy * d, 1e-3))
        world = make_world(beyond + [disc("within", left[0] * 0.25, left[1] * 0.25, 1e-3)])
        assert (world.objects.grid is None) == (n == 10)
        tested.clear()
        sensors = read_sensors(world)
        assert not {tuple(o["shape"]["center"]) for o in beyond} & set(tested)
        assert sensors == fullscan_sim.read_sensors(world)
        assert (sensors.ir_left, sensors.ir_right) == (True, False)


def test_a_drive_makes_no_check_over_its_proven_free_span(monkeypatch):
    """A forward drive of 2 m between two rows of circles that line its
    corridor 2 cm outside the footprint, toward a disc on its line whose edge
    lies at 1.37 m. Every circle is near the path, yet their discs prove each
    increment free, and the sonar clear until the footprint is within about
    avoid_threshold of the disc: the drive makes no overlap test, and casts the
    sonar once, where it turns away, with one exact test. Its result is the
    full scan's."""
    counts, casts = {}, []
    for name in EXACT_TESTS:
        def counted(*args, fn=getattr(geometry, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(geometry, name, counted)
    monkeypatch.setattr(sim, "_front_clearance", lambda rows, grid, radius, position, *rest, fn=sim._front_clearance:
                        casts.append(position[0]) or fn(rows, grid, radius, position, *rest))
    monkeypatch.setattr(sim, "_overlapping_object", lambda *args, fn=sim._overlapping_object:
                        casts.append("overlap") or fn(*args))
    lining = [disc(f"{side}{i}", 0.1 * i, side * 0.17, 0.05) for side in (-1, 1) for i in range(21)]
    world = make_world(lining + [disc("ahead", 1.42, 0.0, 0.05)])
    assert world.objects.grid is not None
    casts.clear()
    counts.clear()
    pose, outcome, travelled, _ = sim._drive(world, 2.0, True)
    assert outcome is ExecOutcome.AVOIDED and travelled == pytest.approx(1.0)
    assert len(casts) == 1 and casts[0] == pytest.approx(1.0)
    assert counts == {"ray_circle": 1}
    after, result = apply_command(world, Command("car_forward", 2.0))
    ref_after, ref_result = fullscan_sim.apply_command(world, Command("car_forward", 2.0))
    assert result == ref_result and after.robot == ref_after.robot == pose


@pytest.mark.parametrize("transport", ["direct", "local:"])
def test_an_episode_builds_its_grid_once(tmp_path, monkeypatch, transport):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import clutter

    from carobo import bench

    suite, streams, _ = clutter.write_suite(0, tmp_path, n_objects=150)
    spec = bench.load_benchmark(suite)[0]
    builds = []
    monkeypatch.setattr(sim.Grid, "build", classmethod(lambda cls, objects, fn=sim.Grid.build.__func__:
                                                          builds.append(1) or fn(cls, objects)))
    _, result = bench.run_scenario(spec, bench.replay_pair(streams), transport=transport)
    assert result.steps >= 5 and len(builds) == 1


def test_a_world_gathers_its_rows_once_for_the_grid_and_the_camera(monkeypatch):
    """On a seeded 150-object world, loading it, one connect, a turn and a
    drive gather its row table once; the grid is built from that table, and
    each render's cull reads that same table."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import clutter

    gathered, built, camera_reads, in_camera = [], [], [], []

    class Table(tuple):
        def __iter__(self):
            if in_camera:
                camera_reads.append(self)
            return super().__iter__()

    def rows(objects, gather=sim.ObjectSet.rows.func):
        table, extent = gather(objects)
        gathered.append(Table(table))
        return gathered[-1], extent

    counted = cached_property(rows)
    counted.__set_name__(sim.ObjectSet, "rows")
    monkeypatch.setattr(sim.ObjectSet, "rows", counted)
    monkeypatch.setattr(sim.Grid, "build", classmethod(lambda cls, table, fn=sim.Grid.build.__func__:
                                                          built.append(table) or fn(cls, table)))

    def camera(world, render=sim.render_camera):
        in_camera.append(world)
        try:
            return render(world)
        finally:
            in_camera.pop()

    monkeypatch.setattr(sim, "render_camera", camera)
    robot = SimRobot(load_world(clutter.make_world(random.Random(0), 150, 4.0)))
    robot.connect()
    robot.execute(Command("car_left", 30.0))
    result, _, _ = robot.execute(Command("car_forward", 0.5))
    assert result.distance_travelled > 0.0  # so the last render is at a new pose, not the last render's
    assert len(gathered) == 1
    assert len(built) == 1 and built[0] is gathered[0]
    assert len(camera_reads) == 3 and all(table is gathered[0] for table in camera_reads)
