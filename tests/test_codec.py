"""The dataclass codec: field plans, defaults, tags, typed errors on bad documents, and to_json."""
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from carobo import bridge, model, sim
from carobo.app import (
    EpisodeFooter, EpisodeHeader, EpisodeLimits, FailureReason, HostRecord, RoundError, RoundRecord, Verdict,
    read_trace,
)
from carobo.bench import (
    And, Near, Report, Row, bundled_trace_dir, default_suite_path, load_benchmark, parse_goal, replay_pair,
    run_scenario, scripted_pair,
)
from carobo.cli import main
from carobo.llm import HostDecision
from carobo.model import (
    CaroboError,
    Command,
    ExecOutcome,
    ExecResult,
    GlobalPlan,
    Observation,
    PITCH_RANGE,
    Round,
    SchemaError,
    SensorData,
    Status,
    VisibleObject,
    canonical_json,
    codec,
)
from carobo.sim import (
    OBJECT_KINDS,
    OverlapError,
    RobotPose,
    Shape,
    SimObject,
    SimParams,
    WorldState,
    apply_command,
    load_world,
    read_sensors,
    render_camera,
    world_digest,
)


def exec_doc(**changes):
    doc = ExecResult(
        command_echo=Command("car_forward", 0.5), outcome=ExecOutcome.OK, distance_travelled=0.5,
        heading_change=0.0, sensor_after=SensorData(1.0, False, True),
    ).to_dict()
    doc.update(changes)
    return doc


def world(robot=None, objects=(), params=None):
    doc = {"robot": robot if robot is not None else {"x": 0.0, "y": 0.0}, "objects": list(objects)}
    if params is not None:
        doc["params"] = params
    return doc


def disc(**changes):
    doc = {"id": "d", "kind": "box", "shape": {"type": "circle", "center": [1.0, 0.0], "radius": 0.2}}
    doc.update(changes)
    return doc


# ---------------------------------------------------------------------------
# Round trips and defaults

def test_missing_optional_field_decodes_as_none():
    doc = VisibleObject("box", "red", "polygon", "HI", 1.0, 0.0).to_dict()
    del doc["text_on_object"]
    assert VisibleObject.from_dict(doc).text_on_object is None


def test_defaults_fill_missing_keys():
    world_state = load_world({"robot": {}, "objects": [disc(shape={"type": "circle", "center": [2, 0], "radius": 0.2})]})
    assert world_state.robot == RobotPose(0.0, 0.0, 0.0, 0.0)
    obj = world_state.objects[0]
    assert (obj.label, obj.color, obj.height) == ("box", "gray", 0.5)
    assert world_state.params == SimParams()
    assert EpisodeLimits.from_dict({}) == EpisodeLimits()


def test_integers_decode_as_floats_and_unknown_keys_are_ignored():
    data = {"ultrasonic_clearance": 2, "ir_left": True, "ir_right": False, "image_attachment": None}
    sensors = SensorData.from_dict(data)
    assert sensors == SensorData(2.0, True, False)
    assert type(sensors.ultrasonic_clearance) is float


def test_report_keeps_field_order():
    row = Row("s1", "object_detection", "Success", None, 3, 4)
    report = Report(rows=(row,), domain_rates={"object_detection": 100.0}, overall_rate=100.0)
    doc = report.to_dict()
    assert list(doc) == ["rows", "domain_rates", "overall_rate"]
    assert list(doc["rows"][0]) == ["scenario_id", "domain", "verdict", "failure_reason", "steps", "rounds"]
    assert Report.from_dict(json.loads(json.dumps(doc))) == report


def test_goal_documents_carry_their_op_first():
    goal = And((Near("fridge", 2.0), Near("box", 1.0)))
    doc = goal.to_dict()
    assert list(doc) == ["op", "clauses"] and list(doc["clauses"][0]) == ["op", "object_id", "within"]
    assert parse_goal(doc) == goal


def test_trace_records_round_trip():
    header = EpisodeHeader("obj_1", "find it", {"robot": {"x": 0.0}}, EpisodeLimits(5))
    assert header.to_dict()["type"] == "episode"
    assert EpisodeHeader.from_dict(header.to_dict()) == header
    footer = EpisodeFooter(Verdict.FAILURE, FailureReason.STEP_LIMIT, 5, 7, None)
    assert footer.to_dict() == {"type": "result", "verdict": "Failure", "failure_reason": "StepLimit",
                                "steps": 5, "rounds": 7, "final_world_digest": None}
    assert EpisodeFooter.from_dict(footer.to_dict()) == footer
    decision = HostDecision("o", "t", GlobalPlan(("look", "go")), "c")
    rnd = Round(2, Observation.from_items(()), "turn", Status.CONTINUE, action=Command("car_left", 90.0),
                exec_result=ExecResult.from_dict(exec_doc()))
    for record, doc in (
        (HostRecord("d1", "raw host", decision),
         {"type": "host", "prompt_digest": "d1", "raw": "raw host", "decision": decision.to_dict()}),
        (RoundRecord(2, "d2", "raw round", rnd),
         {"type": "round", "index": 2, "prompt_digest": "d2", "raw": "raw round", "round": rnd.to_dict()}),
        (RoundError(3, "MalformedDecision: no JSON object"),
         {"type": "round_error", "round": 3, "error": "MalformedDecision: no JSON object"}),
    ):
        assert record.to_dict() == doc
        assert type(record).from_dict(doc) == record
        assert record.to_json() == canonical_json(doc)


def test_each_codec_method_compiles_alone_on_its_first_call(monkeypatch):
    """The first call of `to_json`, `from_dict` or `to_dict` writes and compiles
    that method alone, and later calls compile nothing; a method patched in
    before its first call, as a tracer does, stays in place."""
    written = []
    source = model._source
    monkeypatch.setattr(model, "_source", lambda cls, name, *args: written.append(name) or source(cls, name, *args))

    @codec
    @dataclass(frozen=True)
    class Pair:
        left: Tuple[float, ...]
        right: Optional[Dict[str, int]] = None

    stand_ins = dict(model._STAND_INS[Pair])
    seen = []
    Pair.to_dict = lambda self: seen.append(self) or stand_ins["to_dict"](self)
    pair = Pair((1.0,), {"a": 1})
    assert written == []  # nothing is written at decoration time
    assert pair.to_json() == '{"left":[1.0],"right":{"a":1}}'
    assert written == ["to_json"] and set(model._COMPILED[Pair]) == {"to_json"}
    assert Pair.__dict__["to_json"] is model._COMPILED[Pair]["to_json"]
    assert Pair.__dict__["from_dict"] is stand_ins["from_dict"]
    assert Pair.from_dict(pair.to_dict()) == pair and seen == [pair]
    assert written == ["to_json", "to_dict", "from_dict"]
    assert Pair.__dict__["to_dict"] is not model._COMPILED[Pair]["to_dict"]  # the patch stays
    for _ in range(3):
        assert Pair.from_dict(pair.to_dict()) == pair
        assert pair.to_json() == canonical_json(pair.to_dict())
    assert written == ["to_json", "to_dict", "from_dict"] and len(seen) == 7


def test_compiled_functions_replace_the_stand_ins_but_not_a_patched_method(monkeypatch):
    """Once compiled, a class's functions are its own methods; one patched on
    before the first call, as a tracer does, stays, and still decodes."""
    @codec
    @dataclass(frozen=True)
    class Point:
        x: float

    stand_in = Point.__dict__["from_dict"]
    calls = []
    monkeypatch.setattr(Point, "from_dict",
                        classmethod(lambda cls, data: calls.append(data) or stand_in.__func__(cls, data)))
    assert Point.from_dict({"x": 1}) == Point(1.0)
    assert Point(2.0).to_json() == '{"x":2.0}' and Point(2.0).to_dict() == {"x": 2.0}
    assert Point.from_dict({"x": 3}) == Point(3.0)
    assert calls == [{"x": 1}, {"x": 3}]
    assert Point.to_json.__name__ == "to_json" and Point.to_json.__qualname__ == "to_json"  # the compiled one
    monkeypatch.undo()
    assert Point.__dict__["from_dict"] is stand_in and Point.from_dict({"x": 4}) == Point(4.0)


def test_real_documents_round_trip(tmp_path, capsys):
    """Every record of the traces `carobo bench` writes for the oracle and the
    gpt-4o replay set, every scenario and goal of the bundled suite, and the
    oracle's report: to_json is to_dict's JSON, and from_dict undoes to_dict."""
    specs = load_benchmark(default_suite_path())
    goals = [spec.goal for spec in specs]
    for goal in goals:  # and every clause under an and, or or not
        goals.extend(getattr(goal, "clauses", ()))
        if hasattr(goal, "clause"):
            goals.append(goal.clause)
    docs = [*specs, *goals]
    for name, args in (("oracle", ["--policy", "oracle"]),
                       ("gpt-4o", ["--backend", "replay", "--replay-dir", "gpt-4o"])):
        out = tmp_path / f"{name}.json"
        assert main(["bench", *args, "--traces-dir", str(tmp_path / name), "--out", str(out)]) == 0
        if name == "oracle":
            docs.append(Report.from_dict(json.loads(out.read_text(encoding="utf-8"))))
        traces = sorted((tmp_path / name).glob("*.jsonl"))
        assert len(traces) == 20
        for trace in traces:
            for record in read_trace(trace):
                docs.append(record)
                if type(record) is EpisodeHeader:
                    docs.append(WorldState.from_dict(record.world))
                elif type(record) is HostRecord:
                    docs.append(record.decision)
                elif type(record) is RoundRecord:
                    docs.append(record.round)
                else:
                    assert type(record) is EpisodeFooter
    capsys.readouterr()
    kinds = {type(doc).__name__ for doc in docs}
    assert {"EpisodeHeader", "WorldState", "EpisodeFooter", "HostRecord", "HostDecision", "RoundRecord", "Round",
            "ScenarioSpec", "Near", "And", "Report"} <= kinds
    for doc in docs:
        assert json.loads(doc.to_json()) == doc.to_dict()
        assert type(doc).from_dict(doc.to_dict()) == doc
    # a round that acted holds an action and an exec result, so both optional fields were coded
    assert any(isinstance(doc, Round) and doc.action is not None for doc in docs)


# ---------------------------------------------------------------------------
# Bad documents raise a CaroboError subclass

NAN = float("nan")

MALFORMED = {
    "exec envelope {}": lambda: ExecResult.from_dict({}),
    "clearance 'x'": lambda: SensorData.from_dict({"ultrasonic_clearance": "x", "ir_left": False, "ir_right": False}),
    "ir flag 1": lambda: SensorData.from_dict({"ultrasonic_clearance": 1.0, "ir_left": 1, "ir_right": False}),
    "world x 'a'": lambda: load_world(world(robot={"x": "a", "y": 0})),
    "params hfov 'wide'": lambda: load_world(world(params={"hfov": "wide"})),
    "goal within 'far'": lambda: parse_goal({"op": "near", "object_id": "b", "within": "far"}),
    "items 5": lambda: Observation.from_dict({"items": 5, "free_text": ""}),
    "clauses 3": lambda: parse_goal({"op": "and", "clauses": 3}),
    "limits unknown key": lambda: EpisodeLimits.from_dict({"max_steps": 5, "max_step": 5}),
    "NaN heading": lambda: load_world(world(robot={"x": 0.0, "y": 0.0, "heading": NAN})),
    "NaN clearance": lambda: SensorData.from_dict({"ultrasonic_clearance": NAN, "ir_left": False, "ir_right": False}),
    "height 'tall'": lambda: load_world(world(objects=[disc(height="tall")])),
    "circle center ['p', 1]": lambda: load_world(world(objects=[disc(shape={"type": "circle", "center": ["p", 1], "radius": 0.2})])),
    "huge integer": lambda: load_world(world(robot={"x": 10**400})),
    "unknown outcome": lambda: ExecResult.from_dict(exec_doc(outcome="teleported")),
    "round status lower case": lambda: Round.from_dict({"index": 0, "observation": {}, "comment": "", "status": "finish"}),
    "index as string": lambda: Round.from_dict({"index": "0", "observation": {}, "comment": "", "status": "FINISH"}),
    "id as number": lambda: load_world(world(objects=[disc(id=7)])),
    "bad comment pattern": lambda: parse_goal({"op": "comment_matches", "pattern": "("}),
    "goal op a list": lambda: parse_goal({"op": ["near"]}),
    "header world a list": lambda: EpisodeHeader.from_dict({"type": "episode", "request_id": "a", "request_text": "b",
                                                           "world": [], "limits": {}}),
    "report rates a string": lambda: Report.from_dict({"rows": [], "domain_rates": "x"}),
    "header without limits": lambda: EpisodeHeader.from_dict({"type": "episode", "request_id": "a", "request_text": "b", "world": {}}),
    "world is a list": lambda: load_world([]),
    "id with a lone surrogate": lambda: load_world(world(objects=[disc(id="b\ud800")])),
    "negative tick": lambda: load_world(world() | {"tick": -1}),
    "tick past 2**53": lambda: load_world(world() | {"tick": 2**53}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_raise_typed_errors(case):
    with pytest.raises(CaroboError):
        MALFORMED[case]()


def test_schema_errors_name_the_field():
    with pytest.raises(SchemaError, match=r"ExecResult.sensor_after: SensorData.ir_left: expected true or false"):
        ExecResult.from_dict(exec_doc(sensor_after={"ultrasonic_clearance": 1.0, "ir_left": 1, "ir_right": False}))
    with pytest.raises(SchemaError, match=r"SimParams: unknown keys \['warp'\]"):
        SimParams.from_dict({"warp": 9})


# ---------------------------------------------------------------------------
# World parameters and poses cannot make the simulator hang

# three plausible branches to two hostile ones, so that most examples reach the simulator
_values = st.one_of(
    st.floats(0.0005, 2.0),
    st.floats(-1.0, 400.0),
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 1e300, "0.1", None, True]),
)
_params = st.dictionaries(st.sampled_from(sorted(f.name for f in dataclasses.fields(SimParams))), _values, max_size=3)
_poses = st.dictionaries(st.sampled_from(["x", "y", "heading", "camera_pitch"]), _values, max_size=3)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_params, _poses)
def test_fuzzed_worlds_load_or_fail_typed_and_never_hang(time_limit, params, pose):
    doc = world(robot=pose, params=params, objects=[disc(), disc(id="e", shape={"type": "circle", "center": [-1.0, 0.5], "radius": 0.3})])
    with time_limit(2.0):
        try:
            state = load_world(doc)
        except OverlapError:
            return
        except SchemaError:
            return
        for command in (Command("car_forward", 1.0), Command("car_back", 1.0)):
            state, result = apply_command(state, command)
            assert math.isfinite(result.distance_travelled)
        render_camera(state)


def ring_of_objects(seed: int, n: int, extra=()) -> list:
    """n seeded circles and triangles 0.6-4 m from the origin, then the `extra` shapes."""
    rng = random.Random(seed)
    shapes = []
    for _ in range(n):
        a, d, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.6, 4.0), rng.uniform(0.05, 0.3)
        cx, cy = d * math.cos(a), d * math.sin(a)
        if rng.random() < 0.5:
            shapes.append({"type": "circle", "center": [cx, cy], "radius": r})
        else:
            shapes.append({"type": "polygon", "vertices": [
                [cx + r * math.cos(a + k * 2.1), cy + r * math.sin(a + k * 2.1)] for k in range(3)]})
    return [disc(id=f"o{i}", shape=shape) for i, shape in enumerate(shapes + list(extra))]


# shapes that no grid can hold: the 1e300 m polygon's bound is finite, but
# not the area of its box; the other's centroid, and so its bound, is infinite
HOSTILE_SHAPES = {
    "none": (),
    "polygon spanning 1e300 m": ({"type": "polygon", "vertices": [[5.0, -1e300], [1e300, 0.0], [5.0, 1e300]]},),
    "infinite bound": ({"type": "polygon", "vertices": [[1e308, -1.0], [1e308, 1.0], [5.0, 0.0]]},),
}
_counts = st.integers(sim.GRID_MIN_OBJECTS - 2, sim.GRID_MIN_OBJECTS + 40)


def drive_both_ways(doc):
    """The sensors after connecting, and each drive's result and camera, or None
    when the world is rejected."""
    try:
        state = load_world(doc)
    except (OverlapError, SchemaError):
        return None
    out = [read_sensors(state)]
    for command in (Command("car_forward", 1.0), Command("car_back", 1.0)):
        state, result = apply_command(state, command)
        assert math.isfinite(result.distance_travelled)
        out += [result, state.robot, render_camera(state).to_dict()]
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example({}, {"y": 1.48e21}, 0, sim.GRID_MIN_OBJECTS + 8, "none")
@example({}, {}, 1, sim.GRID_MIN_OBJECTS + 8, "polygon spanning 1e300 m")
@example({}, {}, 2, sim.GRID_MIN_OBJECTS + 8, "infinite bound")
@example({}, {"heading": 45.0}, 3, sim.GRID_MIN_OBJECTS - 1, "none")
@example({}, {"heading": 45.0}, 3, sim.GRID_MIN_OBJECTS, "none")
@given(_params, _poses, st.integers(0, 2**32 - 1), _counts, st.sampled_from(sorted(HOSTILE_SHAPES)))
def test_fuzzed_grid_worlds_load_or_fail_typed_and_never_hang(time_limit, params, pose, seed, n_objects, hostile):
    """The fuzzed parameters and poses above, around a world large enough for
    a grid: the grid, or its fallback to the scan, gives what the scan gives."""
    doc = world(robot=pose, params=params, objects=ring_of_objects(seed, n_objects, HOSTILE_SHAPES[hostile]))
    with time_limit(2.0):
        got = drive_both_ways(doc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "GRID_MIN_OBJECTS", 10**9)
            assert got == drive_both_ways(doc)


def test_zero_integration_step_is_rejected():
    with pytest.raises(SchemaError, match="integration_step"):
        load_world(world(params={"integration_step": 0}))
    for f in dataclasses.fields(SimParams):
        low, high = f.metadata["range"]
        assert low <= getattr(SimParams(), f.name) <= high
        with pytest.raises(SchemaError, match=f.name):
            SimParams.from_dict({f.name: high * 2 + 1})


# where each class with declared ranges sits in a world document: (key, class), None for the top level
RANGED = ((None, WorldState), ("robot", RobotPose), ("params", SimParams))
RANGES = [(key, f.name, f.metadata["range"]) for key, cls in RANGED
          for f in dataclasses.fields(cls) if "range" in f.metadata]


def world_with(key, name, value):
    doc = world()
    if key is None:
        doc[name] = value
    else:
        doc.setdefault(key, {})[name] = value
    return doc


def past(end, direction):
    """The next int, or the next float, beyond `end`."""
    return end + direction if type(end) is int else math.nextafter(end, direction * math.inf)


@pytest.mark.parametrize("key, name, bounds", RANGES, ids=[name for _, name, _ in RANGES])
def test_a_world_holds_each_range_end_and_nothing_past_it(key, name, bounds):
    low, high = bounds
    for end in bounds:
        state = load_world(world_with(key, name, end))
        assert getattr(state if key is None else getattr(state, key), name) == end
    for value in (past(low, -1), past(high, 1)):
        with pytest.raises(SchemaError, match=rf"\.{name}={re.escape(repr(value))} outside \["):
            load_world(world_with(key, name, value))


def instance_with(cls, name, value):
    """`cls` built with the constructor, `name` set to `value`."""
    return cls(RobotPose(), **{name: value}) if cls is WorldState else cls(**{name: value})


@pytest.mark.parametrize("key, name, bounds", RANGES, ids=[name for _, name, _ in RANGES])
def test_a_constructor_refuses_what_a_document_may_not_hold(key, name, bounds):
    """One range check, shared by `__init__` and `from_dict`, with one message."""
    cls = dict(RANGED)[key]
    low, high = bounds
    for end in bounds:
        assert getattr(instance_with(cls, name, end), name) == end
    for value in (past(low, -1), past(high, 1)):
        with pytest.raises(SchemaError) as built:
            instance_with(cls, name, value)
        with pytest.raises(SchemaError) as decoded:
            cls.from_dict({"robot": {}, name: value} if cls is WorldState else {name: value})
        assert str(built.value) == str(decoded.value)


@pytest.mark.parametrize("make, message", [
    # a drive at a step of 0 never ends: apply_command would add 0.0 per increment forever
    (lambda: SimParams(integration_step=0.0), "SimParams.integration_step=0.0 outside [0.001, 1]"),
    (lambda: SimParams(integration_step=math.nan), "SimParams.integration_step=nan outside [0.001, 1]"),
    (lambda: SimParams(footprint_radius=-0.1), "SimParams.footprint_radius=-0.1 outside [0.001, 10]"),
    (lambda: SimParams(ultrasonic_max=math.inf), "SimParams.ultrasonic_max=inf outside [0.001, 100]"),
    (lambda: WorldState(RobotPose(), tick=-1), "WorldState.tick=-1 outside [0, 9007199254740991]"),
    (lambda: RobotPose(camera_pitch=math.nan), "RobotPose.camera_pitch=nan outside [-30, 60]"),
    (lambda: dataclasses.replace(SimParams(), hfov=0.5), "SimParams.hfov=0.5 outside [1, 360]"),
    # a value that does not compare with numbers is outside every range, not a TypeError
    (lambda: SimParams(integration_step="x"), "SimParams.integration_step='x' outside [0.001, 1]"),
    (lambda: RobotPose(camera_pitch="a"), "RobotPose.camera_pitch='a' outside [-30, 60]"),
    (lambda: WorldState(RobotPose(), tick=None), "WorldState.tick=None outside [0, 9007199254740991]"),
])
def test_bad_constructor_values_are_refused(make, message):
    with pytest.raises(SchemaError) as err:
        make()
    assert str(err.value) == message


def test_a_ranged_field_takes_any_real_number():
    params = SimParams(integration_step=Fraction(1, 20), hfov=90, vfov=Decimal("40.5"))
    assert (params.integration_step, params.hfov, params.vfov) == (Fraction(1, 20), 90, Decimal("40.5"))


# ---------------------------------------------------------------------------
# Exact messages of the compiled decoder

def polygon(*vertices):
    return {"id": "p", "kind": "box", "shape": {"type": "polygon", "vertices": [list(v) for v in vertices]}}


def host_decision(plan):
    return {"observation": "o", "thoughts": "t", "plan": plan, "comment": "c"}


@pytest.mark.parametrize("decode, message", [
    (lambda: WorldState.from_dict({"objects": []}), "WorldState: missing key 'robot'"),
    (lambda: WorldState.from_dict([]), "WorldState: expected an object, got []"),
    (lambda: SimObject.from_dict(polygon((0, 0), (1, 0))),
     "SimObject.shape: bad polygon shape: a polygon needs at least 3 vertices"),
    (lambda: SimObject.from_dict(polygon((0, 0), (1, 0), ("a", 1))),
     "SimObject.shape: bad polygon shape: expected a finite number, got 'a'"),
    (lambda: WorldState.from_dict({"robot": {}, "objects": [polygon((0, 0), (1, 0), (1, 1, 1))]}),
     "WorldState.objects: SimObject.shape: bad polygon shape: expected a list of 2, got [1, 1, 1]"),
    (lambda: WorldState.from_dict({"robot": {"heading": "north"}}),
     "WorldState.robot: RobotPose.heading: expected a finite number, got 'north'"),
    (lambda: WorldState.from_dict({"robot": {}, "tick": 1.0}), "WorldState.tick: expected an integer, got 1.0"),
    (lambda: SimParams.from_dict({"zeta": 1, "hfov": 60, "warp": 9}), "SimParams: unknown keys ['warp', 'zeta']"),
    (lambda: EpisodeLimits.from_dict({"max_steps": 5, "max_step": 5}), "EpisodeLimits: unknown keys ['max_step']"),
    (lambda: Report.from_dict({"rows": [], "domain_rates": [1]}), "Report.domain_rates: expected an object, got [1]"),
    (lambda: Report.from_dict({"rows": [], "domain_rates": {"a": "b"}}),
     "Report.domain_rates: expected a finite number, got 'b'"),
    # what a "\ud800" escape in any input file or bridge payload decodes to
    (lambda: Observation.from_dict({"free_text": "a\ud800"}),
     "Observation.free_text: a string UTF-8 cannot encode (lone surrogate at index 1): 'a\\ud800'"),
    (lambda: load_world({"robot": {}, "tick": 2**53}), "WorldState.tick=9007199254740992 outside [0, 9007199254740991]"),
    (lambda: load_world({"robot": {"camera_pitch": 99}}), "WorldState.robot: RobotPose.camera_pitch=99.0 outside [-30, 60]"),
    (lambda: load_world({"robot": {}, "params": {"integration_step": 0}}),
     "WorldState.params: SimParams.integration_step=0.0 outside [0.001, 1]"),
    # the hand-written decoders of Shape and GlobalPlan, through the codec's checkers
    (lambda: SimObject.from_dict({"id": "c", "kind": "box", "shape": {"type": "circle", "center": [0, 0], "radius": 0}}),
     "SimObject.shape: bad circle shape: radius must be positive"),
    (lambda: SimObject.from_dict({"id": "p", "kind": "box", "shape": {"type": "polygon", "vertices": "abc"}}),
     "SimObject.shape: bad polygon shape: expected a list, got 'abc'"),
    (lambda: HostDecision.from_dict(host_decision("just walk")), "HostDecision.plan: expected a list, got 'just walk'"),
    (lambda: HostDecision.from_dict(host_decision(["go", 1])), "HostDecision.plan: expected a string, got 1"),
    (lambda: HostDecision.from_dict(host_decision(["go", "a\ud800"])),
     "HostDecision.plan: a string UTF-8 cannot encode (lone surrogate at index 1): 'a\\ud800'"),
])
def test_decoder_messages(decode, message):
    with pytest.raises(SchemaError) as err:
        decode()
    assert str(err.value) == message


def test_missing_optional_and_defaulted_fields():
    footer = EpisodeFooter.from_dict({"type": "result", "verdict": "Success", "steps": 1, "rounds": 2})
    assert (footer.failure_reason, footer.final_world_digest) == (None, None)  # Optional, no default
    state = WorldState.from_dict({"robot": {"x": 1}})
    assert state == WorldState(RobotPose(1.0), (), SimParams(), (), 0)  # defaults, and a default factory
    assert state.params is not WorldState.from_dict({"robot": {}}).params
    assert EpisodeLimits.from_dict({"max_steps": 3}) == EpisodeLimits(3, 8)


# ---------------------------------------------------------------------------
# to_json writes exactly canonical_json(to_dict()), so world digests keep their bytes

def reference_digest(world) -> str:
    return hashlib.sha256(canonical_json(world.to_dict()).encode("utf-8")).hexdigest()


_texts = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(['"', "\\", "'", "\x00\t\n\x1f\x7f", "café ☃", "  ", "{}[],:"]),
)
_finite = st.one_of(st.floats(-1e6, 1e6), st.integers(-5, 5), st.sampled_from([-0.0, -1e-300, 0.1]))
# past WORLD_LIMIT: a shape or a pose may hold these, a world may not
_far = _finite | st.sampled_from([1e300, -1e300])


def _polygon_or_none(vertices):
    try:
        return Shape(kind="polygon", vertices=vertices)
    except SchemaError:  # collinear
        return None


def _objects(numbers):
    points = st.tuples(numbers, numbers)
    shapes = st.one_of(
        st.builds(Shape, kind=st.just("circle"), center=points, radius=st.floats(0.01, 10.0) | st.just(1)),
        st.builds(_polygon_or_none, st.lists(points, min_size=3, max_size=5).map(tuple)).filter(bool),
    )
    return st.builds(
        SimObject, id=_texts, kind=st.sampled_from(OBJECT_KINDS), shape=shapes,
        label=st.none() | _texts, color=_texts, height=st.floats(0.01, 3.0) | st.just(2),
        text_on_object=st.none() | _texts,
    )


# RobotPose refuses a non-finite x, y or heading, and a camera_pitch outside PITCH_RANGE, NaN included
_pitches = st.floats(*PITCH_RANGE) | st.integers(-30, 60) | st.sampled_from([-0.0, *PITCH_RANGE])
_poses = st.builds(RobotPose, x=_far, y=_far, heading=_far, camera_pitch=_pitches)
_params = st.just(SimParams()) | st.builds(SimParams, hfov=st.integers(1, 360), footprint_radius=st.just(0.25))
# a world holds unique ids, a robot at a finite x, y and heading, and nothing past WORLD_LIMIT
_worlds = st.builds(
    WorldState, robot=st.builds(RobotPose, x=_finite, y=_finite, heading=_far, camera_pitch=_pitches),
    objects=st.lists(_objects(_finite), max_size=4, unique_by=lambda obj: obj.id).map(tuple), params=_params,
    buzzer_events=st.lists(_far, max_size=3).map(tuple), tick=st.integers(0, 10**6),
)


@settings(max_examples=300, deadline=None)
@given(_worlds, _poses, st.lists(_objects(_far), max_size=2))
def test_to_json_is_canonical_json_of_to_dict(world_state, pose, loose):
    parts = [world_state, world_state.robot, world_state.params, pose]
    for obj in world_state.objects + tuple(loose):
        parts += [obj, obj.shape]
    for part in parts:
        assert part.to_json() == canonical_json(part.to_dict())
    assert world_digest(world_state) == reference_digest(world_state)


# ---------------------------------------------------------------------------
# The world decoder against the constructors: the same world, the same bound bits

_doc_numbers = st.one_of(st.floats(-50.0, 50.0), st.integers(-50, 50), st.sampled_from([-0.0, 5e-324, -5e-324, 0.1]))
_doc_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5) | st.sampled_from(["café ☃", "\x00\""])
_extra_keys = st.dictionaries(st.sampled_from(["note", "z", "ünknown"]), _doc_texts | _doc_numbers, max_size=2)
_doc_shapes = st.one_of(
    st.fixed_dictionaries({"type": st.just("circle"), "center": st.lists(_doc_numbers, min_size=2, max_size=2),
                           "radius": st.floats(0.01, 5.0) | st.integers(1, 5)}),
    st.fixed_dictionaries({"type": st.just("polygon"),
                           "vertices": st.lists(st.lists(_doc_numbers, min_size=2, max_size=2), min_size=3, max_size=6)}),
)
_doc_objects = st.lists(
    st.tuples(_doc_texts, st.sampled_from(OBJECT_KINDS), _doc_shapes, st.none() | st.just("absent") | _doc_texts,
              _doc_texts, st.floats(0.01, 3.0) | st.integers(1, 3), st.none() | _doc_texts, _extra_keys, _extra_keys),
    max_size=6, unique_by=lambda entry: entry[0])


def _object_doc(oid, kind, shape, label, color, height, text, extra, shape_extra):
    doc = {**extra, "id": oid, "kind": kind, "shape": {**shape_extra, **shape}, "color": color, "height": height,
           "text_on_object": text}
    if label != "absent":
        doc["label"] = label
    return doc


def _constructed(oid, kind, shape, label, color, height, text, extra, shape_extra) -> SimObject:
    """The object a document describes, built with the constructors from the document's values."""
    if shape["type"] == "circle":
        built = Shape(kind="circle", center=tuple(float(c) for c in shape["center"]), radius=float(shape["radius"]))
    else:
        built = Shape(kind="polygon", vertices=tuple((float(x), float(y)) for x, y in shape["vertices"]))
    return SimObject(id=oid, kind=kind, shape=built, label=None if label == "absent" else label, color=color,
                     height=float(height), text_on_object=text)


@settings(max_examples=300, deadline=None)
@example([("a", "box", {"type": "polygon", "vertices": [[-0.0, 5e-324], [1, 0], [0, 1]]}, "absent", "red", 1, None, {}, {})])
@example([("ü", "wall", {"type": "circle", "center": [-0.0, -0.0], "radius": 1}, None, "", 0.5, "☃", {"x": 1}, {"z": 2})])
@given(_doc_objects)
def test_load_world_builds_what_the_constructors_build(entries):
    """Far from the robot, so that no object overlaps it: a decoded world equals
    the world built from the same values, writes the same JSON, and each of its
    shapes has the bound bits the constructor computes. A collinear polygon is
    refused by both, with the same text."""
    robot = {"x": 1000.0, "y": -1000.0, "heading": 90.0}
    doc = {"robot": robot, "objects": [_object_doc(*entry) for entry in entries], "unknown": [1]}
    try:
        expected = WorldState(robot=RobotPose(**robot), objects=tuple(_constructed(*entry) for entry in entries))
    except SchemaError as exc:
        assert str(exc) == "bad polygon shape: polygon vertices are collinear"
        with pytest.raises(SchemaError, match=r"^WorldState\.objects: SimObject\.shape: bad polygon shape: "
                                              r"polygon vertices are collinear$"):
            load_world(doc)
        return
    world = load_world(doc)
    assert world == expected
    assert world.to_json() == expected.to_json()
    for got, want in zip(world.objects, expected.objects):
        assert struct.pack("<3d", *got.shape.bound) == struct.pack("<3d", *want.shape.bound)


# (kind, center, radius, vertices): shapes that the constructor and the decoder refuse alike
BAD_SHAPES = {
    "NaN center": ("circle", (math.nan, 0.0), 0.5, ()),
    "infinite center": ("circle", (0.0, -math.inf), 0.5, ()),
    "string coordinate": ("circle", ("a", 0.0), 0.5, ()),
    "center of three": ("circle", [1.0, 2.0, 3.0], 0.5, ()),
    "no center": ("circle", None, 0.5, ()),
    "zero radius": ("circle", (0.0, 0.0), 0.0, ()),
    "NaN radius": ("circle", (0.0, 0.0), math.nan, ()),
    "two vertices": ("polygon", None, 0.0, ((0.0, 0.0), (1.0, 0.0))),
    "collinear vertices": ("polygon", None, 0.0, ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))),
    "NaN vertex": ("polygon", None, 0.0, ((0.0, 0.0), (1.0, math.nan), (0.0, 1.0))),
    "boolean vertex": ("polygon", None, 0.0, ((0.0, 0.0), (True, 0.0), (0.0, 1.0))),
    "unknown kind": ("square", (0.0, 0.0), 0.5, ()),
}


def _shape_doc(kind, center, radius, vertices) -> dict:
    if kind == "polygon":
        return {"type": kind, "vertices": [list(v) for v in vertices]}
    return {"type": kind, "center": None if center is None else list(center), "radius": radius}


def _refusal(build) -> str:
    with pytest.raises(SchemaError) as refused:
        build()
    return str(refused.value)


@pytest.mark.parametrize("name", BAD_SHAPES)
def test_a_bad_shape_is_refused_alike_built_and_decoded(name):
    """The constructor refuses what the decoder refuses, with its text; a
    world that holds the shape's document adds the path to it."""
    values = BAD_SHAPES[name]
    doc = _shape_doc(*values)
    text = _refusal(lambda: Shape(*values))
    assert _refusal(lambda: Shape.from_dict(doc)) == text
    world = {"robot": {"x": 0.0, "y": 0.0}, "objects": [{"id": "a", "kind": "box", "shape": doc}]}
    assert _refusal(lambda: load_world(world)) == "WorldState.objects: SimObject.shape: " + text


def _box(oid="a", center=(5.0, 0.0), height=0.5) -> SimObject:
    return SimObject(oid, "box", Shape("circle", center, 0.5), height=height)


def _box_doc(oid="a", center=(5.0, 0.0), height=0.5) -> dict:
    return {"id": oid, "kind": "box", "shape": {"type": "circle", "center": list(center), "radius": 0.5}, "height": height}


# (robot's x, y and heading, objects) as built and as a document: worlds that WorldState and load_world refuse alike
BAD_WORLDS = {
    "duplicate ids": ((0.0, 0.0, 0.0), [("a", (5.0, 0.0)), ("b", (0.0, 5.0)), ("a", (-5.0, 0.0))]),
    "robot past the limit": ((-2e150, 0.0, 0.0), []),
    "object past the limit": ((0.0, 0.0, 0.0), [("a", (0.0, 2e150))]),
    "robot and object past the limit together": ((6e149, 0.0, 0.0), [("a", (-6e149, 0.0))]),
}


@pytest.mark.parametrize("name", BAD_WORLDS)
def test_a_bad_world_is_refused_alike_built_and_decoded(name):
    robot, boxes = BAD_WORLDS[name]
    text = _refusal(lambda: WorldState(RobotPose(*robot), tuple(_box(oid, center) for oid, center in boxes)))
    doc = {"robot": dict(zip(("x", "y", "heading"), robot)), "objects": [_box_doc(oid, center) for oid, center in boxes]}
    assert _refusal(lambda: load_world(doc)) == text


# (x, y and heading, objects, text): poses that RobotPose refuses built or decoded, and a world with its objects
BAD_POSES = {
    "NaN robot": ((math.nan, 0.0, 0.0), [], "RobotPose.x: expected a finite number, got nan"),
    "infinite robot": ((0.0, math.inf, 0.0), [], "RobotPose.y: expected a finite number, got inf"),
    "string robot": (("a", 0.0, 0.0), [("a", (5.0, 0.0))], "RobotPose.x: expected a finite number, got 'a'"),
    "NaN heading": ((0.0, 0.0, math.nan), [], "RobotPose.heading: expected a finite number, got nan"),
    "string heading": ((0.0, 0.0, "a"), [], "RobotPose.heading: expected a finite number, got 'a'"),
    "boolean heading": ((0.0, 0.0, True), [], "RobotPose.heading: expected a finite number, got True"),
    "NaN robot and duplicate ids": ((math.nan, 0.0, 0.0), [("a", (5.0, 0.0)), ("a", (-5.0, 0.0))],
                                    "RobotPose.x: expected a finite number, got nan"),
}


@pytest.mark.parametrize("name", BAD_POSES)
def test_a_bad_pose_is_refused_alike_built_and_decoded(name):
    """A pose refuses what the decoder refuses, with its text, before any
    world is built on it; a world's document adds the path to it, and its
    robot is refused before its objects are checked."""
    pose, boxes, text = BAD_POSES[name]
    doc = dict(zip(("x", "y", "heading"), pose))
    assert _refusal(lambda: RobotPose(*pose)) == text
    assert _refusal(lambda: RobotPose.from_dict(doc)) == text
    world = {"robot": doc, "objects": [_box_doc(oid, center) for oid, center in boxes]}
    assert _refusal(lambda: load_world(world)) == "WorldState.robot: " + text


def test_a_pose_and_a_world_take_integers_as_floats_as_the_decoder_does():
    assert RobotPose(1, -2, 370) == RobotPose.from_dict({"x": 1, "y": -2, "heading": 370}) == RobotPose(1.0, -2.0, 10.0)
    assert type(RobotPose(1).x) is float
    world = WorldState(RobotPose(), buzzer_events=(0, 3))
    assert world.buzzer_events == (0.0, 3.0) and world.to_json() == WorldState.from_dict(world.to_dict()).to_json()
    assert '"buzzer_events":[0.0,3.0]' in world.to_json()


@pytest.mark.parametrize("event", [math.nan, -math.inf, "a", None, True])
def test_a_bad_buzzer_event_is_refused_alike_built_and_decoded(event):
    """A world refuses a buzzer event that its JSON could not hold, on a new
    sequence of objects or on another world's, as a command's world is built."""
    text = _refusal(lambda: WorldState(RobotPose(), buzzer_events=(event,)))
    assert text == "WorldState.buzzer_events: expected a finite number, got " + repr(event)
    world = load_world({"robot": {}, "objects": [_box_doc()]})
    assert _refusal(lambda: dataclasses.replace(world, buzzer_events=(0.0, event))) == text
    assert _refusal(lambda: WorldState.from_dict({"robot": {}, "buzzer_events": [0.0, event]})) == text


# field -> (constructor keywords, document): each holds a value of the wrong type in that field
WRONG_TYPES = {
    "robot": (dict(robot=None), {"robot": None}),
    "robot as a document": (dict(robot={"x": 1.0}), {"robot": 1.0}),
    "params": (dict(params=None), {"params": None}),
    "params as a document": (dict(params={}), {"params": []}),
    "objects": (dict(objects=None), {"objects": None}),
    "objects as a mapping": (dict(objects={}), {"objects": {}}),
    "an object": (dict(objects=(None,)), {"objects": [None]}),
    "an object as a shape": (dict(objects=[Shape("circle", (0.0, 0.0), 1.0)]), {"objects": [1.0]}),
    "buzzer_events": (dict(buzzer_events=None), {"buzzer_events": None}),
    "buzzer_events as a string": (dict(buzzer_events="1"), {"buzzer_events": "1"}),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_a_world_field_of_the_wrong_type_is_refused_alike_built_and_decoded(case):
    """Built or decoded, a world refuses a field that does not hold its type
    with a SchemaError that names the field."""
    built, document = WRONG_TYPES[case]
    name = next(iter(built))
    prefix = f"WorldState.{name}: expected "
    assert _refusal(lambda: WorldState(**{"robot": RobotPose(), **built})).startswith(prefix)
    assert _refusal(lambda: WorldState.from_dict({"robot": {}, **document})).startswith(f"WorldState.{name}: ")


def test_a_world_on_another_world_s_objects_still_checks_its_robot_and_buzzer_events():
    world = load_world({"robot": {}, "objects": [_box_doc()]})
    assert (_refusal(lambda: dataclasses.replace(world, robot=(0.0, 0.0)))
            == "WorldState.robot: expected a RobotPose, got (0.0, 0.0)")
    assert (_refusal(lambda: dataclasses.replace(world, buzzer_events=None))
            == "WorldState.buzzer_events: expected a list, got None")


def test_a_list_of_buzzer_events_becomes_a_tuple_of_floats():
    world = load_world({"robot": {}, "objects": [_box_doc()]})
    for objects in ((), [_box()], world.objects):
        built = WorldState(RobotPose(), objects, buzzer_events=[0, 2.0])
        assert type(built.buzzer_events) is tuple and built.buzzer_events == (0.0, 2.0)
        assert all(type(event) is float for event in built.buzzer_events)
        assert hash(built) == hash(WorldState(RobotPose(), objects, buzzer_events=(0.0, 2.0)))
    assert WorldState(RobotPose(), [_box()]).to_json() == load_world({"robot": {}, "objects": [_box_doc()]}).to_json()


@pytest.mark.parametrize("height", [0.0, -1.0, math.nan])
def test_an_object_is_refused_a_height_not_above_zero(height):
    """The decoder refuses NaN as a number before the height check sees it."""
    built = _refusal(lambda: _box(height=height))
    decoded = _refusal(lambda: load_world({"robot": {"x": 0.0, "y": 0.0}, "objects": [_box_doc(height=height)]}))
    assert built == "object 'a': height must be positive"
    if math.isnan(height):
        assert decoded == "WorldState.objects: SimObject.height: expected a finite number, got nan"
    else:
        assert decoded == "WorldState.objects: " + built


def _built_twin(doc: dict) -> WorldState:
    """The world a document describes, built with the constructors from its values."""
    objects = []
    for obj in doc["objects"]:
        shape = obj["shape"]
        if shape["type"] == "circle":
            built = Shape("circle", tuple(shape["center"]), shape["radius"])
        else:
            built = Shape("polygon", vertices=tuple(tuple(v) for v in shape["vertices"]))
        objects.append(SimObject(obj["id"], obj["kind"], built, obj.get("label"), obj.get("color", "gray"),
                                 obj.get("height", 0.5), obj.get("text_on_object")))
    return WorldState(RobotPose(**doc["robot"]), tuple(objects), SimParams(**doc.get("params", {})))


_WORLD_FILES = sorted((Path(sim.__file__).parent / "data" / "worlds").glob("*.json"))


def test_every_bundled_world_is_listed():
    assert {"case_avoid.json", "case_bosch.json", "obs_1.json"} <= {path.name for path in _WORLD_FILES}


@pytest.mark.parametrize("path", _WORLD_FILES, ids=lambda path: path.stem)
def test_a_bundled_world_loads_as_its_constructors_build_it(path):
    world = sim.load_world_file(path)
    twin = _built_twin(json.loads(path.read_text()))
    assert world == twin
    assert world.to_json() == twin.to_json()
    for got, want in zip(world.objects, twin.objects):
        assert struct.pack("<3d", *got.shape.bound) == struct.pack("<3d", *want.shape.bound)


# the bridge writes every payload with its to_json, so each payload class is held to the same two rules
_wire_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 0.1]),
)
_wire_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["冰箱", "café ☃ 🚗", '"|\\', "\x00\n "])
_sensor_data = st.builds(SensorData, ultrasonic_clearance=_wire_floats.map(abs), ir_left=st.booleans(),
                         ir_right=st.booleans())
_visible = st.builds(VisibleObject, label=_wire_texts, color=_wire_texts, shape=_wire_texts,
                     text_on_object=st.none() | _wire_texts, distance=_wire_floats, bearing=_wire_floats)
_observations = st.builds(Observation, items=st.lists(_visible, max_size=3).map(tuple), free_text=_wire_texts)


@st.composite
def _commands(draw) -> Command:
    name = draw(st.sampled_from(sorted(model.COMMAND_SPECS)))
    _arg, low, high, low_inclusive = model.COMMAND_SPECS[name]
    value = draw(st.floats(low, high, exclude_min=not low_inclusive)
                 | st.integers(math.floor(low) + (not low_inclusive), math.floor(high))
                 | st.sampled_from([high, float(high), 5e-324 if low == 0 else low]))
    return Command(name, value)


@st.composite
def _exec_results(draw) -> ExecResult:
    outcome = draw(st.sampled_from(ExecOutcome))
    heading_change = -90.0 if outcome is ExecOutcome.AVOIDED else draw(_wire_floats)
    return ExecResult(command_echo=draw(_commands()), outcome=outcome, distance_travelled=draw(_wire_floats),
                      heading_change=heading_change, sensor_after=draw(_sensor_data))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_sensor_data, _visible, _observations, _exec_results(), _commands()))
def test_payload_writers_write_canonical_json_that_reads_back(payload):
    text = payload.to_json()
    assert text == canonical_json(payload.to_dict())
    assert type(payload).from_dict(model.read_json(text, "payload")) == payload


# ---------------------------------------------------------------------------
# The codec's bytes: canonical_json writes what json.dumps writes, read_json
# returns what json.loads returns or raises what it raised around it, and the
# wire carries the bytes it always carried

_json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(10**20, 10**40) | st.floats()
                 | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
                 | st.text(max_size=8) | st.text(st.characters(min_codepoint=0x80), max_size=8))
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_json_docs)
def test_canonical_json_writes_what_json_dumps_writes(time_limit, doc):
    with time_limit(10.0):
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert canonical_json(doc) == expected


# run in a fresh interpreter, in which json loses its C encoder before carobo is imported
WITHOUT_C_ENCODER = r"""
import json, json.encoder
json.encoder.c_make_encoder = None
from carobo import model, policies
docs = [{"b": [1, 2.5, -0.0, 1e300, 10**40], "a": {"z": None, "y": True}}, "caf\u00e9 \u2192 \U0001f697",
        {"observation": "\u51b0\u7bb1", "comment": "Step 1: car_forward.", "status": "CONTINUE",
         "command": {"name": "car_forward", "args": {"distance": 1.0}}},
        [float("nan"), float("inf"), -float("inf"), "\\\"\n\x00\ud800"], {}, [], 0, None]
print(type(model.canonical_json.__self__).__name__, type(policies._dumps.__self__).__name__)
for doc in docs:
    print(model.canonical_json(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False),
          policies._dumps(doc) == json.dumps(doc, ensure_ascii=False))
"""


def test_both_writers_keep_their_bytes_without_the_c_encoder():
    """Where json has no C encoder, canonical_json and the policy writer fall
    back to a Python JSONEncoder made once, and still write json.dumps's bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", WITHOUT_C_ENCODER], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "JSONEncoder JSONEncoder"
    assert lines[1:] == ["True True"] * 8


DEEP = "[" * 100_000  # deeper than any recursion limit json.loads can reach
_blank = st.text(" \t\n\r", max_size=2)
_json_texts = st.one_of(
    st.builds(lambda before, doc, ascii, after: before + json.dumps(doc, ensure_ascii=ascii) + after,
              _blank | st.just("\ufeff"), _json_docs, st.booleans(),
              _blank | st.sampled_from(["x", "]", " 1", "\x0b", "\x0c", "\xa0", "\x85", "\u2028", "\n\x00"])),
    st.text(alphabet='{}[]":,0123456789.eE-+aINfinytrulsf\\u \n\ufeff', max_size=40),
    st.text(max_size=20),
    st.binary(max_size=20),
    _json_docs.map(lambda doc: json.dumps(doc).encode("utf-8")),
)


def _loads_or_typed_error(text):
    try:
        return "value", json.loads(text)
    except (ValueError, RecursionError) as exc:
        return "error", f"cannot read doc: {exc}"


@settings(max_examples=300, deadline=None)
@given(_json_texts)
@example(" [1] ")
@example("\ufeff[1]")
@example("[1] [2]")
@example("{} x")
@example("")
@example(DEEP)
@example('"\\ud800"')
@example("\ud800")
@example(b"[1]")
@example("1" * 5000)  # past the int-string limit
@example("[1]\n")
@example("[1] \t\r\n ")
@example("[1]\x0c")
@example("[1]\u2028")
def test_read_json_returns_what_json_loads_returns(time_limit, text):
    with time_limit(10.0):
        expected = _loads_or_typed_error(text)
        try:
            got = "value", model.read_json(text, "doc")
        except SchemaError as exc:
            got = "error", str(exc)
    assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0 and matches NaN with NaN


def test_a_document_ending_in_whitespace_is_parsed_once(monkeypatch):
    """Every bundled world and suite file ends in a newline; the scanner's
    value is returned without a second parse by json.loads."""
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("parsed a second time"))
    assert model.read_json('{"a": [1, 2.5]} \t\r\n', "doc") == {"a": [1, 2.5]}
    text = default_suite_path().read_text(encoding="utf-8")
    assert text.endswith("\n") and type(model.read_json(text, "suite")) is dict


# sha256 of the envelope lines of the obs_5 oracle episode on local:, with
# the timestamp field emptied; it changes only if the wire format does
WIRE_SHA256 = "80a4b8fea7b7447cfd3159a93868b37dde10e221529c266df1d24c2459300e23"


def test_the_wire_carries_the_same_bytes(monkeypatch):
    lines = []
    send = bridge.LocalConnection._send_line

    def record(conn, line):
        lines.append(line)
        send(conn, line)

    monkeypatch.setattr(bridge.LocalConnection, "_send_line", record)
    spec = {s.id: s for s in load_benchmark(default_suite_path())}["obs_5"]
    row, _ = run_scenario(spec, scripted_pair("oracle"), transport="local:")
    assert row.verdict == "Success"
    masked = []
    for line in lines:
        topic, seq, timestamp, payload = line.split("|", 3)
        assert timestamp.isascii() and timestamp.isdigit()
        masked.append(f"{topic}|{seq}||{payload}")
    assert len(masked) == 2 + 4 * 8  # the connect state, then each of 8 commands and its 3 replies
    assert hashlib.sha256("\n".join(masked).encode("utf-8")).hexdigest() == WIRE_SHA256


# sha256 of the envelope lines of two more episodes, taken where every line is
# formed (bridge.encode_line) with the timestamp field emptied; each is the
# same on local: and tcp:. The clutter episode is scenario obs_1 of the suite
# perfbench/clutter.py writes for generator seed 0 with 150 objects: its
# drives are avoided and blocked.
WIRE_PINS = {
    "gpt-4o/obs_4": (2 + 4 * 15, "ebaee2822532fe696afb5021c4f14e773c5798594265d1de726b3c26899f8db3"),
    "clutter-seed0/obs_1": (2 + 4 * 7, "26752985c286ba4fadc5fcba9f0a99d9f681a498b3e7921be8873ef9ebb7a188"),
}


def _wire_episode(name: str, workdir: Path):
    """(spec, backend pair) of a pinned episode."""
    if name.startswith("gpt-4o/"):
        specs, pair = load_benchmark(default_suite_path()), replay_pair(bundled_trace_dir("gpt-4o"))
    else:
        with pytest.MonkeyPatch.context() as patch:
            patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
            import clutter
        suite, streams, _ = clutter.write_suite(0, workdir, n_objects=150)
        specs, pair = load_benchmark(suite), replay_pair(streams)
    return {s.id: s for s in specs}[name.split("/")[1]], pair


@pytest.mark.parametrize("transport", ["local:", "tcp:"])
@pytest.mark.parametrize("name", sorted(WIRE_PINS))
def test_more_episodes_carry_the_same_bytes_on_both_transports(monkeypatch, tmp_path, name, transport):
    spec, pair = _wire_episode(name, tmp_path)
    lines = []
    encode = bridge.encode_line

    def record(*args):
        line = encode(*args)
        lines.append(line)
        return line

    monkeypatch.setattr(bridge, "encode_line", record)
    run_scenario(spec, pair, transport=transport)
    masked = []
    for line in lines:
        topic, seq, timestamp, payload = line.split("|", 3)
        assert timestamp.isascii() and timestamp.isdigit()
        masked.append(f"{topic}|{seq}||{payload}")
    count, digest = WIRE_PINS[name]
    assert len(masked) == count
    assert hashlib.sha256("\n".join(masked).encode("utf-8")).hexdigest() == digest
