"""Core message and data type behavior."""
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carobo.model import (
    COMMAND_SPECS,
    ArgOutOfRange,
    Command,
    ExecOutcome,
    ExecResult,
    GlobalPlan,
    IndexMismatch,
    InvalidCommand,
    InvariantViolation,
    MemoryLog,
    Observation,
    Round,
    SensorData,
    Status,
    UnknownCommand,
    UnknownStatus,
    UserRequest,
    VisibleObject,
    append_round,
    canonical_json,
    parse_status,
    render_items,
    render_memory,
)


# ---------------------------------------------------------------------------
# Status

@pytest.mark.parametrize("raw", ["CONTINUE", "continue", "  Continue \n"])
def test_parse_status_continue_variants(raw):
    assert parse_status(raw) is Status.CONTINUE


@pytest.mark.parametrize("raw", ["FINISH", "finish", "\tFinish "])
def test_parse_status_finish_variants(raw):
    assert parse_status(raw) is Status.FINISH


@pytest.mark.parametrize("raw", ["DONE", "", "FINISHED", "CONTINUE.", "CONT INUE"])
def test_parse_status_rejects_everything_else(raw):
    with pytest.raises(UnknownStatus):
        parse_status(raw)


# ---------------------------------------------------------------------------
# Commands

def test_command_specs_cover_exactly_six_commands():
    assert set(COMMAND_SPECS) == {
        "car_forward", "car_back", "car_left", "car_right", "camera_move", "buzzer",
    }


@pytest.mark.parametrize(
    "name,value",
    [
        ("car_forward", 0.05),
        ("car_forward", 10.0),
        ("car_back", 5.0),
        ("car_left", 360.0),
        ("car_right", 0.001),
        ("camera_move", -30.0),
        ("camera_move", 60.0),
        ("camera_move", 0.0),
        ("buzzer", 10.0),
    ],
)
def test_validate_accepts_in_range(name, value):
    assert Command(name=name, value=value).value == value


@pytest.mark.parametrize(
    "name,value",
    [
        ("car_forward", 0.0),  # distances and angles are exclusive at zero
        ("car_forward", -1.0),
        ("car_forward", 10.001),
        ("car_back", 0.0),
        ("car_left", 0.0),
        ("car_left", 360.1),
        ("car_right", 400.0),
        ("camera_move", -30.1),  # pitch is inclusive but bounded
        ("camera_move", 60.5),
        ("buzzer", 0.0),
        ("buzzer", 11.0),
    ],
)
def test_validate_rejects_out_of_range(name, value):
    with pytest.raises(ArgOutOfRange):
        Command(name=name, value=value)


def test_unknown_command_name_rejected_at_construction():
    with pytest.raises(UnknownCommand):
        Command(name="car_up", value=1.0)


def test_non_finite_value_rejected():
    with pytest.raises(ArgOutOfRange):
        Command(name="car_forward", value=math.nan)
    with pytest.raises(ArgOutOfRange):
        Command(name="car_forward", value=math.inf)


def test_command_serialization_shape():
    cmd = Command("car_forward", 0.5)
    assert cmd.to_dict() == {"name": "car_forward", "args": {"distance": 0.5}}
    assert Command.from_dict(cmd.to_dict()) == cmd


def test_command_from_dict_requires_exact_arg_name():
    with pytest.raises(InvalidCommand):
        Command.from_dict({"name": "car_forward", "args": {"angle": 0.5}})
    with pytest.raises(InvalidCommand):
        Command.from_dict({"name": "car_forward", "args": {"distance": 0.5, "speed": 1}})
    with pytest.raises(ArgOutOfRange):
        Command.from_dict({"name": "car_forward", "args": {"distance": 99}})


def _arguments():
    """A command name and an argument: any float or int, a bool, the infinities,
    NaN, or a value at or just beside one end of the name's range."""
    def for_name(name):
        _, lo, hi, _ = COMMAND_SPECS[name]
        edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
                 math.nextafter(hi, math.inf), int(lo), int(hi), math.inf, -math.inf, math.nan]
        return st.tuples(st.just(name), st.one_of(
            st.floats(), st.floats(lo - 1, hi + 1), st.integers(), st.integers(-400, 400),
            st.booleans(), st.sampled_from(edges)))

    return st.sampled_from(sorted(COMMAND_SPECS)).flatmap(for_name)


def _outcome(build):
    try:
        return build()
    except InvalidCommand as exc:
        return type(exc), str(exc)


@given(_arguments())
def test_a_command_can_be_built_exactly_when_its_argument_is_in_range(case):
    name, value = case
    arg, lo, hi, low_inclusive = COMMAND_SPECS[name]
    in_range = (type(value) in (int, float) and (lo <= value if low_inclusive else lo < value)
                and value <= hi)
    built = _outcome(lambda: Command(name, value))
    if in_range:
        assert isinstance(built, Command) and built.value == value and type(built.value) is float
    else:
        assert isinstance(built, tuple)
        # a number out of range (NaN and the infinities too) is ArgOutOfRange; a bool is no number
        assert built[0] is (InvalidCommand if type(value) is bool else ArgOutOfRange)
    assert _outcome(lambda: Command.from_dict({"name": name, "args": {arg: value}})) == built


def test_command_describe_reads_naturally():
    assert Command("car_left", 90).describe() == "car_left(angle=90)"
    assert Command("buzzer", 0.5).describe() == "buzzer(duration=0.5)"


@given(st.sampled_from(sorted(COMMAND_SPECS)), st.floats(0.0001, 10.0))
def test_command_roundtrip_property(name, raw):
    arg, lo, hi, inclusive = COMMAND_SPECS[name]
    span = hi - lo
    value = lo + (raw / 10.0) * span
    if not inclusive and value <= lo:
        value = lo + span / 2
    cmd = Command.from_dict({"name": name, "args": {arg: value}})
    assert Command.from_dict(json.loads(canonical_json(cmd.to_dict()))) == cmd


# ---------------------------------------------------------------------------
# Requests, sensors, observations

def test_user_request_must_have_text():
    with pytest.raises(InvariantViolation):
        UserRequest(text="   ")


def test_sensor_data_rejects_negative_clearance():
    with pytest.raises(InvariantViolation):
        SensorData(ultrasonic_clearance=-0.1, ir_left=False, ir_right=False)


def test_render_items_empty_and_joined():
    assert render_items(()) == "nothing notable in view"
    items = (
        VisibleObject(label="box", color="red", shape="polygon", text_on_object=None,
                      distance=1.234, bearing=-12.3),
        VisibleObject(label="paper", color="white", shape="polygon", text_on_object="HI",
                      distance=2.0, bearing=5.0),
    )
    text = render_items(items)
    assert text == (
        "a red box (polygon) at 1.23 m, bearing -12 deg; "
        "a white paper (polygon) at 2.00 m, bearing +5 deg, reading 'HI'"
    )


def test_observation_free_text_derives_from_items():
    items = (
        VisibleObject(label="box", color="blue", shape="circle", text_on_object=None,
                      distance=0.5, bearing=0.0),
    )
    obs = Observation.from_items(items)
    assert obs.free_text == render_items(items)
    assert Observation.from_dict(obs.to_dict()) == obs


# ---------------------------------------------------------------------------
# Exec results

def _sensors():
    return SensorData(ultrasonic_clearance=1.0, ir_left=False, ir_right=False)


def test_exec_result_avoided_requires_minus_ninety():
    with pytest.raises(InvariantViolation):
        ExecResult(
            command_echo=Command("car_forward", 1.0),
            outcome=ExecOutcome.AVOIDED,
            distance_travelled=0.2,
            heading_change=-45.0,
            sensor_after=_sensors(),
        )


def test_exec_outcomes_serialize_lowercase():
    assert {o.value for o in ExecOutcome} == {"ok", "blocked", "avoided"}


# ---------------------------------------------------------------------------
# Plans, rounds, memory

def test_plan_requires_steps():
    with pytest.raises(InvariantViolation):
        GlobalPlan(steps=())
    with pytest.raises(InvariantViolation):
        GlobalPlan(steps=("ok", "  "))


def test_plan_render_numbers_steps():
    plan = GlobalPlan(steps=("scan", "approach"))
    assert plan.render() == "1. scan\n2. approach"


def _round(i, status=Status.CONTINUE, with_action=True, comment="c"):
    obs = Observation.from_items(())
    if status is Status.FINISH or not with_action:
        return Round(index=i, observation=obs, comment=comment, status=status)
    cmd = Command("car_forward", 0.5)
    res = ExecResult(
        command_echo=cmd, outcome=ExecOutcome.OK, distance_travelled=0.5,
        heading_change=0.0, sensor_after=_sensors(),
    )
    return Round(index=i, observation=obs, comment=comment, status=status,
                 action=cmd, exec_result=res)


def test_round_action_and_result_travel_together():
    obs = Observation.from_items(())
    with pytest.raises(InvariantViolation):
        Round(index=0, observation=obs, comment="c", status=Status.CONTINUE,
              action=Command("car_forward", 1.0))


def test_append_round_enforces_contiguous_indices():
    log = MemoryLog()
    log = append_round(log, _round(0))
    log = append_round(log, _round(1))
    with pytest.raises(IndexMismatch):
        append_round(log, _round(5))
    assert len(log) == 2


def test_render_memory_window_and_format():
    log = MemoryLog()
    for i in range(4):
        log = append_round(log, _round(i, comment=f"c{i}"))
    assert render_memory(log, 0) == ""
    text = render_memory(log, 2)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[round 2] comment: c2 | action: car_forward(distance=0.5)")
    assert "result: ok" in lines[0]
    assert "status: CONTINUE" in lines[1]


def test_round_roundtrip_through_dict():
    rnd = _round(3)
    assert Round.from_dict(json.loads(canonical_json(rnd.to_dict()))) == rnd


def test_canonical_json_is_stable_and_compact():
    doc = {"b": 1, "a": [1.5, "x"], "c": {"z": None, "y": True}}
    one = canonical_json(doc)
    assert one == canonical_json(json.loads(one))
    assert " " not in one.replace('"a a"', "")
    assert one.index('"a"') < one.index('"b"') < one.index('"c"')
