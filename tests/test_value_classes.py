"""Value classes: every dataclass of carobo is made by `model.value_class`,
whose methods compile on first use and behave as a frozen dataclass's."""
from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from carobo import app, bench, llm, model, sim
from carobo.app import EpisodeLimits, FailureReason, Verdict
from carobo.model import Command, ExecOutcome, GlobalPlan, Observation, Status, value_class
from carobo.suite_data import DOMAINS

SRC = Path(__file__).resolve().parent.parent / "src"

_cmd = Command("car_forward", 1.0)
_sensors = model.SensorData(1.5, True, False)
_seen = model.VisibleObject("box", "red", "circle", None, 1.0, -5.0)
_echo = model.ExecResult(_cmd, ExecOutcome.OK, 1.0, 0.0, _sensors)
_round = model.Round(0, Observation((_seen,), "a red box"), "go", Status.CONTINUE, "t", _cmd, _echo)
_circle = sim.Shape("circle", (1.0, 2.0), 0.5)
_triangle = sim.Shape("polygon", None, 0.0, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
_box = sim.SimObject("b1", "box", _circle)
_near, _buzz = bench.Near("b1", 0.5), bench.BuzzerCount(">=", 1)
_blocks = {"request": "r", "observation": "o", "sensors": "s", "memory": "m"}
_script = bench.OracleScript(("look",), ({"name": "buzzer", "args": {"duration": 1}},), "done")
_row = bench.Row("s1", DOMAINS[0], "Success", None, 1, 1)

# two sets of arguments for each class, which differ in a compared field
EXAMPLES = {
    model.Command: (dict(name="car_forward", value=1.0), dict(name="buzzer", value=2)),
    model.UserRequest: (dict(text="find the box"), dict(text="go", id="r1")),
    model.SensorData: (dict(ultrasonic_clearance=1.5, ir_left=True, ir_right=False),
                       dict(ultrasonic_clearance=0.0, ir_left=False, ir_right=False)),
    model.VisibleObject: (dict(label="box", color="red", shape="circle", text_on_object=None, distance=1.0,
                               bearing=-5.0),
                          dict(label="paper", color="white", shape="polygon", text_on_object="EXIT", distance=2.5,
                               bearing=12.0)),
    model.Observation: (dict(), dict(items=(_seen,), free_text="a red box")),
    model.ExecResult: (dict(command_echo=_cmd, outcome=ExecOutcome.OK, distance_travelled=1.0, heading_change=0.0,
                            sensor_after=_sensors),
                       dict(command_echo=_cmd, outcome=ExecOutcome.AVOIDED, distance_travelled=0.0,
                            heading_change=-90.0, sensor_after=_sensors)),
    model.GlobalPlan: (dict(steps=("look",)), dict(steps=["look", "go"])),
    model.Round: (dict(index=0, observation=Observation(), comment="c", status=Status.FINISH),
                  dict(index=1, observation=Observation(), comment="go", status=Status.CONTINUE, thoughts="t",
                       action=_cmd, exec_result=_echo)),
    model.MemoryLog: (dict(), dict(rounds=(_round,))),
    sim.SimParams: (dict(), dict(hfov=90.0, ir_range=0.0)),
    sim.RobotPose: (dict(), dict(x=1.0, y=-2.0, heading=370.0, camera_pitch=10.0)),
    sim.Shape: (dict(kind="circle", center=(1.0, 2.0), radius=0.5),
                dict(kind="polygon", vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))),
    sim.SimObject: (dict(id="b1", kind="box", shape=_circle),
                    dict(id="w1", kind="wall", shape=_triangle, label="north wall", color="white", height=2.0,
                         text_on_object="EXIT")),
    sim.WorldState: (dict(robot=sim.RobotPose()),
                     dict(robot=sim.RobotPose(1.0, 2.0), objects=[_box], params=sim.SimParams(hfov=90.0),
                          buzzer_events=(1.0,), tick=2)),
    llm.Prompt: (dict(system="s", few_shot=(), blocks=_blocks),
                 dict(system="s", few_shot=(("in", "out"),), blocks={**_blocks, "plan": "1. look"})),
    llm.AgentTemplate: (dict(system="s", examples=(), block_formats={}),
                        dict(system="t", examples=(("in", "out"),), block_formats={"memory": "M:\n{memory}"})),
    llm.HttpChatConfig: (dict(endpoint="http://127.0.0.1:1/v1", model_name="m"),
                         dict(endpoint="http://127.0.0.1:1/v1", model_name="m", timeout_s=5.0)),
    llm.ScriptedConfig: (dict(policy_id="oracle"), dict(policy_id="spin")),
    llm.ReplayConfig: (dict(trace_path="a.jsonl"), dict(trace_path="b.jsonl")),
    llm.BackendConfig: (dict(kind=llm.ScriptedConfig("oracle")), dict(kind=llm.ReplayConfig("a"), max_retries=0)),
    llm.HostDecision: (dict(observation="o", thoughts="t", plan=GlobalPlan(("look",)), comment="c"),
                       dict(observation="o", thoughts="u", plan=GlobalPlan(("look", "go")), comment="c")),
    llm.AppDecision: (dict(observation="o", comment="c", status=Status.FINISH),
                      dict(observation="o", comment="c", status=Status.CONTINUE, command=_cmd)),
    app.EpisodeLimits: (dict(), dict(max_steps=3, max_rounds=4)),
    app.EpisodeHeader: (dict(request_id="r", request_text="t", world=None, limits=EpisodeLimits()),
                        dict(request_id="r", request_text="t", world={"robot": {}}, limits=EpisodeLimits(3))),
    app.EpisodeFooter: (dict(verdict=Verdict.SUCCESS, failure_reason=None, steps=1, rounds=2, final_world_digest=None),
                        dict(verdict=Verdict.FAILURE, failure_reason=FailureReason.STEP_LIMIT, steps=20, rounds=25,
                             final_world_digest="ab")),
    app.HostRecord: (dict(prompt_digest="d1", raw="r", decision=llm.HostDecision("o", "t", GlobalPlan(("a",)), "c")),
                     dict(prompt_digest="d2", raw="r", decision=llm.HostDecision("o", "t", GlobalPlan(("b",)), "c"))),
    app.RoundRecord: (dict(index=0, prompt_digest="d", raw="r", round=_round),
                      dict(index=1, prompt_digest="d", raw="s", round=_round)),
    app.RoundError: (dict(round=0, error="MalformedDecision: no JSON"), dict(round=2, error="TransportError: down")),
    app.EpisodeResult: (dict(request_id="r", verdict=Verdict.SUCCESS, failure_reason=None, steps=0, rounds=0,
                             trace=model.MemoryLog(), final_world_digest=None),
                        dict(request_id="r", verdict=Verdict.FAILURE, failure_reason=FailureReason.FALSE_COMPLETION,
                             steps=1, rounds=2, trace=model.MemoryLog((_round,)), final_world_digest="ab")),
    bench.JudgeContext: (dict(world=sim.WorldState(sim.RobotPose()), comments=(), path_length=0.0),
                         dict(world=sim.WorldState(sim.RobotPose()), comments=("found it",), path_length=1.5)),
    bench.Near: (dict(object_id="b1", within=0.5), dict(object_id="b2", within=1.0)),
    bench.BuzzerCount: (dict(cmp=">=", count=1), dict(cmp="==", count=0)),
    bench.PoseWithin: (dict(x=0.0, y=0.0, tol=0.1), dict(x=1.0, y=2.0, tol=0.5)),
    bench.HeadingWithin: (dict(deg=90.0, tol=5.0), dict(deg=0.0, tol=1.0)),
    bench.CommentMatches: (dict(pattern="found"), dict(pattern="^done$")),
    bench.PathLengthAtLeast: (dict(meters=1.0), dict(meters=2.5)),
    bench.CameraPitchAtLeast: (dict(deg=10.0), dict(deg=20.0)),
    bench.And: (dict(clauses=(_near,)), dict(clauses=(_near, _buzz))),
    bench.Or: (dict(clauses=(_near,)), dict(clauses=(_near, _buzz))),
    bench.Not: (dict(clause=_near), dict(clause=_buzz)),
    bench.OracleScript: (dict(plan=("look",), commands=(), comment="done"),
                         dict(plan=("look", "go"), commands=({"name": "buzzer", "args": {"duration": 1}},),
                              comment="c", aliases=("beep",))),
    bench.ScenarioSpec: (dict(id="s1", domain=DOMAINS[0], request_text="t", world_file="w.json", goal=_near),
                         dict(id="s2", domain=DOMAINS[1], request_text="t", world_file="w.json", goal=_buzz,
                              limits=EpisodeLimits(3), oracle=_script)),
    bench.Row: (dict(scenario_id="s1", domain="d", verdict="Success", failure_reason=None, steps=1, rounds=1),
                dict(scenario_id="s1", domain="d", verdict="Failure", failure_reason="StepLimit", steps=20,
                     rounds=25)),
    bench.Report: (dict(rows=()), dict(rows=(_row,), domain_rates={"d": 1.0}, overall_rate=1.0)),
}

# arguments that `__init__` or `__post_init__` refuses
REFUSED = {
    model.Command: [dict(), dict(name="fly", value=1.0), dict(name="car_forward", value=11.0),
                    dict(name="buzzer", value=True), dict(name="buzzer", value=1.0, arg=1.0)],
    model.UserRequest: [dict(text="  ")],
    model.SensorData: [dict(ultrasonic_clearance=-1.0, ir_left=False, ir_right=False)],
    model.ExecResult: [dict(command_echo=_cmd, outcome=ExecOutcome.AVOIDED, distance_travelled=0.0,
                            heading_change=0.0, sensor_after=_sensors)],
    model.GlobalPlan: [dict(steps=()), dict(steps=("",))],
    model.Round: [dict(index=-1, observation=Observation(), comment="c", status=Status.FINISH),
                  dict(index=0, observation=Observation(), comment="c", status=Status.CONTINUE, action=_cmd)],
    sim.SimObject: [dict(id="c1", kind="car", shape=_circle), dict(id="b1", kind="box", shape=_circle, height=0.0)],
    sim.Shape: [dict(kind="circle", center=None, radius=1.0)],
    llm.Prompt: [dict(system="s", few_shot=(), blocks={"request": "r"})],
    llm.BackendConfig: [dict(kind=llm.ScriptedConfig("oracle"), max_retries=-1)],
    llm.AppDecision: [dict(observation="o", comment="c", status=Status.CONTINUE)],
    app.EpisodeLimits: [dict(max_steps=0), dict(max_steps=5, max_rounds=4)],
    app.EpisodeResult: [dict(request_id="r", verdict=Verdict.SUCCESS, failure_reason=None, steps=2, rounds=1,
                             trace=model.MemoryLog(), final_world_digest=None)],
    bench.BuzzerCount: [dict(cmp="~", count=1)],
    bench.CommentMatches: [dict(pattern="(")],
    bench.OracleScript: [dict(plan=(), commands=(), comment="c"), dict(plan=("a",), commands=({"name": "fly"},),
                                                                       comment="c")],
}

CLASSES = sorted(EXAMPLES, key=lambda cls: (cls.__module__, cls.__name__))


def outcome(call):
    """What `call()` gives: ("value", its result) or ("raises", the exception's type and text)."""
    try:
        return "value", call()
    except Exception as exc:  # noqa: BLE001 - any exception is compared as it is
        return "raises", type(exc), str(exc)


def reference(cls):
    """A frozen dataclass, made by dataclasses, with the fields and the other
    methods (`__post_init__` among them) of `cls`."""
    ours = {"__dict__", "__weakref__", "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
            "__signature__", "__match_args__", "__annotations__", "__doc__", "__dataclass_fields__",
            "__dataclass_params__", "__replace__", *model.CODEC_METHODS}
    fields = dataclasses.fields(cls)
    namespace = {k: v for k, v in cls.__dict__.items() if k not in ours and k not in {f.name for f in fields}}
    specs = [(f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory, init=f.init,
                                                repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata))
             for f in fields]
    ref = dataclasses.make_dataclass(cls.__name__, specs, bases=cls.__bases__, namespace=namespace, frozen=True)
    ref.__qualname__ = cls.__qualname__
    return ref


def every_field(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_every_dataclass_of_carobo_has_examples():
    found = {obj for module in (model, sim, llm, app, bench) for obj in vars(module).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__.startswith("carobo.")}
    assert found == set(EXAMPLES) and len(found) == 44


def test_import_compiles_no_method_and_makes_no_signature():
    """In a fresh interpreter, importing carobo makes every dataclass with
    value_class and compiles none of their methods: each stand-in is still in
    its class. No class gets its docstring from inspect.signature."""
    probe = """
import dataclasses, inspect, json, sys
signatures = []
real = inspect.signature
inspect.signature = lambda *a, **k: signatures.append(repr(a[0])) or real(*a, **k)
import carobo.cli, carobo.host, carobo.policies
from carobo import model
classes = {obj for name, module in list(sys.modules.items()) if name.startswith("carobo")
           for obj in vars(module).values()
           if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__.startswith("carobo")}
print(json.dumps({
    "classes": len(classes),
    "value_classes": sorted(c.__name__ for c in classes if "__init__" in model._STAND_INS.get(c, ())),
    "moved": sorted(f"{c.__name__}.{name}" for c in classes for name, stand_in in model._STAND_INS.get(c, {}).items()
                    if c.__dict__.get(name) is not stand_in),
    "compiled": sorted(c.__name__ for c in model._COMPILED),
    "signatures": signatures,
}))
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(SRC)}, check=True)
    report = json.loads(done.stdout)
    assert report["classes"] == 44 and len(report["value_classes"]) == 44
    assert report["moved"] == [] and report["compiled"] == [] and report["signatures"] == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_value_class_behaves_as_a_frozen_dataclass(cls):
    ref = reference(cls)
    assert str(inspect.signature(cls)) == str(inspect.signature(ref))
    assert [f.name for f in dataclasses.fields(cls)] == [f.name for f in dataclasses.fields(ref)]
    assert cls.__match_args__ == ref.__match_args__
    first, second = EXAMPLES[cls]
    ours = [cls(**first), cls(**second)]
    theirs = [ref(**first), ref(**second)]
    assert [every_field(x) for x in ours] == [every_field(x) for x in theirs]
    assert [repr(x) for x in ours] == [repr(x) for x in theirs]
    assert [outcome(lambda: hash(x)) for x in ours] == [outcome(lambda: hash(x)) for x in theirs]
    assert ours[0] == cls(**first) and ours[0] != ours[1] and not ours[0] == theirs[0]
    assert ours[0].__eq__(theirs[0]) is NotImplemented
    # positional arguments, as far as each example gives them in field order
    positional = [first[f.name] for f in dataclasses.fields(cls) if f.init and f.name in first]
    assert outcome(lambda: every_field(cls(*positional))) == outcome(lambda: every_field(ref(*positional)))
    for x, y in zip(ours, theirs):
        for name in every_field(x):
            assert outcome(lambda: setattr(x, name, 1)) == outcome(lambda: setattr(y, name, 1))
            assert outcome(lambda: delattr(x, name)) == outcome(lambda: delattr(y, name))
            assert outcome(lambda: setattr(x, name, 1))[1] is dataclasses.FrozenInstanceError
        assert repr(dataclasses.replace(x, **second)) == repr(dataclasses.replace(y, **second))
        if hasattr(copy, "replace"):  # Python 3.13
            assert repr(copy.replace(x, **second)) == repr(copy.replace(y, **second))
        for clone in (copy.copy(x), copy.deepcopy(x), *(pickle.loads(pickle.dumps(x, protocol))
                                                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(clone) is cls and clone == x and repr(clone) == repr(x)
    for args in REFUSED.get(cls, ()):
        assert outcome(lambda: cls(**args)) == outcome(lambda: ref(**args))
        assert outcome(lambda: cls(**args))[0] == "raises"


def test_a_stand_in_compiles_only_its_method_and_leaves_a_patched_one():
    @value_class
    class Pair:
        left: float
        right: float = 0.0

    stand_ins = dict(model._STAND_INS[Pair])
    assert Pair.__doc__ == "Pair(left, right)"
    assert str(inspect.signature(Pair)) == "(left: 'float', right: 'float' = 0.0) -> None"
    assert set(model._COMPILED[Pair]) == {"__init__"}  # the signature read the compiled __init__
    assert Pair.__dict__["__init__"] is not stand_ins["__init__"] and Pair.__init__.__qualname__ == Pair.__qualname__ + ".__init__"
    Pair.__repr__ = lambda self: "patched"
    assert Pair(1.0) == Pair(1.0, 0.0) and repr(Pair(1.0)) == "patched"
    assert set(model._COMPILED[Pair]) == {"__init__", "__eq__"}
    assert Pair.__dict__["__hash__"] is stand_ins["__hash__"]
    assert hash(Pair(1.0)) == hash((1.0, 0.0)) and Pair.__dict__["__hash__"] is not stand_ins["__hash__"]
    assert stand_ins["__repr__"](Pair(2.0)) == f"{Pair.__qualname__}(left=2.0, right=0.0)"
    assert Pair.__repr__(Pair(1.0)) == "patched"


def test_a_value_class_with_a_codec_compiles_the_codec_apart():
    @model.codec
    @value_class
    class Point:
        x: float
        y: float = 0.0

    assert Point.from_dict({"x": 1}) == Point(1.0) and set(model._COMPILED[Point]) == {
        "to_dict", "from_dict", "to_json", "__init__", "__eq__"}
    assert Point(2.0).to_json() == '{"x":2.0,"y":0.0}' and "__repr__" not in model._COMPILED[Point]
