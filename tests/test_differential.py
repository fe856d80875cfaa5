"""Differential test over whole episodes: one world and one completion stream
give byte-identical episode traces on the `direct`, `local:` and `tcp:`
transports, and every record of those traces decodes with its codec."""
import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carobo.app import REPLAN_AFTER_ERRORS, EpisodeFooter, EpisodeHeader
from carobo.cli import main
from carobo.llm import parse_host_decision
from carobo.model import COMMAND_SPECS, Round, canonical_json
from carobo.sim import GRID_MIN_OBJECTS, OBJECT_KINDS, load_world

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRANSPORTS = ("direct", "local:", "tcp:")
LIMITS = ["--max-steps", "6", "--max-rounds", "12"]


@pytest.fixture(scope="module")
def clutter():
    """perfbench/clutter.py, imported by path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import clutter

        yield clutter


# ---------------------------------------------------------------------------
# Worlds: a few objects placed at random, or a clutter.py world from a seed

@st.composite
def _object(draw, index: int) -> dict:
    # at least 0.5 m out, and at most 0.3 m across from its centre, so the robot's start is free
    angle = math.radians(draw(st.floats(0.0, 360.0)))
    distance = draw(st.floats(0.5, 3.0))
    cx, cy = round(distance * math.cos(angle), 3), round(distance * math.sin(angle), 3)
    if draw(st.booleans()):
        shape = {"type": "circle", "center": [cx, cy], "radius": draw(st.floats(0.05, 0.3))}
    else:
        h = draw(st.floats(0.05, 0.2))
        shape = {"type": "polygon",
                 "vertices": [[cx - h, cy - h], [cx + h, cy - h], [cx + h, cy + h], [cx - h, cy + h]]}
    return {"id": f"o{index}", "kind": draw(st.sampled_from(OBJECT_KINDS)), "shape": shape,
            "color": draw(st.sampled_from(["red", "navy", "gray"])), "height": draw(st.floats(0.05, 1.5)),
            "text_on_object": draw(st.none() | st.just("EXIT"))}


@st.composite
def _small_world(draw) -> tuple:
    objects = [draw(_object(i)) for i in range(draw(st.integers(0, 4)))]
    robot = {"x": 0.0, "y": 0.0, "heading": draw(st.floats(0.0, 360.0)),
             "camera_pitch": draw(st.floats(-30.0, 60.0))}
    return ("small", {"robot": robot, "objects": objects})


_worlds = _small_world() | st.tuples(st.just("clutter"), st.integers(0, 2**16),
                                     st.sampled_from([GRID_MIN_OBJECTS + 8, 150]))


# ---------------------------------------------------------------------------
# Completion streams: a host plan, then valid decisions, garbage, out-of-range
# and unknown commands, FINISH, further host plans, and streaks of failures
# long enough to force a replan

def _in_range(name: str):
    _, low, high, low_inclusive = COMMAND_SPECS[name]
    return st.floats(low, high, exclude_min=not low_inclusive)


_valid = st.sampled_from(sorted(COMMAND_SPECS)).flatmap(
    lambda name: st.tuples(st.just("valid"), st.just(name), _in_range(name)))
_tokens = st.one_of(
    _valid, _valid, _valid, _valid, _valid,  # about half the tokens move the robot
    st.tuples(st.just("out of range"), st.sampled_from(sorted(COMMAND_SPECS))),
    st.tuples(st.just("garbage"), st.text(max_size=20) | st.just("Let me think about it.")),
    st.tuples(st.just("unknown command")),
    st.tuples(st.just("finish")),
    st.tuples(st.just("host plan")),
    st.tuples(st.just("replan streak")),
)


def _decision(**fields) -> str:
    return json.dumps({"observation": "Checking the scene.", "comment": "Next step.", **fields})


HOST_PLAN = json.dumps({"observation": "A room.", "thoughts": "Look, then move.",
                        "plan": ["Look around", "Move on"], "comment": "Plan ready."})


def _completions(token: tuple, retries: int) -> list:
    kind = token[0]
    if kind == "valid":
        name, value = token[1:]
        return [_decision(status="CONTINUE", command={"name": name, "args": {COMMAND_SPECS[name][0]: value}})]
    if kind == "out of range":
        arg, _, high, _ = COMMAND_SPECS[token[1]]
        return [_decision(status="CONTINUE", command={"name": token[1], "args": {arg: 2 * high}})]
    if kind == "garbage":
        return [token[1]]
    if kind == "unknown command":
        return [_decision(status="CONTINUE", command={"name": "car_fly", "args": {"distance": 1.0}})]
    if kind == "finish":
        return [_decision(status="FINISH", comment="Done.")]
    if kind == "host plan":
        return [HOST_PLAN]
    # every attempt of REPLAN_AFTER_ERRORS rounds in a row fails, and the host plans again
    return ["not a decision"] * ((retries + 1) * REPLAN_AFTER_ERRORS) + [HOST_PLAN]


def _check_record(rec: dict):
    """The record decodes with its codec, and encodes back to the same bytes."""
    kind = rec["type"]
    if kind == "episode":
        assert canonical_json(EpisodeHeader.from_dict(rec).to_dict()) == canonical_json(rec)
        assert load_world(rec["world"]).to_json() == canonical_json(rec["world"])
    elif kind == "host":
        assert parse_host_decision(rec["raw"]).to_json() == canonical_json(rec["decision"])
    elif kind == "round":
        assert canonical_json(Round.from_dict(rec["round"]).to_dict()) == canonical_json(rec["round"])
    elif kind == "round_error":
        assert set(rec) == {"type", "round", "error"} and isinstance(rec["error"], str)
    else:
        assert kind == "result", kind
        assert canonical_json(EpisodeFooter.from_dict(rec).to_dict()) == canonical_json(rec)


@settings(max_examples=30, deadline=None)
@given(world=_worlds, tokens=st.lists(_tokens, min_size=2, max_size=14), retries=st.integers(0, 2))
@example(world=("clutter", 0, 150), retries=1,
         tokens=[("valid", "car_forward", 0.9), ("replan streak",), ("valid", "car_back", 0.4), ("finish",)])
@example(world=("small", {"robot": {}, "objects": []}), retries=0,
         tokens=[("replan streak",), ("replan streak",)])
def test_every_transport_writes_the_same_trace(clutter, time_limit, world, tokens, retries):
    if world[0] == "clutter":
        world = clutter.make_world(random.Random(world[1]), world[2], 4.0)
    else:
        world = world[1]
    stream = [HOST_PLAN] + [line for token in tokens for line in _completions(token, retries)]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        (scratch / "world.json").write_text(json.dumps(world), encoding="utf-8")
        (scratch / "stream.jsonl").write_text("".join(json.dumps(line) + "\n" for line in stream), encoding="utf-8")
        runs = {}
        for transport in TRANSPORTS:
            out = io.StringIO()
            with time_limit(20.0), contextlib.redirect_stdout(out):
                code = main(["run", "--request", "Explore the room.", "--world", str(scratch / "world.json"),
                             "--backend", "replay", "--replay-trace", str(scratch / "stream.jsonl"),
                             "--max-retries", str(retries), "--transport", transport,
                             "--trace", str(scratch / "trace.jsonl"), *LIMITS])
            runs[transport] = (code, out.getvalue(), (scratch / "trace.jsonl").read_bytes())
    assert runs["direct"][0] in (0, 1)
    assert runs["local:"] == runs["direct"] and runs["tcp:"] == runs["direct"]
    for line in runs["direct"][2].decode("utf-8").splitlines():
        _check_record(json.loads(line))
