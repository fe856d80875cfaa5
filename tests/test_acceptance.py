"""Acceptance gate: nine required behaviors, one test and one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
every tolerance is pinned in the assertions themselves.
"""
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carobo.bench import (
    bundled_trace_dir,
    default_suite_path,
    load_benchmark,
    replay_pair,
    run_suite,
    scripted_pair,
)
from carobo.host import plan_with_raw
from carobo.llm import (
    AppDecision,
    GlobalPlan,
    HostDecision,
    MalformedDecision,
    ReplayBackend,
    ReplayConfig,
    parse_app_decision,
    parse_host_decision,
    serialize_app_decision,
    serialize_host_decision,
    with_retry,
)
from carobo.model import (
    Command,
    ExecOutcome,
    MemoryLog,
    Observation,
    SensorData,
    Status,
    UserRequest,
)
from carobo.sim import Shape, apply_command, load_world, raycast


def check(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def specs():
    return load_benchmark(default_suite_path())


def empty_world():
    return load_world({"robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0}, "objects": []})


# ---------------------------------------------------------------------------
# 1. Table reproduction: exact domain and overall success rates from replays

PUBLISHED_RATES = {
    "gpt-4-turbo": ({"object_detection": 80.0, "command_execution": 80.0,
                     "obstacle_navigation": 20.0, "situation_awareness": 60.0}, 60.0),
    "gpt-4o": ({"object_detection": 100.0, "command_execution": 100.0,
                "obstacle_navigation": 60.0, "situation_awareness": 100.0}, 90.0),
}


def test_criterion_1_published_success_rates(specs):
    t0 = time.perf_counter()
    reports = {
        model: run_suite(specs, replay_pair(bundled_trace_dir(model)))
        for model in PUBLISHED_RATES
    }
    elapsed = time.perf_counter() - t0
    for model, (domains, overall) in PUBLISHED_RATES.items():
        assert reports[model].domain_rates == domains, model
        assert reports[model].overall_rate == overall, model
    check(1, elapsed < 1.0,
          f"both model replays reproduce published rates exactly in {elapsed:.3f}s (< 1s)")


# ---------------------------------------------------------------------------
# 2. Step accounting: every replayed cell matches the published step count

PUBLISHED_CELLS = {
    # scenario: (verdict, steps) per model; failures annotated separately below
    "gpt-4-turbo": {
        "obj_1": ("Success", 6), "obj_2": ("Success", 8), "obj_3": ("Failure", 20),
        "obj_4": ("Success", 4), "obj_5": ("Success", 0),
        "cmd_1": ("Failure", 5), "cmd_2": ("Success", 3), "cmd_3": ("Success", 1),
        "cmd_4": ("Success", 5), "cmd_5": ("Success", 12),
        "obs_1": ("Failure", 16), "obs_2": ("Success", 8), "obs_3": ("Failure", 15),
        "obs_4": ("Failure", 5), "obs_5": ("Failure", 3),
        "sa_1": ("Success", 0), "sa_2": ("Success", 6), "sa_3": ("Success", 3),
        "sa_4": ("Failure", 3), "sa_5": ("Failure", 4),
    },
    "gpt-4o": {
        "obj_1": ("Success", 9), "obj_2": ("Success", 4), "obj_3": ("Success", 11),
        "obj_4": ("Success", 2), "obj_5": ("Success", 0),
        "cmd_1": ("Success", 9), "cmd_2": ("Success", 3), "cmd_3": ("Success", 8),
        "cmd_4": ("Success", 10), "cmd_5": ("Success", 12),
        "obs_1": ("Success", 7), "obs_2": ("Success", 5), "obs_3": ("Success", 8),
        "obs_4": ("Failure", 15), "obs_5": ("Failure", 5),
        "sa_1": ("Success", 0), "sa_2": ("Success", 7), "sa_3": ("Success", 7),
        "sa_4": ("Success", 10), "sa_5": ("Success", 0),
    },
}

# every failure is a declared-done-too-early except the turbo step-limit run
PUBLISHED_FAILURE_KINDS = {("gpt-4-turbo", "obj_3"): "StepLimit"}


def test_criterion_2_published_step_counts(specs):
    mismatches = []
    for model, cells in PUBLISHED_CELLS.items():
        report = run_suite(specs, replay_pair(bundled_trace_dir(model)))
        for sid, (verdict, steps) in cells.items():
            row = report.row(sid)
            if (row.verdict, row.steps) != (verdict, steps):
                mismatches.append((model, sid, (row.verdict, row.steps), (verdict, steps)))
            if row.verdict == "Failure":
                want = PUBLISHED_FAILURE_KINDS.get((model, sid), "FalseCompletion")
                if row.failure_reason != want:
                    mismatches.append((model, sid, row.failure_reason, want))
    check(2, not mismatches,
          f"all 40 replayed cells match published verdict and step count exactly ({mismatches!r})"
          if mismatches else "all 40 replayed cells match published verdict and step count exactly")


# ---------------------------------------------------------------------------
# 3. Oracle end-to-end: every scenario succeeds within budget

def test_criterion_3_oracle_end_to_end(specs):
    t0 = time.perf_counter()
    report = run_suite(specs, scripted_pair("oracle"))
    elapsed = time.perf_counter() - t0
    bad = [r for r in report.rows if r.verdict != "Success" or r.steps > 20]
    check(3, not bad and elapsed < 30.0,
          f"oracle policy: 20/20 Success, max steps {max(r.steps for r in report.rows)},"
          f" suite in {elapsed:.3f}s (< 30s)")


# ---------------------------------------------------------------------------
# 4. Kinematics: square closure and zigzag path length

def test_criterion_4_kinematics():
    world = empty_world()
    for _ in range(4):
        world, _ = apply_command(world, Command("car_forward", 0.6))
        world, _ = apply_command(world, Command("car_left", 90))
    gap = math.hypot(world.robot.x, world.robot.y)
    heading_err = min(world.robot.heading, 360.0 - world.robot.heading)
    assert gap <= 1e-6, f"square gap {gap}"
    assert heading_err <= 1e-9, f"heading error {heading_err}"

    world = empty_world()
    zigzag = (Command("car_left", 30), Command("car_forward", 0.5), Command("car_right", 60), Command("car_forward", 0.5),
              Command("car_left", 60), Command("car_forward", 0.5), Command("car_right", 60), Command("car_forward", 0.5),
              Command("car_left", 30))
    path = 0.0
    for cmd in zigzag:
        world, res = apply_command(world, cmd)
        path += res.distance_travelled
    assert abs(path - 2.0) <= 1e-6, f"zigzag path {path}"
    check(4, True,
          f"0.6 m square closes to {gap:.2e} m / {heading_err:.2e} deg;"
          f" zigzag path {path:.9f} m (2.0 +/- 1e-6)")


# ---------------------------------------------------------------------------
# 5. Sensor oracle equivalence and footprint fuzzing

def _march_inside(px, py, shape_doc):
    if shape_doc["type"] == "circle":
        cx, cy = shape_doc["center"]
        r = shape_doc["radius"]
        return (px - cx) ** 2 + (py - cy) ** 2 <= r * r
    verts = shape_doc["vertices"]
    inside = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        straddles = (np.asarray(y1) > py) != (np.asarray(y2) > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddles & (px < x_cross)
    return inside


def _random_shape_doc(rng, min_clear=0.12):
    """A circle or rectangle whose boundary stays min_clear away from the origin."""
    while True:
        if rng.random() < 0.5:
            r = rng.uniform(0.05, 0.6)
            d = rng.uniform(min_clear + r + 0.01, 3.5)
            angle = rng.uniform(0, 2 * math.pi)
            doc = {"type": "circle", "center": [d * math.cos(angle), d * math.sin(angle)], "radius": r}
        else:
            hw, hh = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)
            d = rng.uniform(min_clear + 0.01, 3.5)
            angle = rng.uniform(0, 2 * math.pi)
            cx, cy = d * math.cos(angle), d * math.sin(angle)
            spin = rng.uniform(0, 2 * math.pi)
            corners = []
            for sx, sy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh)):
                corners.append([cx + sx * math.cos(spin) - sy * math.sin(spin),
                                cy + sx * math.sin(spin) + sy * math.cos(spin)])
            doc = {"type": "polygon", "vertices": corners}
        if Shape.from_dict(doc).distance_from((0.0, 0.0)) >= min_clear:
            return doc


def test_criterion_5a_raycast_vs_marching_oracle():
    rng = random.Random(58123)
    step = 1e-4
    ts = np.arange(0.0, 4.0 + step / 2, step)
    worst = 0.0
    for _scene in range(1000):
        shape_docs = [_random_shape_doc(rng) for _ in range(rng.randint(1, 4))]
        world = load_world({
            "robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0},
            "objects": [
                {"id": f"o{i}", "kind": "box", "shape": doc}
                for i, doc in enumerate(shape_docs)
            ],
        })
        direction = rng.uniform(0.0, 360.0)
        analytic = raycast(world, (0.0, 0.0), direction, 4.0)

        px = ts * math.cos(math.radians(direction))
        py = ts * math.sin(math.radians(direction))
        inside = np.zeros(ts.shape, dtype=bool)
        for doc in shape_docs:
            inside |= _march_inside(px, py, doc)
        marched = float(ts[int(np.argmax(inside))]) if inside.any() else 4.0

        err = abs(analytic - marched)
        worst = max(worst, err)
        assert err <= 1e-3, f"scene {_scene}: analytic {analytic} vs marched {marched}"
    check(5, True, f"raycast within 1e-3 of 1e-4 marching oracle on 1000 scenes"
                   f" (worst {worst:.2e}); footprint fuzz reported separately")


def test_criterion_5b_footprint_never_violated():
    rng = random.Random(97031)
    checked = 0
    for _seq in range(10_000):
        shape_docs = [_random_shape_doc(rng, min_clear=0.12) for _ in range(rng.randint(1, 3))]
        world = load_world({
            "robot": {"x": 0, "y": 0, "heading": rng.uniform(0, 360), "camera_pitch": 0},
            "objects": [
                {"id": f"o{i}", "kind": "box", "shape": doc}
                for i, doc in enumerate(shape_docs)
            ],
        })
        for _ in range(rng.randint(3, 6)):
            kind = rng.random()
            if kind < 0.45:
                cmd = Command("car_forward", rng.uniform(0.05, 1.0))
            elif kind < 0.70:
                cmd = Command("car_back", rng.uniform(0.05, 1.0))
            elif kind < 0.85:
                cmd = Command("car_left", rng.uniform(5, 350))
            else:
                cmd = Command("car_right", rng.uniform(5, 350))
            world, _res = apply_command(world, cmd)
            pos = world.robot.position
            for obj in world.objects:
                assert obj.shape.distance_from(pos) >= world.params.footprint_radius - 1e-9, (
                    f"sequence {_seq}: footprint inside {obj.id} after {cmd.describe()}"
                )
                checked += 1
    check(5, True, f"zero footprint violations across 10000 fuzzed sequences"
                   f" ({checked} post-command clearance checks)")


# ---------------------------------------------------------------------------
# 6. Avoid behavior over randomized obstacle placements

def test_criterion_6_avoidance():
    rng = random.Random(41117)
    immediate = mid_drive = 0
    for case in range(500):
        # half the placements trip the threshold before any motion
        gap = rng.uniform(0.02, 0.27) if case % 2 == 0 else rng.uniform(0.32, 2.0)
        if rng.random() < 0.8:
            r = rng.uniform(0.05, 0.4)
            heading = rng.uniform(0.0, 360.0)
            centre_d = 0.10 + gap + r
            shape = {"type": "circle",
                     "center": [centre_d * math.cos(math.radians(heading)),
                                centre_d * math.sin(math.radians(heading))],
                     "radius": r}
        else:
            h = rng.uniform(0.05, 0.3)
            heading = rng.choice((0.0, 90.0, 180.0, 270.0))
            centre_d = 0.10 + gap + h
            cx = centre_d * math.cos(math.radians(heading))
            cy = centre_d * math.sin(math.radians(heading))
            shape = {"type": "polygon",
                     "vertices": [[cx - h, cy - h], [cx + h, cy - h],
                                  [cx + h, cy + h], [cx - h, cy + h]]}
        world = load_world({
            "robot": {"x": 0, "y": 0, "heading": heading, "camera_pitch": 0},
            "objects": [{"id": "wall", "kind": "box", "shape": shape}],
        })
        world, res = apply_command(world, Command("car_forward", min(gap + 1.0, 10.0)))
        assert res.outcome is ExecOutcome.AVOIDED, f"case {case}: {res.outcome} at gap {gap}"
        assert res.heading_change == -90.0, f"case {case}: heading_change {res.heading_change}"
        assert world.robot.heading == (heading - 90.0) % 360.0, f"case {case}"
        clearance = world.object_by_id("wall").shape.distance_from(world.robot.position)
        assert clearance >= world.params.footprint_radius - 1e-9, f"case {case}: overlap"
        if res.distance_travelled == 0.0:
            immediate += 1
        else:
            mid_drive += 1
    check(6, immediate > 0 and mid_drive > 0,
          f"500 placements all Avoided with heading_change exactly -90 and no overlap"
          f" ({immediate} immediate, {mid_drive} mid-drive)")


# ---------------------------------------------------------------------------
# 7. Parser robustness

_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=60)
_commands = st.one_of(
    st.builds(Command, st.just("car_forward"), st.floats(0.01, 10.0)),
    st.builds(Command, st.just("car_back"), st.floats(0.01, 10.0)),
    st.builds(Command, st.just("car_left"), st.floats(0.01, 360.0)),
    st.builds(Command, st.just("car_right"), st.floats(0.01, 360.0)),
    st.builds(Command, st.just("camera_move"), st.floats(-30.0, 60.0)),
    st.builds(Command, st.just("buzzer"), st.floats(0.01, 10.0)),
)
_app_decisions = st.one_of(
    st.builds(AppDecision, observation_desc=_texts, comment=_texts,
              status=st.just(Status.CONTINUE), command=_commands),
    st.builds(AppDecision, observation_desc=_texts, comment=_texts,
              status=st.just(Status.FINISH), command=st.none() | _commands),
)
_plan_steps = st.lists(
    _texts.filter(lambda s: s.strip()), min_size=1, max_size=6).map(tuple)
_host_decisions = st.builds(
    HostDecision,
    observation_desc=_texts,
    thoughts=_texts,
    global_plan=st.builds(GlobalPlan, steps=_plan_steps),
    comment=_texts,
)


def test_criterion_7_parser_robustness(tmp_path):
    @settings(max_examples=300, deadline=None)
    @given(_app_decisions)
    def app_round_trip(decision):
        assert parse_app_decision(serialize_app_decision(decision)) == decision

    @settings(max_examples=300, deadline=None)
    @given(_host_decisions)
    def host_round_trip(decision):
        assert parse_host_decision(serialize_host_decision(decision)) == decision

    app_round_trip()
    host_round_trip()

    # schema-invalid completions are retried exactly 1 + max_retries times
    attempt_counts = []
    for max_retries in (0, 1, 3):
        calls = 0

        def attempt():
            nonlocal calls
            calls += 1
            raise MalformedDecision("still junk")

        with pytest.raises(MalformedDecision):
            with_retry(attempt, max_retries=max_retries)
        attempt_counts.append(calls)
        assert calls == 1 + max_retries, f"max_retries={max_retries} took {calls} attempts"

    # the same budget end to end through a live backend
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("\n".join(json.dumps("not a decision") for _ in range(6)) + "\n")
    backend = ReplayBackend(ReplayConfig(trace_path=str(garbage)))
    with pytest.raises(MalformedDecision):
        plan_with_raw(
            UserRequest(text="x"), Observation.from_items(()),
            SensorData(ultrasonic_clearance=4.0, ir_left=False, ir_right=False),
            MemoryLog(),
            backend,
            max_retries=2,
        )
    assert backend.cursor == 3, f"host consumed {backend.cursor} completions, wanted 3"

    # CONTINUE without a command is rejected at parse time and construction time
    @settings(max_examples=100, deadline=None)
    @given(_texts, _texts, st.sampled_from([None, "null"]))
    def continue_needs_command(obs, comment, null_style):
        doc = {"observation": obs, "comment": comment, "status": "CONTINUE"}
        if null_style == "null":
            doc["command"] = None
        with pytest.raises(MalformedDecision):
            parse_app_decision(json.dumps(doc, ensure_ascii=False))

    continue_needs_command()
    with pytest.raises(MalformedDecision):
        AppDecision(observation_desc="x", comment="y", status=Status.CONTINUE, command=None)

    check(7, True,
          "600 fuzzed decisions round-trip; retry budget exact at 1+max_retries"
          f" (attempts {attempt_counts}, live backend 3); CONTINUE without command always rejected")


# ---------------------------------------------------------------------------
# 8. Transport equivalence: byte-identical traces

def test_criterion_8_transport_equivalence(specs, tmp_path):
    transports = ("direct", "local:", "tcp:")
    for transport in transports:
        run_suite(specs, scripted_pair("oracle"), transport=transport,
                  traces_dir=tmp_path / transport.rstrip(":"))
    differing = []
    for spec in specs:
        blobs = {
            t: (tmp_path / t.rstrip(":") / f"{spec.id}.jsonl").read_bytes() for t in transports
        }
        if len(set(blobs.values())) != 1:
            differing.append(spec.id)
    check(8, not differing,
          f"episode traces byte-identical across direct/local/tcp for all 20 scenarios"
          + (f" (differs: {differing})" if differing else ""))


# ---------------------------------------------------------------------------
# 9. False-completion detection

def test_criterion_9_false_completion(specs, build_data):
    report = run_suite(specs, scripted_pair("finish_now"))
    false_completions = [r.scenario_id for r in report.rows if r.failure_reason == "FalseCompletion"]
    needs_movement = {s.id for s in build_data.SCENARIOS if s.needs_movement}
    missed = sorted(needs_movement - set(false_completions))
    assert len(needs_movement) >= 16
    check(9, len(false_completions) >= 16 and not missed,
          f"finish-now policy judged FalseCompletion on {len(false_completions)}/20 scenarios"
          f" (>= 16 required; every movement scenario covered)")
