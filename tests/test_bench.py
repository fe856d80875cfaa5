"""Benchmark harness: goals, judging, suite loading, reports."""
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carobo import bench
from carobo.app import EpisodeLimits, EpisodeResult, FailureReason, Verdict
from carobo.bench import (
    DATA_DIR,
    And,
    BuzzerCount,
    CameraPitchAtLeast,
    CommentMatches,
    CountError,
    HeadingWithin,
    JudgeContext,
    Near,
    Not,
    Or,
    PathLengthAtLeast,
    PoseWithin,
    Report,
    Row,
    ScenarioSpec,
    build_context,
    bundled_trace_dir,
    default_suite_path,
    fixed_pair,
    judge,
    load_benchmark,
    make_report,
    parse_goal,
    replay_pair,
    run_scenario,
    run_suite,
    scripted_pair,
)
from carobo.cli import main
from carobo.llm import ReplayConfig, ScriptedConfig
from carobo.model import (
    CaroboError,
    Command,
    ExecOutcome,
    ExecResult,
    MemoryLog,
    Observation,
    Round,
    SensorData,
    Status,
    append_round,
)
from carobo.sim import SchemaError, load_world
from carobo.suite_data import DOMAINS


def ctx(world_doc=None, comments=(), path_length=0.0, buzzes=0):
    doc = world_doc or {"robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0}, "objects": []}
    world = load_world(doc)
    if buzzes:
        world = type(world)(
            robot=world.robot, objects=world.objects, params=world.params,
            buzzer_events=tuple(float(i) for i in range(buzzes)), tick=buzzes,
        )
    return JudgeContext(world=world, comments=tuple(comments), path_length=path_length)


def a_box_world(cx=1.0, cy=0.0, robot=None):
    return {
        "robot": robot or {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0},
        "objects": [{
            "id": "b1", "kind": "box",
            "shape": {"type": "polygon",
                      "vertices": [[cx - .15, cy - .15], [cx + .15, cy - .15],
                                   [cx + .15, cy + .15], [cx - .15, cy + .15]]},
        }],
    }


# ---------------------------------------------------------------------------
# Goal atoms

def test_near_uses_boundary_distance():
    c = ctx(a_box_world(cx=1.0))  # near edge at x=0.85
    assert Near("b1", within=0.85).evaluate(c)
    assert not Near("b1", within=0.84).evaluate(c)


def test_near_unknown_object():
    with pytest.raises(KeyError):
        Near("ghost", within=1.0).evaluate(ctx())


def test_buzzer_count_comparisons():
    c = ctx(buzzes=2)
    assert BuzzerCount(">=", 2).evaluate(c)
    assert BuzzerCount("==", 2).evaluate(c)
    assert not BuzzerCount(">", 2).evaluate(c)
    assert BuzzerCount("<=", 2).evaluate(c)
    assert not BuzzerCount("<", 2).evaluate(c)


def test_buzzer_count_rejects_unknown_cmp():
    with pytest.raises(SchemaError):
        BuzzerCount("!=", 2)


def test_pose_within():
    c = ctx({"robot": {"x": 0.03, "y": 0.04, "heading": 0, "camera_pitch": 0}, "objects": []})
    assert PoseWithin(0, 0, tol=0.05).evaluate(c)  # distance exactly 0.05
    assert not PoseWithin(0, 0, tol=0.049).evaluate(c)


def test_pose_within_far_from_the_origin_does_not_overflow():
    # no world reaches past WORLD_LIMIT, but a suite may put a goal anywhere:
    # (1e200) ** 2 raises OverflowError; two squares near the float limit add up to inf
    home = ctx()
    assert not PoseWithin(1e200, 0, tol=1).evaluate(home)
    assert PoseWithin(-1e200, 1e200, tol=1.5e200).evaluate(home)
    assert PoseWithin(1e200, 0, tol=1e300).evaluate(home)
    assert PoseWithin(1.3e154, 1.3e154, tol=1e300).evaluate(home)
    assert not PoseWithin(1.3e154, 1.3e154, tol=1.8e154).evaluate(home)


def test_heading_within_is_circular():
    c = ctx({"robot": {"x": 0, "y": 0, "heading": 350, "camera_pitch": 0}, "objects": []})
    assert HeadingWithin(10, tol=20).evaluate(c)
    assert not HeadingWithin(10, tol=19).evaluate(c)
    assert HeadingWithin(350, tol=0).evaluate(c)


def test_comment_matches_any_round():
    c = ctx(comments=("moving on", "Found the RED box."))
    assert CommentMatches("(?i)red").evaluate(c)
    assert not CommentMatches("blue").evaluate(c)
    assert not CommentMatches("red").evaluate(ctx())


def test_path_length_at_least():
    c = ctx(path_length=2.0)
    assert PathLengthAtLeast(2.0).evaluate(c)
    assert not PathLengthAtLeast(2.0000001).evaluate(c)


def test_camera_pitch_at_least():
    c = ctx({"robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 40}, "objects": []})
    assert CameraPitchAtLeast(35).evaluate(c)
    assert not CameraPitchAtLeast(45).evaluate(c)


def test_boolean_combinators():
    c = ctx(path_length=1.0)
    t = PathLengthAtLeast(0.5)
    f = PathLengthAtLeast(5.0)
    assert And((t, t)).evaluate(c)
    assert not And((t, f)).evaluate(c)
    assert Or((f, t)).evaluate(c)
    assert not Or((f, f)).evaluate(c)
    assert Not(f).evaluate(c)
    assert not Not(t).evaluate(c)


# ---------------------------------------------------------------------------
# Goal parsing

_atoms = st.one_of(
    st.builds(Near, st.sampled_from(["a", "b1", "box"]), st.floats(0.1, 5.0)),
    st.builds(BuzzerCount, st.sampled_from(sorted([">=", ">", "==", "<=", "<"])), st.integers(0, 9)),
    st.builds(PoseWithin, st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 1)),
    st.builds(HeadingWithin, st.floats(0, 359), st.floats(0, 180)),
    st.builds(CommentMatches, st.sampled_from(["red", "(?i)box", "\\d+"])),
    st.builds(PathLengthAtLeast, st.floats(0, 10)),
    st.builds(CameraPitchAtLeast, st.floats(-30, 60)),
)

_goals = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(And, st.tuples(inner, inner)),
        st.builds(Or, st.tuples(inner, inner)),
        st.builds(Not, inner),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(_goals)
def test_goal_dict_roundtrip(goal):
    assert parse_goal(goal.to_dict()) == goal


@pytest.mark.parametrize("doc", [
    "near",                                     # not a dict
    {},                                          # no op
    {"op": "teleport"},                          # unknown op
    {"op": "near", "object_id": "b1"},          # missing field
    {"op": "buzzer_count", "cmp": "~", "count": 1},
])
def test_parse_goal_rejects(doc):
    with pytest.raises(SchemaError):
        parse_goal(doc)


# ---------------------------------------------------------------------------
# Judging

def sensors():
    return SensorData(ultrasonic_clearance=4.0, ir_left=False, ir_right=False)


def episode(verdict, failure_reason=None, log=None):
    log = log if log is not None else MemoryLog()
    steps = sum(1 for r in log.rounds if r.action)
    return EpisodeResult(
        request_id="t", verdict=verdict, failure_reason=failure_reason,
        steps=steps, rounds=max(len(log.rounds), steps), trace=log,
        final_world_digest=None,
    )


def two_round_log():
    obs = Observation.from_items(())
    cmd = Command("car_forward", 0.5)
    res = ExecResult(command_echo=cmd, outcome=ExecOutcome.OK, distance_travelled=0.5,
                     heading_change=0.0, sensor_after=sensors())
    log = append_round(MemoryLog(), Round(index=0, observation=obs, comment="going",
                                          status=Status.CONTINUE, action=cmd, exec_result=res))
    return append_round(log, Round(index=1, observation=obs, comment="done here",
                                   status=Status.FINISH))


def test_build_context_collects_comments_and_path():
    world = load_world(a_box_world())
    c = build_context(episode(Verdict.SUCCESS, log=two_round_log()), world)
    assert c.comments == ("going", "done here")
    assert c.path_length == pytest.approx(0.5)
    assert c.world is world


class CountedGoal(PoseWithin):
    """A pose goal that counts its evaluations."""

    calls = 0

    def evaluate(self, ctx):
        CountedGoal.calls += 1
        return super().evaluate(ctx)


def test_judge_success_requires_finish_and_goal():
    world = load_world(a_box_world())
    met, unmet = CountedGoal(0, 0, tol=1.0), CountedGoal(9, 9, tol=0.1)

    def row(goal, *outcome):
        spec = ScenarioSpec(id="s", domain=DOMAINS[0], request_text="go", world_file="w.json", goal=goal)
        r = judge(spec, episode(*outcome), world)
        assert (r.scenario_id, r.domain, r.steps, r.rounds) == ("s", DOMAINS[0], 0, 0)
        return r.verdict, r.failure_reason

    CountedGoal.calls = 0
    assert row(met, Verdict.SUCCESS) == ("Success", None)
    assert row(unmet, Verdict.SUCCESS) == ("Failure", "FalseCompletion")
    assert CountedGoal.calls == 2
    # an episode that never finished keeps its own reason, and its goal is not evaluated
    assert row(met, Verdict.FAILURE, FailureReason.STEP_LIMIT) == ("Failure", "StepLimit")
    assert row(unmet, Verdict.FAILURE, FailureReason.BACKEND_ERROR) == ("Failure", "BackendError")
    assert CountedGoal.calls == 2


# ---------------------------------------------------------------------------
# Suite loading

def test_bundled_suite_loads():
    specs = load_benchmark(default_suite_path())
    assert len(specs) == 20
    for domain in DOMAINS:
        assert sum(1 for s in specs if s.domain == domain) == 5
    assert all(Path(s.world_file).is_absolute() and Path(s.world_file).exists() for s in specs)
    assert all(s.limits == EpisodeLimits(max_steps=20, max_rounds=25) for s in specs)
    assert len({s.id for s in specs}) == 20
    assert all(s.oracle is not None for s in specs)


def synthetic_suite(tmp_path, per_domain=5, mutate=None):
    world = {"robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0}, "objects": []}
    (tmp_path / "w.json").write_text(json.dumps(world))
    scenarios = []
    for domain in DOMAINS:
        for i in range(per_domain):
            scenarios.append({
                "id": f"{domain}_{i}",
                "domain": domain,
                "request_text": "spin once",
                "world_file": "w.json",
                "goal": {"op": "path_length_at_least", "meters": 0.0},
                "limits": {"max_steps": 20, "max_rounds": 25},
            })
    doc = {"scenarios": scenarios}
    if mutate:
        mutate(doc)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    return path


def test_count_error_on_short_domain(tmp_path):
    path = synthetic_suite(tmp_path, mutate=lambda d: d["scenarios"].pop())
    with pytest.raises(CountError):
        load_benchmark(path)


def test_count_error_on_extra_scenario(tmp_path):
    def dup(d):
        extra = dict(d["scenarios"][0], id="extra_one")
        d["scenarios"].append(extra)

    with pytest.raises(CountError):
        load_benchmark(synthetic_suite(tmp_path, mutate=dup))


def test_duplicate_id_rejected(tmp_path):
    def dup(d):
        d["scenarios"][1]["id"] = d["scenarios"][0]["id"]

    with pytest.raises(SchemaError, match="duplicate"):
        load_benchmark(synthetic_suite(tmp_path, mutate=dup))


def test_unknown_domain_rejected(tmp_path):
    def bad(d):
        d["scenarios"][0]["domain"] = "weird"

    with pytest.raises(SchemaError, match="domain"):
        load_benchmark(synthetic_suite(tmp_path, mutate=bad))


def test_missing_world_rejected(tmp_path, capsys):
    """A world file that cannot be opened, missing or with a name too long for
    the file system, stops `carobo bench` before its first episode."""
    traces = tmp_path / "traces"
    for name in ("nope.json", "w" * 295 + ".json"):
        def bad(d):
            d["scenarios"][0]["world_file"] = name

        assert main(["bench", "--suite", str(synthetic_suite(tmp_path, mutate=bad)), "--traces-dir", str(traces)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read world ") and err.count("\n") == 1 and len(err) < 300, err[:400]
        assert not traces.exists()


MISSING = {"op": "near", "object_id": "no_such_object", "within": 1.0}


@pytest.mark.parametrize("goal", [
    MISSING,
    # a dry run of this goal would never reach the atom: `or` stops at its first clause, which holds
    {"op": "and", "clauses": [{"op": "path_length_at_least", "meters": 0.0},
                              {"op": "or", "clauses": [{"op": "buzzer_count", "cmp": ">=", "count": 0},
                                                       {"op": "not", "clause": MISSING}]}]},
], ids=["top-level", "nested"])
def test_a_goal_naming_an_object_its_world_lacks_is_rejected(tmp_path, capsys, goal):
    """The last scenario's goal names an object its world does not hold: no
    episode runs, no traces directory is made, and one error line names both."""
    def bad(d):
        d["scenarios"][-1]["goal"] = goal

    traces = tmp_path / "traces"
    assert main(["bench", "--suite", str(synthetic_suite(tmp_path, mutate=bad)), "--traces-dir", str(traces)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: scenario '{DOMAINS[-1]}_4': its goal names object 'no_such_object', which its world does not hold\n")
    assert not traces.exists()


def test_missing_field_rejected(tmp_path):
    def bad(d):
        del d["scenarios"][0]["goal"]

    with pytest.raises(SchemaError):
        load_benchmark(synthetic_suite(tmp_path, mutate=bad))


@pytest.mark.parametrize("key", ["id", "domain", "request_text", "world_file"])
def test_scenario_text_fields_must_be_strings(tmp_path, key):
    def bad(d):
        d["scenarios"][0][key] = 7

    with pytest.raises(SchemaError, match=f"ScenarioSpec.{key}: expected a string"):
        load_benchmark(synthetic_suite(tmp_path, mutate=bad))


BAD_ORACLE_COMMANDS = {
    "unknown name": ([{"name": "car_fly", "args": {"angle": 90}}], "UnknownCommand"),
    "out of range": ([{"name": "car_left", "args": {"angle": 400}}], "ArgOutOfRange"),
    "boolean argument": ([{"name": "car_left", "args": {"angle": True}}], "must be a number"),
    "not a list": ({"name": "car_left", "args": {"angle": 90}}, "expected a list"),
}


@pytest.mark.parametrize("case", sorted(BAD_ORACLE_COMMANDS))
def test_bad_oracle_commands_are_rejected_by_scenario(tmp_path, case):
    commands, error = BAD_ORACLE_COMMANDS[case]

    def bad(d):
        d["scenarios"][2]["oracle"] = {"plan": ["turn"], "commands": commands, "comment": "done"}

    with pytest.raises(SchemaError, match=rf"scenario 2 \('object_detection_2'\): ScenarioSpec.oracle: .*{error}"):
        load_benchmark(synthetic_suite(tmp_path, mutate=bad))


def test_suite_data_regenerates_the_committed_tree(tmp_path, build_data):
    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    build_data.write_all(tmp_path)
    committed, regenerated = tree(DATA_DIR), tree(tmp_path)
    assert sorted(regenerated) == sorted(committed)
    assert [rel for rel in committed if regenerated[rel] != committed[rel]] == []


def test_suite_must_be_object_with_list(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"scenarios": 5}))
    with pytest.raises(SchemaError):
        load_benchmark(path)
    with pytest.raises(SchemaError):
        load_benchmark(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Reports

def rows_fixture():
    mk = lambda i, d, v, fr=None: Row(
        scenario_id=f"s{i}", domain=d, verdict=v, failure_reason=fr, steps=i, rounds=i + 1)
    d1, d2 = DOMAINS[0], DOMAINS[1]
    return [
        mk(1, d1, "Success"),
        mk(2, d1, "Failure", "StepLimit"),
        mk(3, d2, "Success"),
        mk(4, d2, "Success"),
    ]


def test_make_report_rates():
    report = make_report(rows_fixture())
    assert report.domain_rates[DOMAINS[0]] == 50.0
    assert report.domain_rates[DOMAINS[1]] == 100.0
    assert DOMAINS[2] not in report.domain_rates
    assert report.overall_rate == 75.0


def test_make_report_empty():
    report = make_report([])
    assert report.overall_rate == 0.0
    assert report.domain_rates == {}


def test_report_row_lookup_and_dict():
    report = make_report(rows_fixture())
    assert {r.scenario_id: r for r in report.rows}["s2"].failure_reason == "StepLimit"
    doc = report.to_dict()
    assert doc["overall_rate"] == 75.0
    assert doc["rows"][0]["scenario_id"] == "s1"
    text = report.to_text()
    assert "overall" in text and "75.0% (3/4)" in text
    assert text.count("\n") >= 7


def test_a_report_lists_the_domains_its_rates_name_with_the_wins_its_rows_hold():
    """`to_text` takes each domain line's rate from `domain_rates`, in DOMAINS
    order, and its wins from the rows: a decoded report may name a domain no
    row holds, and a row may hold a domain that is not one of DOMAINS, which
    only the overall line counts."""
    rows = (*rows_fixture(), Row("s5", "elsewhere", "Success", None, 1, 1))
    report = Report.from_dict({"rows": [r.to_dict() for r in rows], "overall_rate": 60.0,
                               "domain_rates": {DOMAINS[3]: 12.5, DOMAINS[0]: 50.0, "elsewhere": 100.0}})
    assert report.to_text().split("\n")[-3:] == [
        f"{DOMAINS[0]:<22}  50.0% (1/2)",
        f"{DOMAINS[3]:<22}  12.5% (0/0)",
        f"{'overall':<22}  60.0% (4/5)",
    ]


# ---------------------------------------------------------------------------
# Backend pairs and scenario runs

def test_backend_pair_builders(tmp_path):
    specs = load_benchmark(default_suite_path())
    spec = specs[0]

    cfg = scripted_pair("oracle")(spec)
    assert isinstance(cfg.kind, ScriptedConfig)
    assert cfg.kind.policy_id == "oracle"

    cfg = replay_pair(tmp_path)(spec)
    assert isinstance(cfg.kind, ReplayConfig)
    assert cfg.kind.trace_path.endswith(f"{spec.id}.jsonl")

    assert fixed_pair(cfg)(spec) is cfg


def test_run_scenario_oracle_direct():
    specs = {s.id: s for s in load_benchmark(default_suite_path())}
    row, result = run_scenario(specs["obj_1"], scripted_pair("oracle"))
    assert row.verdict == "Success"
    assert row.failure_reason is None
    assert row.steps == 3
    assert result.steps == 3


def test_run_scenario_rejects_a_goal_naming_an_object_its_world_lacks(monkeypatch):
    """Callers of run_scenario, such as the benchmark harness, get the suite's
    SchemaError before any episode runs, not a KeyError from the judge after it."""
    spec = replace({s.id: s for s in load_benchmark(default_suite_path())}["obj_1"], goal=Near("no_such_object", 1.0))
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *args, **kwargs: episodes.append(args))
    with pytest.raises(SchemaError, match="^scenario 'obj_1': its goal names object 'no_such_object', "
                                         "which its world does not hold$"):
        run_scenario(spec, scripted_pair("oracle"))
    assert episodes == []


def test_run_scenario_rejects_external_transport():
    specs = load_benchmark(default_suite_path())
    with pytest.raises(Exception, match="transport"):
        run_scenario(specs[0], scripted_pair("oracle"), transport="tcp:10.0.0.1:7450")


def test_run_scenario_replay_matches_table_cell():
    specs = {s.id: s for s in load_benchmark(default_suite_path())}
    row, _ = run_scenario(specs["obj_1"], replay_pair(bundled_trace_dir("gpt-4o")))
    assert (row.verdict, row.steps) == ("Success", 9)


def test_run_suite_refuses_a_traces_dir_it_cannot_make(tmp_path, monkeypatch):
    """A file where a parent of the traces directory should be stops the suite
    before its first episode."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    ran = []
    monkeypatch.setattr(bench, "run_scenario", lambda *args, **kwargs: ran.append(args))
    with pytest.raises(CaroboError, match="cannot make traces directory"):
        run_suite(load_benchmark(default_suite_path()), scripted_pair("oracle"), traces_dir=tmp_path / "file" / "t")
    assert ran == []


def test_run_suite_writes_traces(tmp_path):
    specs = load_benchmark(default_suite_path())
    report = run_suite(specs, scripted_pair("oracle"), traces_dir=tmp_path)
    assert report.overall_rate == 100.0
    assert sorted(p.name for p in tmp_path.glob("*.jsonl")) == sorted(
        f"{s.id}.jsonl" for s in specs
    )
