"""App agent and the episode loop: rounds, steps, limits, replans, traces."""
import json
from collections import Counter
from pathlib import Path

import pytest
from test_trace_pins import BUNDLED, PINS, bench_digest

from carobo import app, bench, host, llm
from carobo.app import (
    EpisodeLimits,
    FailureReason,
    HostRecord,
    RoundRecord,
    Verdict,
    read_trace,
    run_episode,
)
from carobo.host import build_prompt
from carobo.llm import BackendConfig, ReplayConfig, ScriptedConfig
from carobo.model import (
    CaroboError,
    GlobalPlan,
    MemoryLog,
    Observation,
    SensorData,
    Status,
    UserRequest,
)
from carobo.sim import SimRobot, load_world


def empty_world():
    return load_world({"robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0}, "objects": []})


def scripted(policy_id, **kw):
    return BackendConfig(kind=ScriptedConfig(policy_id=policy_id), **kw)


HOST_LINE = json.dumps({"observation": "o", "thoughts": "think", "plan": ["p"], "comment": "c"})
FINISH_LINE = json.dumps({"observation": "o", "comment": "all done", "status": "FINISH"})


def forward_line(d=0.5):
    return json.dumps({
        "observation": "o", "comment": "go", "status": "CONTINUE",
        "command": {"name": "car_forward", "args": {"distance": d}},
    })


def replay_cfg(tmp_path, lines, name="trace.jsonl", max_retries=3):
    p = tmp_path / name
    p.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    return BackendConfig(kind=ReplayConfig(trace_path=str(p)), max_retries=max_retries)


# ---------------------------------------------------------------------------
# Prompt

def test_app_prompt_carries_plan_and_window():
    request = UserRequest(text="r")
    prompt = build_prompt(
        request,
        Observation.from_items(()),
        SensorData(ultrasonic_clearance=1, ir_left=False, ir_right=False),
        MemoryLog(),
        GlobalPlan(steps=("a", "b")),
    )
    assert list(prompt.blocks) == [
        "request", "plan", "observation", "sensors", "memory",
    ]
    assert "1. a" in prompt.blocks["plan"]


# ---------------------------------------------------------------------------
# Episode outcomes

def test_finish_on_first_round_counts_no_steps(tmp_path):
    cfg = replay_cfg(tmp_path, [HOST_LINE, FINISH_LINE])
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert result.verdict is Verdict.SUCCESS
    assert result.failure_reason is None
    assert (result.steps, result.rounds) == (0, 1)
    assert len(result.trace) == 1
    assert result.trace.rounds[0].status is Status.FINISH
    # the host's thoughts ride on the first decided round
    assert result.trace.rounds[0].thoughts == "think"


def test_step_limit_failure(tmp_path):
    cfg = replay_cfg(tmp_path, [HOST_LINE] + [forward_line(0.1)] * 10)
    result = run_episode(
        UserRequest(text="r"), SimRobot(empty_world()), cfg,
        limits=EpisodeLimits(max_steps=4),
    )
    assert result.verdict is Verdict.FAILURE
    assert result.failure_reason is FailureReason.STEP_LIMIT
    assert (result.steps, result.rounds) == (4, 4)


def test_steps_count_only_dispatched_commands(tmp_path):
    cfg = replay_cfg(tmp_path, [HOST_LINE, forward_line(), forward_line(), FINISH_LINE])
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert result.verdict is Verdict.SUCCESS
    assert (result.steps, result.rounds) == (2, 3)
    assert [r.status for r in result.trace.rounds] == [
        Status.CONTINUE, Status.CONTINUE, Status.FINISH,
    ]
    assert result.trace.rounds[1].thoughts is None


def test_retry_consumes_garbage_within_a_round(tmp_path):
    # with retries in budget, a bad completion is retried inside the same
    # round; the next line serves as the retry's answer
    cfg = replay_cfg(tmp_path, [HOST_LINE, "garbage", forward_line(), FINISH_LINE])
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert result.verdict is Verdict.SUCCESS
    assert (result.steps, result.rounds) == (1, 2)


def test_round_errors_are_rounds_but_not_steps(tmp_path):
    cfg = replay_cfg(
        tmp_path, [HOST_LINE, "garbage", forward_line(), FINISH_LINE], max_retries=0,
    )
    trace_path = tmp_path / "episode.jsonl"
    result = run_episode(
        UserRequest(text="r"), SimRobot(empty_world()), cfg, trace_path=trace_path,
    )
    assert result.verdict is Verdict.SUCCESS
    assert (result.steps, result.rounds) == (1, 3)
    assert len(result.trace) == 2  # the memory log holds only decided rounds
    records = read_trace(trace_path)
    kinds = [r.to_dict()["type"] for r in records]
    assert kinds == ["episode", "host", "round_error", "round", "round", "result"]


def test_three_consecutive_errors_trigger_one_replan(tmp_path):
    lines = [HOST_LINE, "x", "x", "x", HOST_LINE, FINISH_LINE]
    cfg = replay_cfg(tmp_path, lines, max_retries=0)
    trace_path = tmp_path / "episode.jsonl"
    result = run_episode(
        UserRequest(text="r"), SimRobot(empty_world()), cfg, trace_path=trace_path,
    )
    assert result.verdict is Verdict.SUCCESS
    assert result.rounds == 4  # three failed decides plus the finish
    records = read_trace(trace_path)
    assert [r.to_dict()["type"] for r in records] == [
        "episode", "host", "round_error", "round_error", "round_error",
        "host", "round", "result",
    ]


def test_second_error_streak_aborts(tmp_path):
    lines = [HOST_LINE, "x", "x", "x", HOST_LINE, "x", "x", "x"]
    cfg = replay_cfg(tmp_path, lines, max_retries=0)
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert result.verdict is Verdict.FAILURE
    assert result.failure_reason is FailureReason.BACKEND_ERROR
    assert result.steps == 0


def test_errors_interleaved_with_progress_do_not_replan(tmp_path):
    lines = [HOST_LINE, "x", "x", forward_line(), "x", "x", forward_line(), FINISH_LINE]
    cfg = replay_cfg(tmp_path, lines, max_retries=0)
    trace_path = tmp_path / "episode.jsonl"
    result = run_episode(
        UserRequest(text="r"), SimRobot(empty_world()), cfg, trace_path=trace_path,
    )
    assert result.verdict is Verdict.SUCCESS
    assert result.steps == 2
    records = read_trace(trace_path)
    assert sum(1 for r in records if type(r) is HostRecord) == 1


def test_host_failure_is_backend_error(tmp_path):
    cfg = replay_cfg(tmp_path, ["garbage"] * 8)
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert result.verdict is Verdict.FAILURE
    assert result.failure_reason is FailureReason.BACKEND_ERROR
    assert (result.steps, result.rounds) == (0, 0)


def test_round_limit_backstops_decide_loops(tmp_path):
    # alternating bad and good completions: rounds outpace steps, so the
    # round budget trips first
    lines = [HOST_LINE, "x", forward_line(0.05), "x", forward_line(0.05), "x", forward_line(0.05)]
    cfg = replay_cfg(tmp_path, lines, max_retries=0)
    result = run_episode(
        UserRequest(text="r"), SimRobot(empty_world()), cfg,
        limits=EpisodeLimits(max_steps=5, max_rounds=6),
    )
    assert result.verdict is Verdict.FAILURE
    assert result.failure_reason is FailureReason.STEP_LIMIT
    assert (result.steps, result.rounds) == (3, 6)


def test_limits_validation():
    with pytest.raises(CaroboError):
        EpisodeLimits(max_steps=0)
    with pytest.raises(CaroboError):
        EpisodeLimits(max_steps=10, max_rounds=5)
    assert EpisodeLimits(max_steps=8).max_rounds == 13


def test_episode_trace_has_no_wall_clock(tmp_path):
    cfg = replay_cfg(tmp_path, [HOST_LINE, forward_line(), FINISH_LINE])
    trace_path = tmp_path / "episode.jsonl"
    run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg, trace_path=trace_path)
    text = trace_path.read_text(encoding="utf-8")
    assert "timestamp" not in text
    header = json.loads(text.splitlines()[0])
    assert header["type"] == "episode"
    assert header["request_text"] == "r"
    assert "world" in header and "limits" in header


def test_untraced_episode_builds_no_records_and_loads_each_template_once(tmp_path, monkeypatch):
    """Without a trace path no record is built: neither the header, with its
    world document, nor the footer."""

    def built(*_args):
        raise AssertionError("trace record built for an untraced episode")

    monkeypatch.setattr(app, "EpisodeHeader", built)
    monkeypatch.setattr(app, "EpisodeFooter", built)
    cfg = replay_cfg(tmp_path, [HOST_LINE, forward_line(), forward_line(), FINISH_LINE])
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert (result.verdict, result.rounds) == (Verdict.SUCCESS, 3)


def test_each_template_file_is_read_once_per_process(monkeypatch):
    """Across three scripted episodes, whose agents build a prompt on every
    call, each template file is read once and never looked at again."""
    llm.load_agent_template.cache_clear()  # as in a new process
    touched = []
    for attr in ("read_text", "stat"):
        def spy(self, *args, real=getattr(Path, attr), **kwargs):
            touched.append(self.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, attr, spy)
    spec = {s.id: s for s in bench.load_benchmark(bench.default_suite_path())}["obj_1"]
    for _ in range(3):
        row, _result = bench.run_scenario(spec, bench.scripted_pair("oracle"))
        assert (row.verdict, row.rounds) == ("Success", 4)
    assert sorted(name for name in touched if name.endswith(".tmpl")) == ["app_agent.tmpl", "host_agent.tmpl"]


@pytest.fixture
def prompt_builds(monkeypatch):
    """The role of each prompt that the agents assemble, and of each memory
    render, in call order: ("app" | "host", "assemble" | "memory"). The one
    builder, host.build_prompt, loads its role's template before either."""
    built, role = [], []

    def template(name, fn=host.load_agent_template):
        role[:] = [name]
        return fn(name)

    monkeypatch.setattr(host, "load_agent_template", template)
    for attr, what in (("assemble_prompt", "assemble"), ("render_memory", "memory")):
        def counted(*args, fn=getattr(host, attr), what=what):
            built.append((role[0], what))
            return fn(*args)

        monkeypatch.setattr(host, attr, counted)
    return built


@pytest.mark.parametrize("transport", ["direct", "local:"])
def test_an_untraced_replay_run_builds_no_prompt(prompt_builds, transport):
    """A replayed completion does not depend on its prompt: without a trace
    no agent call assembles one or renders its memory."""
    pair = bench.replay_pair(bench.bundled_trace_dir("gpt-4o"))
    rounds = 0
    for spec in bench.load_benchmark(bench.default_suite_path()):
        row, _result = bench.run_scenario(spec, pair, transport=transport)
        rounds += row.rounds
    assert rounds > 0
    assert prompt_builds == []


def test_a_traced_replay_run_builds_each_recorded_prompt_once(prompt_builds, tmp_path):
    """With traces, each agent call that a record digests builds its prompt
    once, and the traces and report keep their pinned bytes."""
    assert bench_digest(tmp_path, BUNDLED["gpt-4o"]) == PINS["gpt-4o"]
    digested = Counter()
    for path in (tmp_path / "traces").glob("*.jsonl"):
        for rec in read_trace(path):
            if hasattr(rec, "prompt_digest"):
                role = {HostRecord: "host", RoundRecord: "app"}[type(rec)]
                digested[role, "assemble"] += 1
                digested[role, "memory"] += 1
    assert digested[("app", "assemble")] > 0
    assert Counter(prompt_builds) == digested


def test_app_retries_share_one_prompt_build(prompt_builds):
    """A backend that reads the prompt, and fails k attempts, builds one
    prompt for the agent call, not one per attempt."""
    seen = []

    class Flaky:
        def complete(self, prompt):
            seen.append(prompt())
            return "garbage" if len(seen) <= 2 else FINISH_LINE

    _decision, _raw, prompt = app.decide_with_raw(
        UserRequest(text="r"), GlobalPlan(steps=("a",)), Observation.from_items(()),
        SensorData(ultrasonic_clearance=1, ir_left=False, ir_right=False), MemoryLog(), Flaky(), 3,
    )
    assert len(seen) == 3 and all(p is prompt() for p in seen)
    assert prompt_builds == [("app", "memory"), ("app", "assemble")]


def test_a_prompt_that_cannot_be_built_fails_only_where_it_is_read(tmp_path, monkeypatch):
    """A template whose block format names an unknown field: the scripted
    backend reads the prompt and fails; an untraced replay never builds it."""
    template = llm.load_agent_template("app")
    broken = llm.AgentTemplate(template.system, template.examples, {**template.block_formats, "plan": "{nope}"})
    monkeypatch.setattr(host, "load_agent_template", lambda role: broken)
    inputs = (UserRequest(text="r"), GlobalPlan(steps=("a",)), Observation.from_items(()),
              SensorData(ultrasonic_clearance=1, ir_left=False, ir_right=False), MemoryLog())
    replay = llm.make_backend(replay_cfg(tmp_path, [FINISH_LINE]))
    decision, _raw, _prompt = app.decide_with_raw(*inputs, replay, 0)
    assert decision.status is Status.FINISH
    with pytest.raises(KeyError, match="nope"):
        app.decide_with_raw(*inputs, llm.make_backend(scripted("finish_now")), 0)


def test_spin_policy_runs_to_step_limit():
    cfg = scripted("spin")
    result = run_episode(
        UserRequest(text="whatever"), SimRobot(empty_world()), cfg,
        limits=EpisodeLimits(max_steps=5),
    )
    assert result.failure_reason is FailureReason.STEP_LIMIT
    assert result.steps == 5


def test_shared_backend_for_equal_configs(tmp_path):
    # host consumes line one, app continues on the same cursor: a single
    # stream only works because both agents call one backend instance
    cfg = replay_cfg(tmp_path, [HOST_LINE, FINISH_LINE])
    result = run_episode(UserRequest(text="r"), SimRobot(empty_world()), cfg)
    assert result.verdict is Verdict.SUCCESS
