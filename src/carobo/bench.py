"""Benchmark harness: scenario loading, ground-truth judging, suite runs.

A suite file lists scenarios (request, world, goal, limits). Each scenario is
run as a full episode, then judged against its goal predicate using the final
simulator state, the executed path and every round comment. Judgments fold
into per-domain and overall success rates.
"""
from __future__ import annotations

import math
import os
import re
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from . import sim
from .app import (
    EpisodeLimits,
    EpisodeResult,
    FailureReason,
    Verdict,
    run_episode,
)
from .bridge import BridgeRobot, TcpRobotServer, parse_endpoint, start_local_robot, tcp_connect
from .llm import BackendConfig, ReplayConfig, ScriptedConfig
from .model import (
    CaroboError,
    Command,
    GlobalPlan,
    InvalidCommand,
    InvariantViolation,
    SchemaError,
    UserRequest,
    codec,
    read_json,
)
from .suite_data import DOMAINS

DATA_DIR = Path(__file__).parent / "data"


class CountError(CaroboError):
    """A suite does not have the required per-domain scenario counts."""


# ---------------------------------------------------------------------------
# Goal predicates

@dataclass(frozen=True)
class JudgeContext:
    """Everything a goal atom may inspect after an episode."""

    world: sim.WorldState
    comments: Tuple[str, ...]
    path_length: float


def build_context(result: EpisodeResult, world: sim.WorldState) -> JudgeContext:
    comments = tuple(r.comment for r in result.trace.rounds)
    # added left to right from 0.0, as sum() did before Python 3.12 made it
    # compensated: a path_length_at_least goal compares the bits to a threshold
    path = 0.0
    for r in result.trace.rounds:
        if r.exec_result:
            path += r.exec_result.distance_travelled
    return JudgeContext(world=world, comments=comments, path_length=path)


class GoalPredicate:
    def evaluate(self, ctx: JudgeContext) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @classmethod
    def from_dict(cls, doc: dict) -> "GoalPredicate":
        """Decode a goal document with the predicate class its op names."""
        op = doc.get("op") if type(doc) is dict else None
        if type(op) is not str or op not in GOAL_OPS:
            raise SchemaError(f"goal must be an object whose 'op' is one of {sorted(GOAL_OPS)}: {doc!r}")
        return GOAL_OPS[op].from_dict(doc)


GOAL_OPS: Dict[str, type] = {}


def goal_op(op: str):
    """Register a predicate dataclass under `op`; its documents carry {"op": op}."""

    def register(cls):
        GOAL_OPS[op] = cls
        return codec(cls, tag={"op": op})

    return register


parse_goal = GoalPredicate.from_dict


@goal_op("near")
@dataclass(frozen=True)
class Near(GoalPredicate):
    """Robot center within `within` meters of the object's boundary."""

    object_id: str
    within: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        obj = ctx.world.object_by_id(self.object_id)
        return obj.shape.distance_from(ctx.world.robot.position) <= self.within


_CMP = {
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
}


@goal_op("buzzer_count")
@dataclass(frozen=True)
class BuzzerCount(GoalPredicate):
    cmp: str
    count: int

    def __post_init__(self):
        if self.cmp not in _CMP:
            raise SchemaError(f"unknown comparison: {self.cmp!r}")

    def evaluate(self, ctx: JudgeContext) -> bool:
        return _CMP[self.cmp](len(ctx.world.buzzer_events), self.count)


@goal_op("pose_within")
@dataclass(frozen=True)
class PoseWithin(GoalPredicate):
    x: float
    y: float
    tol: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        rx, ry = ctx.world.robot.position
        dx, dy = rx - self.x, ry - self.y
        try:
            distance = (dx ** 2 + dy ** 2) ** 0.5
        except OverflowError:
            distance = math.inf
        if distance == math.inf:  # a square past the float range, from offsets over about 1e154
            distance = math.hypot(dx, dy)  # may differ from ** in the last bit, so only here
        return distance <= self.tol


@goal_op("heading_within")
@dataclass(frozen=True)
class HeadingWithin(GoalPredicate):
    deg: float
    tol: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        diff = abs((ctx.world.robot.heading - self.deg + 180.0) % 360.0 - 180.0)
        return diff <= self.tol


@goal_op("comment_matches")
@dataclass(frozen=True)
class CommentMatches(GoalPredicate):
    """Some round comment matches the regular expression."""

    pattern: str

    def __post_init__(self):
        try:
            re.compile(self.pattern)
        except re.error as exc:
            raise SchemaError(f"bad comment pattern {self.pattern!r}: {exc}") from None

    def evaluate(self, ctx: JudgeContext) -> bool:
        rx = re.compile(self.pattern)
        return any(rx.search(c) for c in ctx.comments)


@goal_op("path_length_at_least")
@dataclass(frozen=True)
class PathLengthAtLeast(GoalPredicate):
    meters: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        return ctx.path_length >= self.meters


@goal_op("camera_pitch_at_least")
@dataclass(frozen=True)
class CameraPitchAtLeast(GoalPredicate):
    deg: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        return ctx.world.robot.camera_pitch >= self.deg


@goal_op("and")
@dataclass(frozen=True)
class And(GoalPredicate):
    clauses: Tuple[GoalPredicate, ...]

    def evaluate(self, ctx: JudgeContext) -> bool:
        return all(c.evaluate(ctx) for c in self.clauses)


@goal_op("or")
@dataclass(frozen=True)
class Or(GoalPredicate):
    clauses: Tuple[GoalPredicate, ...]

    def evaluate(self, ctx: JudgeContext) -> bool:
        return any(c.evaluate(ctx) for c in self.clauses)


@goal_op("not")
@dataclass(frozen=True)
class Not(GoalPredicate):
    clause: GoalPredicate

    def evaluate(self, ctx: JudgeContext) -> bool:
        return not self.clause.evaluate(ctx)


# ---------------------------------------------------------------------------
# Suite loading

@codec
@dataclass(frozen=True)
class OracleScript:
    """A known-good run of a scenario, played by the oracle policy.

    `commands` holds one command document per round, kept exactly as loaded,
    so the policy's completions spell each number as the suite does (an
    integer stays an integer). `aliases` are further request phrasings that
    the script answers.
    """

    plan: Tuple[str, ...]
    commands: Tuple[dict, ...]
    comment: str
    aliases: Tuple[str, ...] = ()

    def __post_init__(self):
        try:
            GlobalPlan(self.plan)
            for doc in self.commands:
                Command.from_dict(doc)
        except (InvalidCommand, InvariantViolation) as exc:
            raise SchemaError(f"{type(exc).__name__}: {exc}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    domain: str
    request_text: str
    world_file: Path
    goal: GoalPredicate
    limits: EpisodeLimits
    oracle: Optional[OracleScript] = None

    def load_world(self) -> sim.WorldState:
        return sim.load_world_file(self.world_file)


@codec
@dataclass(frozen=True)
class ScenarioEntry:
    """One entry of a suite's "scenarios" list; world_file is relative to the suite."""

    id: str
    domain: str
    request_text: str
    world_file: str
    goal: GoalPredicate
    limits: EpisodeLimits = EpisodeLimits()
    oracle: Optional[OracleScript] = None


def default_suite_path() -> Path:
    return DATA_DIR / "suite.json"


def bundled_trace_dir(model: str) -> Path:
    return DATA_DIR / "traces" / model


def load_benchmark(path) -> Tuple[ScenarioSpec, ...]:
    """Load and validate a suite: exactly five scenarios in each domain."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read suite {path}: {exc}") from exc
    doc = read_json(text, f"suite {path}")
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise SchemaError("suite must be an object with a 'scenarios' list")
    specs = []
    seen = set()
    for i, raw in enumerate(doc["scenarios"]):
        try:
            entry = ScenarioEntry.from_dict(raw)
        except SchemaError as exc:
            sid = raw.get("id") if type(raw) is dict else None
            raise SchemaError(f"scenario {i} ({sid!r}): {exc}") from None
        if entry.domain not in DOMAINS:
            raise SchemaError(f"unknown domain {entry.domain!r} in scenario {entry.id!r}")
        if entry.id in seen:
            raise SchemaError(f"duplicate scenario id {entry.id!r}")
        seen.add(entry.id)
        world_file = (path.parent / entry.world_file).resolve()
        if not world_file.exists():
            raise SchemaError(f"world file missing for {entry.id!r}: {world_file}")
        specs.append(ScenarioSpec(entry.id, entry.domain, entry.request_text, world_file, entry.goal,
                                  entry.limits, entry.oracle))
    counts = {d: sum(1 for s in specs if s.domain == d) for d in DOMAINS}
    if any(c != 5 for c in counts.values()) or len(specs) != 20:
        raise CountError(f"suite must hold 5 scenarios per domain, got {counts}")
    return tuple(specs)


_last_suite = (None, ())  # (file stamp, specs) of the suite load_suite decoded last


def load_suite(path) -> Tuple[ScenarioSpec, ...]:
    """`load_benchmark(path)`, decoded again only when the path or the file changes.

    `carobo bench --policy oracle` reads the bundled suite for its scenarios
    and for the oracle's scripts; both are served by one decode. The file
    is stat'ed on every call, and a new size, mtime or inode decodes it anew.
    """
    global _last_suite
    try:
        st = os.stat(path)
    except OSError:
        return load_benchmark(path)  # which names the unreadable file
    stamp = (os.fspath(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    if _last_suite[0] != stamp:
        _last_suite = (stamp, load_benchmark(path))
    return _last_suite[1]


# ---------------------------------------------------------------------------
# Judging

@dataclass(frozen=True)
class Judgment:
    verdict: Verdict
    failure_reason: Optional[FailureReason]
    goal_met: bool


def judge(result: EpisodeResult, world: sim.WorldState, goal: GoalPredicate) -> Judgment:
    """Fold an episode outcome and the goal check into a final judgment.

    Finishing with the goal met is the only success; finishing without it is a
    false completion. Episodes that never finish keep their own failure reason.
    """
    ctx = build_context(result, world)
    met = goal.evaluate(ctx)
    if result.verdict is Verdict.SUCCESS:
        if met:
            return Judgment(Verdict.SUCCESS, None, True)
        return Judgment(Verdict.FAILURE, FailureReason.FALSE_COMPLETION, False)
    return Judgment(Verdict.FAILURE, result.failure_reason, met)


# ---------------------------------------------------------------------------
# Suite runs and reports

@codec
@dataclass(frozen=True)
class Row:
    scenario_id: str
    domain: str
    verdict: str
    failure_reason: Optional[str]
    steps: int
    rounds: int


@codec
@dataclass(frozen=True)
class Report:
    rows: Tuple[Row, ...]
    domain_rates: Dict[str, float] = field(default_factory=dict)
    overall_rate: float = 0.0

    def row(self, scenario_id: str) -> Row:
        for r in self.rows:
            if r.scenario_id == scenario_id:
                return r
        raise KeyError(scenario_id)

    def to_text(self) -> str:
        lines = [f"{'scenario':<10} {'domain':<22} {'verdict':<8} {'reason':<16} {'steps':>5} {'rounds':>6}"]
        for r in self.rows:
            lines.append(
                f"{r.scenario_id:<10} {r.domain:<22} {r.verdict:<8}"
                f" {r.failure_reason or '-':<16} {r.steps:>5} {r.rounds:>6}"
            )
        lines.append("")
        for domain in DOMAINS:
            if domain in self.domain_rates:
                n = sum(1 for r in self.rows if r.domain == domain)
                k = sum(1 for r in self.rows if r.domain == domain and r.verdict == Verdict.SUCCESS.value)
                lines.append(f"{domain:<22} {self.domain_rates[domain]:5.1f}% ({k}/{n})")
        total = len(self.rows)
        wins = sum(1 for r in self.rows if r.verdict == Verdict.SUCCESS.value)
        lines.append(f"{'overall':<22} {self.overall_rate:5.1f}% ({wins}/{total})")
        return "\n".join(lines)


def make_report(rows) -> Report:
    rows = tuple(rows)
    rates = {}
    for domain in DOMAINS:
        group = [r for r in rows if r.domain == domain]
        if group:
            wins = sum(1 for r in group if r.verdict == Verdict.SUCCESS.value)
            rates[domain] = wins * 100.0 / len(group)
    overall = (
        sum(1 for r in rows if r.verdict == Verdict.SUCCESS.value) * 100.0 / len(rows)
        if rows
        else 0.0
    )
    return Report(rows=rows, domain_rates=rates, overall_rate=overall)


# the one backend both agents of a scenario's episode call
BackendPair = Callable[[ScenarioSpec], BackendConfig]


def scripted_pair(policy_id: str) -> BackendPair:
    cfg = BackendConfig(kind=ScriptedConfig(policy_id=policy_id))
    return lambda _spec: cfg


def replay_pair(trace_dir, max_retries: int = 3) -> BackendPair:
    """Host and app share one recorded completion stream per scenario."""
    trace_dir = Path(trace_dir)
    return lambda spec: BackendConfig(kind=ReplayConfig(trace_path=str(trace_dir / f"{spec.id}.jsonl")),
                                      max_retries=max_retries)


def fixed_pair(cfg: BackendConfig) -> BackendPair:
    return lambda _spec: cfg


@contextmanager
def open_robot(transport: str, world: Optional[sim.WorldState] = None):
    """Open a robot handle on `transport`; on exit, close what was opened.

    direct, local: and tcp: (a TCP server in this process) host `world` here.
    tcp:HOST:PORT connects to a robot that another process serves and owns
    the world of, so it takes no world, and the handle's `world` is None.
    """
    remote = transport.startswith("tcp:") and transport != "tcp:"
    if remote:
        address = parse_endpoint(transport)
        if world is not None:
            raise CaroboError(f"transport {transport!r} reaches a robot that another process serves "
                              "with its own world; it cannot host a world from here")
    elif transport not in ("direct", "local:", "tcp:"):
        raise CaroboError(f"transport must be direct, local:, tcp: or tcp:HOST:PORT, got {transport!r}")
    elif world is None:
        raise CaroboError(f"transport {transport!r} hosts the robot here and needs a world (--world FILE)")
    with ExitStack() as stack:
        if transport == "direct":
            handle = sim.SimRobot(world)
        elif transport == "local:":
            client, robot, shutdown = start_local_robot(world)
            stack.callback(shutdown)
            handle = BridgeRobot(client, robot)
        elif remote:
            handle = BridgeRobot(tcp_connect(*address))
            stack.callback(handle.close)
        else:
            server = TcpRobotServer(world).start()
            stack.callback(server.stop)
            handle = BridgeRobot(tcp_connect(server.host, server.port), server.robot)
            stack.callback(handle.close)
        yield handle


def run_scenario(
    spec: ScenarioSpec,
    backends: BackendPair,
    transport: str = "direct",
    trace_path=None,
    world: Optional[sim.WorldState] = None,
) -> Tuple[Row, EpisodeResult]:
    """Run and judge one scenario; `world` is its decoded world file, which
    is read here when not given."""
    with open_robot(transport, spec.load_world() if world is None else world) as handle:
        result = run_episode(
            UserRequest(text=spec.request_text, id=spec.id),
            handle,
            backends(spec),
            limits=spec.limits,
            trace_path=trace_path,
        )
        judgment = judge(result, handle.world, spec.goal)
    row = Row(
        scenario_id=spec.id,
        domain=spec.domain,
        verdict=judgment.verdict.value,
        failure_reason=judgment.failure_reason.value if judgment.failure_reason else None,
        steps=result.steps,
        rounds=result.rounds,
    )
    return row, result


def make_traces_dir(traces_dir) -> Path:
    """The directory for per-scenario traces, made with its parents if need be."""
    traces_dir = Path(traces_dir)
    try:
        traces_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CaroboError(f"cannot make traces directory {traces_dir}: {exc}") from exc
    return traces_dir


def run_suite(
    specs,
    backends: BackendPair,
    transport: str = "direct",
    traces_dir=None,
) -> Report:
    # a malformed world file stops the suite before any episode runs
    worlds = [spec.load_world() for spec in specs]
    if traces_dir is not None:
        traces_dir = make_traces_dir(traces_dir)
    rows = []
    for spec, world in zip(specs, worlds):
        trace_path = None if traces_dir is None else traces_dir / f"{spec.id}.jsonl"
        row, _result = run_scenario(spec, backends, transport=transport, trace_path=trace_path, world=world)
        rows.append(row)
    return make_report(rows)
