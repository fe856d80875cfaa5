"""Benchmark harness: scenario loading, ground-truth judging, suite runs.

A suite file lists scenarios (request, world, goal, limits). Each scenario is
run as a full episode, then judged against its goal predicate using the final
simulator state, the executed path and every round comment. Their rows fold
into per-domain and overall success rates.
"""
from __future__ import annotations

import math
import re
import reprlib
from contextlib import ExitStack, contextmanager
from dataclasses import field, replace
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
    read_text,
    value_class,
)
from .suite_data import DOMAINS

DATA_DIR = Path(__file__).parent / "data"


class CountError(CaroboError):
    """A suite does not have the required per-domain scenario counts."""


# ---------------------------------------------------------------------------
# Goal predicates

@value_class
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
            raise SchemaError(f"goal must be an object whose 'op' is one of {sorted(GOAL_OPS)}: {reprlib.repr(doc)}")
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
@value_class
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
@value_class
class BuzzerCount(GoalPredicate):
    cmp: str
    count: int

    def __post_init__(self):
        if self.cmp not in _CMP:
            raise SchemaError(f"unknown comparison: {reprlib.repr(self.cmp)}")

    def evaluate(self, ctx: JudgeContext) -> bool:
        return _CMP[self.cmp](len(ctx.world.buzzer_events), self.count)


@goal_op("pose_within")
@value_class
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
@value_class
class HeadingWithin(GoalPredicate):
    deg: float
    tol: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        diff = abs((ctx.world.robot.heading - self.deg + 180.0) % 360.0 - 180.0)
        return diff <= self.tol


@goal_op("comment_matches")
@value_class
class CommentMatches(GoalPredicate):
    """Some round comment matches the regular expression."""

    pattern: str

    def __post_init__(self):
        try:
            re.compile(self.pattern)
        except re.error as exc:
            raise SchemaError(f"bad comment pattern {reprlib.repr(self.pattern)}: {exc}") from None

    def evaluate(self, ctx: JudgeContext) -> bool:
        rx = re.compile(self.pattern)
        return any(rx.search(c) for c in ctx.comments)


@goal_op("path_length_at_least")
@value_class
class PathLengthAtLeast(GoalPredicate):
    meters: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        return ctx.path_length >= self.meters


@goal_op("camera_pitch_at_least")
@value_class
class CameraPitchAtLeast(GoalPredicate):
    deg: float

    def evaluate(self, ctx: JudgeContext) -> bool:
        return ctx.world.robot.camera_pitch >= self.deg


@goal_op("and")
@value_class
class And(GoalPredicate):
    clauses: Tuple[GoalPredicate, ...]

    def evaluate(self, ctx: JudgeContext) -> bool:
        return all(c.evaluate(ctx) for c in self.clauses)


@goal_op("or")
@value_class
class Or(GoalPredicate):
    clauses: Tuple[GoalPredicate, ...]

    def evaluate(self, ctx: JudgeContext) -> bool:
        return any(c.evaluate(ctx) for c in self.clauses)


@goal_op("not")
@value_class
class Not(GoalPredicate):
    clause: GoalPredicate

    def evaluate(self, ctx: JudgeContext) -> bool:
        return not self.clause.evaluate(ctx)


# ---------------------------------------------------------------------------
# Suite loading

@codec
@value_class
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


@codec
@value_class
class ScenarioSpec:
    """One entry of a suite's "scenarios" list; `load_benchmark` resolves
    `world_file`, written relative to the suite, to an absolute path."""

    id: str
    domain: str
    request_text: str
    world_file: str
    goal: GoalPredicate
    limits: EpisodeLimits = field(default_factory=EpisodeLimits)  # not an instance, built at import
    oracle: Optional[OracleScript] = None

    def load_world(self) -> sim.WorldState:
        return sim.load_world_file(self.world_file)


def default_suite_path() -> Path:
    return DATA_DIR / "suite.json"


def bundled_trace_dir(model: str) -> Path:
    return DATA_DIR / "traces" / model


def load_benchmark(path) -> Tuple[ScenarioSpec, ...]:
    """Load and validate a suite: exactly five scenarios in each domain.

    World files are read by `run_suite`, which names one that cannot be read,
    or a goal that names an object its world does not hold.
    """
    path = Path(path)
    doc = read_json(read_text(path, "suite"), f"suite {path}")
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise SchemaError("suite must be an object with a 'scenarios' list")
    specs = []
    seen = set()
    for i, raw in enumerate(doc["scenarios"]):
        try:
            spec = ScenarioSpec.from_dict(raw)
        except SchemaError as exc:
            sid = raw.get("id") if type(raw) is dict else None
            raise SchemaError(f"scenario {i} ({reprlib.repr(sid)}): {exc}") from None
        if spec.domain not in DOMAINS:
            raise SchemaError(f"unknown domain {reprlib.repr(spec.domain)} in scenario {reprlib.repr(spec.id)}")
        if spec.id in seen:
            raise SchemaError(f"duplicate scenario id {reprlib.repr(spec.id)}")
        seen.add(spec.id)
        specs.append(replace(spec, world_file=str((path.parent / spec.world_file).resolve())))
    counts = {d: sum(1 for s in specs if s.domain == d) for d in DOMAINS}
    if any(c != 5 for c in counts.values()) or len(specs) != 20:
        raise CountError(f"suite must hold 5 scenarios per domain, got {counts}")
    return tuple(specs)


# ---------------------------------------------------------------------------
# Judging, suite runs and reports

@codec
@value_class
class Row:
    scenario_id: str
    domain: str
    verdict: str
    failure_reason: Optional[str]
    steps: int
    rounds: int


def judge(spec: ScenarioSpec, result: EpisodeResult, world: sim.WorldState) -> Row:
    """The report row of a scenario's episode, judged against its goal.

    Finishing with the goal met is the only success; finishing without it is a
    false completion. An episode that never finishes keeps its own failure
    reason, and its goal is not evaluated.
    """
    verdict, reason = result.verdict, result.failure_reason
    if verdict is Verdict.SUCCESS and not spec.goal.evaluate(build_context(result, world)):
        verdict, reason = Verdict.FAILURE, FailureReason.FALSE_COMPLETION
    return Row(scenario_id=spec.id, domain=spec.domain, verdict=verdict.value,
               failure_reason=reason.value if reason else None, steps=result.steps, rounds=result.rounds)


@codec
@value_class
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
    is read here when not given. A goal naming an object the world lacks
    raises SchemaError before the episode starts."""
    if world is None:
        world = spec.load_world()
    check_goal(spec, world)
    with open_robot(transport, world) as handle:
        result = run_episode(
            UserRequest(text=spec.request_text, id=spec.id),
            handle,
            backends(spec),
            limits=spec.limits,
            trace_path=trace_path,
        )
        return judge(spec, result, handle.world), result


def near_objects(goal: GoalPredicate) -> list:
    """The object ids that the `near` atoms of `goal` name, under any and/or/not."""
    if isinstance(goal, Near):
        return [goal.object_id]
    if isinstance(goal, Not):
        return near_objects(goal.clause)
    if isinstance(goal, (And, Or)):
        return [object_id for clause in goal.clauses for object_id in near_objects(clause)]
    return []


def check_goal(spec: ScenarioSpec, world: sim.WorldState) -> None:
    """Raise SchemaError when a `near` atom of the goal of `spec` names an object that `world` does not hold."""
    wanted = near_objects(spec.goal)
    held = {obj.id for obj in world.objects} if wanted else ()
    for object_id in wanted:
        if object_id not in held:
            raise SchemaError(f"scenario {reprlib.repr(spec.id)}: its goal names object "
                              f"{reprlib.repr(object_id)}, which its world does not hold")


def run_suite(
    specs,
    backends: BackendPair,
    transport: str = "direct",
    traces_dir=None,
) -> Report:
    # a malformed world file, or a goal naming an object its world lacks, stops the suite before any episode runs
    worlds = [spec.load_world() for spec in specs]
    for spec, world in zip(specs, worlds):
        check_goal(spec, world)
    if traces_dir is not None:
        traces_dir = Path(traces_dir)
        try:
            traces_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CaroboError(f"cannot make traces directory {traces_dir}: {exc}") from exc
    rows = []
    for spec, world in zip(specs, worlds):
        trace_path = None if traces_dir is None else traces_dir / f"{spec.id}.jsonl"
        row, _result = run_scenario(spec, backends, transport=transport, trace_path=trace_path, world=world)
        rows.append(row)
    return make_report(rows)
