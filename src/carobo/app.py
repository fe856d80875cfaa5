"""App agent: the observe/decide/act loop that executes a global plan.

Each round the agent gets a fresh observation and sensor read, decides one
command (or finishes), and the result is appended to an immutable memory log.
The loop stops on FINISH, on the step budget, or on the round budget; FINISH
is taken at face value here and judged against ground truth by the harness.
"""
from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Optional, Tuple

from . import sim
from .host import build_prompt, plan_with_raw
from .llm import (
    BackendConfig,
    AppDecision,
    HostDecision,
    PromptBuilder,
    assemble_prompt,  # not called here, but perfbench/tracer.py wraps app.assemble_prompt
    build_once,
    complete_and_parse,
    load_agent_template,  # not called here, but perfbench/tracer.py wraps app.load_agent_template
    make_backend,
    parse_app_decision,
    with_retry,
)
from .model import (
    CaroboError,
    GlobalPlan,
    MemoryLog,
    Observation,
    Round,
    SchemaError,
    SensorData,
    Status,
    UserRequest,
    append_round,
    canonical_json,  # not called here, but perfbench/tracer.py wraps app.canonical_json
    codec,
    read_json,
    read_text,
    render_memory,  # not called here, but perfbench/tracer.py wraps app.render_memory
    value_class,
)

REPLAN_AFTER_ERRORS = 3  # failed rounds in a row before the host plans once more


class Verdict(Enum):
    SUCCESS = "Success"
    FAILURE = "Failure"


class FailureReason(Enum):
    STEP_LIMIT = "StepLimit"
    FALSE_COMPLETION = "FalseCompletion"
    BACKEND_ERROR = "BackendError"


@codec(strict=True)
@value_class
class EpisodeLimits:
    max_steps: int = 20
    max_rounds: Optional[int] = None  # defaults to max_steps + 5

    def __post_init__(self):
        if self.max_steps < 1:
            raise CaroboError("max_steps must be >= 1")
        if self.max_rounds is None:
            object.__setattr__(self, "max_rounds", self.max_steps + 5)
        if self.max_rounds < self.max_steps:
            raise CaroboError("max_rounds must be >= max_steps")


@codec(tag={"type": "episode"})
@value_class
class EpisodeHeader:
    """The first record of an episode trace: what `carobo replay` re-runs."""

    request_id: str
    request_text: str
    world: Optional[dict]  # None when the robot is served by another process
    limits: EpisodeLimits


@codec(tag={"type": "result"})
@value_class
class EpisodeFooter:
    """The last record of an episode trace: what `carobo replay` checks."""

    verdict: Verdict
    failure_reason: Optional[FailureReason]
    steps: int
    rounds: int
    final_world_digest: Optional[str]


# The records between a trace's header and footer: each agent decision, with the
# completion it was parsed from and its prompt's digest, and each failed round.
@codec(strict=True, tag={"type": "host"})
@value_class
class HostRecord:
    prompt_digest: str
    raw: str
    decision: HostDecision


@codec(strict=True, tag={"type": "round"})
@value_class
class RoundRecord:
    index: int
    prompt_digest: str
    raw: str
    round: Round


@codec(strict=True, tag={"type": "round_error"})
@value_class
class RoundError:
    round: int  # the round's index among all rounds, failed ones included
    error: str


# a trace record's "type" -> the class that decodes it
TRACE_RECORDS = {"episode": EpisodeHeader, "host": HostRecord, "round": RoundRecord,
                 "round_error": RoundError, "result": EpisodeFooter}


@value_class
class EpisodeResult:
    request_id: str
    verdict: Verdict
    failure_reason: Optional[FailureReason]
    steps: int
    rounds: int
    trace: MemoryLog
    final_world_digest: Optional[str]

    def __post_init__(self):
        if self.steps > self.rounds:
            raise CaroboError("steps cannot exceed rounds")

    def summary(self) -> str:
        tail = f" ({self.failure_reason.value})" if self.failure_reason else ""
        return (
            f"{self.request_id}: {self.verdict.value}{tail}"
            f" after {self.steps} steps / {self.rounds} rounds"
        )


def decide_with_raw(
    request: UserRequest,
    global_plan: GlobalPlan,
    obs: Observation,
    sensors: SensorData,
    memory: MemoryLog,
    backend,
    max_retries: int,
) -> Tuple[AppDecision, str, PromptBuilder]:
    """Decide with retries; returns the decision, the raw completion it was
    parsed from and the prompt's builder, which a trace record calls for the
    prompt's digest. The prompt is built at most once, on the first call of
    the builder: by a backend that reads it, or by that record."""
    prompt = build_once(lambda: build_prompt(request, obs, sensors, memory, global_plan))
    decision, raw = with_retry(lambda: complete_and_parse(backend, prompt, parse_app_decision), max_retries)
    return decision, raw, prompt


def write_trace(records: list, path) -> None:
    """Each record's `to_json()` on a line of its own; no wall-clock anywhere,
    so traces are comparable."""
    try:
        Path(path).write_text("".join(rec.to_json() + "\n" for rec in records), encoding="utf-8")
    except OSError as exc:
        raise CaroboError(f"cannot write trace {path}: {exc}") from exc


def read_trace(path) -> list:
    """The records of an episode trace, one JSON object per line, each decoded
    by the class in TRACE_RECORDS that its "type" names. A line that is not
    such a record raises SchemaError naming the file and the line."""
    records = []
    for number, line in enumerate(read_text(path, "trace").split("\n"), 1):
        if not line.strip():
            continue
        where = f"trace {path}, line {number}"
        doc = read_json(line, where)
        kind = doc.get("type") if type(doc) is dict else None
        cls = TRACE_RECORDS.get(kind) if type(kind) is str else None
        if cls is None:
            raise SchemaError(f"{where}: expected an object whose type is one of {list(TRACE_RECORDS)}")
        try:
            records.append(cls.from_dict(doc))
        except CaroboError as exc:  # a SchemaError, or a value's own check (an empty plan, say)
            raise SchemaError(f"{where}: {exc}") from None
    return records


def run_episode(
    request: UserRequest,
    world_handle,
    backend_cfg: BackendConfig,
    limits: Optional[EpisodeLimits] = None,
    *,
    trace_path=None,
    backend=None,
) -> EpisodeResult:
    """Run one full episode against a robot handle.

    The handle is anything with connect() -> (sensors, observation),
    execute(command) -> (exec_result, sensors, observation) and a `world`
    that is the robot's WorldState, or None when another process serves the
    robot; both the direct simulator and the message bridge satisfy it.

    Both agents call one backend, made from `backend_cfg` unless `backend`
    is given, and retry each call up to `backend_cfg.max_retries` times; a
    replay backend serves host and app completions from one stream, in call
    order. The host plans once up front. If the app agent's decisions fail
    REPLAN_AFTER_ERRORS times in a row the host is consulted one more time;
    a second streak aborts the episode as a backend failure.

    The trace's records are built only when `trace_path` is given. An agent
    call's prompt is built only if its backend reads it (http and scripted
    do, replay does not) or a trace record digests it, and then once for all
    its retries; each agent template is read once per process.
    """
    limits = limits or EpisodeLimits()
    if backend is None:
        backend = make_backend(backend_cfg)
    max_retries = backend_cfg.max_retries

    records = [] if trace_path is not None else None

    def record(build):
        if records is not None:
            records.append(build())

    def header():
        world = world_handle.world
        return EpisodeHeader(request.id, request.text, None if world is None else world.to_dict(), limits)

    record(header)

    def finish(verdict, reason, steps, rounds, memory):
        world = world_handle.world
        result = EpisodeResult(
            request_id=request.id,
            verdict=verdict,
            failure_reason=reason,
            steps=steps,
            rounds=rounds,
            trace=memory,
            final_world_digest=None if world is None else sim.world_digest(world),
        )
        if records is not None:
            records.append(EpisodeFooter(verdict, reason, steps, rounds, result.final_world_digest))
            write_trace(records, trace_path)
        return result

    def plan():
        """The host's decision on what the robot sees now, recorded; None if the host fails."""
        try:
            decision, raw, prompt = plan_with_raw(request, obs, sensors, memory, backend, max_retries)
        except CaroboError:
            return None
        record(lambda: HostRecord(prompt().digest(), raw, decision))
        return decision

    sensors, obs = world_handle.connect()
    memory = MemoryLog()
    steps = 0
    rounds = 0

    host_decision = plan()
    if host_decision is None:
        return finish(Verdict.FAILURE, FailureReason.BACKEND_ERROR, steps, rounds, memory)
    global_plan = host_decision.plan
    pending_thoughts: Optional[str] = host_decision.thoughts

    consecutive_errors = 0
    replanned = False
    while rounds < limits.max_rounds:
        rounds += 1
        try:
            decision, raw, prompt = decide_with_raw(request, global_plan, obs, sensors, memory, backend, max_retries)
        except CaroboError as exc:
            consecutive_errors += 1
            record(lambda: RoundError(rounds - 1, f"{type(exc).__name__}: {exc}"))
            if consecutive_errors >= REPLAN_AFTER_ERRORS:
                host_decision = None if replanned else plan()
                if host_decision is None:
                    return finish(Verdict.FAILURE, FailureReason.BACKEND_ERROR, steps, rounds, memory)
                global_plan = host_decision.plan
                replanned = True
                consecutive_errors = 0
            continue
        consecutive_errors = 0

        action = exec_result = None
        if decision.status is Status.CONTINUE:
            action = decision.command
            exec_result, sensors_next, obs_next = world_handle.execute(action)
        rnd = Round(
            index=len(memory),
            observation=obs,
            thoughts=pending_thoughts if len(memory) == 0 else None,
            comment=decision.comment,
            action=action,
            exec_result=exec_result,
            status=decision.status,
        )
        memory = append_round(memory, rnd)
        record(lambda: RoundRecord(rnd.index, prompt().digest(), raw, rnd))
        if action is None:
            return finish(Verdict.SUCCESS, None, steps, rounds, memory)
        steps += 1
        obs, sensors = obs_next, sensors_next
        if steps >= limits.max_steps:
            break

    return finish(Verdict.FAILURE, FailureReason.STEP_LIMIT, steps, rounds, memory)

