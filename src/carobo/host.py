"""Host agent: turns a user request plus the first look at the world into a
global plan. It runs once at episode start (and once more if the executor gets
stuck), never in the inner loop."""
from __future__ import annotations

from typing import Optional, Tuple

from .llm import (
    AgentTemplate,
    HostDecision,
    Prompt,
    PromptBuilder,
    assemble_prompt,
    build_once,
    complete_and_parse,
    load_agent_template,
    parse_host_decision,
    with_retry,
)
from .model import MemoryLog, Observation, SensorData, UserRequest, render_memory


def render_sensors(sensors: SensorData) -> str:
    flag = lambda b: "yes" if b else "no"
    return (
        f"ultrasonic clearance: {sensors.ultrasonic_clearance:.2f} m"
        f" | IR left: {flag(sensors.ir_left)} | IR right: {flag(sensors.ir_right)}"
    )


def build_host_prompt(
    request: UserRequest,
    obs: Observation,
    sensors: SensorData,
    memory: MemoryLog,
    template: Optional[AgentTemplate] = None,
) -> Prompt:
    """Blocks: request, observation, sensors, memory (full history; no plan yet)."""
    template = template or load_agent_template("host")
    memory_text = render_memory(memory, len(memory)) or "(empty)"
    return assemble_prompt(
        template,
        {
            "request": request.text,
            "observation": obs.free_text,
            "sensors": render_sensors(sensors),
            "memory": memory_text,
        },
    )


def plan_with_raw(
    request: UserRequest,
    obs: Observation,
    sensors: SensorData,
    memory: MemoryLog,
    backend,
    max_retries: int,
    template: Optional[AgentTemplate] = None,
) -> Tuple[HostDecision, str, PromptBuilder]:
    """Plan with retries; returns the decision, the raw completion it was
    parsed from and the prompt's builder, which a trace record calls for the
    prompt's digest. The prompt is built at most once, on the first call of
    the builder: by a backend that reads it, or by that record."""
    prompt = build_once(lambda: build_host_prompt(request, obs, sensors, memory, template=template))
    decision, raw = with_retry(lambda: complete_and_parse(backend, prompt, parse_host_decision), max_retries)
    return decision, raw, prompt
