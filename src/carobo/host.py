"""Host agent: turns a user request plus the first look at the world into a
global plan. It runs once at episode start (and once more if the executor gets
stuck), never in the inner loop."""
from __future__ import annotations

from typing import Optional, Tuple

from .llm import (
    AgentTemplate,
    BackendConfig,
    HostDecision,
    Prompt,
    assemble_prompt,
    load_agent_template,
    make_backend,
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


def plan(
    request: UserRequest,
    obs: Observation,
    sensors: SensorData,
    memory: MemoryLog,
    backend_cfg: BackendConfig,
    backend=None,
    template: Optional[AgentTemplate] = None,
) -> HostDecision:
    decision, _raw, _digest = plan_with_raw(
        request, obs, sensors, memory, backend_cfg, backend=backend, template=template
    )
    return decision


def plan_with_raw(
    request: UserRequest,
    obs: Observation,
    sensors: SensorData,
    memory: MemoryLog,
    backend_cfg: BackendConfig,
    backend=None,
    template: Optional[AgentTemplate] = None,
) -> Tuple[HostDecision, str, str]:
    """Like plan(), but also returns the raw completion and prompt digest for traces."""
    backend = backend or make_backend(backend_cfg)
    prompt = build_host_prompt(request, obs, sensors, memory, template=template)
    raw_holder = {}

    def attempt():
        raw = backend.complete(prompt)
        raw_holder["raw"] = raw
        return parse_host_decision(raw)

    decision = with_retry(attempt, backend_cfg.max_retries)
    return decision, raw_holder.get("raw", ""), prompt.digest()
