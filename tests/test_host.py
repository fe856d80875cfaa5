"""Host agent: prompt construction and plan parsing."""
import json

import pytest

from carobo import host
from carobo.host import build_host_prompt, plan_with_raw, render_sensors
from carobo.llm import BackendConfig, MalformedDecision, ScriptedConfig, TransportError, assemble_prompt, make_backend
from carobo.model import (
    MemoryLog,
    Observation,
    SensorData,
    UserRequest,
)


def _inputs():
    request = UserRequest(text="look around")
    obs = Observation.from_items(())
    sensors = SensorData(ultrasonic_clearance=2.5, ir_left=True, ir_right=False)
    return request, obs, sensors, MemoryLog()


def test_render_sensors_format():
    s = SensorData(ultrasonic_clearance=1.234, ir_left=True, ir_right=False)
    assert render_sensors(s) == "ultrasonic clearance: 1.23 m | IR left: yes | IR right: no"


def test_host_prompt_has_no_plan_block():
    request, obs, sensors, memory = _inputs()
    prompt = build_host_prompt(request, obs, sensors, memory)
    assert list(prompt.blocks) == ["request", "observation", "sensors", "memory"]
    assert "look around" in prompt.blocks["request"]
    assert prompt.blocks["memory"].endswith("(empty)")


def test_plan_via_scripted_policy():
    request, obs, sensors, memory = _inputs()
    request = UserRequest(text="Describe the features of the object in front")
    cfg = BackendConfig(kind=ScriptedConfig(policy_id="oracle"))
    decision, _raw, _prompt = plan_with_raw(request, obs, sensors, memory, make_backend(cfg), cfg.max_retries)
    assert decision.plan.steps
    assert decision.thoughts


class FlakyBackend:
    """Garbage for n calls, then a valid plan; it reads the prompt at every
    call, as a live model's backend does."""

    def __init__(self, garbage_count):
        self.remaining = garbage_count
        self.prompts = []

    @property
    def calls(self):
        return len(self.prompts)

    def complete(self, prompt):
        self.prompts.append(prompt())
        if self.remaining > 0:
            self.remaining -= 1
            return "not a decision"
        return json.dumps(
            {"observation": "o", "thoughts": "t", "plan": ["step"], "comment": "c"}
        )


def test_plan_retries_through_garbage(monkeypatch):
    """A backend that reads the prompt at each of k + 1 attempts gets one
    prompt, built once; the builder returned for the trace record gives it too."""
    builds = []
    monkeypatch.setattr(host, "assemble_prompt", lambda *args: builds.append(args) or assemble_prompt(*args))
    request, obs, sensors, memory = _inputs()
    backend = FlakyBackend(garbage_count=3)
    decision, _raw, prompt = plan_with_raw(request, obs, sensors, memory, backend, max_retries=3)
    assert decision.plan.steps == ("step",)
    assert backend.calls == 4
    assert all(p is prompt() for p in backend.prompts)
    assert len(builds) == 1


def test_plan_gives_up_after_budget():
    request, obs, sensors, memory = _inputs()
    backend = FlakyBackend(garbage_count=99)
    with pytest.raises(MalformedDecision):
        plan_with_raw(request, obs, sensors, memory, backend, max_retries=2)
    assert backend.calls == 3


def test_plan_propagates_transport_errors():
    request, obs, sensors, memory = _inputs()

    class Down:
        def complete(self, prompt):
            raise TransportError("endpoint down")

    with pytest.raises(TransportError):
        plan_with_raw(request, obs, sensors, memory, Down(), max_retries=1)
