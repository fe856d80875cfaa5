"""Host agent: prompt construction and plan parsing."""
import json

import pytest

from carobo.host import build_host_prompt, plan_with_raw, render_sensors
from carobo.llm import BackendConfig, MalformedDecision, ScriptedConfig, TransportError, make_backend
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
    assert prompt.block("plan") is None
    assert [b.kind for b in prompt.user_blocks] == ["request", "observation", "sensors", "memory"]
    assert "look around" in prompt.block("request").text
    assert prompt.block("memory").text.endswith("(empty)")


def test_plan_via_scripted_policy():
    request, obs, sensors, memory = _inputs()
    request = UserRequest(text="Describe the features of the object in front")
    cfg = BackendConfig(kind=ScriptedConfig(policy_id="oracle"))
    decision, _raw, _prompt = plan_with_raw(request, obs, sensors, memory, make_backend(cfg), cfg.max_retries)
    assert decision.plan.steps
    assert decision.thoughts


class FlakyBackend:
    """Garbage for n calls, then a valid plan."""

    def __init__(self, garbage_count):
        self.remaining = garbage_count
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            return "not a decision"
        return json.dumps(
            {"observation": "o", "thoughts": "t", "plan": ["step"], "comment": "c"}
        )


def test_plan_retries_through_garbage():
    request, obs, sensors, memory = _inputs()
    backend = FlakyBackend(garbage_count=3)
    decision, _raw, _prompt = plan_with_raw(request, obs, sensors, memory, backend, max_retries=3)
    assert decision.plan.steps == ("step",)
    assert backend.calls == 4


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
