"""Scripted policies: oracle lookup, progress parsing, finish_now, spin."""
import json

import pytest

from carobo.bench import default_suite_path, load_benchmark
from carobo.llm import Block, PolicyUnknown, Prompt, parse_app_decision, parse_host_decision
from carobo.model import Command, Status
from carobo.policies import (
    POLICIES,
    finish_now_policy,
    get_policy,
    normalize_request,
    oracle_policy,
    oracle_table,
    spin_policy,
)


def prompt_for(request_text, plan=None, memory="(empty)"):
    blocks = [Block(kind="request", text=f"Request:\n{request_text}")]
    if plan is not None:
        blocks.append(Block(kind="plan", text=f"Plan:\n{plan}"))
    blocks.extend([
        Block(kind="observation", text="Observation:\nnothing notable in view"),
        Block(kind="sensors", text="Sensors:\nultrasonic clearance: 4.00 m | IR left: no | IR right: no"),
        Block(kind="memory", text=f"Memory:\n{memory}"),
    ])
    return Prompt(system="test", user_blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Registry

def test_get_policy_known_and_unknown():
    for name in ("oracle", "finish_now", "spin"):
        assert callable(get_policy(name))
    assert set(POLICIES) == {"oracle", "finish_now", "spin"}
    with pytest.raises(PolicyUnknown):
        get_policy("wander")


# ---------------------------------------------------------------------------
# Request normalization and table coverage

def test_normalize_request():
    assert normalize_request("  Go  FORWARD!  ") == "go forward"
    assert normalize_request("Find\tthe\nbox.") == "find the box"
    assert normalize_request("Stop?") == "stop"


def test_oracle_table_covers_every_scenario_and_case_study():
    table = oracle_table()
    specs = load_benchmark(default_suite_path())
    for spec in specs:
        assert table[normalize_request(spec.request_text)] == spec.oracle
    # the two case studies reuse scenario scripts under their own phrasings
    assert normalize_request("Find the box that says Bosch.") in table
    assert normalize_request("Move forward avoiding obstacles.") in table
    # scenario requests first, in suite order, then the one alias
    assert list(table) == [normalize_request(s.request_text) for s in specs] + ["find the box that says bosch"]
    for script in table.values():
        assert script.plan and isinstance(script.comment, str)
        assert all(isinstance(Command.from_dict(doc), Command) for doc in script.commands)


def test_oracle_table_is_built_once_and_read_only():
    table = oracle_table()
    assert oracle_table() is table
    with pytest.raises(TypeError):
        table["go nowhere"] = ((), (), "")


def test_no_table_key_shadows_another():
    # substring lookup stays unambiguous: no key sits inside another request
    keys = list(oracle_table())
    for key in keys:
        hits = [k for k in keys if k in key]
        assert hits == [key]


# ---------------------------------------------------------------------------
# Oracle policy

def scenario(sid):
    for s in load_benchmark(default_suite_path()):
        if s.id == sid:
            return s
    raise KeyError(sid)


def test_oracle_host_emits_plan():
    s = scenario("obj_1")
    doc = json.loads(oracle_policy(prompt_for(s.request_text)))
    decision = parse_host_decision(json.dumps(doc))
    assert list(decision.plan.steps) == list(s.oracle.plan)


def test_oracle_commands_keep_the_suite_s_number_spelling():
    s = scenario("obj_1")  # turns left 90 twice; the suite writes 90, not 90.0
    assert '"args": {"angle": 90}}' in oracle_policy(prompt_for(s.request_text, plan="steps"))


def test_oracle_app_walks_the_script_then_finishes():
    s = scenario("cmd_1")  # square path: (forward 0.6, left 90) x 4
    first = parse_app_decision(oracle_policy(prompt_for(s.request_text, plan="steps")))
    assert first.status is Status.CONTINUE
    assert first.command == Command("car_forward", 0.6)

    memory = "\n".join(f"[round {i}] comment: c | action: a | result: ok | status: CONTINUE" for i in range(3))
    fourth = parse_app_decision(oracle_policy(prompt_for(s.request_text, plan="steps", memory=memory)))
    assert fourth.command == Command("car_left", 90)

    memory = "\n".join(f"[round {i}] comment: c | action: a | result: ok | status: CONTINUE" for i in range(8))
    done = parse_app_decision(oracle_policy(prompt_for(s.request_text, plan="steps", memory=memory)))
    assert done.status is Status.FINISH
    assert done.comment == s.oracle.comment


def test_oracle_progress_reads_the_last_round_marker():
    s = scenario("cmd_1")
    memory = "[round 0] comment: c | action: a | result: ok | status: CONTINUE"
    second = parse_app_decision(oracle_policy(prompt_for(s.request_text, plan="steps", memory=memory)))
    assert second.command == Command("car_left", 90)


def test_oracle_unknown_request():
    with pytest.raises(PolicyUnknown):
        oracle_policy(prompt_for("Paint the fence."))


def test_oracle_case_study_aliases_map_to_scenario_scripts():
    bosch = parse_app_decision(oracle_policy(prompt_for("Find the box that says Bosch.", plan="p")))
    via_id = parse_app_decision(oracle_policy(prompt_for(scenario("obs_3").request_text, plan="p")))
    assert bosch.command == via_id.command


# ---------------------------------------------------------------------------
# finish_now and spin

def test_finish_now_policy():
    host = parse_host_decision(finish_now_policy(prompt_for("Anything at all.")))
    assert host.plan.steps
    app = parse_app_decision(finish_now_policy(prompt_for("Anything at all.", plan="p")))
    assert app.status is Status.FINISH and app.command is None


def test_spin_policy_never_finishes():
    for rounds in (0, 5, 50):
        memory = "\n".join(
            f"[round {i}] comment: c | action: a | result: ok | status: CONTINUE" for i in range(rounds)
        ) or "(empty)"
        d = parse_app_decision(spin_policy(prompt_for("Whatever.", plan="p", memory=memory)))
        assert d.status is Status.CONTINUE
        assert d.command.name == "car_left" and d.command.value == 30.0
