"""Deterministic scripted policies for the mock backend.

A policy is a pure function from an assembled prompt to a completion string.
The bundled ones:

- ``oracle``: completes every bundled benchmark request with the known-good
  command script the bundled suite file gives it, reading its own progress
  out of the memory block.
- ``finish_now``: declares the request complete on the very first round.
- ``spin``: turns left forever, never finishing (useful for limit handling).
"""
from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from .bench import OracleScript, default_suite_path, load_suite
from .llm import PolicyUnknown, Prompt
from .model import make_dumps

Policy = Callable[[Prompt], str]

_ROUND_MARK = re.compile(r"\[round (\d+)\]")


def _is_host(prompt: Prompt) -> bool:
    return "plan" not in prompt.blocks


def _rounds_so_far(prompt: Prompt) -> int:
    """Recover how many rounds have been decided from the memory block."""
    marks = _ROUND_MARK.findall(prompt.blocks["memory"])
    if not marks:
        return 0
    return int(marks[-1]) + 1


# the completion text: json.dumps(doc, ensure_ascii=False), by one encoder made here
_dumps = make_dumps(ensure_ascii=False)


def _host_doc(plan, comment: str) -> str:
    return _dumps(
        {
            "observation": "Scripted survey of the scene.",
            "thoughts": "Following the rehearsed route for this request.",
            "plan": list(plan),
            "comment": comment,
        }
    )


def _continue_doc(command: dict, comment: str) -> str:
    return _dumps(
        {
            "observation": "Scripted check of the scene.",
            "comment": comment,
            "command": command,
            "status": "CONTINUE",
        }
    )


def _finish_doc(comment: str) -> str:
    return _dumps(
        {
            "observation": "Scripted check of the scene.",
            "comment": comment,
            "status": "FINISH",
        }
    )


def normalize_request(text: str) -> str:
    return " ".join(text.lower().split()).rstrip(".!? ")


@lru_cache(maxsize=None)
def oracle_table() -> Mapping[str, OracleScript]:
    """normalized request -> the oracle script of the bundled scenario.

    Built once per process from the bundled suite as `load_suite` serves it,
    so `carobo bench` on that suite decodes it once for both its scenarios
    and this table. The mapping is shared, so it is read-only. Scenario
    requests come first, then their aliases.
    """
    specs = [s for s in load_suite(default_suite_path()) if s.oracle is not None]
    table = {normalize_request(s.request_text): s.oracle for s in specs}
    for s in specs:
        for alias in s.oracle.aliases:
            table.setdefault(normalize_request(alias), s.oracle)
    return MappingProxyType(table)


def _lookup_script(prompt: Prompt) -> OracleScript:
    request = prompt.blocks["request"]
    haystack = normalize_request(request)
    for key, script in oracle_table().items():
        if key in haystack:
            return script
    raise PolicyUnknown(f"oracle policy has no script for: {request!r}")


def oracle_policy(prompt: Prompt) -> str:
    script = _lookup_script(prompt)
    if _is_host(prompt):
        return _host_doc(script.plan, "Plan ready; handing over to the executor.")
    idx = _rounds_so_far(prompt)
    if idx < len(script.commands):
        command = script.commands[idx]
        return _continue_doc(command, f"Step {idx + 1}: {command['name']}.")
    return _finish_doc(script.comment)


def finish_now_policy(prompt: Prompt) -> str:
    if _is_host(prompt):
        return _host_doc(["Declare the request complete"], "Nothing left to do.")
    return _finish_doc("Request complete.")


def spin_policy(prompt: Prompt) -> str:
    if _is_host(prompt):
        return _host_doc(["Keep turning left"], "Spinning indefinitely.")
    return _continue_doc({"name": "car_left", "args": {"angle": 30.0}}, "Turning left again.")


POLICIES: dict[str, Policy] = {
    "oracle": oracle_policy,
    "finish_now": finish_now_policy,
    "spin": spin_policy,
}


def get_policy(policy_id: str) -> Policy:
    try:
        return POLICIES[policy_id]
    except KeyError:
        raise PolicyUnknown(f"unknown policy: {policy_id!r}") from None
