"""Deterministic scripted policies for the mock backend.

A policy is a pure function from an assembled prompt to a completion string.
The bundled ones:

- ``oracle``: completes every bundled benchmark request with the known-good
  command script the bundled suite file gives it, reading its own progress
  out of the memory block.
- ``finish_now``: declares the request complete on the very first round.
- ``spin``: turns left forever, never finishing (useful for limit handling).

Each policy gives a tuple of replies, every one written once per process,
to one picker, `_reply`: the host agent gets the first, and the app agent at
round k the (k + 1)-th, or the last once the replies run out. The oracle
writes all the replies to a request block on the first call that names it
and keeps them in a bounded `lru_cache`. ``finish_now`` and ``spin`` have two
replies each, written at import, so their app agent always gets the second.
"""
from __future__ import annotations

import re
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping

from .bench import OracleScript, default_suite_path, load_benchmark
from .llm import PolicyUnknown, Prompt
from .model import make_dumps

Policy = Callable[[Prompt], str]

_ROUND_MARK = re.compile(r"\[round (\d+)\]")


def _is_host(prompt: Prompt) -> bool:
    return "plan" not in prompt.blocks


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

    Built once per process from the bundled suite, which `carobo bench`
    decodes once more for its scenarios. The mapping is shared, so it is
    read-only. Scenario requests come first, then their aliases.
    """
    specs = [s for s in load_benchmark(default_suite_path()) if s.oracle is not None]
    table = {normalize_request(s.request_text): s.oracle for s in specs}
    for s in specs:
        for alias in s.oracle.aliases:
            table.setdefault(normalize_request(alias), s.oracle)
    return MappingProxyType(table)


@lru_cache(maxsize=256)
def _oracle_replies(request: str) -> tuple[str, ...]:
    """Every completion the oracle gives for one request block, written once:
    the host plan, one CONTINUE per scripted command, then FINISH.

    The script is the first table key contained in the normalized request.
    An unknown request raises PolicyUnknown, which the cache does not keep,
    so it raises again at every call.
    """
    haystack = normalize_request(request)
    for key, script in oracle_table().items():
        if key in haystack:
            break
    else:
        raise PolicyUnknown(f"oracle policy has no script for: {request!r}")
    steps = [_continue_doc(c, f"Step {i}: {c['name']}.") for i, c in enumerate(script.commands, 1)]
    return (_host_doc(script.plan, "Plan ready; handing over to the executor."), *steps,
            _finish_doc(script.comment))


def _reply(replies: tuple[str, ...], prompt: Prompt) -> str:
    """The host's reply, the first; at round k, the app agent's, the (k + 1)-th or the last."""
    if _is_host(prompt):
        return replies[0]
    marks = _ROUND_MARK.findall(prompt.blocks["memory"])
    k = int(marks[-1]) + 1 if marks else 0  # the rounds decided so far, from the memory block
    return replies[min(k + 1, len(replies) - 1)]


def oracle_policy(prompt: Prompt) -> str:
    return _reply(_oracle_replies(prompt.blocks["request"]), prompt)


_FINISH_NOW = (_host_doc(["Declare the request complete"], "Nothing left to do."),
               _finish_doc("Request complete."))
_SPIN = (_host_doc(["Keep turning left"], "Spinning indefinitely."),
         _continue_doc({"name": "car_left", "args": {"angle": 30.0}}, "Turning left again."))
finish_now_policy = partial(_reply, _FINISH_NOW)
spin_policy = partial(_reply, _SPIN)


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
