"""Language-model plumbing: prompt assembly, backends, decision parsing, retry.

Three interchangeable backends produce completions: an HTTP chat endpoint, a
deterministic scripted policy, and a replay cursor over a recorded trace.
`complete` takes the prompt as a zero-argument builder: the HTTP and scripted
backends call it, the replay backend never does, so replaying a recording
assembles no prompt unless a trace record digests one.
Completions are decoded strictly, by the model's codec; variance from a live
model is absorbed by bounded retries, never by loosening the schema.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import reprlib
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple, Union

from .model import (
    CaroboError,
    Command,
    GlobalPlan,
    InvalidCommand,
    InvariantViolation,
    SchemaError,
    Status,
    UnknownStatus,
    canonical_json,  # not called here, but perfbench/tracer.py wraps llm.canonical_json
    codec,
    read_json,
    read_text,
    value_class,
)


class MalformedDecision(CaroboError):
    """Completion does not contain the expected JSON decision object."""


class TransportError(CaroboError):
    """The completion request could not be served (network, HTTP, payload)."""


class ReplayExhausted(CaroboError):
    """The replay trace has no more completions."""


class PolicyUnknown(CaroboError):
    """No scripted policy is registered under the requested id."""


# ---------------------------------------------------------------------------
# Prompts

BLOCK_ORDER = ("request", "plan", "observation", "sensors", "memory")
REQUIRED_BLOCKS = ("request", "observation", "sensors", "memory")
_REQUIRED = frozenset(REQUIRED_BLOCKS)
_KINDS = frozenset(BLOCK_ORDER)


@value_class
class Prompt:
    """System text, few-shot pairs, and the user blocks by kind.

    `blocks` holds each required kind and may hold the plan; the user text
    and the digest read them in BLOCK_ORDER
    (request, plan?, observation, sensors, memory).
    """

    system: str
    few_shot: Tuple[Tuple[str, str], ...]
    blocks: Mapping[str, str]

    def __post_init__(self):
        if not _REQUIRED <= self.blocks.keys() <= _KINDS:
            raise InvariantViolation(
                f"prompt blocks must be {list(REQUIRED_BLOCKS)} and may add plan: got {sorted(self.blocks)}")

    def user_text(self) -> str:
        return "\n\n".join([self.blocks[k] for k in BLOCK_ORDER if k in self.blocks])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.system.encode("utf-8"))
        for a, b in self.few_shot:
            h.update(b"\x00" + a.encode("utf-8") + b"\x00" + b.encode("utf-8"))
        for kind in BLOCK_ORDER:
            if kind in self.blocks:
                h.update(b"\x00" + kind.encode("ascii") + b"\x1f" + self.blocks[kind].encode("utf-8"))
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Agent templates (plain text files, editable without touching code)

_TEMPLATE_DIR = Path(__file__).parent / "templates"


@value_class
class AgentTemplate:
    system: str
    examples: Tuple[Tuple[str, str], ...]
    block_formats: Mapping[str, str]  # kind -> format string with a single {kind} placeholder


def _check_block_format(kind: str, body: str) -> None:
    """Refuse a block format that fills any field but `{kind}`, or that
    `assemble_prompt`'s `format_map` could not fill with a string; a
    conversion or a format spec is allowed."""
    import string  # only a template parse needs it, once per template file

    try:
        others = [name for _, name, _, _ in string.Formatter().parse(body) if name is not None and name != kind]
        if not others:
            body.format_map({kind: ""})  # a field nested in a format spec, a bad spec or conversion
    except (ValueError, LookupError, AttributeError) as exc:
        raise CaroboError(f"template block {kind!r} cannot be filled: {type(exc).__name__}: {exc}") from None
    if others:
        raise CaroboError(f"template block {kind!r} may fill only {{{kind}}}, not the field {reprlib.repr(others[0])}")


def parse_template(text: str) -> AgentTemplate:
    """Split a template file into sections marked by '== name ==' lines.

    A line ends at "\n" only, so a U+2028 or a form feed inside a line stays
    in the prompt text; the file is read in text mode, so "\r\n" ends one too.
    A block's format may fill only its own `{kind}` field.
    """
    sections: list[tuple[str, list[str]]] = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped.startswith("==") and stripped.endswith("==") and len(stripped) > 4:
            sections.append((stripped.strip("= ").lower(), []))
        elif sections:
            sections[-1][1].append(line)
    system = ""
    examples = []
    pending_input = None
    block_formats = {}
    for name, lines in sections:
        body = "\n".join(lines).strip()
        if name == "system":
            system = body
        elif name == "example input":
            pending_input = body
        elif name == "example output":
            if pending_input is None:
                raise CaroboError("example output without a preceding example input")
            examples.append((pending_input, body))
            pending_input = None
        elif name.startswith("block "):
            kind = name.split(None, 1)[1]
            if kind not in BLOCK_ORDER:
                raise CaroboError(f"template declares unknown block kind {kind!r}")
            _check_block_format(kind, body)
            block_formats[kind] = body
    if not system:
        raise CaroboError("template has no system section")
    return AgentTemplate(system=system, examples=tuple(examples), block_formats=MappingProxyType(block_formats))


@functools.cache
def load_agent_template(role: str) -> AgentTemplate:
    """Load the bundled host_agent.tmpl / app_agent.tmpl.

    Each file is read and parsed once per process, so an edit to it takes
    effect in the next process. The result is shared, so it is read-only.
    """
    return parse_template((_TEMPLATE_DIR / f"{role}_agent.tmpl").read_text(encoding="utf-8"))


def assemble_prompt(template: AgentTemplate, pieces: dict) -> Prompt:
    """Fill the template's block formats with content, in canonical block order."""
    formats = template.block_formats
    blocks = {}
    for kind in BLOCK_ORDER:
        if kind not in pieces:
            continue
        fmt = formats.get(kind)
        if fmt is None:
            fmt = kind.capitalize() + ":\n{" + kind + "}"
        blocks[kind] = fmt.format_map({kind: pieces[kind]})
    return Prompt(system=template.system, few_shot=template.examples, blocks=blocks)


# what a backend's `complete` takes: a zero-argument function that builds the prompt
PromptBuilder = Callable[[], Prompt]


def build_once(build: PromptBuilder) -> PromptBuilder:
    """A builder that calls `build` on its own first call and returns that
    prompt on every call, so that the attempts of one agent call and its
    trace record share one build. A plain closure: `functools.cache` costs
    several times as much per agent call."""
    prompt: Optional[Prompt] = None

    def once() -> Prompt:
        nonlocal prompt
        if prompt is None:
            prompt = build()
        return prompt

    return once


# ---------------------------------------------------------------------------
# Backend configuration

@value_class
class HttpChatConfig:
    endpoint: str
    model_name: str
    timeout_s: float = 30.0


@value_class
class ScriptedConfig:
    policy_id: str


@value_class
class ReplayConfig:
    trace_path: str


@value_class
class BackendConfig:
    kind: Union[HttpChatConfig, ScriptedConfig, ReplayConfig]
    max_retries: int = 3

    def __post_init__(self):
        if self.max_retries < 0:
            raise CaroboError(f"max_retries must be >= 0, got {self.max_retries}")


# the http backend sends this variable's value, when set, as its bearer token
API_KEY_ENV = "CAROBO_API_KEY"


class HttpChatBackend:
    """POSTs an OpenAI-style chat payload and extracts the first choice.

    One `urllib.request.urlopen` call per completion, on a new connection. It
    takes proxies from the environment (`HTTP(S)_PROXY`, `ALL_PROXY`,
    `NO_PROXY`) and checks TLS against the system's trust store. The HTTP
    stack (urllib.request, http.client) is imported on the first call, so a
    process that never calls an HTTP endpoint never loads it.
    """

    def __init__(self, cfg: HttpChatConfig):
        self.cfg = cfg

    def _messages(self, prompt: Prompt) -> list:
        messages = [{"role": "system", "content": prompt.system}]
        for user, assistant in prompt.few_shot:
            messages.append({"role": "user", "content": user})
            messages.append({"role": "assistant", "content": assistant})
        messages.append({"role": "user", "content": prompt.user_text()})
        return messages

    def complete(self, prompt: PromptBuilder) -> str:
        import http.client
        import urllib.error
        import urllib.request

        url = self.cfg.endpoint
        if not url.lower().startswith(("http://", "https://")):  # urlopen would also read file: and ftp: URLs
            raise TransportError(f"chat endpoint unreachable: {url!r} is not an http or https URL")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.cfg.model_name,
            "messages": self._messages(prompt()),
            "temperature": 0.0,
        }
        try:
            request = urllib.request.Request(url, data=json.dumps(body).encode("utf-8"), headers=headers)
            with urllib.request.urlopen(request, timeout=self.cfg.timeout_s) as resp:
                status = resp.status
                payload = resp.read() if status == 200 else b""
        except urllib.error.HTTPError as exc:  # a status outside 2xx that no redirect resolved; still open
            exc.close()
            raise TransportError(f"chat endpoint returned HTTP {exc.code}") from None
        # OSError: refused, reset, timed out; HTTPException: a bad status line or a cut-short body;
        # ValueError: a URL that urlopen cannot use
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(f"chat endpoint unreachable: {exc}") from exc
        if status != 200:
            raise TransportError(f"chat endpoint returned HTTP {status}")
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"chat endpoint returned an unexpected payload: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(
                f"chat endpoint returned an unexpected payload: message content is {type(content).__name__}, not a string"
            )
        return content


class ScriptedBackend:
    """Applies a registered deterministic policy to the prompt.

    The policy is looked up on the first call and kept for the backend's
    life, one episode; an unknown id raises PolicyUnknown at every call.
    """

    def __init__(self, cfg: ScriptedConfig):
        self.policy_id = cfg.policy_id
        self._policy: Optional[Callable[[Prompt], str]] = None

    def complete(self, prompt: PromptBuilder) -> str:
        policy = self._policy
        if policy is None:
            from .policies import get_policy  # late import: policies build prompts too

            policy = self._policy = get_policy(self.policy_id)
        return policy(prompt())


class ReplayBackend:
    """Feeds back recorded completions, one per call, in call order.

    Accepts either a plain trace (one completion per line, JSON-string quoted
    or verbatim) or an episode trace whose records carry a ``raw`` field.
    Only typed records (objects with a ``type``) without a string ``raw`` are
    skipped; any other line is served verbatim.

    `complete` never calls its prompt builder: a replayed completion does not
    depend on the prompt, so no prompt is built for it. An error in building
    a prompt (a broken template, say) therefore surfaces only on the backends
    that read the prompt, or when a trace record digests it.
    """

    def __init__(self, cfg: ReplayConfig):
        self.trace_path = cfg.trace_path
        self.completions = []
        for line in read_text(cfg.trace_path, "replay trace", TransportError).split("\n"):
            if not line.strip():
                continue
            try:
                doc = read_json(line, "replay line")
            except SchemaError:  # not JSON, or nested too deeply to read: the line itself
                self.completions.append(line)
                continue
            if isinstance(doc, str):
                self.completions.append(doc)
            elif isinstance(doc, dict) and isinstance(doc.get("raw"), str):
                self.completions.append(doc["raw"])
            elif not (isinstance(doc, dict) and "type" in doc):
                # a bare decision object, or any other JSON value, is itself the completion
                self.completions.append(line)
        self.cursor = 0

    def complete(self, prompt: PromptBuilder) -> str:
        if self.cursor >= len(self.completions):
            raise ReplayExhausted(
                f"replay trace {self.trace_path!r} exhausted after {self.cursor} completions"
            )
        out = self.completions[self.cursor]
        self.cursor += 1
        return out


def make_backend(cfg: BackendConfig):
    if isinstance(cfg.kind, HttpChatConfig):
        return HttpChatBackend(cfg.kind)
    if isinstance(cfg.kind, ScriptedConfig):
        return ScriptedBackend(cfg.kind)
    if isinstance(cfg.kind, ReplayConfig):
        return ReplayBackend(cfg.kind)
    raise CaroboError(f"unknown backend kind: {cfg.kind!r}")


# ---------------------------------------------------------------------------
# Decision parsing

@codec
@value_class
class HostDecision:
    observation: str
    thoughts: str
    plan: GlobalPlan
    comment: str


@codec
@value_class
class AppDecision:
    observation: str
    comment: str
    status: Status  # forgiving case and whitespace, through Status._missing_
    command: Optional[Command] = None

    def __post_init__(self):
        if self.status is Status.CONTINUE and self.command is None:
            raise MalformedDecision("a continuing decision must carry a command")


_DECODER = json.JSONDecoder()
# where a decision can start: a brace and its first key; skipping other braces
# keeps a completion full of them from costing a failed parse at each one
_OBJECT_START = re.compile(r'\{[ \t\n\r]*"')
# a failed start can cost a parse down to the recursion limit, so a long
# completion of them is given up on after this many
MAX_OBJECT_STARTS = 32


def _extract_json_object(raw: str) -> dict:
    """Parse the first JSON object in the completion that parses; anything around it is prose."""
    error = None
    for tried, start in enumerate(_OBJECT_START.finditer(raw)):
        if tried == MAX_OBJECT_STARTS:
            raise MalformedDecision(f"no JSON object among the first {MAX_OBJECT_STARTS} candidates; {error}")
        try:
            return _DECODER.raw_decode(raw, start.start())[0]
        except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
            error = error or f"completion JSON does not parse: {exc}"
        except RecursionError:
            error = error or "completion JSON is nested too deeply"
    raise MalformedDecision(error or "completion contains no JSON object")


def _encodable(text: str, what: str) -> str:
    """`text`, if UTF-8 can encode it, as every trace and envelope must.

    A completion can hold a lone surrogate, which cannot be encoded; the
    codec checks each string a decision keeps, which an ASCII `\\ud800`
    escape can also decode to."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedDecision(f"{what} holds a lone surrogate at index {exc.start}, "
                                    "which UTF-8 cannot encode") from None
    return text


def _decode(cls, raw: str):
    """The `cls` decision in a completion; one that does not fit raises MalformedDecision."""
    doc = _extract_json_object(_encodable(raw, "completion"))
    try:
        return cls.from_dict(doc)  # a bad status or command raises its own retryable error
    except (SchemaError, InvariantViolation) as exc:  # a plan with no step, or a blank one
        raise MalformedDecision(str(exc)) from None


def parse_host_decision(raw: str) -> HostDecision:
    return _decode(HostDecision, raw)


def parse_app_decision(raw: str) -> AppDecision:
    return _decode(AppDecision, raw)


# errors worth retrying: the model said something bad or the wire hiccuped
RETRYABLE_ERRORS = (
    TransportError,
    MalformedDecision,
    UnknownStatus,
    InvalidCommand,  # covers UnknownCommand and ArgOutOfRange
)


def complete_and_parse(backend, prompt: PromptBuilder, parse: Callable[[str], object]) -> Tuple[object, str]:
    """One agent attempt: the decision `parse` reads from the backend's
    completion for the prompt that `prompt` builds, and that raw completion,
    which a trace records."""
    raw = backend.complete(prompt)
    return parse(raw), raw


def with_retry(attempt: Callable[[], object], max_retries: int):
    """Call `attempt` up to 1 + max_retries times; the last failure propagates.

    No failure is kept in a local: a caught exception references its
    traceback, whose frames hold that local. The cycle would hold the episode's
    frames, its robot and its world until the cyclic collector ran.
    """
    for _ in range(max_retries):
        try:
            return attempt()
        except RETRYABLE_ERRORS:
            pass
    return attempt()
