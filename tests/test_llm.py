"""Prompt assembly, decision parsing, retry behavior, backends."""
import itertools
import json
import socket
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carobo import llm
from carobo.llm import (
    BLOCK_ORDER,
    REQUIRED_BLOCKS,
    AppDecision,
    BackendConfig,
    MAX_OBJECT_STARTS,
    HttpChatConfig,
    MalformedDecision,
    PolicyUnknown,
    Prompt,
    ReplayBackend,
    ReplayConfig,
    ReplayExhausted,
    ScriptedConfig,
    TransportError,
    assemble_prompt,
    load_agent_template,
    make_backend,
    parse_app_decision,
    parse_host_decision,
    parse_template,
    with_retry,
)
from carobo.app import EpisodeLimits, run_episode
from carobo.model import CaroboError, Command, InvariantViolation, Status, UnknownStatus, UserRequest
from carobo.sim import SimRobot, load_world


def blocks(**texts):
    fill = {"request": "r", "observation": "o", "sensors": "s", "memory": "m"}
    fill.update(texts)
    return fill


# ---------------------------------------------------------------------------
# Prompt invariants

def test_prompt_requires_exactly_one_request_block():
    with pytest.raises(InvariantViolation):
        Prompt(system="s", few_shot=(), blocks={"observation": "o"})


def test_prompt_requires_observation_sensors_memory():
    missing = {k: v for k, v in blocks().items() if k != "sensors"}
    with pytest.raises(InvariantViolation):
        Prompt(system="s", few_shot=(), blocks=missing)


def test_prompt_plan_block_is_optional_but_ordered():
    with_plan = {"memory": "m", "sensors": "s", "observation": "o", "plan": "p", "request": "r"}
    p = Prompt(system="sys", few_shot=(), blocks=with_plan)
    assert p.blocks["plan"] == "p"
    assert p.user_text() == "r\n\np\n\no\n\ns\n\nm"


def test_prompt_accepts_exactly_the_required_kinds_with_or_without_the_plan():
    """Every set of kinds from BLOCK_ORDER and one unknown kind: 64 sets, two accepted."""
    kinds = BLOCK_ORDER + ("unknown",)
    accepted = []
    for n in range(len(kinds) + 1):
        for chosen in itertools.combinations(kinds, n):
            try:
                Prompt(system="s", few_shot=(), blocks={k: k for k in chosen})
            except InvariantViolation:
                continue
            accepted.append(set(chosen))
    assert accepted == [set(REQUIRED_BLOCKS), set(BLOCK_ORDER)]


def test_prompt_digest_tracks_content():
    a = Prompt(system="s", few_shot=(), blocks=blocks())
    b = Prompt(system="s", few_shot=(), blocks=blocks(memory="different"))
    assert a.digest() != b.digest()
    assert a.digest() == Prompt(system="s", few_shot=(), blocks=blocks()).digest()


def test_prompt_digest_is_pinned():
    """The digest's bytes: every trace record's prompt_digest depends on them."""
    p = Prompt(system="sys", few_shot=(("q", "a"),),
               blocks={"request": "r", "plan": "p", "observation": "o", "sensors": "s", "memory": "m"})
    assert p.digest() == "a2ef2f3042f4c6cc965636faa0253cecc06754b39d74b203a19fbebafa856e6d"


@given(order=st.permutations(BLOCK_ORDER), with_plan=st.booleans(),
       texts=st.lists(st.text(max_size=8), min_size=len(BLOCK_ORDER), max_size=len(BLOCK_ORDER)))
def test_prompt_reads_its_blocks_in_block_order_whatever_the_insertion_order(order, with_plan, texts):
    kinds = [k for k in order if with_plan or k != "plan"]
    text = dict(zip(BLOCK_ORDER, texts))
    inserted = Prompt(system="s", few_shot=(), blocks={k: text[k] for k in kinds})
    ordered = Prompt(system="s", few_shot=(), blocks={k: text[k] for k in BLOCK_ORDER if k in kinds})
    assert inserted.digest() == ordered.digest()
    assert inserted.user_text() == ordered.user_text() == "\n\n".join(text[k] for k in BLOCK_ORDER if k in kinds)


# ---------------------------------------------------------------------------
# Templates

def test_bundled_templates_parse():
    host = load_agent_template("host")
    app = load_agent_template("app")
    assert host.system and app.system
    assert len(host.examples) >= 1 and len(app.examples) >= 1
    assert "plan" in app.block_formats and "plan" not in host.block_formats


def test_templates_are_parsed_once_and_reloaded_when_edited(tmp_path, monkeypatch):
    """A template is read once per process, so an edit takes effect in the
    next process, begun here by clearing the cache. The parsed template is
    shared, so it is read-only."""
    assert load_agent_template("app") is load_agent_template("app")
    monkeypatch.setattr(llm, "_TEMPLATE_DIR", tmp_path)
    path = tmp_path / "app_agent.tmpl"
    path.write_text("== system ==\nfirst\n== block request ==\nAsk:\n{request}\n", encoding="utf-8")
    load_agent_template.cache_clear()
    try:
        first = load_agent_template("app")
        assert first.system == "first"
        path.write_text("== system ==\nsecond\n", encoding="utf-8")
        assert load_agent_template("app") is first
        with pytest.raises(TypeError):
            first.block_formats["request"] = "changed for every caller"
        assert first.block_formats["request"] == "Ask:\n{request}"
        load_agent_template.cache_clear()
        second = load_agent_template("app")
        assert second.system == "second" and "request" not in second.block_formats
    finally:
        load_agent_template.cache_clear()  # so that later loads read the bundled templates again


def test_assemble_prompt_fills_block_formats():
    app = load_agent_template("app")
    prompt = assemble_prompt(
        app,
        {"request": "do it", "plan": "1. go", "observation": "box ahead",
         "sensors": "clear", "memory": "(empty)"},
    )
    assert prompt.blocks["request"].endswith("do it")
    assert "1. go" in prompt.blocks["plan"]
    assert prompt.few_shot == app.examples


def test_assemble_prompt_writes_a_kind_the_template_lacks_under_its_name():
    bare = parse_template("== system ==\nsys\n== block memory ==\nSo far:\n{memory}\n")
    prompt = assemble_prompt(bare, {"request": "do it", "observation": "{box}", "sensors": "clear",
                                    "memory": "(empty)"})
    assert list(prompt.blocks.values()) == [
        "Request:\ndo it", "Observation:\n{box}", "Sensors:\nclear", "So far:\n(empty)"]


def test_parse_template_rejects_missing_system():
    with pytest.raises(Exception) as err:
        parse_template("== example input ==\nhello\n== example output ==\nworld\n")
    assert "system" in str(err.value)


def test_parse_template_rejects_orphan_output():
    text = "== system ==\nsys\n== example output ==\nno input\n"
    with pytest.raises(Exception):
        parse_template(text)


def test_parse_template_rejects_an_unknown_block_kind():
    with pytest.raises(CaroboError, match="unknown block kind 'weather'"):
        parse_template("== system ==\nsys\n== block weather ==\nsunny\n")


@pytest.mark.parametrize("body, message", [
    ("Ask: {plan}", "template block 'request' may fill only {request}, not the field 'plan'"),
    ("Ask: {}", "template block 'request' may fill only {request}, not the field ''"),
    ("Ask: {request", "template block 'request' cannot be filled: ValueError: expected '}' before end of string"),
    ("Ask: {request:{plan}}", "template block 'request' cannot be filled: KeyError: 'plan'"),
    ("Ask: {request:d}",
     "template block 'request' cannot be filled: ValueError: Unknown format code 'd' for object of type 'str'"),
])
def test_parse_template_refuses_a_block_format_it_cannot_fill(body, message):
    """assemble_prompt would raise KeyError or ValueError at the first prompt
    built from each of these, and `carobo run` would end in a traceback."""
    with pytest.raises(CaroboError) as err:
        parse_template(f"== system ==\nsys\n== block request ==\n{body}\n")
    assert str(err.value) == message


def test_parse_template_keeps_a_conversion_a_format_spec_and_escaped_braces():
    tpl = parse_template("== system ==\nsys\n== block request ==\n{{Ask}}: {request!r:>6}\n")
    prompt = assemble_prompt(tpl, {"request": "go", "observation": "o", "sensors": "s", "memory": "m"})
    assert prompt.blocks["request"] == "{Ask}:   'go'"


def test_parse_template_sections():
    text = (
        "== system ==\nsys text\n"
        "== example input ==\nin\n"
        "== example output ==\nout\n"
        "== block request ==\nUser request:\n{request}\n"
    )
    tpl = parse_template(text)
    assert tpl.system == "sys text"
    assert tpl.examples == (("in", "out"),)
    assert tpl.block_formats["request"] == "User request:\n{request}"


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_parse_template_ends_a_line_at_newline_only(char):
    """str.splitlines() would end a line at each of these characters too, and
    every prompt built from the template would then hold a "\n" in its place."""
    assert parse_template(f"== system ==\nkeep{char}this\n").system == f"keep{char}this"
    tpl = parse_template(f"== system ==\nsys\n== block memory ==\nSo{char}far:\n{{memory}}\n")
    assert tpl.block_formats["memory"] == f"So{char}far:\n{{memory}}"


# ---------------------------------------------------------------------------
# Decision parsing

def test_parse_host_decision_happy_path():
    raw = json.dumps({
        "observation": "a box",
        "thoughts": "approach it",
        "plan": ["go forward", "stop"],
        "comment": "ok",
    })
    d = parse_host_decision(raw)
    assert d.plan.steps == ("go forward", "stop")
    assert json.loads(d.to_json())["plan"] == ["go forward", "stop"]


def test_parse_host_decision_wants_a_list_plan():
    raw = json.dumps({"observation": "o", "thoughts": "t", "plan": "just walk", "comment": "c"})
    with pytest.raises(MalformedDecision):
        parse_host_decision(raw)
    raw = json.dumps({"observation": "o", "thoughts": "t", "plan": [], "comment": "c"})
    with pytest.raises(MalformedDecision):
        parse_host_decision(raw)


def test_parse_app_decision_continue_and_finish():
    cont = json.dumps({
        "observation": "o", "comment": "c", "status": "CONTINUE",
        "command": {"name": "car_forward", "args": {"distance": 0.5}},
    })
    d = parse_app_decision(cont)
    assert d.status is Status.CONTINUE and d.command == Command("car_forward", 0.5)

    fin = json.dumps({"observation": "o", "comment": "done", "status": "finish"})
    d = parse_app_decision(fin)
    assert d.status is Status.FINISH and d.command is None


def test_parse_app_decision_extracts_json_from_prose():
    raw = 'Sure! Here is my decision:\n{"observation": "o", "comment": "done", "status": "FINISH"}\nHope that helps.'
    assert parse_app_decision(raw).status is Status.FINISH


@pytest.mark.parametrize("raw", [
    '{"observation": "o", "comment": "done", "status": "FINISH"}\nThe plan {step 2} is done.}',
    'Weighing {left, right} first.\n{"observation": "o", "comment": "done", "status": "FINISH"}',
    '{"observation": "o", "comment": "done", "status": "FINISH"} {"extra": "object"}',
])
def test_parse_app_decision_ignores_braces_in_prose(raw):
    assert parse_app_decision(raw).status is Status.FINISH


def test_parse_app_decision_rejects_deep_nesting():
    with pytest.raises(MalformedDecision):
        parse_app_decision('{"a": ' * 5000 + "1" + "}" * 5000)


def test_parse_gives_up_on_a_long_run_of_failed_starts(time_limit):
    raw = '{"a":' * 20_000  # 100 KB; each start nests down to the recursion limit
    with time_limit(0.5), pytest.raises(MalformedDecision, match="first 32 candidates"):
        parse_app_decision(raw)


def test_parse_tries_up_to_max_object_starts():
    decision = '{"observation": "o", "comment": "done", "status": "FINISH"}'
    failed = '{"unclosed" '
    assert parse_app_decision(failed * (MAX_OBJECT_STARTS - 1) + decision).status is Status.FINISH
    with pytest.raises(MalformedDecision):
        parse_app_decision(failed * MAX_OBJECT_STARTS + decision)


def test_continue_without_command_always_rejected():
    raw = json.dumps({"observation": "o", "comment": "c", "status": "CONTINUE"})
    with pytest.raises(MalformedDecision):
        parse_app_decision(raw)
    with pytest.raises(MalformedDecision):
        AppDecision(observation="o", comment="c", status=Status.CONTINUE, command=None)


def test_parse_app_decision_bad_status_and_command():
    with pytest.raises(UnknownStatus):
        parse_app_decision(json.dumps({"observation": "o", "comment": "c", "status": "HALT"}))
    raw = json.dumps({
        "observation": "o", "comment": "c", "status": "CONTINUE",
        "command": {"name": "car_forward", "args": {"distance": 99}},
    })
    from carobo.model import ArgOutOfRange
    with pytest.raises(ArgOutOfRange):
        parse_app_decision(raw)


def test_parse_app_decision_rejects_non_json():
    with pytest.raises(MalformedDecision):
        parse_app_decision("no json here at all")
    with pytest.raises(MalformedDecision):
        parse_app_decision('{"unclosed": ')


APP_DOC = {"observation": "o", "comment": "c", "status": "FINISH"}
HOST_DOC = {"observation": "o", "thoughts": "t", "plan": ["look", "go"], "comment": "c"}


def _with_lone_surrogate(doc, key):
    """The decision as ASCII JSON in which the string at `key` (a plan step:
    ("plan", i)) decodes to text holding a lone surrogate."""
    doc = json.loads(json.dumps(doc))
    owner, key = (doc[key[0]], key[1]) if isinstance(key, tuple) else (doc, key)
    owner[key] += "\ud800"
    return json.dumps(doc)  # ensure_ascii: the surrogate travels as an escape


@pytest.mark.parametrize("parse, doc, key", [
    pytest.param(parse_app_decision, APP_DOC, "observation", id="app-observation"),
    pytest.param(parse_app_decision, APP_DOC, "comment", id="app-comment"),
    pytest.param(parse_host_decision, HOST_DOC, "observation", id="host-observation"),
    pytest.param(parse_host_decision, HOST_DOC, "thoughts", id="host-thoughts"),
    pytest.param(parse_host_decision, HOST_DOC, "comment", id="host-comment"),
    pytest.param(parse_host_decision, HOST_DOC, ("plan", 1), id="host-plan"),
])
def test_a_kept_string_that_utf8_cannot_encode_is_malformed(parse, doc, key):
    raw = _with_lone_surrogate(doc, key)
    assert raw.isascii()
    wire_key = key[0] if isinstance(key, tuple) else key
    with pytest.raises(MalformedDecision, match=rf"\.{wire_key}: a string UTF-8 cannot encode \(lone surrogate"):
        parse(raw)


@pytest.mark.parametrize("parse, doc", [(parse_app_decision, APP_DOC), (parse_host_decision, HOST_DOC)],
                         ids=["app", "host"])
def test_a_completion_that_utf8_cannot_encode_is_malformed(parse, doc):
    # the decision itself is fine, but the raw text, which a trace records, is not
    raw = json.dumps(doc) + " trailing prose \ud83d"
    with pytest.raises(MalformedDecision, match="completion holds a lone surrogate at index"):
        parse(raw)
    assert parse(json.dumps(doc) + " trailing prose \U0001f600")  # a whole pair is fine


_commands = st.one_of(
    st.builds(Command, st.just("car_forward"), st.floats(0.01, 10.0)),
    st.builds(Command, st.just("car_back"), st.floats(0.01, 10.0)),
    st.builds(Command, st.just("car_left"), st.floats(0.01, 360.0)),
    st.builds(Command, st.just("car_right"), st.floats(0.01, 360.0)),
    st.builds(Command, st.just("camera_move"), st.floats(-30.0, 60.0)),
    st.builds(Command, st.just("buzzer"), st.floats(0.01, 10.0)),
)

_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
)


@given(obs=_texts, comment=_texts, command=_commands, finish=st.booleans())
def test_app_decision_roundtrip_property(obs, comment, command, finish):
    if finish:
        d = AppDecision(observation=obs, comment=comment, status=Status.FINISH, command=None)
    else:
        d = AppDecision(observation=obs, comment=comment, status=Status.CONTINUE, command=command)
    again = parse_app_decision(d.to_json())
    assert again == d


@given(obs=_texts, thoughts=_texts, comment=_texts,
       plan=st.lists(st.text(min_size=1, max_size=20).filter(str.strip), min_size=1, max_size=5))
def test_host_decision_roundtrip_property(obs, thoughts, comment, plan):
    raw = json.dumps({"observation": obs, "thoughts": thoughts, "plan": plan, "comment": comment})
    d = parse_host_decision(raw)
    assert parse_host_decision(d.to_json()) == d


# ---------------------------------------------------------------------------
# Retry

class CountingBackend:
    def __init__(self, fail_with, succeed_after=None):
        self.calls = 0
        self.fail_with = fail_with
        self.succeed_after = succeed_after

    def attempt(self):
        self.calls += 1
        if self.succeed_after is not None and self.calls > self.succeed_after:
            return "ok"
        raise self.fail_with


def test_with_retry_total_attempts_is_one_plus_retries():
    backend = CountingBackend(TransportError("down"))
    with pytest.raises(TransportError):
        with_retry(backend.attempt, 3)
    assert backend.calls == 4


def test_with_retry_stops_on_first_success():
    backend = CountingBackend(MalformedDecision("junk"), succeed_after=2)
    assert with_retry(backend.attempt, 5) == "ok"
    assert backend.calls == 3


def test_with_retry_zero_retries_means_single_attempt():
    backend = CountingBackend(UnknownStatus("?"))
    with pytest.raises(UnknownStatus):
        with_retry(backend.attempt, 0)
    assert backend.calls == 1


@pytest.mark.parametrize("max_retries", [0, 1, 3])
def test_with_retry_raises_the_last_attempts_own_failure(max_retries):
    raised = []

    def attempt():
        raised.append(MalformedDecision(f"attempt {len(raised)}"))
        raise raised[-1]

    with pytest.raises(MalformedDecision) as caught:
        with_retry(attempt, max_retries)
    assert len(raised) == 1 + max_retries
    assert caught.value is raised[-1]


def test_with_retry_does_not_swallow_other_errors():
    def boom():
        raise ValueError("not retryable")

    with pytest.raises(ValueError):
        with_retry(boom, 3)


# ---------------------------------------------------------------------------
# Backends

def test_make_backend_dispatch():
    assert make_backend(BackendConfig(kind=ScriptedConfig(policy_id="oracle"))).policy_id == "oracle"
    http = make_backend(BackendConfig(kind=HttpChatConfig(endpoint="http://x", model_name="m")))
    assert http.cfg.model_name == "m"
    with pytest.raises(CaroboError, match="unknown backend kind"):
        make_backend(BackendConfig(kind="mock"))


def never_built():
    raise AssertionError("the replay backend built its prompt")


def test_replay_backend_line_formats(tmp_path):
    trace = tmp_path / "t.jsonl"
    decision = {"observation": "o", "comment": "c", "status": "FINISH"}
    lines = [
        json.dumps(json.dumps(decision)),          # JSON-string quoted completion
        json.dumps(decision),                      # bare decision object
        "verbatim not-json completion",            # raw line
        "one\u2028line\u2029only\x85newline ends",   # U+2028, U+2029 and U+0085 end no JSON Lines line
        "42", "[1, 2]", "null", "true",            # other JSON values: verbatim
        json.dumps({"type": "round", "raw": json.dumps(decision), "round": {}}),  # episode record
        json.dumps({"type": "result", "verdict": "Success"}),  # no raw: skipped
    ]
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    backend = ReplayBackend(ReplayConfig(trace_path=str(trace)))
    assert backend.complete(never_built) == json.dumps(decision)
    assert backend.complete(never_built) == json.dumps(decision)
    assert backend.complete(never_built) == "verbatim not-json completion"
    assert backend.complete(never_built) == "one\u2028line\u2029only\x85newline ends"
    assert [backend.complete(never_built) for _ in range(4)] == ["42", "[1, 2]", "null", "true"]
    assert backend.complete(never_built) == json.dumps(decision)
    with pytest.raises(ReplayExhausted):
        backend.complete(never_built)


def test_replay_backend_missing_file():
    with pytest.raises(TransportError):
        ReplayBackend(ReplayConfig(trace_path="/nonexistent/nope.jsonl"))


def test_replay_backend_stream_not_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\xff\xfe bad\n")
    with pytest.raises(TransportError, match="cannot read replay trace .*utf-8"):
        ReplayBackend(ReplayConfig(trace_path=str(path)))


def test_scripted_backend_unknown_policy():
    backend = make_backend(BackendConfig(kind=ScriptedConfig(policy_id="no_such")))
    prompt = Prompt(system="s", few_shot=(), blocks=blocks())
    for _ in range(2):  # at every call, not only the first
        with pytest.raises(PolicyUnknown):
            backend.complete(lambda: prompt)


def test_scripted_backend_keeps_the_policy_it_found_first(monkeypatch):
    """A backend looks its policy up once; a new backend sees the table as it is then."""
    from carobo import policies

    monkeypatch.setitem(policies.POLICIES, "oracle", lambda prompt: "first")
    prompt = Prompt(system="s", few_shot=(), blocks=blocks())
    backend = make_backend(BackendConfig(kind=ScriptedConfig(policy_id="oracle")))
    assert backend.complete(lambda: prompt) == "first"
    monkeypatch.setitem(policies.POLICIES, "oracle", lambda prompt: "second")
    assert backend.complete(lambda: prompt) == "first"
    assert make_backend(BackendConfig(kind=ScriptedConfig(policy_id="oracle"))).complete(lambda: prompt) == "second"


# ---------------------------------------------------------------------------
# The http backend against a chat-completions endpoint on loopback

def http_backend(url):
    return make_backend(BackendConfig(kind=HttpChatConfig(endpoint=url, model_name="m", timeout_s=5.0)))


def app_prompt():
    return assemble_prompt(
        load_agent_template("app"),
        {"request": "do it", "observation": "box ahead", "sensors": "clear", "memory": "(empty)"},
    )


def test_http_backend_sends_text_messages_only(endpoint, monkeypatch):
    monkeypatch.setenv("CAROBO_API_KEY", "k1")
    endpoint.reply(200, {"choices": [{"message": {"role": "assistant", "content": "the completion"}}]})
    prompt = app_prompt()
    assert prompt.few_shot
    assert http_backend(endpoint.url).complete(lambda: prompt) == "the completion"
    [(headers, body)] = endpoint.requests
    assert headers["Authorization"] == "Bearer k1"
    assert (body["model"], body["temperature"]) == ("m", 0.0)
    expected = [{"role": "system", "content": prompt.system}]
    for user, assistant in prompt.few_shot:
        expected += [{"role": "user", "content": user}, {"role": "assistant", "content": assistant}]
    expected.append({"role": "user", "content": prompt.user_text()})
    assert body["messages"] == expected


@pytest.mark.parametrize("status, doc, message", [
    (500, {"error": "overloaded"}, "HTTP 500"),
    (200, {"choices": []}, "unexpected payload"),
    (200, {"choices": [{"text": "legacy shape"}]}, "unexpected payload"),
    (200, b"<html>not json</html>", "unexpected payload"),
    (200, {"choices": [{"message": {"content": None}}]}, "unexpected payload"),
    (200, {"choices": [{"message": {"content": 42}}]}, "unexpected payload"),
    pytest.param(200, b"[" * 100_000, "unexpected payload", id="200-100000 nested ["),  # too deep for json.loads
])
def test_http_backend_failures_are_transport_errors(endpoint, status, doc, message):
    endpoint.reply(status, doc)
    with pytest.raises(TransportError, match=message):
        http_backend(endpoint.url).complete(app_prompt)
    assert len(endpoint.requests) == 1


def test_http_backend_unreachable_port(no_proxy):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    with pytest.raises(TransportError, match="unreachable"):
        http_backend(f"http://127.0.0.1:{port}/v1/chat/completions").complete(app_prompt)


class SilentEndpoint:
    """Accepts connections and never answers; keeps every accepted socket."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.url = "http://127.0.0.1:%d/v1/chat/completions" % self._listener.getsockname()[1]
        self.accepted = []
        self._thread = threading.Thread(target=self._accept)
        self._thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.accepted.append(conn)

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the pending accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        for conn in self.accepted:
            conn.close()


@pytest.fixture
def silent_endpoint(no_proxy):
    silent = SilentEndpoint()
    try:
        yield silent
    finally:
        silent.close()


def silent_cfg(url, max_retries=3):
    return BackendConfig(kind=HttpChatConfig(endpoint=url, model_name="m", timeout_s=0.2), max_retries=max_retries)


def test_http_backend_times_out_on_a_silent_endpoint(silent_endpoint, time_limit):
    start = time.monotonic()
    with time_limit(5.0), pytest.raises(TransportError, match="unreachable"):
        make_backend(silent_cfg(silent_endpoint.url)).complete(app_prompt)
    assert time.monotonic() - start < 2.0
    assert len(silent_endpoint.accepted) == 1


def test_timed_out_round_makes_one_request_per_attempt(silent_endpoint, time_limit):
    cfg = silent_cfg(silent_endpoint.url, max_retries=2)

    class PlanThenEndpoint:
        """Answers the host itself; sends the app agent's calls to the endpoint."""

        endpoint = make_backend(cfg)

        def complete(self, prompt):
            if "plan" in prompt().blocks:
                return self.endpoint.complete(prompt)
            return json.dumps({"observation": "o", "thoughts": "t", "plan": ["look"], "comment": "c"})

    world = load_world({"robot": {"x": 0.0, "y": 0.0, "heading": 0.0, "camera_pitch": 0.0}})
    with time_limit(10.0):
        result = run_episode(UserRequest(text="Look around."), SimRobot(world), cfg,
                             limits=EpisodeLimits(max_steps=1, max_rounds=1), backend=PlanThenEndpoint())
    assert (result.rounds, result.steps) == (1, 0)
    assert len(silent_endpoint.accepted) == 3


def test_http_backend_posts_json_and_no_key_it_lacks(endpoint, monkeypatch):
    monkeypatch.delenv(llm.API_KEY_ENV, raising=False)
    endpoint.reply(200, {"choices": [{"message": {"content": "c"}}]})
    assert http_backend(endpoint.url).complete(app_prompt) == "c"
    [(headers, _body)] = endpoint.requests
    headers = {name.lower(): value for name, value in headers.items()}
    assert headers["content-type"] == "application/json" and "authorization" not in headers


def test_the_backends_that_read_the_prompt_build_it_once(endpoint):
    """`complete` takes a prompt builder: the scripted and http backends call
    it once per completion. (The replay backend never calls it: see
    test_replay_backend_line_formats.)"""
    builds = []

    def build():
        builds.append(1)
        return app_prompt()

    scripted = make_backend(BackendConfig(kind=ScriptedConfig(policy_id="finish_now")))
    assert parse_host_decision(scripted.complete(build)).plan.steps  # app_prompt has no plan: the host's
    assert len(builds) == 1
    endpoint.reply(200, {"choices": [{"message": {"content": "c"}}]})
    assert http_backend(endpoint.url).complete(build) == "c"
    assert len(builds) == 2


@pytest.mark.parametrize("url", ["file:///dev/zero", "ftp://127.0.0.1/chat", "127.0.0.1:80/v1/chat/completions",
                                 "http://127.0.0.1:notaport/v1/chat/completions", "http://[::1/v1/chat/completions"])
def test_http_backend_cannot_use_the_url(url):
    with pytest.raises(TransportError, match="unreachable"):
        http_backend(url).complete(app_prompt)
