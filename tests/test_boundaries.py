"""Every input boundary rejects bad input with a typed error and never hangs:
through the CLI, exit 2 and one `error:` line."""
import json
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carobo.bridge import TOPIC_SENSOR, ConnectionClosed, ProtocolError, TcpConnection, decode_line
from carobo.cli import main
from carobo.llm import (
    ReplayBackend,
    ReplayConfig,
    parse_app_decision,
    parse_host_decision,
    serialize_app_decision,
    serialize_host_decision,
)
from carobo.model import COMMAND_SPECS, CaroboError

DEEP = "[" * 100_000  # deeper than any recursion limit json.loads can reach


def cli_exit(tmp_path, capsys, argv_of):
    path = tmp_path / "deep.json"
    path.write_text(DEEP, encoding="utf-8")
    code = main(argv_of(str(path)))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read ") and err.count("\n") == 1, err[:300]


def decode_the_line(tmp_path, capsys):
    with pytest.raises(ProtocolError, match="cannot read envelope payload"):
        decode_line(f"{TOPIC_SENSOR}|0|0|{DEEP}")


def tcp_peer_sends_the_line(tmp_path, capsys):
    """The reader thread closes the inbox with the typed message, instead of dying."""
    ours, theirs = socket.socketpair()
    conn = TcpConnection(ours)
    try:
        theirs.sendall(f"{TOPIC_SENSOR}|0|0|{DEEP}\n".encode())
        with pytest.raises(ConnectionClosed, match="cannot read envelope payload"):
            conn.next_message(TOPIC_SENSOR, timeout_ms=5000)
    finally:
        conn.close()
        theirs.close()


def replay_stream_holds_the_line(tmp_path, capsys):
    """A replay line that cannot be read as JSON is itself a completion."""
    path = tmp_path / "stream.jsonl"
    path.write_text('"first"\n' + DEEP + "\n", encoding="utf-8")
    assert ReplayBackend(ReplayConfig(trace_path=str(path))).completions == ["first", DEEP]


CASES = {
    "run --world": lambda tmp_path, capsys: cli_exit(
        tmp_path, capsys, lambda p: ["run", "--request", "look", "--world", p]),
    "bench --suite": lambda tmp_path, capsys: cli_exit(tmp_path, capsys, lambda p: ["bench", "--suite", p]),
    "replay --trace": lambda tmp_path, capsys: cli_exit(tmp_path, capsys, lambda p: ["replay", "--trace", p]),
    "serve --world": lambda tmp_path, capsys: cli_exit(
        tmp_path, capsys, lambda p: ["serve", "--world", p, "--listen", "127.0.0.1:0"]),
    "decode_line": decode_the_line,
    "tcp: peer": tcp_peer_sends_the_line,
    "replay stream": replay_stream_holds_the_line,
}


@pytest.mark.parametrize("boundary", sorted(CASES))
def test_deeply_nested_json_is_a_typed_error(tmp_path, capsys, time_limit, boundary):
    with time_limit(20.0):
        CASES[boundary](tmp_path, capsys)


# ---------------------------------------------------------------------------
# Completions: whatever a model returns, parsing gives a decision or a CaroboError

def a_forward_of(distance: str) -> str:
    return ('{"observation": "o", "comment": "c", "status": "CONTINUE", '
            '"command": {"name": "car_forward", "args": {"distance": %s}}}' % distance)


def _text(max_size=None):
    """Text that may hold lone surrogates, which UTF-8 cannot encode."""
    return st.text(st.characters() | st.characters(categories=["Cs"]), max_size=max_size)


_numbers = st.one_of(st.integers(), st.floats(), st.integers(10**300, 10**400))
_values = st.recursive(
    st.none() | st.booleans() | _numbers | _text(12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text(8), inner, max_size=3),
    max_leaves=8,
)
_commands = st.fixed_dictionaries({
    "name": st.sampled_from(sorted(COMMAND_SPECS)) | st.text(max_size=10),
    "args": st.dictionaries(st.sampled_from(sorted({spec[0] for spec in COMMAND_SPECS.values()})),
                            _numbers | _values, max_size=2) | _values,
}) | _values
_decisions = st.fixed_dictionaries({}, optional={
    "observation": _text(12) | _values,
    "comment": _text(12) | _values,
    "thoughts": _text(12) | _values,
    "status": st.sampled_from(["CONTINUE", "FINISH", " finish "]) | _values,
    "command": _commands,
    "plan": st.lists(_text(12), max_size=3) | _values,
})
# ensure_ascii writes a surrogate as a \udXXX escape, so the completion is
# ASCII and only the decoded strings hold it
_wrapped = st.builds(lambda before, doc, escape, after: before + json.dumps(doc, ensure_ascii=escape) + after,
                     _text(20), _decisions, st.booleans(), _text(20))
_jsonish = st.text(alphabet='{}[]":, 0123456789.eE-+abctrunlfs\\', max_size=60)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_text(), _jsonish, _wrapped))
@example(a_forward_of("1" * 5000))  # past the int-string limit: a plain ValueError from json
@example(a_forward_of("1" * 400))  # an int too large for a float
@example('{"observation": ' + DEEP)
@example(DEEP)
@example('{"a":' * 100_000)
@example('{"observation": "o", "comment": "\\ud800", "status": "FINISH"}')
@example('{"observation": "o", "thoughts": "t", "plan": ["\\udc00"], "comment": "c"}')
@example('{"observation": "o", "thoughts": "t", "plan": ["p"], "comment": "c", "status": "FINISH"} \udfff')
def test_fuzzed_completions_parse_or_fail_typed(time_limit, raw):
    with time_limit(2.0):
        for parse, serialize in ((parse_app_decision, serialize_app_decision),
                                 (parse_host_decision, serialize_host_decision)):
            try:
                decision = parse(raw)
            except CaroboError:
                continue
            # an accepted completion and every string kept from it can be written to a trace
            raw.encode("utf-8")
            serialize(decision).encode("utf-8")
