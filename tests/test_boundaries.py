"""Every input boundary rejects bad input with a typed error and never hangs:
through the CLI, exit 2 and one `error:` line."""
import contextlib
import dataclasses
import io
import json
import re
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carobo.bench import DATA_DIR, bundled_trace_dir, default_suite_path, load_benchmark
from carobo.bridge import TOPIC_SENSOR, ConnectionClosed, ProtocolError, TcpConnection, decode_line
from carobo.cli import main
from carobo.llm import RETRYABLE_ERRORS, ReplayBackend, ReplayConfig, parse_app_decision, parse_host_decision
from carobo.model import COMMAND_SPECS
from carobo.sim import OBJECT_KINDS, SimParams

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
# Completions: whatever a model returns, parsing gives a decision or an error the agents retry

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
@example('{"observation": "o", "thoughts": "t", "plan": ["go", "  "], "comment": "c"}')
@example('{"observation": "o", "thoughts": "t", "plan": [], "comment": "c"}')
@example('{"observation": "o", "comment": "c", "status": 5}')
def test_fuzzed_completions_parse_or_fail_typed(time_limit, raw):
    """Every completion parses, or fails with an error that the agents retry."""
    with time_limit(2.0):
        for parse in (parse_app_decision, parse_host_decision):
            try:
                decision = parse(raw)
            except RETRYABLE_ERRORS:
                continue
            # an accepted completion and every string kept from it can be written to a trace
            raw.encode("utf-8")
            decision.to_json().encode("utf-8")


# ---------------------------------------------------------------------------
# World files: whatever a world file holds, `carobo run` finishes its episode
# (exit 0 or 1) or rejects the file (exit 2 and one `error:` line)

def _or_any(plausible):
    return plausible | _values


_coordinate = _or_any(st.floats(-5, 5) | _numbers)
_point = _or_any(st.lists(_coordinate, min_size=2, max_size=2))
_shapes = _or_any(
    st.fixed_dictionaries({"type": st.just("circle"), "center": _point,
                           "radius": _or_any(st.floats(0, 2) | _numbers)})
    | st.fixed_dictionaries({"type": st.just("polygon"),
                             "vertices": _or_any(st.lists(_point, min_size=3, max_size=5))}))
_objects = st.fixed_dictionaries(
    {"id": _or_any(_text(6)), "kind": _or_any(st.sampled_from(OBJECT_KINDS)), "shape": _shapes},
    optional={"label": _or_any(_text(6)), "color": _or_any(_text(6)), "height": _coordinate,
              "text_on_object": _or_any(_text(6))})
_worlds = st.fixed_dictionaries(
    {"robot": _or_any(st.fixed_dictionaries(
        {}, optional={key: _coordinate for key in ("x", "y", "heading", "camera_pitch")}))},
    optional={
        "objects": _or_any(st.lists(_objects, max_size=4)),
        "params": _or_any(st.fixed_dictionaries({}, optional={
            f.name: _or_any(st.floats(*f.metadata["range"]) | _numbers) for f in dataclasses.fields(SimParams)})),
        "buzzer_events": _or_any(st.lists(_coordinate, max_size=2)),
        "tick": _or_any(st.integers(0, 10) | _numbers),
    }) | _values
# each scenario's request, so the oracle drives the fuzzed world through its script
REQUESTS = {s.id: s.request_text for s in load_benchmark(default_suite_path())}
_requests = st.sampled_from(sorted(REQUESTS.values()))
OBJ_1 = json.loads((DATA_DIR / "worlds" / "obj_1.json").read_text(encoding="utf-8"))


@settings(max_examples=100, deadline=None)
@given(_worlds.map(json.dumps) | _jsonish, _requests)
@example('{"robot": {}, "objects": ' + DEEP, "look")
@example(json.dumps(OBJ_1).replace('"fridge"', '"fridge\\ud800"'), "look")
@example(json.dumps({"robot": {}, "tick": 10**400}), REQUESTS["obj_4"])  # its script sounds the buzzer
@example(json.dumps({"robot": {}, "objects": [{"id": "two\nlines", "kind": "box", "height": 0,
                                                "shape": {"type": "circle", "center": [2, 0], "radius": 1}}]}),
         "look")
def test_fuzzed_world_files_run_or_exit_two(time_limit, text, request):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "world.json"
        path.write_text(text, encoding="utf-8")  # json.dumps escapes every lone surrogate
        err = io.StringIO()
        with time_limit(5.0), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--request", request, "--world", str(path), "--max-steps", "10"])
    err = err.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    else:
        assert code in (0, 1) and err == "", (code, err[:300])


# ---------------------------------------------------------------------------
# Replay streams: whatever bytes a replay stream holds, `carobo run` finishes
# its episode (exit 0 or 1, and a result line) or rejects the stream (exit 2
# and one `error:` line)

RECORDED = (bundled_trace_dir("gpt-4o") / "obj_1.jsonl").read_bytes().splitlines()
_stream_lines = st.one_of(
    st.sampled_from(RECORDED),
    st.binary(max_size=30),
    _jsonish.map(str.encode),
    _wrapped.map(lambda text: text.encode("utf-8", "surrogatepass")),
)
_streams = st.lists(_stream_lines, max_size=8).map(b"\n".join) | st.binary(max_size=80)
RESULT_LINE = re.compile(r"\S+: (Success|Failure)( \(\w+\))? after \d+ steps / \d+ rounds")


@settings(max_examples=60, deadline=None)
@given(_streams)
@example(b"\xff\xfe bad\n")
@example(b"")
@example(b"\n".join(RECORDED))
@example(b"\n".join(RECORDED[:1] + [b'"\\ud800"'] + RECORDED[1:]))
def test_fuzzed_replay_streams_run_or_exit_two(time_limit, stream):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "stream.jsonl"
        path.write_bytes(stream)
        out, err = io.StringIO(), io.StringIO()
        with time_limit(5.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--world", str(DATA_DIR / "worlds" / "obj_1.json"), "--request", REQUESTS["obj_1"],
                         "--backend", "replay", "--replay-trace", str(path), "--max-steps", "10"])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    else:
        assert code in (0, 1) and err == "", (code, err[:300])
        assert RESULT_LINE.fullmatch(out.splitlines()[-1]), out[-300:]
