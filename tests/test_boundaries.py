"""Every input boundary rejects bad input with a typed error and never hangs:
through the CLI, exit 2 and one `error:` line."""
import contextlib
import copy
import dataclasses
import functools
import io
import json
import operator
import re
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carobo.bench import DATA_DIR, bundled_trace_dir, default_suite_path, load_benchmark
from carobo.bridge import (
    TOPIC_CMD,
    TOPIC_EXEC,
    TOPIC_SENSOR,
    TOPICS,
    BridgeRobot,
    ConnectionClosed,
    ProtocolError,
    TcpConnection,
    TcpRobotServer,
    decode_line,
    local_pair,
    start_local_robot,
    tcp_connect,
)
from carobo.cli import main
from carobo.llm import (
    RETRYABLE_ERRORS,
    BackendConfig,
    HttpChatConfig,
    Prompt,
    ReplayBackend,
    ReplayConfig,
    TransportError,
    make_backend,
    parse_app_decision,
    parse_host_decision,
)
from carobo.model import COMMAND_SPECS, CaroboError, Command, Status, canonical_json
from carobo.sim import OBJECT_KINDS, Shape, SimParams, SimRobot, load_world

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
    """The read ends the connection's receive side with the typed message."""
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
# An error message quotes a bounded part of its input: a line may be 8 MiB, and
# the message becomes one `error:` line or a robot's error envelope

HUGE = "x" * 1_000_000


def _message_of(call) -> str:
    with pytest.raises(CaroboError) as err:
        call()
    return str(err.value)


def _reader_ends_on(line: str) -> str:
    """The message a local: reader gets once `line` has ended its receive side."""
    sender, reader = local_pair()
    try:
        sender._send_line(line)
        return _message_of(lambda: reader.next_message(TOPIC_SENSOR, timeout_ms=0))
    finally:
        sender.close()


def _robot_reports(command_json: str) -> str:
    """The peer error a local: robot sends back for one bad command line."""
    client, _robot, shutdown = start_local_robot(load_world(OBJ_1))
    try:
        client._send_line(f"{TOPIC_CMD}|0|0|{command_json}")
        return _message_of(lambda: client.next_message(TOPIC_EXEC, timeout_ms=0))
    finally:
        shutdown()


def _cli_error_line(tmp_path, capsys, world: dict) -> str:
    path = tmp_path / "world.json"
    path.write_text(json.dumps(world), encoding="utf-8")
    assert main(["run", "--request", "look", "--world", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _bench_error_line(tmp_path, capsys, mutate) -> str:
    """The `error:` line of `carobo bench` on the bundled suite, its scenarios changed by `mutate`."""
    doc = json.loads(default_suite_path().read_text(encoding="utf-8"))
    mutate(doc["scenarios"])
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bench", "--suite", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _first_scenario(**changes):
    return lambda scenarios: scenarios[0].update(changes)


def _peer_reports(text: str) -> str:
    """The message a reader gets for a peer's error envelope holding `text`."""
    sender, reader = local_pair()
    try:
        sender.publish_error(TOPIC_EXEC, text)
        return _message_of(lambda: reader.next_message(TOPIC_EXEC, timeout_ms=0))
    finally:
        sender.close()


def _two_scenarios_with_id(sid):
    def mutate(scenarios):
        scenarios[0]["id"] = scenarios[1]["id"] = sid
    return mutate


LONG_INPUTS = {
    "envelope line with no |": lambda tmp_path, capsys: _reader_ends_on(HUGE),
    "envelope topic": lambda tmp_path, capsys: _reader_ends_on(f"/{HUGE}|0|0|{{}}"),
    "envelope seq": lambda tmp_path, capsys: _reader_ends_on(f"{TOPIC_SENSOR}|1{HUGE}|0|{{}}"),
    "command name": lambda tmp_path, capsys: _message_of(
        lambda: Command.from_dict({"name": HUGE, "args": {"distance": 1}})),
    "command built by name": lambda tmp_path, capsys: _message_of(lambda: Command(HUGE, 1.0)),
    "command document": lambda tmp_path, capsys: _message_of(lambda: Command.from_dict({"args": HUGE})),
    "extra argument": lambda tmp_path, capsys: _message_of(
        lambda: Command.from_dict({"name": "car_forward", "args": {"distance": 1, "extra": HUGE}})),
    "shape type": lambda tmp_path, capsys: _message_of(lambda: Shape.from_dict({"type": HUGE})),
    "shape document": lambda tmp_path, capsys: _message_of(lambda: Shape.from_dict({"radius": HUGE})),
    "status token": lambda tmp_path, capsys: _message_of(lambda: Status(HUGE)),
    "robot's error envelope": lambda tmp_path, capsys: _robot_reports(
        json.dumps({"name": HUGE, "args": {"distance": 1}})),
    "CLI error line": lambda tmp_path, capsys: _cli_error_line(tmp_path, capsys, {"robot": {}, "objects": [
        {"id": "a", "kind": "box", "shape": {"type": HUGE}}]}),
    "peer's error text": lambda tmp_path, capsys: _peer_reports(HUGE),
    "suite goal op": lambda tmp_path, capsys: _bench_error_line(tmp_path, capsys, _first_scenario(goal={"op": HUGE})),
    "suite goal that is not an object": lambda tmp_path, capsys: _bench_error_line(
        tmp_path, capsys, _first_scenario(goal=HUGE)),
    "suite scenario id": lambda tmp_path, capsys: _bench_error_line(
        tmp_path, capsys, _first_scenario(id=HUGE, request_text=None)),
    "suite domain": lambda tmp_path, capsys: _bench_error_line(tmp_path, capsys, _first_scenario(domain=HUGE)),
    "suite duplicate id": lambda tmp_path, capsys: _bench_error_line(tmp_path, capsys, _two_scenarios_with_id(HUGE)),
    "suite limits key": lambda tmp_path, capsys: _bench_error_line(
        tmp_path, capsys, _first_scenario(limits={HUGE: 1})),
    "buzzer_count comparison": lambda tmp_path, capsys: _bench_error_line(
        tmp_path, capsys, _first_scenario(goal={"op": "buzzer_count", "cmp": HUGE, "count": 1})),
    "comment_matches pattern": lambda tmp_path, capsys: _bench_error_line(
        tmp_path, capsys, _first_scenario(goal={"op": "comment_matches", "pattern": HUGE + "("})),
    "world file name": lambda tmp_path, capsys: _bench_error_line(tmp_path, capsys, _first_scenario(world_file=HUGE)),
}
# a goal's error lists the ten goal ops, 140 characters, after the scenario it names
LONGER_MESSAGES = {"suite goal op": 300, "suite goal that is not an object": 300}


@pytest.mark.parametrize("boundary", sorted(LONG_INPUTS))
def test_error_messages_quote_a_bounded_part_of_their_input(tmp_path, capsys, time_limit, boundary):
    with time_limit(20.0):
        message = LONG_INPUTS[boundary](tmp_path, capsys)
    assert len(message) < LONGER_MESSAGES.get(boundary, 200), message[:300]


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


# ---------------------------------------------------------------------------
# Suite and trace files: whatever a suite holds, `carobo bench` reports on it,
# and whatever an episode trace holds, `carobo replay` re-runs it (exit 0 or
# 1); or either rejects the file (exit 2 and one `error:` line)

_SAME_TYPE = {str: _text(12), bool: st.booleans(), int: _numbers, float: _numbers}


def _paths(node, path=()):
    """The path to every value in a JSON document, the document's own () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    """`doc` after one to three drawn edits, each of a value drawn from all of
    its values, so mostly a leaf: the value dropped, or replaced by one of its
    own JSON type (so that most edited files are still read whole) or by any."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(_values)
        parent, key = functools.reduce(operator.getitem, path[:-1], doc), path[-1]
        if draw(st.integers(0, 3)):
            same = _SAME_TYPE.get(type(parent[key]))
            parent[key] = draw(_values if same is None else same | _values)
        else:
            del parent[key]
    return doc


def _cli(argv, time_limit):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _suite_document() -> dict:
    """The bundled suite, with each world file named by its absolute path."""
    doc = json.loads(default_suite_path().read_text(encoding="utf-8"))
    for entry in doc["scenarios"]:
        entry["world_file"] = str(DATA_DIR / entry["world_file"])
    return doc


SUITE = _suite_document()
_garbage = _jsonish.map(str.encode) | st.binary(max_size=80)
_suite_files = _mutated(SUITE).map(lambda doc: json.dumps(doc).encode("utf-8")) | _garbage


@settings(max_examples=60, deadline=None)
@given(_suite_files)
@example(json.dumps(SUITE).encode("utf-8"))
@example(b"\xff\xfe")
@example(json.dumps({"scenarios": SUITE["scenarios"][:19]}).encode("utf-8"))
def test_fuzzed_suite_files_run_or_exit_two(time_limit, suite):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "suite.json"
        path.write_bytes(suite)
        code, out, err = _cli(["bench", "--suite", str(path)], time_limit)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    else:
        assert code == 0 and err == "" and "overall" in out, (code, err[:300])


def _recorded_episode() -> list:
    """The records of one oracle episode's trace."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--request", REQUESTS["obj_1"], "--world", str(DATA_DIR / "worlds" / "obj_1.json"),
                         "--trace", str(path)]) == 0
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _jsonl(records) -> bytes:
    """One JSON line per record; a document that is no longer a list is one line."""
    lines = records if isinstance(records, list) else [records]
    return "".join(json.dumps(rec) + "\n" for rec in lines).encode("utf-8")


EPISODE = _recorded_episode()
_trace_files = _mutated(EPISODE).map(_jsonl) | _garbage


@settings(max_examples=60, deadline=None)
@given(_trace_files)
@example(_jsonl(EPISODE))
@example(b"\xff\xfe")
@example(_jsonl(EPISODE[:-1]))
def test_fuzzed_trace_files_replay_or_exit_two(time_limit, trace):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        path.write_bytes(trace)
        code, out, err = _cli(["replay", "--trace", str(path)], time_limit)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    else:
        assert code in (0, 1) and err == "", (code, err[:300])
        assert out.splitlines()[-1].startswith("final world digest: "), out[-300:]


# ---------------------------------------------------------------------------
# Envelope lines: whatever lines a peer sends, every read on the other end
# returns or raises a CaroboError, and the robot thread of a served `tcp:`
# robot lives on to serve the next client

def _valid_payloads():
    robot = SimRobot(load_world(OBJ_1))
    sensors, obs = robot.connect()
    result, _sensors, _obs = robot.execute(Command("car_left", 90))
    return [doc.to_dict() for doc in (Command("car_left", 90), Command("car_forward", 0.2), sensors, obs, result)]


_payload_texts = st.one_of(
    st.sampled_from(_valid_payloads()).map(canonical_json),
    _values.map(json.dumps),
    _wrapped,
    _jsonish,
    st.integers(1, 3000).map(lambda depth: "[" * depth),
    st.sampled_from(['{"error": "nope"}', '{"error": "\\ud800"}', '{"name": "car_left", "args": {"angle": "\\ud800"}}']),
)
_envelopes = st.builds(
    lambda topic, seq, payload: f"{topic}|{seq}|0|{payload}".encode("utf-8", "surrogatepass"),
    st.sampled_from(TOPICS + ("/carobo/nope",)),
    st.sampled_from(["0", "1", "2"]) | st.text(max_size=3),
    _payload_texts,
)
_peer_lines = st.lists(
    _envelopes | st.binary(max_size=30) | st.builds(bytes.__add__, st.sampled_from(TOPICS).map(
        lambda topic: f"{topic}|0|0|".encode()), st.binary(max_size=30)),
    min_size=1, max_size=5,
)


def _read_everything(conn, timeout_ms=None):
    """Read each topic until the read raises; every read returns or raises a CaroboError."""
    for topic in TOPICS:
        for _ in range(50):
            try:
                conn.next_message(topic, timeout_ms)
            except CaroboError:
                break


def _send_to_a_local_robot(lines):
    client, _robot, shutdown = start_local_robot(load_world(OBJ_1))
    try:
        for line in lines:
            try:
                client._send_line(line.decode("utf-8", "surrogateescape"))
            except CaroboError:
                pass
        _read_everything(client)
    finally:
        shutdown()


def _send_to_a_tcp_robot(lines):
    server = TcpRobotServer(load_world(OBJ_1)).start()
    try:
        sock = socket.create_connection((server.host, server.port))
        conn = TcpConnection(sock)
        try:
            sock.sendall(b"".join(line + b"\n" for line in lines))
            sock.shutdown(socket.SHUT_WR)  # the robot reads to the end of the lines, then leaves
        except OSError:
            pass  # the robot dropped the connection before it read every line
        _read_everything(conn, timeout_ms=5000)
        conn.close()
        robot = BridgeRobot(tcp_connect(server.host, server.port), timeout_ms=5000)
        robot.connect()
        robot.execute(Command("car_left", 90))
        robot.close()
        assert server._thread.is_alive()
    finally:
        server.stop()


def _feed_a_bridge_robot(lines):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        ours = socket.create_connection(listener.getsockname())
        theirs, _addr = listener.accept()
    with theirs:
        theirs.sendall(b"".join(line + b"\n" for line in lines))
    robot = BridgeRobot(TcpConnection(ours), timeout_ms=5000)
    try:
        robot.connect()
        robot.execute(Command("car_left", 90))
    except CaroboError:
        pass
    finally:
        robot.close()


@settings(max_examples=100, deadline=None)
@given(_peer_lines)
@example([b'/carobo/sensor|0|0|{"ultrasonic_clearance":1.0,"ir_left":false,"ir_right":"\xff"}'])
@example([b'/carobo/cmd|0|0|{"name":"car_left","args":{"angle":"\xff"}}'])
@example([f"{TOPIC_CMD}|0|0|{DEEP}".encode()])
@example([f"{TOPIC_SENSOR}|0|0|{DEEP}".encode()])
@example([b'/carobo/cmd|0|0|{"error":"\\ud800"}'])
def test_fuzzed_envelope_lines_read_or_fail_typed(time_limit, lines):
    with time_limit(10.0):
        _send_to_a_local_robot(lines)
        _send_to_a_tcp_robot(lines)
        _feed_a_bridge_robot(lines)


# ---------------------------------------------------------------------------
# HTTP responses: whatever a chat endpoint answers, the http backend makes one
# request, and returns the first choice's content or raises TransportError

def _chat(content: str) -> bytes:
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode("utf-8")


# (the content, if the body is a chat payload; the body)
_bodies = st.one_of(
    # the content a JSON reader gives back: "\ud800\udc00" escapes one astral character, not two
    _text(20).map(lambda content: (json.loads(json.dumps(content)), _chat(content))),
    _jsonish.map(lambda text: (None, text.encode("utf-8"))),  # its alphabet cannot spell "choices"
    st.binary(max_size=30).map(lambda raw: (None, raw)),  # too short to hold a chat payload
    st.integers(1, 3000).map(lambda depth: (None, b"[" * depth)),
    st.integers(4301, 5000).map(lambda digits: (None, _chat("").replace(b'""', b"1" * digits))),
)
PROMPT = Prompt(system="s", few_shot=(), blocks={k: k for k in ("request", "observation", "sensors", "memory")})


@settings(max_examples=100, deadline=None)
@given(status=st.none() | st.integers(200, 599), body=_bodies, short=st.none() | st.integers(1, 1000))
@example(status=200, body=("cut short", _chat("cut short")), short=10)
@example(status=200, body=(None, b"\xff"), short=None)
@example(status=204, body=(None, b""), short=None)
@example(status=200, body=(None, DEEP.encode()), short=None)
@example(status=None, body=(None, b""), short=None)
@example(status=200, body=("\U00010000", _chat("\ud800\udc00")), short=None)
def test_fuzzed_http_responses_return_or_fail_typed(module_endpoint, time_limit, status, body, short):
    """`status` None closes the connection without an answer; `short` sends a
    Content-Length that many bytes past the body, and then closes."""
    content, raw = body
    module_endpoint.requests.clear()
    module_endpoint.reply(status, raw, None if short is None else len(raw) + short)
    backend = make_backend(BackendConfig(kind=HttpChatConfig(endpoint=module_endpoint.url, model_name="m",
                                                             timeout_s=2.0)))
    with time_limit(10.0):
        try:
            out = backend.complete(lambda: PROMPT)
        except TransportError as exc:
            out = exc
    assert len(module_endpoint.requests) == 1
    if status is None or (status == 200 and short):
        expected = "chat endpoint unreachable: "
    elif status != 200:
        expected = f"chat endpoint returned HTTP {status}"
    elif content is None:
        expected = "chat endpoint returned an unexpected payload: "
    else:
        assert out == content
        return
    assert isinstance(out, TransportError) and str(out).startswith(expected), (status, short, out)
