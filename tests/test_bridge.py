"""Message bridge: wire format, sequencing, transports, the served robot."""
import contextlib
import socket
import threading
import time
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule, run_state_machine_as_test

from carobo import bench, sim
from carobo.bridge import (
    TOPIC_CMD,
    TOPIC_EXEC,
    TOPIC_SENSOR,
    TOPIC_VISION,
    TOPICS,
    BridgeRobot,
    MAX_LINE_BYTES,
    BridgeTimeout,
    ConnectionClosed,
    LocalConnection,
    ProtocolError,
    TcpConnection,
    TcpRobotServer,
    TopicPayloadMismatch,
    decode_line,
    encode_line,
    local_pair,
    parse_endpoint,
    serve_robot,
    start_local_robot,
    tcp_connect,
)
from carobo.model import CaroboError, Command, ExecOutcome, ExecResult, Observation, SensorData, VisibleObject
from carobo.sim import SimRobot, load_world


def world_doc(objects=()):
    return {"robot": {"x": 0, "y": 0, "heading": 0, "camera_pitch": 0}, "objects": list(objects)}


def a_box(cx=1.0, cy=0.0):
    return {
        "id": "b1", "kind": "box",
        "shape": {"type": "polygon",
                  "vertices": [[cx - .15, cy - .15], [cx + .15, cy - .15],
                               [cx + .15, cy + .15], [cx - .15, cy + .15]]},
    }


# ---------------------------------------------------------------------------
# Wire format

def test_wire_line_shape():
    line = encode_line(TOPIC_SENSOR, 3, 1234, {"a": 1})
    assert line == '/carobo/sensor|3|1234|{"a":1}'


def test_wire_roundtrip():
    payload = SensorData(ultrasonic_clearance=1.5, ir_left=True, ir_right=False)
    topic, seq, ts, doc = decode_line(encode_line(TOPIC_SENSOR, 3, 1234, payload.to_dict()))
    assert (topic, seq, ts) == (TOPIC_SENSOR, 3, 1234)
    assert SensorData.from_dict(doc) == payload


def test_wire_json_may_contain_pipes():
    # splitting is bounded at 3, so pipes inside the payload survive
    obs = Observation.from_items((
        VisibleObject(label="box", color="red", shape="polygon",
                      text_on_object="A|B|C", distance=1.0, bearing=0.0),
    ))
    _t, _s, _ts, doc = decode_line(encode_line(TOPIC_VISION, 0, 0, obs.to_dict()))
    assert Observation.from_dict(doc).items[0].text_on_object == "A|B|C"


@pytest.mark.parametrize("line", [
    "/carobo/nope|0|0|{}",          # unknown topic
    "not a frame",                   # no separators
    "/carobo/cmd|zero|0|{}",        # non-integer seq
    "/carobo/cmd|0|0|not json",     # bad payload
    "/carobo/cmd|0|0|[1,2]",        # payload not an object
])
def test_decode_rejects_malformed_lines(line):
    with pytest.raises(ProtocolError):
        decode_line(line)


@pytest.mark.parametrize(
    "field", ["1_0", " 7 ", "+3", "\u0661\u0660", pytest.param("9" * 5000, id="5000 digits")]
)
@pytest.mark.parametrize("template", ["/carobo/cmd|{}|0|{{}}", "/carobo/cmd|0|{}|{{}}"])
def test_decode_takes_only_ascii_digits_for_seq_and_timestamp(template, field):
    # int() reads the first four as numbers, and refuses the 5000 digits with a ValueError
    with pytest.raises(ProtocolError, match="bad seq/timestamp"):
        decode_line(template.format(field))


def test_error_envelope_surfaces_as_protocol_error():
    a, b = local_pair()
    try:
        a.publish_error(TOPIC_EXEC, "bad command: nope")
        with pytest.raises(ProtocolError) as err:
            b.next_message(TOPIC_EXEC, timeout_ms=500)
        assert "bad command: nope" in str(err.value)
    finally:
        a.close()


def test_empty_exec_payload_is_a_typed_error():
    client, robot_side = local_pair()
    try:
        robot_side._send_line(encode_line(TOPIC_EXEC, 0, 0, {}))
        with pytest.raises(CaroboError) as err:
            BridgeRobot(client, timeout_ms=500).execute(Command("car_forward", 1.0))
        assert "ExecResult" in str(err.value)
    finally:
        client.close()


def test_publish_type_checked_per_topic():
    a, _b = local_pair()
    try:
        with pytest.raises(TopicPayloadMismatch):
            a.publish(TOPIC_CMD, SensorData(ultrasonic_clearance=1, ir_left=False, ir_right=False))
        with pytest.raises(TopicPayloadMismatch):
            a.publish("/carobo/nope", Command("car_forward", 1.0))
    finally:
        a.close()


# ---------------------------------------------------------------------------
# Local transport

def test_local_pair_roundtrip_and_seq():
    a, b = local_pair()
    try:
        a.publish(TOPIC_CMD, Command("car_forward", 1.0))
        a.publish(TOPIC_CMD, Command("car_left", 90.0))
        first = b.next_message(TOPIC_CMD, timeout_ms=500)
        second = b.next_message(TOPIC_CMD, timeout_ms=500)
        assert first.seq == 0 and second.seq == 1
        assert second.payload == Command("car_left", 90.0)
    finally:
        a.close()


def test_seq_counters_are_per_topic():
    a, b = local_pair()
    try:
        a.publish(TOPIC_CMD, Command("car_forward", 1.0))
        a.publish(TOPIC_SENSOR, SensorData(ultrasonic_clearance=1, ir_left=False, ir_right=False))
        assert b.next_message(TOPIC_CMD, timeout_ms=500).seq == 0
        assert b.next_message(TOPIC_SENSOR, timeout_ms=500).seq == 0
    finally:
        a.close()


def test_next_message_timeout():
    a, b = local_pair()
    try:
        with pytest.raises(BridgeTimeout):
            b.next_message(TOPIC_CMD, timeout_ms=50)
    finally:
        a.close()


def test_closed_connection_raises():
    a, b = local_pair()
    a.close()
    with pytest.raises(ConnectionClosed):
        a.publish(TOPIC_CMD, Command("car_forward", 1.0))
    with pytest.raises(ConnectionClosed):
        b.next_message(TOPIC_CMD, timeout_ms=50)


def test_messages_before_close_still_delivered():
    a, b = local_pair()
    a.publish(TOPIC_CMD, Command("car_forward", 1.0))
    a.close()
    env = b.next_message(TOPIC_CMD, timeout_ms=500)
    assert env.payload == Command("car_forward", 1.0)
    with pytest.raises(ConnectionClosed):
        b.next_message(TOPIC_CMD, timeout_ms=50)


def test_an_untimed_local_read_raises_at_once():
    # a local: peer queues before its publish returns, so a read has nothing to wait for
    a, b = local_pair()
    began = time.perf_counter()
    with pytest.raises(BridgeTimeout):
        b.next_message(TOPIC_CMD)
    a.close()
    with pytest.raises(ConnectionClosed):
        b.next_message(TOPIC_CMD)
    assert time.perf_counter() - began < 0.1


def test_seq_gap_detected():
    a, b = local_pair()
    try:
        # hand-crafted frames with a hole in the sequence
        a._send_line(encode_line(TOPIC_CMD, 0, 0, Command("car_forward", 1.0).to_dict()))
        a._send_line(encode_line(TOPIC_CMD, 2, 0, Command("car_forward", 1.0).to_dict()))
        b.next_message(TOPIC_CMD, timeout_ms=100)
        with pytest.raises(ProtocolError) as err:
            b.next_message(TOPIC_CMD, timeout_ms=100)
        assert "expected 1" in str(err.value)
    finally:
        a.close()


# ---------------------------------------------------------------------------
# A SimRobot served over the local bridge

def test_local_robot_protocol():
    client, robot, shutdown = start_local_robot(load_world(world_doc([a_box()])))
    try:
        # connection starts with one sensor and one vision message
        sensors = client.next_message(TOPIC_SENSOR, timeout_ms=2000).payload
        vision = client.next_message(TOPIC_VISION, timeout_ms=2000).payload
        assert sensors.ultrasonic_clearance == pytest.approx(0.75)
        assert len(vision.items) == 1

        # each command answers exec, then sensor, then vision
        client.publish(TOPIC_CMD, Command("car_left", 90))
        result = client.next_message(TOPIC_EXEC, timeout_ms=2000).payload
        assert result.heading_change == 90.0
        sensors = client.next_message(TOPIC_SENSOR, timeout_ms=2000).payload
        vision = client.next_message(TOPIC_VISION, timeout_ms=2000).payload
        assert sensors.ultrasonic_clearance == 4.0
        assert len(vision.items) == 0
        assert robot.world.robot.heading == 90.0
    finally:
        shutdown()


def test_bridge_robot_handle_matches_direct_sim():
    direct = SimRobot(load_world(world_doc([a_box()])))
    client, robot, shutdown = start_local_robot(load_world(world_doc([a_box()])))
    bridged = BridgeRobot(client, robot)
    try:
        assert direct.connect() == bridged.connect()
        for cmd in (Command("car_forward", 0.4), Command("car_left", 90), Command("buzzer", 0.5)):
            assert direct.execute(cmd) == bridged.execute(cmd)
        assert bridged.world is robot.world
        assert direct.world.to_dict() == bridged.world.to_dict()
    finally:
        shutdown()


def test_bridge_robot_without_a_served_robot_has_no_world():
    client, _robot, shutdown = start_local_robot(load_world(world_doc()))
    bridged = BridgeRobot(client)
    try:
        bridged.connect()
        bridged.execute(Command("car_left", 90))
        assert bridged.world is None
    finally:
        shutdown()


def test_local_robot_starts_no_thread():
    # compared as sets: a thread an earlier test left behind may end meanwhile
    before = set(threading.enumerate())
    client, served, shutdown = start_local_robot(load_world(world_doc([a_box()])))
    robot = BridgeRobot(client, served)
    robot.connect()
    robot.execute(Command("car_left", 90))
    assert set(threading.enumerate()) <= before
    shutdown()
    assert set(threading.enumerate()) <= before
    assert robot.world.robot.heading == 90.0


def test_local_malformed_command_gets_error_envelope():
    client, _robot, shutdown = start_local_robot(load_world(world_doc()))
    try:
        client.next_message(TOPIC_SENSOR, timeout_ms=2000)
        client.next_message(TOPIC_VISION, timeout_ms=2000)
        # bypass publish() type checking and send junk on the cmd topic
        client._send_line(TOPIC_CMD + '|0|0|{"name":"car_up","args":{"distance":1}}')
        with pytest.raises(ProtocolError) as err:
            client.next_message(TOPIC_EXEC, timeout_ms=2000)
        assert "bad command" in str(err.value)
        # the robot dropped the connection, as it does over TCP
        with pytest.raises(ConnectionClosed):
            client.publish(TOPIC_CMD, Command("car_left", 90))
    finally:
        shutdown()


def test_served_robot_reads_the_sensors_once_per_command(monkeypatch):
    """A bridge serves the SimRobot's own connect()/execute(), so it reads the
    sensors exactly as often as the direct robot: once per connect and once
    per command (20 connects and 71 commands over the oracle suite)."""
    calls = []
    read_sensors = sim.read_sensors
    monkeypatch.setattr(sim, "read_sensors", lambda world: calls.append(world) or read_sensors(world))
    specs = bench.load_benchmark(bench.default_suite_path())
    counts = {}
    for transport in ("direct", "local:", "tcp:"):
        report = bench.run_suite(specs, bench.scripted_pair("oracle"), transport=transport)
        assert report.overall_rate == 100.0
        counts[transport], calls[:] = len(calls), []
    assert counts == {"direct": 91, "local:": 91, "tcp:": 91}


# ---------------------------------------------------------------------------
# TCP transport

def test_tcp_server_roundtrip():
    server = TcpRobotServer(load_world(world_doc([a_box()]))).start()
    try:
        robot = BridgeRobot(tcp_connect(server.host, server.port))
        sensors, _vision = robot.connect()
        assert sensors.ultrasonic_clearance == pytest.approx(0.75)
        result, sensors2, _vision2 = robot.execute(Command("car_forward", 0.3))
        assert result.distance_travelled == pytest.approx(0.3)
        assert sensors2.ultrasonic_clearance == pytest.approx(0.45)
        robot.close()
    finally:
        server.stop()


def test_tcp_sequential_clients_share_the_world():
    server = TcpRobotServer(load_world(world_doc())).start()
    try:
        first = BridgeRobot(tcp_connect(server.host, server.port))
        first.connect()
        first.execute(Command("car_left", 90))
        first.close()

        second = BridgeRobot(tcp_connect(server.host, server.port))
        second.connect()
        second.execute(Command("car_left", 90))
        second.close()
        assert server.robot.world.robot.heading == 180.0
    finally:
        server.stop()


def test_tcp_connect_refused():
    server = TcpRobotServer(load_world(world_doc()))
    host, port = server.host, server.port
    server.stop()  # never started; frees the port
    with pytest.raises(ConnectionClosed):
        tcp_connect(host, port, timeout_s=1.0)


def test_tcp_stop_is_prompt_after_the_client_left():
    # the client's close lets the accept loop wait in accept() again before stop()
    for _ in range(30):
        server = TcpRobotServer(load_world(world_doc())).start()
        robot = BridgeRobot(tcp_connect(server.host, server.port))
        robot.connect()
        robot.close()
        time.sleep(0.02)
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.1
        assert not server._thread.is_alive()


@pytest.mark.parametrize("read_the_connect_state", [True, False])
def test_tcp_stop_is_prompt_with_an_idle_client(read_the_connect_state):
    # the robot thread waits in recv() or accept(), and stop() closes the socket it waits on;
    # a client that does not read first may reach stop() while its connection is being accepted
    for _ in range(10):
        server = TcpRobotServer(load_world(world_doc())).start()
        conn = tcp_connect(server.host, server.port)
        if read_the_connect_state:
            conn.next_message(TOPIC_SENSOR, timeout_ms=2000)
            conn.next_message(TOPIC_VISION, timeout_ms=2000)
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.1
        assert not server._thread.is_alive()
        with pytest.raises(ConnectionClosed):
            conn.next_message(TOPIC_EXEC, timeout_ms=2000)
        conn.close()


def loopback_sockets():
    """The two ends of one loopback TCP connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        served, _addr = listener.accept()
    return client, served


def test_untimed_read_wakes_when_the_peer_closes():
    ours, theirs = loopback_sockets()
    a, b = TcpConnection(theirs), TcpConnection(ours)
    raised = []

    def read():
        try:
            b.next_message(TOPIC_CMD)
        except ConnectionClosed as exc:
            raised.append(exc)

    reader = threading.Thread(target=read)
    reader.start()
    time.sleep(0.05)
    began = time.perf_counter()
    a.close()
    reader.join(timeout=2)
    assert raised and time.perf_counter() - began < 0.4
    b.close()


def test_a_timed_tcp_read_waits_out_its_timeout():
    ours, theirs = loopback_sockets()
    conn = TcpConnection(ours)
    try:
        for timeout_ms in (0, 1, 30):
            began = time.perf_counter()
            with pytest.raises(BridgeTimeout):
                conn.next_message(TOPIC_SENSOR, timeout_ms=timeout_ms)
            assert time.perf_counter() - began >= timeout_ms / 1000
        # the connection is still usable after a timeout
        theirs.sendall(encode_line(TOPIC_SENSOR, 0, 0, {"ultrasonic_clearance": 1.0, "ir_left": False,
                                                         "ir_right": True}).encode() + b"\n")
        assert conn.next_message(TOPIC_SENSOR, timeout_ms=2000).payload.ir_right is True
    finally:
        conn.close()
        theirs.close()


def test_an_unterminated_stream_is_read_in_linear_time(time_limit):
    """16 MB without a newline, on a stream that stays open: the reader
    searches each received byte for a newline once, and ends the connection
    as soon as the unfinished line passes MAX_LINE_BYTES. On a 2-vCPU host, a
    reader that joined and split its whole buffer on every recv took 2.8 s
    for the 16 MB, with no cap; this one stops after 8 MiB in about 10 ms."""
    ours, theirs = socket.socketpair()
    conn = TcpConnection(ours)

    def write():
        with contextlib.suppress(OSError):  # the reader closes its end after the cap
            theirs.sendall(b"x" * (16 << 20))

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with time_limit(0.5), pytest.raises(ConnectionClosed, match=f"longer than {MAX_LINE_BYTES} bytes"):
            conn.next_message(TOPIC_SENSOR)
    finally:
        conn.close()
        writer.join(timeout=10)
        theirs.close()
    assert not writer.is_alive()


def test_a_tcp_episode_starts_one_thread(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    spec = {s.id: s for s in bench.load_benchmark(bench.default_suite_path())}["obj_1"]
    for transport, threads in (("direct", 0), ("local:", 0), ("tcp:", 1)):
        row, _ = bench.run_scenario(spec, bench.scripted_pair("oracle"), transport=transport)
        assert row.verdict == "Success"
        assert len(started) == threads, transport
        started.clear()


def test_a_served_robot_drops_a_client_whose_line_is_not_utf8():
    server = TcpRobotServer(load_world(world_doc())).start()
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(TOPIC_CMD.encode() + b'|0|0|{"name":"car_left","args":{"angle":"\xff"}}\n')
            received = b""
            while chunk := sock.recv(4096):  # the robot closes after the connect state
                received += chunk
        assert [line.split(b"|")[0] for line in received.splitlines()] == [TOPIC_SENSOR.encode(),
                                                                          TOPIC_VISION.encode()]
        # the robot thread lives on and serves the next client
        robot = BridgeRobot(tcp_connect(server.host, server.port), timeout_ms=2000)
        robot.connect()
        robot.execute(Command("car_left", 90))
        robot.close()
        assert server.robot.world.robot.heading == 90.0
    finally:
        server.stop()


@pytest.mark.parametrize("endpoint, address", [
    ("127.0.0.1:7450", ("127.0.0.1", 7450)),
    ("tcp:robot.lan:80", ("robot.lan", 80)),
    ("tcp::7450", ("127.0.0.1", 7450)),
    (":0", ("127.0.0.1", 0)),
])
def test_parse_endpoint(endpoint, address):
    assert parse_endpoint(endpoint) == address


@pytest.mark.parametrize("endpoint", ["local:", "justahost", "127.0.0.1:", "tcp:host:nope", "tcp:", "tcp:7450",
                                      "127.0.0.1:65536", "127.0.0.1:-1"])
def test_parse_endpoint_rejects(endpoint):
    with pytest.raises(CaroboError, match="HOST:PORT"):
        parse_endpoint(endpoint)


@pytest.mark.parametrize("endpoint", ["local:", "justahost", "127.0.0.1:", "tcp:host:nope", "127.0.0.1:99999"])
def test_serve_robot_rejects_bad_endpoints(endpoint):
    world = load_world(world_doc())
    with pytest.raises(CaroboError):
        serve_robot(world, endpoint)


def test_malformed_command_gets_error_envelope():
    server = TcpRobotServer(load_world(world_doc())).start()
    try:
        conn = tcp_connect(server.host, server.port)
        conn.next_message(TOPIC_SENSOR, timeout_ms=2000)
        conn.next_message(TOPIC_VISION, timeout_ms=2000)
        # bypass publish() type checking and send junk on the cmd topic
        conn._send_line(TOPIC_CMD + '|0|0|{"name":"car_up","args":{"distance":1}}')
        with pytest.raises(ProtocolError) as err:
            conn.next_message(TOPIC_EXEC, timeout_ms=2000)
        assert "bad command" in str(err.value)
        conn.close()
    finally:
        server.stop()


def test_topic_names():
    assert TOPICS == ("/carobo/cmd", "/carobo/vision", "/carobo/sensor", "/carobo/exec")


def test_local_and_tcp_send_the_same_wire_bytes(monkeypatch):
    """Every envelope line of one oracle episode, with the timestamp dropped."""
    sent = []

    def capture(send_line):
        def send(self, line):
            topic, seq, _timestamp, payload = line.split("|", 3)
            sent.append((topic, seq, payload))
            return send_line(self, line)
        return send

    monkeypatch.setattr(LocalConnection, "_send_line", capture(LocalConnection._send_line))
    monkeypatch.setattr(TcpConnection, "_send_line", capture(TcpConnection._send_line))
    spec = {s.id: s for s in bench.load_benchmark(bench.default_suite_path())}["obj_1"]
    lines = {}
    for transport in ("local:", "tcp:"):
        row, _ = bench.run_scenario(spec, bench.scripted_pair("oracle"), transport=transport)
        assert row.verdict == "Success"
        lines[transport], sent[:] = sent[:], []
    assert len(lines["local:"]) > 10
    assert lines["local:"] == lines["tcp:"]


# ---------------------------------------------------------------------------
# One intake: both transports take a received line the same way

SENSORS = SensorData(ultrasonic_clearance=1.0, ir_left=False, ir_right=True)


def connected_pair(transport):
    """(sender, reader): the two ends of a local: pair, or of a tcp: socketpair."""
    if transport == "local:":
        return local_pair()
    ours, theirs = socket.socketpair()
    return TcpConnection(ours), TcpConnection(theirs)


@pytest.mark.parametrize("transport", ["local:", "tcp:"])
def test_a_line_that_does_not_decode_ends_the_readers_receive_side(transport):
    """The sender's write returns; the reader gets what came before, then
    ConnectionClosed with the decoder's reason on every topic, and the lines
    after it are dropped. (A local: sender used to get the ProtocolError, and
    its reader timed out on every later read.)"""
    sender, reader = connected_pair(transport)
    try:
        sender._send_line(encode_line(TOPIC_SENSOR, 0, 0, SENSORS.to_dict()))
        sender._send_line("/carobo/exec|x|0|{}")
        sender._send_line(encode_line(TOPIC_SENSOR, 1, 0, SENSORS.to_dict()))
        assert reader.next_message(TOPIC_SENSOR, timeout_ms=2000).payload == SENSORS
        for topic in (TOPIC_EXEC, TOPIC_SENSOR):
            with pytest.raises(ConnectionClosed) as err:
                reader.next_message(topic, timeout_ms=2000)
            assert str(err.value) == "bad seq/timestamp in envelope: '/carobo/exec|x|0|{}'"
    finally:
        sender.close()
        reader.close()


@pytest.mark.parametrize("transport", ["local:", "tcp:"])
def test_a_served_robot_drops_a_client_whose_line_does_not_decode(transport):
    world = load_world(world_doc())
    if transport == "local:":
        client, _robot, stop = start_local_robot(world)
    else:
        server = TcpRobotServer(world).start()
        client, stop = tcp_connect(server.host, server.port), server.stop
    try:
        client.next_message(TOPIC_SENSOR, timeout_ms=2000)
        client.next_message(TOPIC_VISION, timeout_ms=2000)
        client._send_line("/carobo/cmd|0|0|{")
        with pytest.raises(ConnectionClosed, match="^connection closed$"):
            client.next_message(TOPIC_EXEC, timeout_ms=2000)
    finally:
        client.close()
        stop()


def a_vision_line(size: int):
    """(line, observation): a vision envelope line of exactly `size` UTF-8 bytes,
    nearly all of them in two-byte characters, so it has about half as many
    characters; and the observation it carries."""
    def line(text):
        return encode_line(TOPIC_VISION, 0, 0, Observation(free_text=text).to_dict())

    room = size - len(line("").encode("utf-8"))
    text = "é" * (room // 2) + "a" * (room % 2)
    assert len(line(text).encode("utf-8")) == size
    return line(text), Observation(free_text=text)


# 1,893,201 bytes: `WorldState.to_json()` of a 10^4-object world at perfbench/sweep.py's density (seed 0)
@pytest.mark.parametrize("size", [1_893_201, MAX_LINE_BYTES, MAX_LINE_BYTES + 1])
@pytest.mark.parametrize("transport", ["local:", "tcp:"])
def test_the_line_cap_counts_utf8_bytes(time_limit, transport, size):
    line, observation = a_vision_line(size)
    sender, reader = connected_pair(transport)

    def send():
        with contextlib.suppress(ConnectionClosed):  # the reader closes its end after the cap
            sender._send_line(line)

    writer = threading.Thread(target=send)  # a tcp: reader drains the socket meanwhile
    writer.start()
    if transport == "local:":
        writer.join()  # a local: send hands the line over before it returns
    try:
        with time_limit(10.0):
            if size <= MAX_LINE_BYTES:
                assert reader.next_message(TOPIC_VISION, timeout_ms=5000).payload == observation
            else:
                with pytest.raises(ConnectionClosed, match=f"^envelope line longer than {MAX_LINE_BYTES} bytes$"):
                    reader.next_message(TOPIC_VISION, timeout_ms=5000)
    finally:
        reader.close()
        writer.join(timeout=10)
        sender.close()
    assert not writer.is_alive()


def test_a_last_line_without_a_newline_is_dropped_at_the_end_of_the_stream():
    """A tcp: stream that ends inside a line: the lines before it are read,
    then ConnectionClosed; the unfinished line is not decoded, even when it
    would decode. (A local: peer hands over whole lines only.)"""
    ours, theirs = socket.socketpair()
    reader = TcpConnection(ours)
    try:
        with theirs:
            theirs.sendall("\n".join(encode_line(TOPIC_SENSOR, seq, 0, SENSORS.to_dict()) for seq in (0, 1)).encode())
        assert reader.next_message(TOPIC_SENSOR, timeout_ms=2000).seq == 0
        with pytest.raises(ConnectionClosed, match="^connection closed$"):
            reader.next_message(TOPIC_SENSOR, timeout_ms=2000)
    finally:
        reader.close()


PAYLOADS = {
    TOPIC_CMD: (Command("car_left", 90.0), Command("buzzer", 0.5)),
    TOPIC_SENSOR: (SENSORS,),
    # one-, two-, three- and four-byte characters, so that a cut can fall inside any of them
    TOPIC_VISION: (Observation(), Observation.from_items(
        (VisibleObject(label="sign", color="vert", shape="polygon", text_on_object="café ☕ \U0001d11e",
                       distance=1.5, bearing=-20.0),))),
    TOPIC_EXEC: (ExecResult(command_echo=Command("car_forward", 0.2), outcome=ExecOutcome.OK, distance_travelled=0.2,
                            heading_change=0.0, sensor_after=SENSORS),),
}
FOREIGN_LINES = ("/carobo/exec|x|0|{}", "not a frame", "/carobo/vision|0|0|[1]", '/carobo/sensor|0|0|{"é',
                 "/carobo/nope|0|0|{}")


class OneIntake(RuleBasedStateMachine):
    """A writer and a reader on each transport, fed the same byte stream.

    The tcp: writer sends the stream in drawn cuts, as they fall; the local:
    writer hands its reader each line once a cut has sent all of it, since a
    local: peer takes whole lines. The model is a FIFO per topic of the lines
    sent whole, which ends at a line that does not decode or at a close. Both
    readers must read exactly the model, except that a tcp: reader closed
    with lines still unread in its socket never reads those.
    """

    def __init__(self):
        super().__init__()
        self.local_writer, self.local_reader = local_pair()
        self.tcp_writer, theirs = socket.socketpair()
        self.tcp_reader = TcpConnection(theirs)
        self.unsent = b""  # written, not yet sent
        self.unfinished = b""  # sent, but its line not yet whole
        self.written = deque()  # per written line: (topic, payload), or (None, why it does not decode)
        self.seq = dict.fromkeys(TOPICS, 0)
        self.lines = {topic: [] for topic in TOPICS}
        self.read_count = {"local:": dict.fromkeys(TOPICS, 0), "tcp:": dict.fromkeys(TOPICS, 0)}
        self.ended = None
        self.writer_open = self.reader_open = True

    def _end(self, reason):
        self.ended = self.ended or reason

    @precondition(lambda self: self.writer_open)
    @rule(data=st.data(), topic=st.sampled_from(TOPICS))
    def publish(self, data, topic):
        payload = data.draw(st.sampled_from(PAYLOADS[topic]))
        self.unsent += (encode_line(topic, self.seq[topic], 0, payload.to_dict()) + "\n").encode()
        self.seq[topic] += 1
        self.written.append((topic, payload))

    @precondition(lambda self: self.writer_open)
    @rule(line=st.sampled_from(FOREIGN_LINES))
    def write_a_foreign_line(self, line):
        with pytest.raises(ProtocolError) as err:
            decode_line(line)
        self.unsent += (line + "\n").encode()
        self.written.append((None, str(err.value)))

    @precondition(lambda self: self.writer_open and self.unsent)
    @rule(data=st.data())
    def send(self, data):
        # a cut before a UTF-8 continuation byte falls inside a character
        inside = [i for i in range(1, len(self.unsent)) if self.unsent[i] & 0xC0 == 0x80]
        cut = data.draw(st.integers(1, len(self.unsent)) | st.sampled_from(inside or [len(self.unsent)]))
        chunk, self.unsent = self.unsent[:cut], self.unsent[cut:]
        with contextlib.suppress(OSError):  # the reader has closed
            self.tcp_writer.sendall(chunk)
        *whole, self.unfinished = (self.unfinished + chunk).split(b"\n")
        for line in whole:
            with contextlib.suppress(ConnectionClosed):  # the reader has closed
                self.local_writer._send_line(line.decode("utf-8"))
            topic, payload = self.written.popleft()
            if self.ended is None and topic is None:
                self._end(payload)
            elif self.ended is None:
                self.lines[topic].append(payload)

    @precondition(lambda self: self.writer_open)
    @rule()
    def close_the_writer(self):
        self.local_writer.close()
        self.tcp_writer.close()
        self.writer_open = False
        self._end("connection closed")  # what is unsent, or sent but not whole, is dropped

    @precondition(lambda self: self.reader_open)
    @rule()
    def close_the_reader(self):
        self.local_reader.close()
        self.tcp_reader.close()
        self.reader_open = False
        self._end("connection closed")

    @rule(topic=st.sampled_from(TOPICS), untimed=st.booleans())
    def read(self, topic, untimed):
        for name, reader in (("local:", self.local_reader), ("tcp:", self.tcp_reader)):
            i = self.read_count[name][topic]
            ready = i < len(self.lines[topic])
            # a read that finds nothing times out: keep that short, as tcp: waits it out; and read
            # untimed only where nothing is to be waited for, as an untimed tcp: read would wait for good
            timeout_ms = (None if untimed else 2000) if ready or self.ended else 5
            try:
                env = reader.next_message(topic, timeout_ms)
            except BridgeTimeout:
                assert not ready and self.ended is None, name
            except ConnectionClosed as exc:
                # a closed tcp: reader has lost what its socket held unread, a foreign line too
                lost = name == "tcp:" and not self.reader_open
                assert str(exc) == self.ended or (lost and str(exc) == "connection closed"), name
                assert not ready or lost, name
            else:
                assert ready and (env.seq, env.payload) == (i, self.lines[topic][i]), name
                self.read_count[name][topic] = i + 1
        if self.reader_open:
            assert self.read_count["local:"] == self.read_count["tcp:"]

    def teardown(self):
        self.local_writer.close()
        self.local_reader.close()
        self.tcp_writer.close()
        self.tcp_reader.close()


def test_both_transports_read_the_same_lines_wherever_the_stream_is_cut(time_limit):
    with time_limit(120.0):
        run_state_machine_as_test(OneIntake, settings=settings(max_examples=80, stateful_step_count=30,
                                                               deadline=None))
