"""Message bridge: wire format, sequencing, transports, the served robot."""
import socket
import threading
import time

import pytest

from carobo import bench, sim
from carobo.bridge import (
    TOPIC_CMD,
    TOPIC_EXEC,
    TOPIC_SENSOR,
    TOPIC_VISION,
    TOPICS,
    BridgeRobot,
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
from carobo.model import CaroboError, Command, Observation, SensorData, VisibleObject
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
    """16 MB without a newline, then the end of the stream: the reader
    searches each received byte for a newline once. On a 2-vCPU host, a
    reader that joined and split its whole buffer on every recv took 2.8 s;
    this one takes about 15 ms."""
    ours, theirs = socket.socketpair()
    conn = TcpConnection(ours)
    writer = threading.Thread(target=lambda: (theirs.sendall(b"x" * (16 << 20)), theirs.close()))
    writer.start()
    try:
        with time_limit(1.0), pytest.raises(ConnectionClosed, match="connection closed"):
            conn.next_message(TOPIC_SENSOR)
    finally:
        conn.close()
        writer.join(timeout=10)
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
