"""Topic-based message bridge between the agents and the robot.

Four fixed topics carry typed payloads; envelopes are newline-delimited
``topic|seq|timestamp|payload`` lines so the same bytes flow through the
in-process transport and a TCP socket. Sequence numbers increase by one per
(connection, topic) and receivers audit the gaps. A payload is written by its
codec's compiled `to_json`, and `encode_line` forms every line around that
text; a read returns an `Envelope`, a NamedTuple, whose payload is decoded
by the topic's `from_dict`.

Both transports take each received line through one intake, `_take`: a line
over MAX_LINE_BYTES (8 MiB of UTF-8), not UTF-8 or not an envelope ends the
reader's receive side with the reason, after what came before it, and never
fails the sender's write. A `tcp:` line cut off by the stream's end is dropped.

The robot end serves a `sim.SimRobot`, the same handle the `direct`
transport uses: on connect it publishes the robot's connect() state as one
sensor and one vision envelope; for every command it publishes the robot's
execute() result as exec, then sensor, then vision. Each of these is one
`publish_all`: its lines are numbered under one lock, and `tcp:` sends them
in one write (`local:` still takes each line through `_take`). No connection reads in
the background: a read takes a queued envelope or reads the socket itself.
The in-process robot answers each command on the thread that publishes it,
so only a TCP robot served in this process has a thread; it waits in calls
that closing a socket ends. `bench.open_robot` opens a handle on any
transport, including a robot that another process serves at `tcp:HOST:PORT`.
"""
from __future__ import annotations

import reprlib
import socket
import threading
import time
from collections import deque
from typing import NamedTuple, Optional, Tuple

from .model import CaroboError, Command, ExecResult, Observation, SensorData, canonical_json, read_json
from . import sim


class ConnectionClosed(CaroboError):
    """The peer went away (or close() was called here)."""


class TopicPayloadMismatch(CaroboError):
    """Payload type does not belong on this topic."""


class BridgeTimeout(CaroboError):
    """No envelope arrived on the topic within the deadline."""


class ProtocolError(CaroboError):
    """Malformed envelope line, sequence gap, or an error envelope from the peer."""


TOPIC_CMD = "/carobo/cmd"
TOPIC_VISION = "/carobo/vision"
TOPIC_SENSOR = "/carobo/sensor"
TOPIC_EXEC = "/carobo/exec"
TOPICS = (TOPIC_CMD, TOPIC_VISION, TOPIC_SENSOR, TOPIC_EXEC)

MAX_LINE_BYTES = 8 << 20  # the longest envelope line taken, in UTF-8 bytes; a 10^4-object world is 1.9 MB

PAYLOAD_TYPES = {
    TOPIC_CMD: Command,
    TOPIC_VISION: Observation,
    TOPIC_SENSOR: SensorData,
    TOPIC_EXEC: ExecResult,
}


class Envelope(NamedTuple):
    topic: str
    seq: int
    timestamp: int  # milliseconds; excluded from every determinism comparison
    payload: object


def encode_line(topic: str, seq: int, timestamp: int, payload_json: str) -> str:
    """The envelope line of a payload already written as canonical JSON."""
    return f"{topic}|{seq}|{timestamp}|{payload_json}"


def decode_line(line: str) -> Tuple[str, int, int, dict]:
    parts = line.split("|", 3)
    if len(parts) != 4:
        raise ProtocolError(f"envelope line needs 4 fields: {reprlib.repr(line)}")
    topic, seq_s, ts_s, payload_s = parts
    if topic not in TOPICS:
        raise ProtocolError(f"unknown topic: {reprlib.repr(topic)}")
    # ASCII digits only: int() would also take "1_0", " 7 ", "+3" and non-ASCII digits,
    # and it still refuses digit strings past the interpreter's conversion limit
    try:
        if not (seq_s.isascii() and seq_s.isdigit() and ts_s.isascii() and ts_s.isdigit()):
            raise ValueError
        seq = int(seq_s)
        timestamp = int(ts_s)
    except ValueError:
        raise ProtocolError(f"bad seq/timestamp in envelope: {reprlib.repr(line)}")
    doc = read_json(payload_s, "envelope payload", ProtocolError)
    if not isinstance(doc, dict):
        raise ProtocolError("payload must be a JSON object")
    return topic, seq, timestamp, doc


def _now_ms() -> int:
    return int(time.time() * 1000)


class _ConnectionBase:
    """Shared publish and receive bookkeeping: a FIFO per topic, fed by `_take`, with
    sequence auditing. Subclasses provide _send_line, _receive and _release, and may
    replace _send_lines, which sends the lines of one publish one at a time."""

    def __init__(self):
        self._queues = {t: deque() for t in TOPICS}
        self._expected = dict.fromkeys(TOPICS, 0)
        self._out_seq = dict.fromkeys(TOPICS, 0)
        self._send_lock = threading.Lock()
        self._closed = False
        self._ended: Optional[str] = None  # why the receive side ended, once it has

    def publish(self, topic: str, payload):
        self.publish_all(((topic, payload),))

    def publish_all(self, messages):
        """Send each (topic, payload) of `messages`, in order and together: no other
        publish on this connection comes between them."""
        written = []
        for topic, payload in messages:
            payload_type = PAYLOAD_TYPES.get(topic)
            if payload_type is None:
                raise TopicPayloadMismatch(f"unknown topic: {topic!r}")
            if not isinstance(payload, payload_type):
                raise TopicPayloadMismatch(f"{topic} carries {payload_type.__name__}, got {type(payload).__name__}")
            written.append((topic, payload.to_json()))
        self._publish_json(written)

    def publish_error(self, topic: str, message: str):
        """Defensive escape hatch: sends an error document on the topic. The
        message may quote a peer's text; what UTF-8 cannot encode goes as escapes."""
        error = message.encode("utf-8", "backslashreplace").decode("utf-8")
        self._publish_json(((topic, canonical_json({"error": error})),))

    def _publish_json(self, written):
        """Number and send (topic, payload JSON) pairs, under the send lock."""
        with self._send_lock:
            if self._closed:
                raise ConnectionClosed("publish on a closed connection")
            timestamp = _now_ms()
            lines = []
            for topic, payload_json in written:
                seq = self._out_seq[topic]
                self._out_seq[topic] = seq + 1
                lines.append(encode_line(topic, seq, timestamp, payload_json))
            self._send_lines(lines)

    def _send_lines(self, lines):
        for line in lines:
            self._send_line(line)

    def next_message(self, topic: str, timeout_ms: Optional[float] = None) -> Envelope:
        """The next envelope on `topic`. Envelopes queued before the receive
        side ended are still delivered; after them, ConnectionClosed."""
        if topic not in TOPICS:
            raise TopicPayloadMismatch(f"unknown topic: {topic!r}")
        queue = self._queues[topic]
        if not queue:
            self._receive(topic, timeout_ms)
        seq, timestamp, doc = queue.popleft()
        expected = self._expected[topic]
        if seq != expected:
            raise ProtocolError(f"sequence gap on {topic}: expected {expected}, got {seq}")
        self._expected[topic] = expected + 1
        if "error" in doc and len(doc) == 1:
            raise ProtocolError(f"peer reported: {doc['error']}")
        return Envelope(topic, seq, timestamp, PAYLOAD_TYPES[topic].from_dict(doc))

    def _take(self, line) -> Optional[str]:
        """Queue the envelope in one received line (str, or bytes off a socket) and return
        its topic; a line that ends the receive side, or comes after one, gives None."""
        if self._ended is not None:
            return None
        try:
            if type(line) is not str:
                line = line.decode("utf-8")
            # no line of at most MAX_LINE_BYTES // 4 characters encodes to more bytes than that
            if len(line) > MAX_LINE_BYTES // 4 and len(line.encode("utf-8", "surrogatepass")) > MAX_LINE_BYTES:
                raise ProtocolError(f"envelope line longer than {MAX_LINE_BYTES} bytes")
            topic, seq, timestamp, doc = decode_line(line)
        except UnicodeDecodeError as exc:
            self._end(f"envelope line is not UTF-8: {exc}")
            return None
        except ProtocolError as exc:
            self._end(str(exc))
            return None
        self._queues[topic].append((seq, timestamp, doc))
        return topic

    def _end(self, reason: str):
        if self._ended is None:
            self._ended = reason

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._end("connection closed")
        self._release()


class LocalConnection(_ConnectionBase):
    """One end of an in-process duplex pair.

    A line sent from one end is queued at the other before the send returns,
    so a read never waits. An end with a `robot` serves it: each command line
    that reaches it is answered at once, on the sender's thread.
    """

    def __init__(self):
        super().__init__()
        self.peer: Optional["LocalConnection"] = None
        self.robot: Optional[sim.SimRobot] = None

    def _send_line(self, line: str):
        peer = self.peer
        if peer is None or peer._closed:
            raise ConnectionClosed("peer is gone")
        topic = peer._take(line)
        # a robot answers a command; after a line that ended its receive side, it drops the client
        if topic in (TOPIC_CMD, None) and peer.robot is not None and not answer(peer.robot, peer):
            peer.close()

    def _receive(self, topic: str, timeout_ms: Optional[float]):
        if self._ended is not None:
            raise ConnectionClosed(self._ended)
        raise BridgeTimeout(f"no message on {topic}: the local: peer has sent none")

    def _release(self):
        """Ends the peer's receive side and lets go of it, so that a closed
        pair holds no reference cycle."""
        if self.peer is not None:
            self.peer._end("connection closed")
            self.peer = None


def local_pair() -> Tuple[LocalConnection, LocalConnection]:
    a, b = LocalConnection(), LocalConnection()
    a.peer, b.peer = b, a
    return a, b


class TcpConnection(_ConnectionBase):
    """One end of a TCP stream; a read takes lines from the socket into the
    topic queues, on the reading thread, until its topic has one."""

    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock
        self._partial = bytearray()  # received bytes after the last newline
        try:
            # each message is one small line; waiting to coalesce them only adds latency
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    def _receive(self, topic: str, timeout_ms: Optional[float]):
        queue = self._queues[topic]
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
        while not queue:
            if self._ended is not None:
                raise ConnectionClosed(self._ended)
            wait = None
            if deadline is not None:
                # once the deadline has passed, one more read that does not block: a line already
                # in the socket buffer is taken, as a local: read takes one already queued
                wait = max(deadline - time.monotonic(), 0.0)
            try:
                self._sock.settimeout(wait)
                data = self._sock.recv(65536)
            except socket.timeout:
                continue  # the deadline has passed
            except BlockingIOError:  # the read that does not block found nothing
                raise BridgeTimeout(f"no message on {topic} within {timeout_ms} ms") from None
            except OSError:
                data = b""
            if not data:
                self._end("connection closed")
                continue
            # only the bytes just received can hold a newline, so each byte is searched once
            start = len(self._partial)
            self._partial += data
            end = self._partial.rfind(b"\n", start)
            if end >= 0:
                for line in self._partial[:end].split(b"\n"):
                    if line:
                        self._take(line)
                del self._partial[:end + 1]
            if len(self._partial) > MAX_LINE_BYTES:  # a line that can only end past the cap
                self._end(f"envelope line longer than {MAX_LINE_BYTES} bytes")
                self._partial.clear()

    def _send_line(self, line: str):
        self._send_lines((line,))

    def _send_lines(self, lines):
        """All the lines of one publish in one write."""
        try:
            if self._sock.gettimeout() == 0:  # left non-blocking by a read past its deadline
                self._sock.settimeout(None)
            self._sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))
        except OSError as exc:
            raise ConnectionClosed(f"socket send failed: {exc}") from exc

    def _release(self):
        try:
            # wakes a read blocked on this socket in another thread
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_connect(host: str, port: int, timeout_s: float = 10.0) -> TcpConnection:
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
        sock.settimeout(None)
    except OSError as exc:
        raise ConnectionClosed(f"cannot connect to {host}:{port}: {exc}") from exc
    return TcpConnection(sock)


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split "HOST:PORT" or "tcp:HOST:PORT" into (host, port); an empty host is 127.0.0.1."""
    address = endpoint[len("tcp:"):] if endpoint.startswith("tcp:") else endpoint
    host, sep, port_s = address.rpartition(":")
    if not sep or not port_s.isdigit() or int(port_s) > 65535:
        raise CaroboError(f"endpoint {endpoint!r} needs the form tcp:HOST:PORT or HOST:PORT")
    return host or "127.0.0.1", int(port_s)


# ---------------------------------------------------------------------------
# Serving a SimRobot behind a connection

def _publish_connect(robot: sim.SimRobot, conn):
    sensors, obs = robot.connect()
    conn.publish_all(((TOPIC_SENSOR, sensors), (TOPIC_VISION, obs)))


def answer(robot: sim.SimRobot, conn) -> bool:
    """Read one command from `conn`, execute it on `robot`, and publish exec,
    then sensor, then vision.

    Returns False when the connection is done: the peer left, or the command
    was malformed and got an error envelope on the exec topic. The caller
    then closes `conn`.
    """
    try:
        env = conn.next_message(TOPIC_CMD)
    except ConnectionClosed:
        return False
    except CaroboError as exc:
        # malformed command payload: report it before the connection drops
        try:
            conn.publish_error(TOPIC_EXEC, f"bad command: {exc}")
        except ConnectionClosed:
            pass
        return False
    result, sensors, obs = robot.execute(env.payload)
    conn.publish_all(((TOPIC_EXEC, result), (TOPIC_SENSOR, sensors), (TOPIC_VISION, obs)))
    return True


def serve(robot: sim.SimRobot, conn):
    """Serve `robot` on `conn` until the peer disconnects or `conn` is closed."""
    try:
        _publish_connect(robot, conn)
        while answer(robot, conn):
            pass
    except ConnectionClosed:
        pass
    finally:
        conn.close()


def start_local_robot(world: sim.WorldState):
    """Host `world` in process; returns (client connection, SimRobot, shutdown).

    Starts no thread: the connect state is published here, and each command
    the client publishes is answered before its publish returns.
    """
    client, server = local_pair()
    robot = sim.SimRobot(world)
    server.robot = robot
    _publish_connect(robot, server)

    def shutdown():
        client.close()
        server.close()

    return client, robot, shutdown


class TcpRobotServer:
    """TCP listener that serves one SimRobot to sequential clients."""

    def __init__(self, world: sim.WorldState, host: str = "127.0.0.1", port: int = 0):
        self.robot = sim.SimRobot(world)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(1)
        except OSError as exc:
            self._listener.close()
            raise CaroboError(f"cannot listen on {host}:{port}: {exc}") from exc
        self.host, self.port = self._listener.getsockname()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()  # orders stop() against a connection being accepted
        self._stopped = False
        self._conn: Optional[TcpConnection] = None

    def serve_forever(self):
        """Serve clients one at a time until stop() shuts the listener."""
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            with self._lock:
                if self._stopped:
                    sock.close()
                    return
                self._conn = TcpConnection(sock)
            serve(self.robot, self._conn)

    def start(self) -> "TcpRobotServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        with self._lock:
            self._stopped = True
            conn = self._conn
        try:
            # wakes a pending accept(); closing the connection ends its read
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if conn is not None:
            conn.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._listener.close()


def serve_robot(world: sim.WorldState, endpoint: str):
    """Serve a world at `endpoint` ("HOST:PORT" or "tcp:HOST:PORT"); blocks forever.

    Prints the bound address once listening, so a port of 0 shows the port
    chosen. The in-process transport has no standalone server; use
    start_local_robot to get both ends in one process.
    """
    server = TcpRobotServer(world, *parse_endpoint(endpoint))
    print(f"serving robot world on {server.host}:{server.port}", flush=True)
    server.serve_forever()


# ---------------------------------------------------------------------------
# The bridge as a robot handle for the episode loop

class BridgeRobot:
    """Adapter giving the episode loop its connect()/execute() surface.

    `robot` is the SimRobot served at the other end when it runs in this
    process; a robot served by another process leaves it None.
    """

    def __init__(self, conn, robot: Optional[sim.SimRobot] = None, timeout_ms: float = 10_000.0):
        self._conn = conn
        self._robot = robot
        self._timeout_ms = timeout_ms

    @property
    def world(self) -> Optional[sim.WorldState]:
        """The served robot's world, or None when another process serves it."""
        return self._robot.world if self._robot is not None else None

    def _pull_state(self):
        sensor_env = self._conn.next_message(TOPIC_SENSOR, self._timeout_ms)
        vision_env = self._conn.next_message(TOPIC_VISION, self._timeout_ms)
        return sensor_env.payload, vision_env.payload

    def connect(self):
        return self._pull_state()

    def execute(self, command: Command):
        self._conn.publish(TOPIC_CMD, command)
        exec_env = self._conn.next_message(TOPIC_EXEC, self._timeout_ms)
        sensors, obs = self._pull_state()
        return exec_env.payload, sensors, obs

    def close(self):
        self._conn.close()
