"""Every JSON input boundary rejects a document nested too deeply to read with
a typed error: through the CLI, exit 2 and one `error:` line."""
import socket

import pytest

from carobo.bridge import TOPIC_SENSOR, ConnectionClosed, ProtocolError, TcpConnection, decode_line
from carobo.cli import main
from carobo.llm import ReplayBackend, ReplayConfig

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
