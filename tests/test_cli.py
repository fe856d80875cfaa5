"""Command line entry points, exercised through main(argv)."""
import contextlib
import io
import itertools
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carobo import cli, policies
from carobo.bench import DATA_DIR, default_suite_path, load_benchmark
from carobo.bridge import TcpRobotServer
from carobo.cli import main
from carobo.model import CaroboError
from carobo.sim import load_world


SRC = Path(__file__).resolve().parent.parent / "src"


def request_of(sid):
    for s in load_benchmark(default_suite_path()):
        if s.id == sid:
            return s.request_text
    raise KeyError(sid)


def world_file(sid):
    return str(DATA_DIR / "worlds" / f"{sid}.json")


# ---------------------------------------------------------------------------
# run

def test_run_oracle_episode(capsys):
    code = main([
        "run", "--request", request_of("obj_1"), "--world", world_file("obj_1"),
        "--backend", "mock", "--policy", "oracle",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[round 0]" in out
    assert "Success" in out


def test_run_exit_one_on_failure(capsys):
    code = main([
        "run", "--request", "Whatever.", "--world", world_file("cmd_1"),
        "--policy", "spin", "--max-steps", "3",
    ])
    assert code == 1
    assert "StepLimit" in capsys.readouterr().out


def test_run_transport_self_hosted_tcp(capsys):
    code = main([
        "run", "--request", request_of("sa_1"), "--world", world_file("sa_1"),
        "--transport", "tcp:",
    ])
    assert code == 0


@pytest.mark.parametrize("transport", ["direct", "local:", "tcp:"])
def test_run_refuses_a_world_past_the_limit_on_every_transport(tmp_path, capsys, transport):
    """Differences of these coordinates overflow: the camera would report an
    infinite distance, which only the bridged transports refuse to decode.
    Every transport refuses the world before the episode, with one line."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"robot": {}, "objects": [{"id": "far", "kind": "box", "shape": {
        "type": "polygon", "vertices": [[1e308, 1e307], [1.5e308, 1e307], [1.2e308, 1.5e308]]}}]}), encoding="utf-8")
    code = main(["run", "--request", "x", "--policy", "finish_now", "--world", str(path), "--transport", transport])
    assert (code, capsys.readouterr().err) == (2, "error: the world reaches past 1e+150 m from the origin\n")


@pytest.mark.parametrize("transport", ["carrier-pigeon", "local", "tcp"])
def test_run_unknown_transport(capsys, transport):
    code = main([
        "run", "--request", "x", "--world", world_file("sa_1"), "--transport", transport,
    ])
    assert code == 2
    assert "transport" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["tcp:127.0.0.1:", "tcp:127.0.0.1:slow", "tcp:7450"])
def test_run_malformed_tcp_endpoint(capsys, endpoint):
    # malformed remote endpoints must fail cleanly, not with a traceback
    code = main(["run", "--request", "x", "--transport", endpoint])
    assert code == 2
    assert "tcp:HOST:PORT" in capsys.readouterr().err


def test_run_http_needs_endpoint(capsys):
    code = main(["run", "--request", "x", "--world", world_file("sa_1"), "--backend", "http"])
    assert code == 2
    assert "endpoint" in capsys.readouterr().err


def test_run_replay_needs_trace(capsys):
    code = main(["run", "--request", "x", "--world", world_file("sa_1"), "--backend", "replay"])
    assert code == 2


def test_run_rejects_a_world_for_a_remote_robot(capsys):
    # the served robot owns its world; the run must fail before it connects
    world = load_world(json.loads(Path(world_file("obj_1")).read_text(encoding="utf-8")))
    server = TcpRobotServer(world).start()
    try:
        code = main(["run", "--request", request_of("obj_1"), "--world", world_file("obj_1"),
                     "--transport", f"tcp:127.0.0.1:{server.port}"])
    finally:
        server.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"tcp:127.0.0.1:{server.port}" in captured.err and "cannot host a world" in captured.err
    assert server.robot.world is world


def test_run_without_world(capsys):
    code = main(["run", "--request", "x", "--transport", "direct"])
    assert code == 2
    assert "--world" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay of a recorded episode

def test_run_then_replay_round_trip(tmp_path, capsys):
    trace = str(tmp_path / "episode.jsonl")
    assert main([
        "run", "--request", request_of("cmd_1"), "--world", world_file("cmd_1"),
        "--trace", trace,
    ]) == 0
    capsys.readouterr()

    out_trace = str(tmp_path / "again.jsonl")
    code = main(["replay", "--trace", trace, "--out", out_trace])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("match") == 5 and "MISMATCH" not in out
    # the regenerated trace is byte-identical to the recording
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "episode.jsonl").read_bytes()


def test_a_trace_whose_strings_hold_unicode_line_breaks_replays(tmp_path, capsys):
    # a trace writes U+2028, U+2029 and U+0085 raw; only "\n" ends one of its records
    host_line = json.dumps({"observation": "o", "thoughts": "t", "plan": ["look"], "comment": "c"})
    finish_line = json.dumps({"observation": "o", "comment": "done\u2028here\u2029and\x85now", "status": "FINISH"})
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(json.dumps(line) for line in (host_line, finish_line)) + "\n", encoding="utf-8")
    trace = tmp_path / "episode.jsonl"
    assert main(["run", "--request", "look", "--world", world_file("obj_1"), "--backend", "replay",
                 "--replay-trace", str(stream), "--trace", str(trace)]) == 0
    assert "\u2028" in trace.read_text(encoding="utf-8")
    capsys.readouterr()

    code = main(["replay", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.count(": match") == 5 and "MISMATCH" not in captured.out


def test_replay_compares_the_failure_reason(tmp_path, capsys):
    trace = tmp_path / "episode.jsonl"
    assert main([
        "run", "--request", "Look around.", "--world", world_file("cmd_1"),
        "--policy", "spin", "--max-steps", "2", "--trace", str(trace),
    ]) == 1
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"failure_reason":"StepLimit"' in lines[-1]
    lines[-1] = lines[-1].replace('"StepLimit"', '"BackendError"')
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    assert main(["replay", "--trace", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "failure reason: MISMATCH (recorded 'BackendError', replayed 'StepLimit')" in out
    assert out.count(": match") == 4


def test_replay_rejects_non_trace(tmp_path, capsys):
    bogus = tmp_path / "not_a_trace.jsonl"
    bogus.write_text("")
    assert main(["replay", "--trace", str(bogus)]) == 2


def test_replay_of_a_remote_run_says_it_has_no_world(tmp_path, capsys):
    world = load_world(json.loads(Path(world_file("cmd_1")).read_text(encoding="utf-8")))
    server = TcpRobotServer(world).start()
    trace = tmp_path / "remote.jsonl"
    try:
        assert main(["run", "--request", request_of("cmd_1"), "--transport",
                     f"tcp:127.0.0.1:{server.port}", "--trace", str(trace)]) == 0
    finally:
        server.stop()
    assert json.loads(trace.read_text().splitlines()[0])["world"] is None
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "remote robot" in err and "cannot be replayed" in err


def _unknown_type_in_the_middle(records):
    records[len(records) // 2]["type"] = "nope"
    return len(records) // 2


def _round_without_its_round(records):
    index = next(i for i, rec in enumerate(records) if rec["type"] == "round")
    del records[index]["round"]
    return index


def _host_plan_that_is_empty(records):
    index = next(i for i, rec in enumerate(records) if rec["type"] == "host")
    records[index]["decision"]["plan"] = []
    return index


def _round_record_index_not_its_round(records):
    index = next(i for i, rec in enumerate(records) if rec["type"] == "round")
    records[index]["index"] = 99
    return index


def _round_index_not_its_record(records):
    index = next(i for i, rec in enumerate(records) if rec["type"] == "round")
    records[index]["round"]["index"] = 7
    return index


BROKEN_RECORDS = {"unknown type in the middle": _unknown_type_in_the_middle,
                  "round record without its round": _round_without_its_round,
                  "host plan that is empty": _host_plan_that_is_empty,
                  "round record index not its round's": _round_record_index_not_its_round,
                  "round index not its record's": _round_index_not_its_record}


@pytest.mark.parametrize("case", sorted(BROKEN_RECORDS))
def test_a_trace_record_that_does_not_decode_exits_two_naming_its_line(tmp_path, capsys, case):
    """Every record is decoded by its type's class before anything is replayed."""
    trace = tmp_path / "episode.jsonl"
    assert main(["run", "--request", request_of("obj_1"), "--world", world_file("obj_1"),
                 "--trace", str(trace)]) == 0
    records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    index = BROKEN_RECORDS[case](records)
    assert 0 < index < len(records) - 1
    trace.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    out = tmp_path / "again.jsonl"
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace {trace}, line {index + 1}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_replay_compares_every_round(tmp_path, capsys):
    """The first two round records swapped replay to the same result, since
    their commands (two quarter turns left) commute; the rounds differ."""
    trace = tmp_path / "episode.jsonl"
    assert main(["run", "--request", request_of("obj_1"), "--world", world_file("obj_1"),
                 "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    first, second = [i for i, line in enumerate(lines) if line.startswith('{"index":')][:2]
    names = [json.loads(lines[i])["round"]["action"]["name"] for i in (first, second)]
    assert names == ["car_left", "car_left"]
    lines[first], lines[second] = lines[second], lines[first]
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    assert main(["replay", "--trace", str(trace)]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 1 and "round 0: MISMATCH\n" in out
    assert out.count(": match") == 5


def _recorded_trace(tmp_path):
    trace = tmp_path / "episode.jsonl"
    assert main(["run", "--request", request_of("cmd_1"), "--world", world_file("cmd_1"),
                 "--trace", str(trace)]) == 0
    return trace


def _header_without_limits(tmp_path):
    trace = _recorded_trace(tmp_path)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    del header["limits"]
    trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return ["replay", "--trace", str(trace)]


def _not_json(tmp_path, name):
    path = tmp_path / name
    path.write_text("{not json\n")
    return str(path)


def _world_with_an_unreachable_camera_pitch(tmp_path):
    doc = json.loads((DATA_DIR / "worlds" / "obj_1.json").read_text(encoding="utf-8"))
    doc["robot"]["camera_pitch"] = 99
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["run", "--request", "look", "--world", str(path)]


def _suite_with_an_unknown_oracle_command(tmp_path):
    shutil.copytree(DATA_DIR / "worlds", tmp_path / "worlds")
    doc = json.loads(default_suite_path().read_text(encoding="utf-8"))
    doc["scenarios"][0]["oracle"]["commands"][0]["name"] = "car_fly"
    (tmp_path / "suite.json").write_text(json.dumps(doc), encoding="utf-8")
    return ["bench", "--suite", str(tmp_path / "suite.json")]


def _run_replaying(path):
    return ["run", "--world", world_file("obj_1"), "--request", "find the fridge",
            "--backend", "replay", "--replay-trace", str(path)]


def _replay_stream_not_utf8(tmp_path):
    path = tmp_path / "stream.jsonl"
    path.write_bytes(b"\xff\xfe bad\n")
    return _run_replaying(path)


def _replay_out_in_a_missing_directory(tmp_path):
    return ["replay", "--trace", str(_recorded_trace(tmp_path)), "--out", str(tmp_path / "nope" / "t.jsonl")]


def _replay_out_that_is_a_directory(tmp_path):
    return ["replay", "--trace", str(_recorded_trace(tmp_path)), "--out", str(tmp_path)]


def _bench_traces_dir_that_is_a_file(tmp_path):
    (tmp_path / "traces").write_text("", encoding="utf-8")
    return ["bench", "--traces-dir", str(tmp_path / "traces")]


BAD_FILES = {
    "missing world": lambda tmp: ["run", "--request", "x", "--world", str(tmp / "nope.json")],
    "world not JSON": lambda tmp: ["run", "--request", "x", "--world", _not_json(tmp, "w.json")],
    "world camera pitch 99": _world_with_an_unreachable_camera_pitch,
    "serve missing world": lambda tmp: ["serve", "--world", str(tmp / "nope.json")],
    "missing trace": lambda tmp: ["replay", "--trace", str(tmp / "nope.jsonl")],
    "missing replay stream": lambda tmp: _run_replaying(tmp / "nope.jsonl"),
    "replay stream not UTF-8": _replay_stream_not_utf8,
    "trace line not JSON": lambda tmp: ["replay", "--trace", _not_json(tmp, "t.jsonl")],
    "header without limits": _header_without_limits,
    "suite oracle command unknown": _suite_with_an_unknown_oracle_command,
    # output paths that cannot be written
    "run --trace in a missing directory": lambda tmp: ["run", "--request", "x", "--world", world_file("obj_1"),
                                                       "--trace", str(tmp / "nope" / "t.jsonl")],
    "replay --out in a missing directory": _replay_out_in_a_missing_directory,
    "bench --out in a missing directory": lambda tmp: ["bench", "--out", str(tmp / "nope" / "report.json")],
    "bench --traces-dir that is a file": _bench_traces_dir_that_is_a_file,
    "run --trace that is a directory": lambda tmp: ["run", "--request", "x", "--world", world_file("obj_1"),
                                                    "--trace", str(tmp)],
    "replay --out that is a directory": _replay_out_that_is_a_directory,
    "bench --out that is a directory": lambda tmp: ["bench", "--policy", "oracle", "--out", str(tmp)],
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_input_files_exit_two(tmp_path, capsys, case):
    argv = BAD_FILES[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "serving" not in captured.out


OUTPUT_PATHS = ("run --trace in a missing directory", "replay --out in a missing directory",
                "bench --out in a missing directory", "bench --traces-dir that is a file",
                "run --trace that is a directory", "replay --out that is a directory",
                "bench --out that is a directory")


@pytest.mark.parametrize("case", OUTPUT_PATHS)
def test_an_output_path_that_cannot_be_written_fails_before_the_work(tmp_path, capsys, monkeypatch, case):
    argv = BAD_FILES[case](tmp_path)
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: ran.append("episode"))
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: ran.append("suite"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert captured.err.startswith("error: cannot ") and captured.err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(st.text())
@example("first\nsecond")
@example("a\r\nb\x0bc\x0cd\x1ce\x85f\u2028g\u2029h\x00i\x7f")
def test_every_error_is_one_line(message):
    """Whatever text a CaroboError carries, from a file or a peer, main
    writes one `error:` line; a message with no control character keeps its
    bytes."""
    def fail(path):
        raise CaroboError(message)

    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(stderr):
        patch.setattr(cli.sim, "load_world_file", fail)
        assert main(["serve", "--world", "w.json"]) == 2
    err = stderr.getvalue()
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and err.endswith("\n")
    if not any(unicodedata.category(c) == "Cc" or c in "\u2028\u2029" for c in message):
        assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# bench

def test_bench_oracle_reports_perfect_run(capsys):
    code = main(["bench", "--backend", "mock", "--policy", "oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall                100.0% (20/20)" in out


def test_bench_replay_bundles_by_model_name(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "bench", "--backend", "replay", "--replay-dir", "gpt-4o", "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "90.0% (18/20)" in out
    report = json.loads(out_path.read_text())
    assert report["overall_rate"] == 90.0
    assert len(report["rows"]) == 20


@pytest.mark.parametrize("scenario", ["obj_1", "sa_5"])  # the suite's first and last worlds
def test_bench_names_a_malformed_world_file(tmp_path, capsys, scenario):
    shutil.copytree(DATA_DIR / "worlds", tmp_path / "worlds")
    shutil.copy(default_suite_path(), tmp_path / "suite.json")
    bad = tmp_path / "worlds" / f"{scenario}.json"
    bad.write_text("{not json\n")
    traces = tmp_path / "traces"
    assert main(["bench", "--suite", str(tmp_path / "suite.json"), "--traces-dir", str(traces)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read world ") and str(bad.resolve()) in err
    assert not traces.exists() or not any(traces.iterdir()), "an episode ran before the bad world was read"


def _world_with_an_unencodable_id(tmp_path):
    text = (DATA_DIR / "worlds" / "obj_1.json").read_text(encoding="utf-8")
    assert '"fridge"' in text
    path = tmp_path / "world.json"
    path.write_text(text.replace('"fridge"', '"fridge\\ud800"'), encoding="utf-8")
    return ["run", "--request", "look", "--world", str(path)]


def _suite_with_an_unencodable_request(tmp_path):
    shutil.copytree(DATA_DIR / "worlds", tmp_path / "worlds")
    doc = json.loads(default_suite_path().read_text(encoding="utf-8"))
    doc["scenarios"][0]["request_text"] += " \ud800"
    # json.dumps writes the lone surrogate as the ASCII escape \ud800
    (tmp_path / "suite.json").write_text(json.dumps(doc), encoding="utf-8")
    return ["bench", "--suite", str(tmp_path / "suite.json"), "--traces-dir", str(tmp_path / "traces")]


def _trace_with_an_unencodable_request(tmp_path):
    trace = _recorded_trace(tmp_path)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["request_text"] += " \ud800"
    trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return ["replay", "--trace", str(trace)]


@pytest.mark.parametrize("case", [_world_with_an_unencodable_id, _suite_with_an_unencodable_request,
                                  _trace_with_an_unencodable_request], ids=["world", "suite", "trace"])
def test_a_string_utf8_cannot_encode_exits_two(tmp_path, capsys, case):
    argv = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "UTF-8 cannot encode (lone surrogate at index " in err
    traces = tmp_path / "traces"
    assert not traces.exists() or not any(traces.iterdir()), "an episode ran before the bad suite was read"


HOST_LINE = json.dumps({"observation": "o", "thoughts": "t", "plan": ["p"], "comment": "c"})
FINISH_LINE = json.dumps({"observation": "o", "comment": "done", "status": "FINISH"})


def _stuttering_policy(monkeypatch, tmp_path):
    """A mock policy whose app completions alternate garbage and FINISH."""
    app_calls = itertools.count()

    def stutter(prompt):
        if policies._is_host(prompt):
            return HOST_LINE
        return "not json" if next(app_calls) % 2 == 0 else FINISH_LINE

    monkeypatch.setitem(policies.POLICIES, "stutter", stutter)
    return ["--backend", "mock", "--policy", "stutter"]


def _stuttering_streams(monkeypatch, tmp_path):
    """Replay streams of a host plan, garbage and FINISH for every scenario."""
    for spec in load_benchmark(default_suite_path()):
        lines = (json.dumps(line) for line in (HOST_LINE, "not json", FINISH_LINE))
        (tmp_path / f"{spec.id}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--backend", "replay", "--replay-dir", str(tmp_path)]


@pytest.mark.parametrize("backend", [_stuttering_policy, _stuttering_streams])
def test_bench_max_retries_reaches_every_backend(tmp_path, monkeypatch, capsys, backend):
    # with retries the garbage is retried inside round 0; without, it fails round 0
    argv = ["bench"] + backend(monkeypatch, tmp_path)
    rounds = {}
    for retries in ("3", "0"):
        out = tmp_path / f"report-{retries}.json"
        assert main(argv + ["--max-retries", retries, "--out", str(out)]) == 0
        rounds[retries] = {row["rounds"] for row in json.loads(out.read_text())["rows"]}
    assert rounds == {"3": {1}, "0": {2}}


def test_an_integer_past_the_int_string_limit_is_retried(tmp_path, capsys):
    # json refuses to convert more than 4300 digits with a plain ValueError
    distance = "1" * 5000
    huge = ('{"observation": "o", "comment": "c", "status": "CONTINUE", '
            '"command": {"name": "car_forward", "args": {"distance": %s}}}' % distance)
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(json.dumps(line) for line in (HOST_LINE, huge, FINISH_LINE)) + "\n",
                      encoding="utf-8")
    trace = tmp_path / "episode.jsonl"
    code = main(["run", "--request", request_of("obj_1"), "--world", world_file("obj_1"),
                 "--backend", "replay", "--replay-trace", str(stream), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    # round 0 retried past the unreadable completion and finished on the next one
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["raw"] for r in records if r["type"] == "round"] == [FINISH_LINE]
    assert records[-1]["rounds"] == 1


# ASCII lines whose \ud800 escapes decode to lone surrogates, which no trace or stdout can encode
BAD_HOST_LINE = json.dumps({"observation": "o", "thoughts": "t", "plan": ["p \ud800"], "comment": "c"})
BAD_APP_LINE = json.dumps({"observation": "o", "comment": "bad \ud800 surrogate", "status": "FINISH"})


# without a trace nothing writes the plan, so only a traced run can trip on a host plan's surrogate
@pytest.mark.parametrize("stream, trace", [
    pytest.param((HOST_LINE, BAD_APP_LINE, FINISH_LINE), False, id="app-stdout"),
    pytest.param((HOST_LINE, BAD_APP_LINE, FINISH_LINE), True, id="app-trace"),
    pytest.param((BAD_HOST_LINE, HOST_LINE, FINISH_LINE), True, id="host-trace"),
])
def test_a_completion_with_a_lone_surrogate_is_retried(tmp_path, capsys, stream, trace):
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(stream) + "\n", encoding="utf-8")  # bare decision lines, served verbatim
    episode = tmp_path / "episode.jsonl"
    code = main(["run", "--request", "look", "--world", world_file("obj_1"), "--backend", "replay",
                 "--replay-trace", str(path)] + (["--trace", str(episode)] if trace else []))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "Success after 0 steps / 1 rounds" in captured.out
    if trace:
        records = [json.loads(line) for line in episode.read_text(encoding="utf-8").splitlines()]
        assert [(r["type"], r["raw"]) for r in records if "raw" in r] == [("host", HOST_LINE),
                                                                         ("round", FINISH_LINE)]


@pytest.mark.parametrize("plan", [["go", "  "], [], "go"], ids=["blank-step", "no-step", "a-string"])
def test_a_host_plan_that_is_no_plan_is_retried(tmp_path, capsys, plan):
    bad_host_line = json.dumps({"observation": "o", "thoughts": "t", "plan": plan, "comment": "c"})
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join((bad_host_line, HOST_LINE, FINISH_LINE)) + "\n", encoding="utf-8")
    code = main(["run", "--request", "look", "--world", world_file("obj_1"), "--backend", "replay",
                 "--replay-trace", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "Success after 0 steps / 1 rounds" in captured.out


@pytest.mark.parametrize("argv", [
    ["run", "--request", "x", "--world", world_file("cmd_1")],
    ["bench", "--backend", "mock"],
    ["bench", "--backend", "replay", "--replay-dir", "gpt-4o"],
])
def test_negative_max_retries_exits_two(capsys, argv):
    assert main(argv + ["--max-retries", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_retries must be >= 0") and err.count("\n") == 1


def test_bench_replay_needs_directory(capsys):
    assert main(["bench", "--backend", "replay"]) == 2
    assert main(["bench", "--backend", "replay", "--replay-dir", "no-such-model"]) == 2


def test_bench_custom_suite_path(capsys):
    code = main(["bench", "--suite", str(default_suite_path()), "--policy", "finish_now"])
    out = capsys.readouterr().out
    assert code == 0
    # finishing instantly fails every scenario that needs movement
    assert "overall" in out and "100.0% (20/20)" not in out


# ---------------------------------------------------------------------------
# serve

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_accepts_remote_run(capsys):
    port = free_port()
    thread = threading.Thread(
        target=main,
        args=(["serve", "--world", world_file("obj_1"), "--listen", f"127.0.0.1:{port}"],),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 5
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            break
        except OSError:
            if time.monotonic() > deadline:
                pytest.fail("serve did not open its port")
            time.sleep(0.05)

    code = main([
        "run", "--request", request_of("obj_1"), "--transport", f"tcp:127.0.0.1:{port}",
    ])
    assert code == 0
    assert "Success" in capsys.readouterr().out


def test_serve_on_a_busy_port_exits_two(capsys, time_limit):
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        with time_limit(10.0):
            code = main(["serve", "--world", world_file("obj_1"), "--listen", f"127.0.0.1:{port}"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"cannot listen on 127.0.0.1:{port}" in captured.err
    assert "serving" not in captured.out


def test_a_wire_line_that_is_not_utf8_exits_two_with_one_line():
    """A robot at tcp:HOST:PORT whose first envelope holds a byte UTF-8 cannot
    decode: the run ends with one error line, and no thread traceback."""
    line = b'/carobo/sensor|0|0|{"ultrasonic_clearance":1.0,"ir_left":false,"ir_right":"\xff"}\n'
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]

        def robot():
            sock, _addr = listener.accept()
            with sock:
                sock.sendall(line)
                while sock.recv(4096):  # until the client leaves
                    pass

        thread = threading.Thread(target=robot, daemon=True)
        thread.start()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "carobo.cli", "run", "--request", "find the fridge",
             "--transport", f"tcp:127.0.0.1:{port}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert done.returncode == 2
    assert done.stderr.startswith("error: envelope line is not UTF-8") and done.stderr.count("\n") == 1, done.stderr


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["serve"])  # --world is required
