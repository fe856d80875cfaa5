"""Tracing of carobo's layers, installed from outside the program.

`Tracer.install` replaces each layer's public functions, in the module or
class through which carobo calls them, with a wrapper that records a span:
name, start, end, parent span and thread (the episode is attached when the
episode is folded). The hottest geometry primitives are counted, not timed.
`uninstall` puts the originals back. Spans stay in memory; after each episode
`fold` turns them into per-layer samples and counts, and keeps the spans of
the first episodes so they can be written out when the run ends.

Self time is a span's duration minus the time its child spans on the same
thread cover.
"""
from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from array import array
from collections import defaultdict

from carobo import app, bench, bridge, geometry, host, llm, model, policies, sim

COMMAND_KINDS = ("car_forward", "car_back", "car_left", "car_right", "camera_move", "buzzer")
OUTCOMES = ("ok", "avoided", "blocked", "clamped")
MODEL_CLASSES = (model.Command, model.UserRequest, model.SensorData, model.VisibleObject,
                 model.Observation, model.ExecResult, model.GlobalPlan, model.Round, model.MemoryLog)
BRIDGE_OPEN = "bridge.open"  # every call that sets up the transport of one episode
BRIDGE_CLOSE = "bridge.close"  # every call that tears it down
SERVED_BESIDES_COMMANDS = ("sim.read_sensors", "sim.render_camera")  # per command, on the robot's side


def _encoded_bytes(_args, line):
    return len(line.encode("utf-8")) + 1  # the line plus its terminator on the wire


def _outcome(_args, result):
    return result[1].outcome.value


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, thread ident, start, end, tag, error class)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []  # (thread, its counter dict) for each thread that counted
        self._saved = []  # (owner, attribute, original) for uninstall

    # -- wrappers -----------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def counts(self):
        """This thread's counters; every thread's are summed at fold time."""
        try:
            return self._local.counts
        except AttributeError:
            self._local.counts = defaultdict(int)
            self._thread_counts.append((threading.current_thread(), self._local.counts))
            return self._local.counts

    def timed(self, fn, name, tag=None):
        """Wrap `fn` to record a span; `name` may be a function of the arguments."""
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            err = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                label = name(args) if callable(name) else name
                value = tag(args, result) if tag is not None and err is None else None
                spans.append((sid, parent, label, threading.get_ident(), start, end, value, err))

        return traced

    def counted(self, fn, name):
        counts = self.counts

        def traced(*args, **kwargs):
            counts()[name] += 1
            return fn(*args, **kwargs)

        return traced

    def _with_retry(self, fn):
        counts = self.counts

        def traced(attempt, max_retries):
            c = counts()
            c["llm.agent_calls"] += 1

            def counted_attempt():
                c["llm.attempts"] += 1
                return attempt()

            return fn(counted_attempt, max_retries)

        return traced

    def _local_robot(self, fn):
        """start_local_robot returns its shutdown closure; time that too."""
        def traced(*args, **kwargs):
            client, service, shutdown = fn(*args, **kwargs)
            return client, service, self.timed(shutdown, BRIDGE_CLOSE)

        return self.timed(traced, BRIDGE_OPEN)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self):
        t = self.timed
        patch = self._patch
        for owner, attr, name in (
            (bench, "run_scenario", "bench.run_scenario"),
            (bench, "load_benchmark", "bench.load_benchmark"),
            (bench, "judge", "bench.judge"),
            (bench, "run_episode", "app.run_episode"),
            (bench, "tcp_connect", BRIDGE_OPEN),
            (bridge.TcpRobotServer, "__init__", BRIDGE_OPEN),
            (bridge.TcpRobotServer, "start", BRIDGE_OPEN),
            (bridge.TcpRobotServer, "stop", BRIDGE_CLOSE),
            (bridge.BridgeRobot, "connect", BRIDGE_OPEN),
            (bridge.BridgeRobot, "close", BRIDGE_CLOSE),
            (bridge.BridgeRobot, "execute", "bridge.execute"),
            (bridge._ConnectionBase, "next_message", "bridge.next_message"),
            (bridge, "decode_line", "bridge.decode_line"),
            (app, "plan_with_raw", "host.plan"),
            (app, "decide_with_raw", "app.decide"),
            (app, "load_agent_template", "llm.load_agent_template"),
            (host, "load_agent_template", "llm.load_agent_template"),
            (app, "assemble_prompt", "llm.assemble_prompt"),
            (host, "assemble_prompt", "llm.assemble_prompt"),
            (llm.Prompt, "digest", "llm.prompt_digest"),
            (llm.ScriptedBackend, "complete", "llm.scripted_complete"),
            (llm.ReplayBackend, "__init__", "llm.replay_open"),
            (llm.ReplayBackend, "complete", "llm.replay_complete"),
            (llm.HttpChatBackend, "complete", "llm.http_complete"),
            (app, "parse_app_decision", "llm.parse_app_decision"),
            (host, "parse_host_decision", "llm.parse_host_decision"),
            (policies, "oracle_table", "policies.oracle_table"),
            (app, "render_memory", "model.render_memory"),
            (host, "render_memory", "model.render_memory"),
            (app, "append_round", "model.append_round"),
            (app, "canonical_json", "model.canonical_json"),
            (bridge, "canonical_json", "model.canonical_json"),
            (llm, "canonical_json", "model.canonical_json"),
            (sim, "canonical_json", "model.canonical_json"),
            (sim, "render_camera", "sim.render_camera"),
            (sim, "read_sensors", "sim.read_sensors"),
            (sim, "load_world", "sim.load_world"),
            (sim, "world_digest", "sim.world_digest"),
        ):
            patch(owner, attr, lambda fn, name=name: t(fn, name))
        for cls in MODEL_CLASSES:
            for attr in ("to_dict", "from_dict"):
                if attr in cls.__dict__:
                    patch(cls, attr, lambda fn, name="model." + attr: t(fn, name))
        patch(bridge, "encode_line", lambda fn: t(fn, "bridge.encode_line", _encoded_bytes))
        patch(sim, "apply_command", lambda fn: t(fn, lambda a: "sim.apply_command." + a[1].name, _outcome))
        patch(bench, "start_local_robot", self._local_robot)
        patch(app, "with_retry", self._with_retry)
        patch(host, "with_retry", self._with_retry)
        # ScriptedBackend looks policies up in this table at every call
        self._saved.append((policies.POLICIES, "oracle", policies.POLICIES["oracle"]))
        policies.POLICIES["oracle"] = t(policies.POLICIES["oracle"], "policies.oracle_policy")
        for attr, name in (("ray_circle", "geometry.ray"), ("ray_segment", "geometry.ray"),
                           ("circle_distance", "geometry.distance"),
                           ("polygon_distance", "geometry.distance")):
            patch(geometry, attr, lambda fn, name=name: self.counted(fn, name))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._saved.clear()

    def take(self):
        """Remove and return (spans, summed counters) recorded so far."""
        spans = self.spans[:]
        del self.spans[:len(spans)]
        total = defaultdict(int)
        for _thread, counts in self._thread_counts:
            for k, v in counts.items():
                total[k] += v
            counts.clear()
        self._thread_counts = [(t, c) for t, c in self._thread_counts if t.is_alive()]
        return spans, total


def percentile(values, q: float) -> float:
    """The median for q = 0.5, else the nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


# spans whose every duration is kept as a sample for percentiles
SAMPLED = frozenset(
    ["host.plan", "llm.assemble_prompt", "llm.prompt_digest", "llm.scripted_complete",
     "llm.parse_app_decision", "llm.parse_host_decision", "llm.replay_open", "llm.replay_complete",
     "llm.http_complete", "policies.oracle_policy", "model.render_memory", "model.append_round",
     "sim.render_camera", "sim.read_sensors", "sim.load_world", "sim.world_digest",
     "bridge.execute", "bridge.encode_line", "bridge.decode_line", "bench.judge"]
    + ["sim.apply_command." + kind for kind in COMMAND_KINDS]
)
# spans whose time is summed per episode; nested calls count once
TOTALLED = ("llm.load_agent_template", "policies.oracle_table", "model.to_dict",
            "model.from_dict", "model.canonical_json")


class LayerStats:
    """Per-layer samples and counts folded from the spans of timed episodes."""

    def __init__(self, keep_episodes: int):
        self.samples = defaultdict(lambda: array("d"))  # name -> microseconds
        self.totals = defaultdict(float)  # name -> sum over episodes
        self.episodes = 0
        self.kept = []  # spans of the first `keep_episodes` episodes, episode key first
        self._keep = keep_episodes
        self._main = threading.get_ident()
        self.load_benchmark_us = 0.0

    def fold(self, episode, spans, counts, rounds: int, steps: int) -> dict:
        """Fold one episode; returns its exact counts for the output checks."""
        self.episodes += 1
        if self.episodes <= self._keep:
            self.kept.extend((episode,) + span for span in spans)
        main, samples, totals = self._main, self.samples, self.totals
        names = {span[0]: span[2] for span in spans}
        covered = defaultdict(float)
        for _sid, parent, _name, _tid, start, end, _tag, _err in spans:
            if parent:
                covered[parent] += end - start
        calls = defaultdict(int)
        decides, executes, served = [], [], []
        open_us = close_us = 0.0
        episode_end = 0.0
        for sid, parent, name, tid, start, end, tag, err in spans:
            us = (end - start) * 1e6
            calls[name] += 1
            if name in SAMPLED:
                samples[name].append(us)
            if name in TOTALLED and names.get(parent) != name:
                totals[name + ".us"] += us
            if name.startswith("sim.apply_command."):
                totals["sim.outcome." + tag] += 1
            elif name == "bridge.encode_line":
                totals["bridge.wire_bytes"] += tag
            if tid != main:
                if not parent and (name.startswith("sim.apply_command.") or name in SERVED_BESIDES_COMMANDS):
                    served.append((start, us))
                continue
            if name == BRIDGE_OPEN:
                open_us += us
            elif name == BRIDGE_CLOSE:
                close_us += us
            elif name == "app.decide":
                decides.append(start)
            elif name == "app.run_episode":
                episode_end = end
                totals["app.loop_self.us"] += us - covered[sid] * 1e6
            elif name == "bench.run_scenario":
                self_us = us - covered[sid] * 1e6
                samples["bench.run_scenario_self"].append(self_us)
                totals["episode.us"] += us
                totals["episode.self_us"] += self_us
            elif name == "bridge.execute":
                executes.append((start, end, us))
            elif name == "bridge.next_message":
                samples["bridge.next_message_wait"].append(us)
                if err is not None and issubclass(err, bridge.BridgeTimeout):
                    totals["bridge.timeouts"] += 1
                elif err is not None and issubclass(err, bridge.ProtocolError):
                    totals["bridge.protocol_errors"] += 1
            elif name in ("llm.parse_app_decision", "llm.parse_host_decision"):
                totals["llm.parse.failures"] += err is not None
        decides.sort()
        for a, b in zip(decides, decides[1:] + [episode_end]):
            samples["app.round"].append((b - a) * 1e6)
        served.sort()
        i = 0
        for start, end, us in sorted(executes):
            while i < len(served) and served[i][0] < start:
                i += 1
            inside = 0.0
            while i < len(served) and served[i][0] < end:
                inside += served[i][1]
                i += 1
            samples["bridge.overhead"].append(us - inside)
        if open_us:
            samples["bridge.connect"].append(open_us)
        if close_us:
            samples["bridge.teardown"].append(close_us)
        retries = counts["llm.attempts"] - counts["llm.agent_calls"]
        for name in TOTALLED:
            totals[name + ".calls"] += calls[name]
        totals["llm.parse.attempts"] += calls["llm.parse_app_decision"] + calls["llm.parse_host_decision"]
        totals["llm.retries"] += retries
        totals["llm.http_complete.calls"] += calls["llm.http_complete"]
        totals["sim.commands"] += sum(calls["sim.apply_command." + k] for k in COMMAND_KINDS)
        totals["bridge.envelopes"] += calls["bridge.encode_line"]
        totals["geometry.ray"] += counts["geometry.ray"]
        totals["geometry.distance"] += counts["geometry.distance"]
        totals["app.rounds"] += rounds
        totals["app.steps"] += steps
        return {"retries": retries, "http_calls": calls["llm.http_complete"],
                "replay_calls": calls["llm.replay_complete"]}

    def metrics(self) -> dict:
        """Every per-layer metric; counts and totals are per episode."""
        s, t = self.samples, self.totals
        episodes = max(self.episodes, 1)
        commands = t["sim.commands"]
        attempts = t["llm.parse.attempts"]
        out = {
            "app.round.us_p50": percentile(s["app.round"], 0.5),
            "app.round.us_p95": percentile(s["app.round"], 0.95),
            "app.loop_self.us_per_round": t["app.loop_self.us"] / max(t["app.rounds"], 1),
            "llm.parse.attempts": attempts / episodes,
            "llm.parse.failures": t["llm.parse.failures"] / episodes,
            "llm.parse.ok_ratio": (attempts - t["llm.parse.failures"]) / attempts if attempts else 0.0,
            "llm.http_request_bytes": t["http.request_bytes"] / t["llm.http_complete.calls"]
            if t["llm.http_complete.calls"] else 0.0,
            "sim.apply_command.car_forward.us_p95": percentile(s["sim.apply_command.car_forward"], 0.95),
            "sim.render_camera.us_p95": percentile(s["sim.render_camera"], 0.95),
            "geometry.ray_tests_per_command": t["geometry.ray"] / commands if commands else 0.0,
            "geometry.distance_tests_per_command": t["geometry.distance"] / commands if commands else 0.0,
            "bridge.execute.us_p95": percentile(s["bridge.execute"], 0.95),
            "llm.http_complete.us_p95": percentile(s["llm.http_complete"], 0.95),
            "bench.load_benchmark.us": self.load_benchmark_us,
            "trace.unattributed_share": t["episode.self_us"] / t["episode.us"] if t["episode.us"] else 0.0,
        }
        for name in SAMPLED | {"app.round", "bridge.overhead", "bridge.next_message_wait",
                              "bridge.connect", "bridge.teardown", "bench.run_scenario_self"}:
            out.setdefault(name + ".us_p50", percentile(s[name], 0.5))
        for name in ("llm.load_agent_template", "policies.oracle_table"):
            out[name + ".calls"] = t[name + ".calls"] / episodes
        for name in TOTALLED:
            out[name + ".us_total"] = t[name + ".us"] / episodes
        for name in ("app.rounds", "app.steps", "llm.retries", "llm.http_complete.calls",
                     "sim.commands", "bridge.envelopes", "bridge.wire_bytes", "bridge.timeouts",
                     "bridge.protocol_errors"):
            out[name] = t[name] / episodes
        for outcome in OUTCOMES:
            out["sim.outcome." + outcome] = t["sim.outcome." + outcome] / episodes
        return out
