"""The workloads: their episodes and the checks on their outputs.

Each episode is one call to `carobo.bench.run_scenario`. A workload verifies
every episode fully once, in an untimed warm-up pass (`verify`); every timed
episode must then reproduce the warm-up's row and final world digest.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from carobo import bench, sim
from carobo.llm import BackendConfig, HttpChatConfig, ReplayBackend, ReplayConfig

import clutter
from fake_chat import FakeChatServer, keep_requests_local

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
MODELS = ("gpt-4o", "gpt-4-turbo")
DEFAULT_SEED = 0  # clutter-direct pins its exact outputs for this seed
POSE_TOLERANCE = 1e-6
FOOTPRINT_TOLERANCE = 1e-9


@dataclass
class Episode:
    key: str
    spec: bench.ScenarioSpec
    backends: bench.BackendPair
    transport: str
    expected: object = None  # what the workload's verify() compares against
    completions: Optional[List[str]] = None  # served by the fake endpoint


def row_tuple(row: bench.Row) -> list:
    return [row.verdict, row.failure_reason, row.steps, row.rounds]


@dataclass
class Workload:
    name: str
    params: dict
    episodes: List[Episode]
    verify: Callable  # (episode, row, result, served) -> list of problems
    check_counts: Callable  # (episode, exact traced counts, served) -> list of problems
    server: Optional[FakeChatServer] = None
    workdir: Optional[Path] = None

    def before(self, episode: Episode) -> None:
        if self.server is not None:
            self.server.load(episode.completions)

    def served(self) -> Optional[int]:
        return None if self.server is None else self.server.served

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- oracle-direct --------------------------------------------------------------

def oracle_direct() -> Workload:
    specs = bench.load_benchmark(bench.default_suite_path())
    pair = bench.scripted_pair("oracle")
    episodes = [Episode(spec.id, spec, pair, "direct") for spec in specs]

    def verify(ep, row, result, served):
        return [] if row.verdict == "Success" else [f"{ep.key}: oracle episode failed: {row_tuple(row)}"]

    def check_counts(ep, counts, served):
        return [] if counts["retries"] == 0 else [f"{ep.key}: {counts['retries']} retries"]

    return Workload("oracle-direct", {"suite": "bundled", "policy": "oracle", "transport": "direct",
                                      "episodes_per_pass": len(episodes)},
                    episodes, verify, check_counts)


# -- replay-local, replay-tcp and http-local ------------------------------------

def _recorded_rows() -> dict:
    """model -> scenario -> [verdict, failure reason, steps, rounds, completions used]."""
    return json.loads((EXPECTED / "replay_rows.json").read_text(encoding="utf-8"))


def _verify_recorded(ep, row, result, served):
    want = ep.expected
    problems = []
    if row_tuple(row) != want[:4]:
        problems.append(f"{ep.key}: row {row_tuple(row)} != expected {want[:4]}")
    if served is not None and served != want[4]:
        problems.append(f"{ep.key}: endpoint served {served} completions, expected {want[4]}")
    return problems


def replay(name: str, transport: str) -> Workload:
    """Both recorded trace sets, replayed against a robot behind `transport`."""
    specs = bench.load_benchmark(bench.default_suite_path())
    rows = _recorded_rows()
    episodes = []
    for model in MODELS:
        pair = bench.replay_pair(bench.bundled_trace_dir(model))
        episodes += [Episode(f"{model}/{s.id}", s, pair, transport, rows[model][s.id]) for s in specs]

    def check_counts(ep, counts, served):
        used = counts["replay_calls"]
        return [] if used == ep.expected[4] else [f"{ep.key}: {used} completions used, expected {ep.expected[4]}"]

    return Workload(name, {"suite": "bundled", "traces": list(MODELS), "transport": transport,
                           "episodes_per_pass": len(episodes)},
                    episodes, _verify_recorded, check_counts)


def http_local() -> Workload:
    keep_requests_local()
    specs = bench.load_benchmark(bench.default_suite_path())
    rows = _recorded_rows()
    server = FakeChatServer()
    episodes = []
    for model in MODELS:
        cfg = BackendConfig(kind=HttpChatConfig(endpoint=server.url, model_name=model, timeout_s=10.0))
        pair = bench.fixed_pair(cfg)
        for s in specs:
            trace = bench.bundled_trace_dir(model) / f"{s.id}.jsonl"
            recorded = ReplayBackend(ReplayConfig(trace_path=str(trace))).completions
            episodes.append(Episode(f"{model}/{s.id}", s, pair, "local:", rows[model][s.id], recorded))

    def check_counts(ep, counts, served):
        calls = counts["http_calls"]
        return [] if calls == served else [f"{ep.key}: {calls} http calls but {served} requests served"]

    return Workload("http-local", {"suite": "bundled", "traces": list(MODELS), "backend": "http",
                                   "endpoint": "fake, 127.0.0.1", "transport": "local:",
                                   "episodes_per_pass": len(episodes)},
                    episodes, _verify_recorded, check_counts, server=server)


# -- clutter-direct -------------------------------------------------------------

CLUTTER_OBJECTS = 150
# Generated suites per seed; suite k of seed n comes from generator seed
# n * CLUTTER_SUITES + k. With one suite, episode_ms_p95 was in effect the
# seed's second-slowest of 20 worlds and moved by ~19% from seed to seed.
CLUTTER_SUITES = 4


def resimulate(spec: bench.ScenarioSpec, result) -> sim.WorldState:
    """Replay the episode's executed commands on a fresh copy of its world."""
    world = spec.load_world()
    for rnd in result.trace.rounds:
        if rnd.action is not None:
            world, _ = sim.apply_command(world, rnd.action)
    return world


def clutter_pins(row, result, world) -> dict:
    """The exact outputs pinned for the default seed."""
    return {
        "row": row_tuple(row),
        "outcomes": [r.exec_result.outcome.value for r in result.trace.rounds if r.exec_result],
        "pose": [world.robot.x, world.robot.y, world.robot.heading, world.robot.camera_pitch],
    }


def clutter_direct(seed: int, workroot: Path) -> Workload:
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="clutter-", dir=workroot))
    episodes = []
    for k in range(CLUTTER_SUITES):
        suite, streams, promises = clutter.write_suite(seed * CLUTTER_SUITES + k, workdir / f"suite{k}",
                                                       n_objects=CLUTTER_OBJECTS)
        pair = bench.replay_pair(streams)
        episodes += [Episode(f"s{k}/{s.id}", s, pair, "direct", p)
                     for s, p in zip(bench.load_benchmark(suite), promises)]
    pins = None
    if seed == DEFAULT_SEED:
        pins = json.loads((EXPECTED / "clutter_seed0.json").read_text(encoding="utf-8"))

    def verify(ep, row, result, served):
        promise = ep.expected
        n = len(promise.commands)
        problems = []
        # FINISH ends the stream, so a finished episode with one round per
        # command used every completion: the rest were retries.
        if (row.steps, row.rounds) != (n, n + 1) or row.failure_reason not in (None, "FalseCompletion"):
            problems.append(f"{ep.key}: row {row_tuple(row)} does not finish the {n}-command stream")
        world = resimulate(ep.spec, result)
        if sim.world_digest(world) != result.final_world_digest:
            problems.append(f"{ep.key}: replaying the executed commands gives another world")
        radius = world.params.footprint_radius
        for obj in world.objects:
            if obj.shape.distance_from(world.robot.position) < radius - FOOTPRINT_TOLERANCE:
                problems.append(f"{ep.key}: final footprint overlaps {obj.id}")
        if pins is not None:
            got, want = clutter_pins(row, result, world), pins[ep.key]
            if got["row"] != want["row"] or got["outcomes"] != want["outcomes"]:
                problems.append(f"{ep.key}: {got['row']} {got['outcomes']} != pinned {want['row']} {want['outcomes']}")
            if any(abs(a - b) > POSE_TOLERANCE for a, b in zip(got["pose"], want["pose"])):
                problems.append(f"{ep.key}: final pose {got['pose']} != pinned {want['pose']}")
        return problems

    def check_counts(ep, counts, served):
        want = ep.expected.malformed
        return [] if counts["retries"] == want else [f"{ep.key}: {counts['retries']} retries, {want} injected"]

    return Workload("clutter-direct", {"objects": CLUTTER_OBJECTS, "suites": CLUTTER_SUITES,
                                       "scenarios": len(episodes),
                                       "malformed_share": clutter.MALFORMED_SHARE, "transport": "direct",
                                       "episodes_per_pass": len(episodes)},
                    episodes, verify, check_counts, workdir=workdir)


def build(name: str, seed: int, workroot: Path) -> Workload:
    if name == "oracle-direct":
        return oracle_direct()
    if name == "replay-local":
        return replay("replay-local", "local:")
    if name == "replay-tcp":
        return replay("replay-tcp", "tcp:")
    if name == "http-local":
        return http_local()
    if name == "clutter-direct":
        return clutter_direct(seed, workroot)
    raise ValueError(f"unknown workload {name!r}")
