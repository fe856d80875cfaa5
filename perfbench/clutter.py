"""Seeded generator of cluttered worlds and completion streams.

`write_suite` turns a seed into a 20-scenario suite (five per domain) that
`carobo.bench.load_benchmark` accepts: one world file of mixed circle and
polygon obstacles per scenario, a goal the judge evaluates, and a replay
stream of completions (host plan, one decision per round, FINISH).

Some rounds are preceded by exactly one malformed completion. Each one fails
whichever way a parser looks for the JSON object (there is none, or the
object names an unknown command, or an argument is out of range), so it costs
exactly one retry and never exhausts a round's retry budget.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from carobo.sim import OBJECT_KINDS
from carobo.suite_data import DOMAINS

COLORS = ("red", "green", "blue", "gray", "white", "black")
START_CLEARANCE = 0.6  # no obstacle within this distance of the start pose
MALFORMED_SHARE = 0.3  # share of rounds preceded by one malformed completion
SCENARIOS_PER_DOMAIN = 5
MAX_BOUND = 0.31  # largest obstacle radius, plus the rounding of vertices


@dataclass(frozen=True)
class Scenario:
    """What the generator promises about one scenario's stream."""

    id: str
    commands: Tuple[Tuple[str, float], ...]
    malformed: int  # malformed completions injected into the stream


def _shape(rng: random.Random, cx: float, cy: float) -> dict:
    """A circle or a convex polygon (3 to 6 counter-clockwise vertices on a
    circle) at (cx, cy), inside a disc of radius MAX_BOUND."""
    if rng.random() < 0.5:
        return {"type": "circle", "center": [cx, cy], "radius": round(rng.uniform(0.08, 0.25), 3)}
    n = rng.randint(3, 6)
    r = rng.uniform(0.1, 0.3)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    step = 2.0 * math.pi / n
    verts = []
    for i in range(n):
        a = phase + i * step + rng.uniform(-0.2, 0.2) * step
        verts.append([round(cx + r * math.cos(a), 3), round(cy + r * math.sin(a), 3)])
    return {"type": "polygon", "vertices": verts}


def make_world(rng: random.Random, n_objects: int, half_extent: float) -> dict:
    """A world of `n_objects` obstacles spread over a square around the robot.

    Obstacles sit one per cell of a jittered grid, so density is even and no
    seed draws an unusually crowded or empty room. The robot starts at the
    origin and no obstacle comes within START_CLEARANCE of it, so the start
    pose is always legal.
    """
    keep_out = START_CLEARANCE + MAX_BOUND
    cells = []
    k = 1
    while n_objects and len(cells) < n_objects:
        k += 1
        size = 2.0 * half_extent / k
        jitter = 0.25 * size
        cells = [
            (-half_extent + (i + 0.5) * size, -half_extent + (j + 0.5) * size)
            for i in range(k)
            for j in range(k)
            if math.hypot(-half_extent + (i + 0.5) * size, -half_extent + (j + 0.5) * size)
            >= keep_out + jitter * math.sqrt(2.0)
        ]
    objects = []
    for gx, gy in rng.sample(cells, n_objects):
        cx = round(gx + rng.uniform(-jitter, jitter), 3)
        cy = round(gy + rng.uniform(-jitter, jitter), 3)
        kind = rng.choice(OBJECT_KINDS)
        objects.append(
            {
                "id": f"o{len(objects)}",
                "kind": kind,
                "shape": _shape(rng, cx, cy),
                "label": kind,
                "color": rng.choice(COLORS),
                "height": round(rng.uniform(0.1, 1.5), 3),
                "text_on_object": None,
            }
        )
    heading = float(rng.randrange(0, 360, 15))
    return {"robot": {"x": 0.0, "y": 0.0, "heading": heading, "camera_pitch": 0.0}, "objects": objects}


def make_commands(rng: random.Random) -> Tuple[Tuple[str, float], ...]:
    """The same mix of commands in every scenario, in a seeded order.

    Mostly drives, so runs end in contact and avoidance; a fixed mix keeps the
    work per scenario alike across seeds.
    """
    out = [
        ("car_forward", round(rng.uniform(0.5, 0.9), 2)),
        ("car_forward", round(rng.uniform(0.5, 0.9), 2)),
        ("car_forward", round(rng.uniform(0.5, 0.9), 2)),
        (rng.choice(("car_left", "car_right")), float(rng.randrange(30, 135, 15))),
        ("car_back", round(rng.uniform(0.2, 0.5), 2)),
        ("camera_move", float(rng.randrange(-30, 61, 10))),
        ("buzzer", round(rng.uniform(0.5, 2.0), 1)),
    ]
    rng.shuffle(out)
    return tuple(out)


_ARG = {
    "car_forward": "distance",
    "car_back": "distance",
    "car_left": "angle",
    "car_right": "angle",
    "camera_move": "pitch",
    "buzzer": "duration",
}


def _completion(doc: dict) -> str:
    return json.dumps(doc)


def _malformed(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return "Let me look around a little longer before I pick the next move."
    if kind == 1:
        command = {"name": "car_fly", "args": {"distance": 1.0}}
    else:
        command = {"name": "car_forward", "args": {"distance": 25.0}}
    return _completion(
        {"observation": "Clutter all around.", "comment": "Trying something.",
         "command": command, "status": "CONTINUE"}
    )


def make_stream(rng: random.Random, sid: str, commands, finish_comment: str) -> Tuple[List[str], int]:
    """Host plan, then one decision per command, then FINISH; returns (lines, malformed)."""
    lines = [
        _completion(
            {"observation": "A cluttered room.", "thoughts": f"Scripted run for {sid}.",
             "plan": ["Follow the scripted commands", "Report what was found"],
             "comment": "Plan ready; handing over to the executor."}
        )
    ]
    decisions = [
        _completion(
            {"observation": "Checking the scene.", "comment": f"Step {i + 1}: {name}.",
             "command": {"name": name, "args": {_ARG[name]: value}}, "status": "CONTINUE"}
        )
        for i, (name, value) in enumerate(commands)
    ]
    decisions.append(
        _completion({"observation": "Checking the scene.", "comment": finish_comment, "status": "FINISH"})
    )
    malformed = 0
    for line in decisions:
        if rng.random() < MALFORMED_SHARE:
            lines.append(_malformed(rng))
            malformed += 1
        lines.append(line)
    return lines, malformed


def _goal(rng: random.Random, domain: str, world: dict, commands) -> Tuple[dict, str]:
    """A goal for the judge and the FINISH comment; the goal holds only sometimes."""
    labels = [obj["label"] for obj in world["objects"]] or ["nothing"]
    comment = f"Done; I saw a {rng.choice(labels)}."
    if domain == "object_detection":
        return {"op": "comment_matches", "pattern": f"(?i){rng.choice(labels)}"}, comment
    if domain == "command_execution":
        planned = sum(v for name, v in commands if name in ("car_forward", "car_back"))
        return {"op": "path_length_at_least", "meters": round(0.7 * planned, 3)}, comment
    if domain == "obstacle_navigation":
        return {"op": "near", "object_id": rng.choice(world["objects"])["id"], "within": 1.5}, comment
    return {"op": "buzzer_count", "cmp": ">=", "count": 1}, comment


def write_scenario(rng: random.Random, out_dir: Path, sid: str, domain: str, n_objects: int,
                   half_extent: float) -> Tuple[dict, Scenario]:
    """Write one world and its stream under `out_dir`; returns (suite entry, promise)."""
    world = make_world(rng, n_objects, half_extent)
    commands = make_commands(rng)
    goal, comment = _goal(rng, domain, world, commands)
    lines, malformed = make_stream(rng, sid, commands, comment)
    (out_dir / "worlds").mkdir(parents=True, exist_ok=True)
    (out_dir / "streams").mkdir(exist_ok=True)
    (out_dir / "worlds" / f"{sid}.json").write_text(json.dumps(world), encoding="utf-8")
    (out_dir / "streams" / f"{sid}.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    entry = {"id": sid, "domain": domain, "request_text": f"Explore the cluttered room ({sid}).",
             "world_file": f"worlds/{sid}.json", "goal": goal,
             "limits": {"max_steps": 20, "max_rounds": 25}}
    return entry, Scenario(id=sid, commands=commands, malformed=malformed)


def write_suite(seed: int, out_dir: Path, n_objects: int = 150,
                half_extent: float = 4.0) -> Tuple[Path, Path, Tuple[Scenario, ...]]:
    """Write worlds, streams and suite.json under `out_dir`; same seed, same bytes.

    Returns (suite path, stream directory, per-scenario promises).
    """
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    entries, promises = [], []
    for domain in DOMAINS:
        for i in range(SCENARIOS_PER_DOMAIN):
            entry, promise = write_scenario(rng, out_dir, f"{domain[:3]}_{i + 1}", domain,
                                            n_objects, half_extent)
            entries.append(entry)
            promises.append(promise)
    suite = out_dir / "suite.json"
    suite.write_text(json.dumps({"scenarios": entries}, indent=1), encoding="utf-8")
    return suite, out_dir / "streams", tuple(promises)
