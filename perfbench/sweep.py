"""Object-count sweep over seeded generated worlds, on demand.

    python3 perfbench/sweep.py [--seed N] [--counts 0,10,100,1000] [--episodes K]

For each object count it generates one world with the clutter generator
(obstacle density held constant, so the room grows with the count) and a
seven-command stream, runs it K times through `carobo.bench.run_scenario`
with tracing on, and prints `sim.apply_command.car_forward.us_p50`,
`sim.render_camera.us_p50` and `geometry.ray_tests_per_command`. Timings are
taken with the tracer's wrappers in place, geometry counting included, so
they read higher than an untraced run would. The sweep is not a gated
workload; it shows how the simulator scales with the object count.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, import_carobo, machine

DENSITY_OBJECTS = 150  # objects in the 8 m x 8 m room of the clutter-direct workload
DENSITY_HALF_EXTENT = 4.0
REPORTED = ("sim.apply_command.car_forward.us_p50", "sim.render_camera.us_p50",
            "geometry.ray_tests_per_command")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--counts", default="0,10,100,1000")
    parser.add_argument("--episodes", type=int, default=3)
    args = parser.parse_args(argv)
    import_carobo()
    from carobo import bench
    from carobo.app import EpisodeLimits

    import clutter
    from tracer import LayerStats, Tracer

    counts = [int(c) for c in args.counts.split(",")]
    record = {"sweep": counts, "seed": args.seed, "episodes": args.episodes, **machine(), "results": {}}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
    try:
        for n in counts:
            half_extent = max(1.0, DENSITY_HALF_EXTENT * math.sqrt(n / DENSITY_OBJECTS))
            entry, _ = clutter.write_scenario(random.Random(args.seed), workdir / str(n), f"sweep_{n}",
                                              "command_execution", n, half_extent)
            spec = bench.ScenarioSpec(
                id=entry["id"], domain=entry["domain"], request_text=entry["request_text"],
                world_file=workdir / str(n) / entry["world_file"], goal=bench.parse_goal(entry["goal"]),
                limits=EpisodeLimits(**entry["limits"]),
            )
            pair = bench.replay_pair(workdir / str(n) / "streams")
            tracer, stats = Tracer(), LayerStats(keep_episodes=0)
            tracer.install()
            try:
                for _ in range(args.episodes):
                    _, result = bench.run_scenario(spec, pair)
                    spans, counted = tracer.take()
                    stats.fold(spec.id, spans, counted, result.rounds, result.steps)
            finally:
                tracer.uninstall()
            m = stats.metrics()
            record["results"][n] = {name: m[name] for name in REPORTED}
            print(f"objects {n:5d}: sim.apply_command.car_forward.us_p50"
                  f" {m['sim.apply_command.car_forward.us_p50']:.6g} us,"
                  f" sim.render_camera.us_p50 {m['sim.render_camera.us_p50']:.6g} us,"
                  f" geometry.ray_tests_per_command {m['geometry.ray_tests_per_command']:.6g} count/command")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
