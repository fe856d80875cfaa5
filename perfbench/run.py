"""carobo's benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; carobo is imported from `src/`.

Each episode is one call to `carobo.bench.run_scenario`, the call behind
`carobo bench`. The client starts the next episode only when the previous one
is judged. After set-up, one untimed warm-up pass runs and fully verifies
every episode of the workload; the timed phase then runs whole passes, each
in a seeded order, until S seconds have passed, and checks every episode
against the warm-up's verified result.

With --trace 0 the run reports the end-to-end metrics. Times are scaled to a
reference host speed: right after each episode, `calibration()` measures the
host's current speed, and that episode's times are multiplied by
CALIBRATION_REFERENCE_S over the measurement. `episode_ms_p50` and
`episode_ms_p95` are interpolated percentiles over each episode's median
time. `setup_s`, the time from process start until the first episode can run
(imports, suite load, clutter generation, fake endpoint), is the median of
SETUP_PROBES fresh processes that each do the set-up, calibrate and stop.
With --trace 1 the layers' public functions are wrapped (see tracer.py) and
the run reports the per-layer metrics instead.

Every metric is printed by name with its unit; the run record (machine,
commit, seed, workload parameters, unscaled times) goes to stdout and is
appended to perfbench/out/runs.jsonl; the last line of stdout is the JSON
result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import random
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_ATTEMPTS = 3
PROBE_TIMEOUT_S = 30
WORKLOADS = ("oracle-direct", "replay-local", "clutter-direct", "replay-tcp", "http-local")
MAX_REPORTED_PROBLEMS = 20
# What calibration() takes on the reference host (2 vCPUs, Python 3.11). Times
# are scaled by this over the calibration measured right after each episode,
# which cancels most of the swings in a shared host's speed.
CALIBRATION_REFERENCE_S = 0.0014
CALIBRATION_HANDOFFS = 20


def import_carobo():
    """Import carobo from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "carobo" / "__init__.py").is_file():
        raise ImportError(f"no carobo sources under {src}")
    sys.path.insert(0, str(src))
    import carobo

    if Path(carobo.__file__).resolve().parent != (src / "carobo").resolve():
        raise ImportError(f"carobo was imported from {carobo.__file__}, not from {src}")


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": git_commit()}


class Timings:
    """Timed-phase measurements; each episode's may be scaled by a speed factor."""

    def __init__(self):
        self.episode_s = defaultdict(list)  # episode key -> its wall times
        self.passes = []  # (episodes, wall s, CPU s) of each finished pass
        self._pass = [0, 0.0, 0.0]

    def add(self, key: str, episode_s: float, cpu_s: float, wall_s: float, scale: float = 1.0) -> None:
        """`wall_s` covers the episode and its checks."""
        self.episode_s[key].append(episode_s * scale)
        self._pass[0] += 1
        self._pass[1] += wall_s * scale
        self._pass[2] += cpu_s * scale

    def end_pass(self) -> None:
        self.passes.append(tuple(self._pass))
        self._pass = [0, 0.0, 0.0]

    def metrics(self) -> dict:
        """Every pass runs each episode once, so pooled samples form one cluster
        per episode, and a percentile of the pool sits on the edge between two
        clusters and jumps between them from run to run. The percentiles are
        therefore taken, with interpolation, over each episode's median.
        Throughput and CPU time are medians over passes, so a few seconds in
        which the host is busy move them little."""
        typical = sorted(statistics.median(times) for times in self.episode_s.values())
        cuts = statistics.quantiles(typical, n=20, method="inclusive")  # 5%, 10%, ... 95%
        return {
            "episodes_per_s": statistics.median(n / wall for n, wall, _ in self.passes),
            "episode_ms_p50": cuts[9] * 1e3,
            "episode_ms_p95": cuts[18] * 1e3,
            "cpu_ms_per_episode": statistics.median(cpu / n for n, _, cpu in self.passes) * 1e3,
        }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its set-up is done, scaled
    by the calibration that process measures next.

    A probe whose process fails to start, dies or answers wrongly is reported
    on stderr and made again, up to PROBE_ATTEMPTS times in all."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for attempt in range(1, PROBE_ATTEMPTS + 1):
        try:
            return probe_once(cmd)
        except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
            print(f"perfbench: set-up probe attempt {attempt} failed: {exc!r}", file=sys.stderr)
    raise RuntimeError(f"set-up probe failed {PROBE_ATTEMPTS} times")


def probe_once(cmd) -> float:
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdin.close()
            said = child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            child.kill()
            raise
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"exit {code}, said {line!r}")
    return elapsed * CALIBRATION_REFERENCE_S / float(said)


def run_episode(bench, workload, episode):
    """One episode; returns (wall s, CPU s, row, result), or (wall s, CPU s, None, exception)."""
    workload.before(episode)
    cpu, start = time.process_time(), time.perf_counter()
    try:
        row, result = bench.run_scenario(episode.spec, episode.backends, transport=episode.transport)
    except Exception as exc:  # counted as a failed episode, reported below
        row, result = None, exc
    return time.perf_counter() - start, time.process_time() - cpu, row, result


CALIBRATION_DOC = {"messages": [{"role": "user", "content": f"request {i} " * 5} for i in range(30)]}


def calibration() -> float:
    """CPU seconds that fixed work takes right now, of the kinds carobo's
    episodes also do: Python bytecode, JSON coding, local socket calls, and
    starting a thread and handing messages to it and back.

    The figure is the thread CPU time of the two threads doing the work. It
    leaves out waiting, so it tracks the host's speed and not what the
    episode left running.
    """
    start = time.thread_time()
    counts = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    for _ in range(3):
        json.loads(json.dumps(CALIBRATION_DOC))
    for _ in range(10):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"x" * 200)
            b.recv(200)
    inbox, outbox = queue.SimpleQueue(), queue.SimpleQueue()
    echo_cpu = []

    def echo():
        echo_start = time.thread_time()
        for _ in range(CALIBRATION_HANDOFFS):
            outbox.put(inbox.get())
        echo_cpu.append(time.thread_time() - echo_start)

    thread = threading.Thread(target=echo)
    thread.start()
    for i in range(CALIBRATION_HANDOFFS):
        inbox.put(i)
        outbox.get()
    thread.join()
    return time.thread_time() - start + echo_cpu[0]


def pin_to_one_cpu():
    """Run this process, and the processes it starts, on one CPU.

    The episode's threads (the robot behind `local:` and `tcp:`, the fake
    endpoint) then hand off on one CPU. Waking a thread on another, idle CPU
    of a shared virtual machine took a varying time: unpinned, `replay-local`
    ran 100-148 episodes/s across five runs, pinned 200-222. Returns the
    CPU, or None where the system does not let a process pin itself.
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        print(f"perfbench: running unpinned: {exc}", file=sys.stderr)
        return None
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pinned_cpu = pin_to_one_cpu()

    try:
        import_carobo()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from carobo import bench
    import workloads

    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec_doc["per_layer" if args.trace else "end_to_end"]

    tracer = stats = None
    if args.trace:
        from tracer import LayerStats, Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, OUT)
    try:
        if args.setup_only:
            print("ready", flush=True)
            sys.stdin.read()
            print(statistics.median(calibration() for _ in range(5)))
            return 0
        if tracer is not None:
            spans, _ = tracer.take()
            tracer.uninstall()
            stats = LayerStats(keep_episodes=len(workload.episodes))
            stats.load_benchmark_us = sum((s[5] - s[4]) * 1e6 for s in spans if s[2] == "bench.load_benchmark")

        problems = []
        reference = {}
        for ep in workload.episodes:  # warm-up: verify every episode once
            _, _, row, result = run_episode(bench, workload, ep)
            if row is None:
                problems.append(f"{ep.key}: warm-up raised {result!r}")
                continue
            found = workload.verify(ep, row, result, workload.served())
            problems += found
            if not found:
                reference[ep.key] = (row, result.final_world_digest, workload.served())

        if tracer is not None:
            tracer.install()
        rng = random.Random(args.seed)
        order = list(workload.episodes)
        attempted, failed, passes = 0, 0, 0
        raw, scaled = Timings(), Timings()
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            rng.shuffle(order)
            for ep in order:
                began = time.perf_counter()
                seconds, cpu, row, result = run_episode(bench, workload, ep)
                attempted += 1
                found = []
                if row is None:
                    found.append(f"{ep.key}: raised {result!r}")
                    traceback.print_exception(result, file=sys.stderr)
                elif (row, result.final_world_digest, workload.served()) != reference.get(ep.key):
                    found.append(f"{ep.key}: {row} differs from the verified warm-up result")
                if tracer is not None:
                    spans, counts = tracer.take()
                    facts = stats.fold(ep.key, spans, counts, getattr(result, "rounds", 0),
                                       getattr(result, "steps", 0))
                    if workload.server is not None:
                        stats.totals["http.request_bytes"] += workload.server.request_bytes
                    if row is not None:
                        found += workload.check_counts(ep, facts, workload.served())
                failed += bool(found)
                problems += found
                wall = time.perf_counter() - began
                raw.add(ep.key, seconds, cpu, wall)
                scaled.add(ep.key, seconds, cpu, wall, CALIBRATION_REFERENCE_S / calibration())
            raw.end_pass()
            scaled.end_pass()
            passes += 1
        if tracer is not None:
            tracer.uninstall()
    finally:
        workload.close()

    if tracer is None:
        metrics = scaled.metrics()
        metrics["setup_s"] = statistics.median(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unscaled = raw.metrics()
    else:
        metrics = stats.metrics()
        metrics["trace.episodes_per_s"] = scaled.metrics()["episodes_per_s"]
        metrics["episode_error_rate"] = failed / attempted
        unscaled = {"trace.episodes_per_s": raw.metrics()["episodes_per_s"]}
        write_spans(stats.kept, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": workload.params, **machine(), "pinned_cpu": pinned_cpu,
        "episodes": attempted, "passes": passes, "failed": failed,
        "episode_error_rate": failed / attempted, "metrics": metrics, "unscaled": unscaled,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(f"episodes {attempted} in {passes} passes, {failed} failed"
          f" (episode_error_rate {failed / attempted:.6g})")
    out = {}
    for m in metric_specs:
        value = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def write_spans(kept, path: Path) -> None:
    """The spans of the first traced pass, one JSON object a line."""
    if not kept:
        return
    origin = min(span[5] for span in kept)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for episode, sid, parent, name, thread, start, end, _tag, err in kept:
            fh.write(json.dumps({
                "episode": episode, "id": sid, "parent": parent, "name": name, "thread": thread,
                "start_us": (start - origin) * 1e6, "end_us": (end - origin) * 1e6,
                "error": err.__name__ if err else None,
            }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
