"""Tracing overhead and attribution report, on demand.

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload it runs run.py three times, each in its own process: once
untraced and twice traced with the same seed. It prints the traced
`episodes_per_s` against the untraced one (the tracing overhead), the share
of episode time that no layer's function covers (`trace.unattributed_share`:
time spent in `run_scenario` itself), and whether the exact per-layer counts
repeat between the two traced runs. It exits 1 if a run fails its output
check or a count does not repeat.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

REPEATED_COUNTS = ("llm.load_agent_template.calls", "policies.oracle_table.calls",
                   "geometry.ray_tests_per_command", "bridge.envelopes", "llm.retries")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600)
    result = json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: the output check failed ({result['failed']} episodes)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        first = run(workload, args.seed, args.seconds, 1)
        second = run(workload, args.seed, args.seconds, 1)
        untraced, traced = plain["episodes_per_s"], first["trace.episodes_per_s"]
        print(f"{workload}: episodes_per_s untraced {untraced:.6g} 1/s, traced {traced:.6g} 1/s,"
              f" tracing overhead {untraced / traced:.3f}x")
        print(f"{workload}: unattributed share of episode time {first['trace.unattributed_share']:.4f}")
        for name in REPEATED_COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload}: {name} {first[name]!r} then {second[name]!r}"
                  f" {'repeats' if same else 'DOES NOT REPEAT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
