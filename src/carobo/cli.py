"""Command line front end: run episodes, benchmark suites, replays, servers."""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import sim
from .app import EpisodeFooter, EpisodeHeader, EpisodeLimits, RoundRecord, read_trace, run_episode
from .bench import (
    bundled_trace_dir,
    default_suite_path,
    fixed_pair,
    load_benchmark,
    open_robot,
    replay_pair,
    run_suite,
)
from .bridge import serve_robot
from .llm import BackendConfig, HttpChatConfig, ReplayConfig, ScriptedConfig
from .model import CaroboError, UserRequest, render_memory


def _backend_cfg(args) -> BackendConfig:
    if args.backend == "mock":
        return BackendConfig(kind=ScriptedConfig(policy_id=args.policy), max_retries=args.max_retries)
    if args.backend == "replay":
        if not args.replay_trace:
            raise CaroboError("--backend replay needs --replay-trace FILE")
        return BackendConfig(kind=ReplayConfig(trace_path=args.replay_trace), max_retries=args.max_retries)
    # "http", the last of the parser's choices
    if not args.endpoint or not args.model:
        raise CaroboError("--backend http needs --endpoint and --model")
    return BackendConfig(
        kind=HttpChatConfig(endpoint=args.endpoint, model_name=args.model),
        max_retries=args.max_retries,
    )


def _check_output(path, what: str, made=()) -> None:
    """Fail before any work when `path` cannot be written: it is a directory,
    or its directory is neither there nor one of the directories `made` by the work."""
    if path is None:
        return
    if Path(path).is_dir():
        raise CaroboError(f"cannot write {what} {path}: it is a directory")
    if not Path(path).parent.is_dir() and Path(path).parent.resolve() not in made:
        raise CaroboError(f"cannot write {what} {path}: no directory {Path(path).parent}")


def cmd_run(args) -> int:
    cfg = _backend_cfg(args)
    _check_output(args.trace, "trace")
    limits = EpisodeLimits(max_steps=args.max_steps, max_rounds=args.max_rounds)
    world = sim.load_world_file(args.world) if args.world else None
    with open_robot(args.transport, world) as handle:
        result = run_episode(
            UserRequest(text=args.request, id=args.request_id),
            handle,
            cfg,
            limits=limits,
            trace_path=args.trace,
        )
    history = render_memory(result.trace, len(result.trace))
    if history:
        print(history)
    print(result.summary())
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0 if result.failure_reason is None else 1


def cmd_bench(args) -> int:
    specs = load_benchmark(args.suite)
    if args.backend == "replay":
        if not args.replay_dir:
            raise CaroboError("--backend replay needs --replay-dir DIR (or a bundled model name)")
        replay_dir = Path(args.replay_dir)
        if not replay_dir.is_dir():
            bundled = bundled_trace_dir(args.replay_dir)
            if bundled.is_dir():
                replay_dir = bundled
            else:
                raise CaroboError(f"no replay directory at {args.replay_dir!r}")
        pair = replay_pair(replay_dir, args.max_retries)
    else:
        pair = fixed_pair(_backend_cfg(args))
    made = ()
    if args.traces_dir:  # run_suite makes it, with its parents, once the worlds are read
        made = (Path(args.traces_dir).resolve(), *Path(args.traces_dir).resolve().parents)
        if not next(p for p in made if p.exists()).is_dir():
            raise CaroboError(f"cannot make traces directory {args.traces_dir}: a file is in its way")
    _check_output(args.out, "report", made)
    report = run_suite(specs, pair, transport=args.transport, traces_dir=args.traces_dir)
    print(report.to_text())
    if args.out:
        try:
            Path(args.out).write_text(
                json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise CaroboError(f"cannot write report {args.out}: {exc}") from exc
        print(f"report written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    """Re-run a recorded episode from its own trace and check that its rounds and its result reproduce."""
    records = read_trace(args.trace)
    if not records or type(records[0]) is not EpisodeHeader:
        raise CaroboError(f"{args.trace} is not an episode trace")
    if type(records[-1]) is not EpisodeFooter:
        raise CaroboError(f"{args.trace} has no result record; episode was cut short")
    header, recorded = records[0], records[-1]
    if header.world is None:
        raise CaroboError(
            f"{args.trace} was recorded against a remote robot (tcp:HOST:PORT) and carries "
            "no world, so it cannot be replayed"
        )
    _check_output(args.out, "trace")
    cfg = BackendConfig(kind=ReplayConfig(trace_path=args.trace))
    with open_robot("direct", sim.load_world(header.world)) as handle:
        result = run_episode(UserRequest(text=header.request_text, id=header.request_id), handle, cfg,
                             limits=header.limits, trace_path=args.out)
    print(result.summary())
    recorded_rounds = [rec.round for rec in records if type(rec) is RoundRecord]
    pairs = itertools.zip_longest(recorded_rounds, result.trace.rounds)
    first = next((k for k, (want, got) in enumerate(pairs) if want != got), None)
    if first is not None:
        print(f"round {first}: MISMATCH")
    ok = first is None
    replayed = result.footer().to_dict()
    for key, want in recorded.to_dict().items():
        if key != "type":
            got = replayed[key]
            ok = ok and want == got
            print(f"{key.replace('_', ' ')}: {'match' if want == got else f'MISMATCH (recorded {want!r}, replayed {got!r})'}")
    return 0 if ok else 1


def cmd_serve(args) -> int:
    serve_robot(sim.load_world_file(args.world), args.listen)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carobo",
        description="Two-agent robot control with a deterministic 2D simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the backend options, which run and bench share
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=("mock", "replay", "http"), default="mock")
    backend.add_argument("--policy", default="oracle", help="scripted policy for the mock backend")
    backend.add_argument("--endpoint", help="chat completions URL for the http backend")
    backend.add_argument("--model", help="model name for the http backend")
    backend.add_argument("--max-retries", type=int, default=3)

    run = sub.add_parser("run", parents=[backend], help="run one episode for a natural language request")
    run.add_argument("--request", required=True, help="natural language request text")
    run.add_argument("--request-id", default="adhoc")
    run.add_argument("--world", help="world JSON file (not taken by a remote tcp:HOST:PORT server)")
    run.add_argument("--replay-trace", help="completion JSONL for the replay backend")
    run.add_argument(
        "--transport",
        default="direct",
        help="direct | local: | tcp: (self-hosted) | tcp:HOST:PORT (remote server)",
    )
    run.add_argument("--max-steps", type=int, default=20)
    run.add_argument("--max-rounds", type=int, default=None)
    run.add_argument("--trace", help="write the episode trace JSONL here")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", parents=[backend], help="run a benchmark suite and report success rates")
    bench.add_argument("--suite", default=str(default_suite_path()))
    bench.add_argument(
        "--replay-dir",
        help="directory of per-scenario completion traces, or a bundled model name",
    )
    bench.add_argument("--transport", default="direct", help="direct | local: | tcp:")
    bench.add_argument("--traces-dir", help="write per-scenario episode traces here")
    bench.add_argument("--out", help="write the report as JSON here")
    bench.set_defaults(func=cmd_bench)

    replay = sub.add_parser("replay", help="re-run a recorded episode trace and verify it")
    replay.add_argument("--trace", required=True, help="episode trace JSONL written by run")
    replay.add_argument("--out", help="write the regenerated trace here for diffing")
    replay.set_defaults(func=cmd_replay)

    serve = sub.add_parser("serve", help="serve a world over TCP for remote episodes")
    serve.add_argument("--world", required=True)
    serve.add_argument("--listen", default="127.0.0.1:7450", help="HOST:PORT")
    serve.set_defaults(func=cmd_serve)

    return parser


# C0 and C1 controls and the two Unicode line separators, each as its Python escape
_ONE_LINE = str.maketrans({c: c.encode("unicode_escape").decode("ascii")
                           for c in map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029])})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CaroboError as exc:
        # one line per error, whatever text a file or a peer put in the message
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
