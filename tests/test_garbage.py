"""An episode frees its world by reference counting: it leaves no reference
cycle behind for the cyclic garbage collector.

A cycle that reaches an episode's frames holds the robot and its world, a
world of 150 shapes in the clutter benchmark, until the collector runs. A
caught exception kept in a local is such a cycle (exception -> traceback ->
frame -> local), and so is a pair of connections that name each other.
"""
import gc
from collections import Counter

import pytest
from test_app import FINISH_LINE, HOST_LINE, forward_line

from carobo import bench
from carobo.app import FailureReason, Verdict
from carobo.llm import BackendConfig, ReplayConfig

# a retried call, then a step, then FINISH
RETRIED = ([HOST_LINE, "garbage", forward_line(0.1), FINISH_LINE], 3)
# three rounds that exhaust their retries, the replan, three more: BackendError
EXHAUSTED = ([HOST_LINE] + ["x"] * 6 + [HOST_LINE] + ["x"] * 6, 1)


def cyclic_garbage(run):
    """(count, objects) that only the cyclic collector would free after
    `run()`, with automatic collection off; the collector's state is restored
    after."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        return gc.collect(), gc.garbage[:]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


@pytest.mark.parametrize("stream", [RETRIED, EXHAUSTED], ids=["retried", "exhausted"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("transport", ["direct", "local:", "tcp:"])
def test_an_episode_leaves_no_cyclic_garbage(tmp_path, transport, traced, stream):
    lines, max_retries = stream
    completions = tmp_path / "completions.jsonl"
    completions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = BackendConfig(kind=ReplayConfig(trace_path=str(completions)), max_retries=max_retries)
    spec = {s.id: s for s in bench.load_benchmark(bench.default_suite_path())}["obj_1"]
    world = spec.load_world()
    results = []

    def episode():
        trace_path = tmp_path / "episode.jsonl" if traced else None
        _row, result = bench.run_scenario(spec, bench.fixed_pair(cfg), transport=transport,
                                          trace_path=trace_path, world=world)
        results.append((result.verdict, result.failure_reason))

    found, garbage = cyclic_garbage(episode)
    assert found == 0 and garbage == [], Counter(type(obj).__name__ for obj in garbage).most_common(8)
    expected = (Verdict.FAILURE, FailureReason.BACKEND_ERROR) if stream is EXHAUSTED else (Verdict.SUCCESS, None)
    assert results == [expected]
