"""perfbench/tracer.py wraps carobo's functions by the names carobo calls them
through. A refactor that renames or bypasses one of those names must fail
here, not only in a traced benchmark run (`perfbench/run.py --trace 1`)."""
from pathlib import Path

from carobo import app, bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sees_every_layer_on_each_transport(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    spec = {s.id: s for s in bench.load_benchmark(bench.default_suite_path())}["obj_1"]
    tracer = Tracer()
    tracer.install()
    seen = {}
    try:
        for transport in ("direct", "local:", "tcp:"):
            row, _ = bench.run_scenario(spec, bench.scripted_pair("oracle"), transport=transport)
            assert row.verdict == "Success"
            spans, counts = tracer.take()
            seen[transport] = ({span[2] for span in spans}, counts["llm.agent_calls"])
    finally:
        tracer.uninstall()
    assert bench.run_episode is app.run_episode

    for transport, (names, agent_calls) in seen.items():
        assert {"bench.run_scenario", "app.run_episode", "host.plan", "app.decide",
                "llm.assemble_prompt", "llm.parse_app_decision", "bench.judge",
                "llm.scripted_complete", "policies.oracle_policy"} <= names, transport
        assert agent_calls > 0, transport
        if transport != "direct":
            assert {"bridge.open", "bridge.close", "bridge.execute"} <= names, transport
        if transport == "local:":
            assert {"model.to_dict", "model.from_dict"} <= names, transport
