"""The robot side of the package loads none of the agent side, only the http
backend loads the HTTP stack, on its first call, and carobo runs on the
standard library alone."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carobo.bench import DATA_DIR, bundled_trace_dir, default_suite_path, load_benchmark

SRC = Path(__file__).resolve().parent.parent / "src"
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")
# the modules a call to the http backend loads, and the client it used to load
HTTP_STACK = ("urllib.request", "http.client", "requests")


def fresh_interpreter(code, *args, bare=False):
    """Run `code` in a new interpreter that imports carobo from this checkout; its stdout lines.

    A `bare` interpreter runs with -S, which puts no site-packages directory on
    its path, and with this checkout's src/ as its only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if k not in PROXY_VARIABLES}
    env["PYTHONPATH"] = str(SRC) if bare else os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    flags = ["-S"] if bare else []
    done = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr[-2000:]
    return done.stdout.splitlines()


def test_the_robot_side_imports_no_agent_or_http_module():
    probe = ("import sys, carobo.sim, carobo.bridge; "
             "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))")
    assert fresh_interpreter(probe, *HTTP_STACK, "carobo.llm", "carobo.app", "carobo.bench") == [""]


def _replay_run():
    spec = next(s for s in load_benchmark(default_suite_path()) if s.id == "obj_1")
    return ["run", "--request", spec.request_text, "--world", str(DATA_DIR / "worlds" / "obj_1.json"),
            "--backend", "replay", "--replay-trace", str(bundled_trace_dir("gpt-4o") / "obj_1.jsonl")]


STARTS = {
    "import carobo.cli": None,
    "bench --policy oracle": ["bench", "--policy", "oracle"],
    "bench --policy oracle --transport local:": ["bench", "--policy", "oracle", "--transport", "local:"],
    "run --backend replay": _replay_run(),
}


@pytest.mark.parametrize("start", sorted(STARTS))
def test_commands_that_make_no_http_call_never_load_requests(start):
    argv = STARTS[start]
    probe = ("import sys, carobo.cli\n"
             "if sys.argv[1:]:\n"
             "    assert carobo.cli.main(sys.argv[1:]) == 0\n"
             f"print(any(m in sys.modules for m in {HTTP_STACK!r}))")
    out = fresh_interpreter(probe, *(argv or ()))
    assert out[-1] == "False"
    if argv and argv[0] == "bench":
        assert "overall                100.0% (20/20)" in out


HTTP_PROBE = """
import json, sys, threading
import carobo.cli
from carobo.llm import BackendConfig, HttpChatConfig, Prompt, make_backend
print(*(m in sys.modules for m in ("urllib.request", "http.client")))
from http.server import BaseHTTPRequestHandler, HTTPServer  # loads http.client itself

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"choices": [{"message": {"content": "the completion"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass

server = HTTPServer(("127.0.0.1", 0), Handler)
thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
thread.start()
try:
    url = "http://127.0.0.1:%d/v1/chat/completions" % server.server_address[1]
    backend = make_backend(BackendConfig(kind=HttpChatConfig(endpoint=url, model_name="m", timeout_s=5.0)))
    prompt = Prompt(system="s", few_shot=(), blocks={k: k for k in ("request", "observation", "sensors", "memory")})
    print(backend.complete(lambda: prompt))
    print("urllib.request" in sys.modules, "requests" in sys.modules)
finally:
    server.shutdown()
    server.server_close()
    thread.join()
"""


def test_the_http_backend_loads_the_http_stack_on_its_first_call():
    assert fresh_interpreter(HTTP_PROBE) == ["False False", "the completion", "True False"]


def test_carobo_runs_on_the_standard_library_alone():
    bench = "import sys, carobo.cli; sys.exit(carobo.cli.main(['bench', '--policy', 'oracle']))"
    assert "overall                100.0% (20/20)" in fresh_interpreter(bench, bare=True)
    assert fresh_interpreter(HTTP_PROBE, bare=True) == ["False False", "the completion", "True False"]
