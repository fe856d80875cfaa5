"""Shared test helpers."""
import contextlib
import itertools
import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")


@pytest.fixture
def build_data(monkeypatch):
    """scripts/build_data.py, the definition of the bundled suite, imported by path."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import build_data

    return build_data


@pytest.fixture(scope="session")
def time_limit():
    """`with time_limit(s):` raises TimeoutError in a block still running after s seconds.

    It arms a SIGALRM timer, so it works on the main thread only; a regression
    into an endless loop then fails its test instead of hanging the suite.
    """

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(_signum, _frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


class FakeEndpoint:
    """A chat-completions endpoint on loopback that keeps the parsed requests.

    Every POST gets the answer last set by `reply`, or the next completion
    that `serve` queued. The server speaks HTTP/1.0, so it closes the
    connection after each answer.
    """

    def __init__(self):
        self.requests = []
        self.reply(200, b"")
        fake = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                fake.requests.append((dict(self.headers), json.loads(self.rfile.read(length))))
                status, body, length = next(fake._answers)
                if status is None:
                    return  # the connection closes without an answer
                self.send_response(status)
                self.send_header("Content-Length", str(len(body) if length is None else length))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d/v1/chat/completions" % self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()

    def reply(self, status, doc, length=None):
        """Answer every POST with `status` and `doc` (bytes, or a value sent as JSON), under a
        `Content-Length` of `length` if given, or close without an answer if `status` is None."""
        body = doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8")
        self._answers = itertools.repeat((status, body, length))

    def serve(self, completions):
        """Answer each POST with the next of `completions` as the first choice's content, and
        once they run out, with HTTP 500."""
        payloads = ({"choices": [{"message": {"role": "assistant", "content": text}}]} for text in completions)
        self._answers = itertools.chain(((200, json.dumps(doc).encode("utf-8"), None) for doc in payloads),
                                        itertools.repeat((500, b'{"error": "no completion left"}', None)))

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture
def no_proxy(monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def endpoint(no_proxy):
    fake = FakeEndpoint()
    try:
        yield fake
    finally:
        fake.close()


@pytest.fixture(scope="module")
def module_endpoint():
    """One FakeEndpoint for a module's tests, with no proxy in the environment; each test sets its answers."""
    with pytest.MonkeyPatch.context() as patch:
        for name in PROXY_VARIABLES:
            patch.delenv(name, raising=False)
        fake = FakeEndpoint()
        try:
            yield fake
        finally:
            fake.close()
