"""A fake chat-completions endpoint that serves recorded completions.

Stdlib `http.server` on 127.0.0.1, served by one thread. The benchmark loads
one scenario's completions before each episode; every POST returns the next
one in an OpenAI-shaped payload, so `HttpChatBackend` runs unchanged.
"""
from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import List

PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")


def keep_requests_local() -> None:
    """Stop `requests` from routing loopback calls through a proxy."""
    for name in PROXY_VARIABLES:
        os.environ.pop(name, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"


class FakeChatServer:
    """Replays a list of completions, one per request, in order."""

    def __init__(self):
        self._completions: List[str] = []
        self.served = 0  # requests answered since the last load()
        self.request_bytes = 0  # request bodies read since the last load()
        fake = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                fake.request_bytes += len(body)
                if fake.served >= len(fake._completions):
                    self.send_error(500, "no recorded completion left")
                    return
                content = fake._completions[fake.served]
                fake.served += 1
                payload = json.dumps(
                    {"object": "chat.completion",
                     "choices": [{"index": 0, "finish_reason": "stop",
                                  "message": {"role": "assistant", "content": content}}]}
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d/v1/chat/completions" % self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()

    def load(self, completions: List[str]) -> None:
        """Serve `completions` from the start; call before each episode."""
        self._completions = completions
        self.served = 0
        self.request_bytes = 0

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
