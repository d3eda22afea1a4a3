"""Shared test helpers: counting backends, stub HTTP servers, text corpora."""

from __future__ import annotations

import json
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from stagewise.backends import Generator, RewardScorer
from stagewise.stages import CANONICAL_ORDER, StageBlock, StagedResponse


class CountingGenerator(Generator):
    """Wraps a generator and counts every call; used to audit ledgers."""

    def __init__(self, inner: Generator):
        self.inner = inner
        self.calls = 0
        self.requests = []

    def generate(self, request):
        self.calls += 1
        self.requests.append(request)
        return self.inner.generate(request)


class CountingScorer(RewardScorer):
    def __init__(self, inner: RewardScorer):
        self.inner = inner
        self.calls = 0
        self.requests = []

    def score(self, request):
        self.calls += 1
        self.requests.append(request)
        return self.inner.score(request)


class ScriptedGenerator(Generator):
    """Returns canned replies in call order (repeating the last one)."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def generate(self, request):
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        if isinstance(reply, Exception):
            raise reply
        return reply


class ScriptedScorer(RewardScorer):
    def __init__(self, scores):
        self.scores = list(scores)
        self.calls = 0

    def score(self, request):
        value = self.scores[min(self.calls, len(self.scores) - 1)]
        self.calls += 1
        if isinstance(value, Exception):
            raise value
        return value


def random_staged_response(rng: random.Random) -> StagedResponse:
    """A valid response: a canonical prefix with tag-free trimmed inner text."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 .,:;!?()|%&'\"\n\t"
    count = rng.randint(0, 4)
    blocks = []
    for kind in CANONICAL_ORDER[:count]:
        length = rng.randint(0, 40)
        text = "".join(rng.choice(alphabet) for _ in range(length)).strip()
        # Inner '<' is legal as long as no full tag string appears.
        if rng.random() < 0.3:
            text = (text + " < not a tag >").strip()
        blocks.append(StageBlock(kind, text))
    return StagedResponse(tuple(blocks))


class _StubHandler(BaseHTTPRequestHandler):
    server_version = "stub/1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        script = self.server.script
        with self.server.lock:
            self.server.requests.append(
                {
                    "path": self.path,
                    "headers": dict(self.headers),
                    "body": body,
                    "port": self.client_address[1],
                }
            )
            index = len(self.server.requests) - 1
        reply = script(body) if callable(script) else script[min(index, len(script) - 1)]
        status, payload, *extra = reply
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self.server.drop_after_reply:
            self.close_connection = True

    def log_message(self, *args):
        pass


class _KeepAliveStubHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class StubServer:
    """Scripted HTTP endpoint.

    ``script`` is a list of (status, json_payload) or (status, json_payload,
    extra_headers) replies taken in request order, or a function from the
    request body to one such reply. The server speaks HTTP/1.0 and closes
    each connection after its reply; with ``keep_alive`` it speaks HTTP/1.1
    and keeps connections open, and with ``drop_after_reply`` as well it
    closes each one after its reply without announcing it. Each recorded request carries the client port,
    which tells connections apart.
    """

    def __init__(self, script, keep_alive=False, drop_after_reply=False):
        handler = _KeepAliveStubHandler if keep_alive else _StubHandler
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.script = script
        self.server.drop_after_reply = drop_after_reply
        self.server.lock = threading.Lock()
        self.server.requests = []
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/endpoint"

    @property
    def requests(self):
        return self.server.requests

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_server():
    servers = []

    def factory(script, **kwargs):
        server = StubServer(script, **kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


class RawServer:
    """Scripted HTTP endpoint on a raw socket, which records the bytes it receives.

    ``script`` lists the replies in request order, the last one repeating.
    Each is the raw bytes to send, or a pair (bytes, close) where a true
    ``close`` hangs up after sending; otherwise the connection stays open for
    the next request. A request is read as its head and the ``Content-Length``
    bytes after it. ``requests`` records each as ``{"raw": bytes,
    "connection": k}``, k counting connections from 0 in the order accepted.
    ``host`` "::1" serves on the IPv6 loopback.
    """

    def __init__(self, script, host="127.0.0.1"):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.listener = socket.create_server((host, 0), family=family)
        self.listener.settimeout(0.01)
        self.script = script
        self.lock = threading.Lock()
        self.requests = []
        self.connections = []
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    @property
    def port(self) -> int:
        return self.listener.getsockname()[1]

    @property
    def url(self) -> str:
        host = self.listener.getsockname()[0]
        host = f"[{host}]" if ":" in host else host
        return f"http://{host}:{self.port}/v1/endpoint"

    def _accept(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            conn.settimeout(10)
            with self.lock:
                index = len(self.connections)
                self.connections.append(conn)
            threading.Thread(target=self._serve, args=(conn, index), daemon=True).start()

    def _serve(self, conn, index):
        buf = b""
        with conn:
            while True:
                try:
                    while b"\r\n\r\n" not in buf:
                        data = conn.recv(65536)
                        if not data:
                            return
                        buf += data
                    head, _, buf = buf.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        name, _, value = line.partition(b":")
                        if name.lower() == b"content-length":
                            length = int(value)
                    while len(buf) < length:
                        data = conn.recv(65536)
                        if not data:
                            return
                        buf += data
                    with self.lock:
                        self.requests.append(
                            {"raw": head + b"\r\n\r\n" + buf[:length], "connection": index}
                        )
                        reply = self.script[min(len(self.requests), len(self.script)) - 1]
                    buf = buf[length:]
                    data, close = reply if isinstance(reply, tuple) else (reply, False)
                    conn.sendall(data)
                except OSError:
                    return
                if close:
                    return

    def close(self):
        self.stopped.set()
        self.thread.join(timeout=10)
        self.listener.close()
        with self.lock:
            for conn in self.connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


@pytest.fixture
def raw_server():
    servers = []

    def factory(script, **kwargs):
        server = RawServer(script, **kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()
