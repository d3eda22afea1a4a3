"""Loopback generator/reward endpoint serving the sim world, with a fixed added delay.

Run as its own process from the checkout root::

    python3 perfbench/stub.py --world '<SimWorldConfig.as_dict() JSON>' --delay-ms 5

It binds 127.0.0.1 on a free port and prints ``{"port": N}`` on stdout. It
then reads commands from stdin, one per line: ``stats`` prints one JSON line
of counters; end of input shuts the server down and exits.

``POST /generate`` speaks the README's chat-completions wire format. The
request's target stages are recovered from the ``stop`` tag and the
assistant prefix: they run from the stage after the prefix's last block
through the stage the stop tag closes. ``POST /reward`` speaks the reward
format. Every reply is written with one ``send`` after the delay. Counters:
POST requests, client connections that carried one, in-flight requests
(sum at arrival and peak), process CPU, and with ``--time-layers`` the time
spent in ``SimWorld.generate``/``score``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stagewise.backends import GeneratorRequest, RewardRequest, SamplingParams, SimWorld, SimWorldConfig  # noqa: E402
from stagewise.stages import CANONICAL_ORDER, DEFAULT_SCHEMA, EMPTY_RESPONSE, parse_staged  # noqa: E402

_CLOSING = {DEFAULT_SCHEMA.close(kind): kind for kind in CANONICAL_ORDER}


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.in_flight_sum = 0
        self.peak_in_flight = 0
        self.layer_ns = {"generate": 0, "score": 0}
        self.layer_calls = {"generate": 0, "score": 0}

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "in_flight_sum": self.in_flight_sum,
                "peak_in_flight": self.peak_in_flight,
                **{f"{layer}_ns": ns for layer, ns in self.layer_ns.items()},
                **{f"{layer}_calls": n for layer, n in self.layer_calls.items()},
                "cpu_s": time.process_time(),
                "threads": threading.active_count(),
            }


def generator_request(body: dict) -> GeneratorRequest:
    messages = body["messages"]
    question = next(m["content"] for m in messages if m["role"] == "user")
    prefix = next((m["content"] for m in messages if m["role"] == "assistant"), None)
    prior = parse_staged(prefix) if prefix else EMPTY_RESPONSE
    stop = (body.get("stop") or [None])[0]
    targets: tuple = ()
    if stop is not None:
        first = CANONICAL_ORDER.index(prior.blocks[-1].kind) + 1 if prior.blocks else 0
        targets = CANONICAL_ORDER[first : CANONICAL_ORDER.index(_CLOSING[stop]) + 1]
    return GeneratorRequest(
        question=question,
        target_stages=targets,
        prior_stages=prior,
        sampling=SamplingParams(body.get("temperature", 1.0), body.get("max_tokens", 1024), stop),
        seed=body.get("seed"),
    )


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 60

    def setup(self):
        super().setup()
        self.counted = False

    def do_POST(self):
        counters: Counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            if not self.counted:
                self.counted = True
                counters.connections += 1
            counters.in_flight += 1
            counters.in_flight_sum += counters.in_flight
            counters.peak_in_flight = max(counters.peak_in_flight, counters.in_flight)
        try:
            status, payload = self.answer()
        finally:
            # Leave the count before the reply goes out: once it is sent, the
            # client may open its next request before this thread runs again.
            with counters.lock:
                counters.in_flight -= 1
        self.reply(status, payload)

    def answer(self) -> tuple[int, dict]:
        server = self.server
        try:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if self.path == "/generate":
                request = generator_request(body)
                started = time.perf_counter_ns()
                text = server.world.generate(request)
                elapsed = time.perf_counter_ns() - started
                payload = {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}
                layer = "generate"
            elif self.path == "/reward":
                request = RewardRequest(body["question"], parse_staged(body["response"]))
                started = time.perf_counter_ns()
                value = server.world.score(request)
                elapsed = time.perf_counter_ns() - started
                payload = {"score": value}
                layer = "score"
            else:
                return 404, {"error": f"no route {self.path}"}
        except (KeyError, ValueError, TypeError, StopIteration) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        if server.time_layers:
            with server.counters.lock:
                server.counters.layer_ns[layer] += elapsed
                server.counters.layer_calls[layer] += 1
        time.sleep(server.delay_s)
        return 200, payload

    def reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + data)

    def log_message(self, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", required=True, help="SimWorldConfig as JSON")
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--time-layers", action="store_true")
    args = parser.parse_args()

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.world = SimWorld(SimWorldConfig.from_dict(json.loads(args.world)))
    server.delay_s = args.delay_ms / 1000.0
    server.time_layers = args.time_layers
    server.counters = Counters()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(server.counters.snapshot()), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
