"""Loopback embedding service for the ``service:`` backend.

A single-threaded ``http.server`` on 127.0.0.1 implementing ``POST /embed``:
``{"texts": [...]}`` in, ``{"vectors": [[...], ...]}`` out.  The vectors
are computed here, not by amrex, so a change to amrex cannot change what a
request costs the service.  The server counts what it is asked for and the
time it spends answering, which is where the ``similarity.service.*``
metrics come from.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

DIM = 384


def embed(text: str) -> list[float]:
    """Deterministic unit-scale vector: hashed words (so texts sharing
    words are similar) plus a small text-specific component."""
    values = [0.0] * DIM
    for word in text.lower().split():
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
        for k in range(0, 8, 2):
            values[digest[k] * 3 % DIM] += 1.0 if digest[k + 1] & 1 else -1.0
    rng = random.Random(hashlib.sha256(text.encode("utf-8")).digest())
    return [round(v + 0.1 * rng.random(), 6) for v in values]


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.texts = 0
        self.bytes = 0
        self.busy_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "texts": self.texts,
                    "bytes": self.bytes, "busy_s": self.busy_s}


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path != "/embed":
            self.send_error(404)
            return
        try:
            texts = json.loads(body)["texts"]
        except (ValueError, KeyError, TypeError):
            self.send_error(400)
            return
        payload = json.dumps({"vectors": [embed(t) for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            counters.texts += len(texts)
            counters.bytes += len(body) + len(payload)
            counters.busy_s += time.perf_counter() - start

    def log_message(self, format, *args):
        pass


class EmbeddingStub:
    """Context manager running the service on an ephemeral port in a
    background thread of this process."""

    def __init__(self):
        self.server = HTTPServer(("127.0.0.1", 0), _Handler)
        self.server.counters = Counters()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="embedding-stub", daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}"

    @property
    def counters(self) -> Counters:
        return self.server.counters

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
