"""Shared fixtures: tiny corpora, synthetic embeddings, a local HTTP provider."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from tally.corpus import normalize_text
from tally.embeddings import EmbeddingMatrix
from tally.lexicon import Concept, ConceptSet, SynonymSet


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    return str(path)


@pytest.fixture
def tiger_corpus(tmp_path):
    """Small corpus exercising word boundaries and an ambiguous mention."""
    rows = [
        {"id": 0, "text": "a tiger walking in the grass"},
        {"id": 1, "text": "tiger shark swimming in water"},
        {"id": 2, "text": "Tigers! tigers, tigers."},
        {"id": 3, "text": "portrait of Panthera tigris at dusk"},
        {"id": 4, "text": "three cats on a mat"},
        {"id": 5, "text": "the big cat sleeps"},
        {"id": 6, "text": "tiger tiger tiger burning bright"},
    ]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, rows)
    captions = {r["id"]: normalize_text(r["text"]) for r in rows}
    return str(path), captions


@pytest.fixture
def tiger_concepts():
    return ConceptSet(
        [
            Concept(0, "tiger", "a large striped Asian cat"),
            Concept(1, "cat", "a small domesticated feline"),
        ]
    )


@pytest.fixture
def tiger_sets():
    return [
        SynonymSet(0, ["tiger", "panthera tigris", "big cat"], ["original", "provider", "provider"]),
        SynonymSet(1, ["cat", "big cat"], ["original", "provider"]),
    ]


def unit_rows(n, dim, rng):
    """Random unit-norm float32 rows."""
    mat = rng.standard_normal((n, dim))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return mat.astype(np.float32)


def make_embeddings(keys, dim=8, seed=0, normalized=True):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(list(keys), unit_rows(len(keys), dim, rng), normalized=normalized)


def fake_post(outcome):
    """A stand-in for requests.post that opens no socket: it raises
    `outcome` when that is an exception, else answers 200 with its bytes."""
    import requests

    def post(url, json=None, timeout=None):
        if isinstance(outcome, Exception):
            raise outcome
        resp = requests.Response()
        resp.status_code = 200
        resp._content = outcome
        return resp

    return post


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        handler = self.server.routes.get(self.path)
        if handler is None:
            self.send_response(404)
            self.end_headers()
            return
        self.server.calls.append((self.path, payload))
        status, body = handler(payload)
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class LocalProvider:
    """An in-process HTTP server with pluggable POST routes for tests."""

    def __init__(self):
        self.server = HTTPServer(("127.0.0.1", 0), _Handler)
        self.server.routes = {}
        self.server.calls = []
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    @property
    def calls(self):
        return self.server.calls

    def route(self, path, handler):
        self.server.routes[path] = handler

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def http_provider():
    provider = LocalProvider()
    yield provider
    provider.close()
