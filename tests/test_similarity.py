import json
import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import assume, given, settings, strategies as st

from amrex.errors import ConfigError, EmbeddingMissError, SimilarityError, TransportError
from amrex.similarity import (DeterministicTestBackend, EmbeddingServiceBackend,
                              EmbeddingVector, PrecomputedFileBackend,
                              backend_from_spec, cosine)

from _fixtures import JSON_VALUES


def test_vector_validation():
    with pytest.raises(SimilarityError):
        EmbeddingVector(())
    with pytest.raises(SimilarityError):
        EmbeddingVector((1.0, float("nan")))


def test_cosine_identical():
    v = EmbeddingVector((1.0, 2.0, 3.0))
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(EmbeddingVector((1.0, 0.0)), EmbeddingVector((0.0, 1.0))) == 0.0


def test_cosine_symmetry_and_scale_invariance():
    a = EmbeddingVector((0.3, -1.2, 4.0, 0.01))
    b = EmbeddingVector((1.5, 0.2, -0.7, 2.2))
    assert abs(cosine(a, b) - cosine(b, a)) < 1e-12
    ka = EmbeddingVector(tuple(7.5 * v for v in a.values))
    assert abs(cosine(ka, b) - cosine(a, b)) < 1e-9


def test_cosine_errors():
    with pytest.raises(SimilarityError):
        cosine(EmbeddingVector((1.0,)), EmbeddingVector((1.0, 2.0)))
    with pytest.raises(SimilarityError):
        cosine(EmbeddingVector((0.0, 0.0)), EmbeddingVector((1.0, 2.0)))
    # Norms that overflow a float, or whose product does: NaN or 0.0 before.
    for a, b in (((1e200, 1e200), (1e200, 1e200)), ((1.0, 2.0), (1e200, 1e200)),
                 ((1e160, 0.0), (1e160, 0.0))):
        with pytest.raises(SimilarityError, match="cosine overflow"):
            cosine(EmbeddingVector(a), EmbeddingVector(b))


@pytest.mark.parametrize("a, b, expected", [
    ((1e-200, 1e-200), (1.0, 1.0), 1.0),  # was a zero-norm error
    ((3e-162, 1e-162), (1.0, 2.0), 5 / math.sqrt(50)),  # was 0.7113
    ((1e-160, 0.0), (1.0, 0.0), 1.0),  # was 1.0000055664551362
    ((1e-200,), (1e-200,), 1.0),
])
def test_cosine_of_vectors_too_small_to_square(a, b, expected):
    assert abs(cosine(EmbeddingVector(a), EmbeddingVector(b)) - expected) < 1e-12


_components = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.lists(_components, min_size=n, max_size=n)] * 2)))
def test_cosine_of_normal_vectors_is_the_plain_formula(pair):
    a, b = pair
    squares_a = sum(v * v for v in a)
    squares_b = sum(v * v for v in b)
    assume(squares_a >= sys.float_info.min and squares_b >= sys.float_info.min)
    dot = sum(x * y for x, y in zip(a, b))
    expected = dot / (math.sqrt(squares_a) * math.sqrt(squares_b))
    assert cosine(EmbeddingVector(a), EmbeddingVector(b)) == expected


def test_deterministic_backend_is_deterministic():
    backend = DeterministicTestBackend(dim=64)
    a = backend.embed("A cat sat on the mat.")
    b = DeterministicTestBackend(dim=64).embed("A cat sat on the mat.")
    assert a == b
    assert backend.embed("A cat sat on the mat.") is a  # cached


def test_deterministic_backend_similar_texts_score_higher():
    backend = DeterministicTestBackend(dim=128)
    base = backend.embed("the film was released in 2017")
    near = backend.embed("the film was released in 2018")
    far = backend.embed("rabies causes inflammation of the brain")
    assert cosine(base, near) > cosine(base, far)


def test_embed_rejects_empty_text():
    with pytest.raises(SimilarityError):
        DeterministicTestBackend().embed("")
    # A lone surrogate, as argv's surrogateescape makes of a byte that is
    # not UTF-8.
    with pytest.raises(SimilarityError, match="lone surrogate"):
        DeterministicTestBackend().embed("film \udcff")


def test_precomputed_backend(tmp_path):
    path = tmp_path / "vecs.jsonl"
    path.write_text(json.dumps({"text": "hello", "vector": [1, 0]}) + "\n"
                    + json.dumps({"text": "world", "vector": [0, 1]}) + "\n")
    backend = PrecomputedFileBackend(str(path))
    assert backend.embed("hello").values == (1.0, 0.0)
    with pytest.raises(EmbeddingMissError) as exc:
        backend.embed("absent text")
    assert "absent text" in str(exc.value)


def test_precomputed_backend_bad_record(tmp_path):
    path = tmp_path / "vecs.jsonl"
    path.write_text(json.dumps({"text": "hello", "vector": ["x"]}) + "\n")
    with pytest.raises(ConfigError) as exc:
        PrecomputedFileBackend(str(path))
    assert f"{path}:1: bad embedding record" in str(exc.value)


def test_backend_from_spec():
    assert isinstance(backend_from_spec("test"), DeterministicTestBackend)
    assert backend_from_spec("test:dim=32").dim == 32
    assert isinstance(backend_from_spec("service:http://localhost:1"),
                      EmbeddingServiceBackend)
    with pytest.raises(ConfigError):
        backend_from_spec("nope")
    with pytest.raises(ConfigError):
        backend_from_spec("test:dim=abc")
    # A digit that str.isdigit accepts but int() does not read.
    with pytest.raises(ConfigError, match="bad test backend spec"):
        backend_from_spec("test:dim=\u00b2")


class _StubHandler(BaseHTTPRequestHandler):
    """Answers ``POST <prefix>/embed``; the prefix picks the reply, and
    ``/scripted`` sends the status and body held in ``scripted``."""

    scripted: tuple[int, bytes] = (200, b"")

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/scripted/embed":
            status, data = self.scripted
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        vectors = [[float(len(t)), 1.0] for t in body["texts"]]
        replies = {
            "/embed": {"vectors": vectors},
            "/short/embed": {"vectors": vectors[:-1]},
            "/list/embed": [vectors],
            "/nokey/embed": {"vecs": vectors},
            "/scalar/embed": {"vectors": [1.0 for _ in vectors]},
            "/nonnumeric/embed": {"vectors": [["x"] for _ in vectors]},
        }
        if self.path == "/text/embed":
            data = b"not json"
        elif self.path in replies:
            data = json.dumps(replies[self.path]).encode()
        else:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_service_backend_roundtrip(stub_server):
    backend = EmbeddingServiceBackend(stub_server)
    vec = backend.embed("hello")
    assert vec.values == (5.0, 1.0)
    assert [v.values for v in backend.embed_many(["a", "bb"])] == [(1.0, 1.0), (2.0, 1.0)]


def test_service_backend_length_mismatch(stub_server):
    backend = EmbeddingServiceBackend(f"{stub_server}/short")
    with pytest.raises(TransportError) as exc:
        backend.embed_many(["one", "two", "three"])
    assert "length 2 does not match request length 3" in str(exc.value)


@pytest.mark.parametrize("prefix, message", [
    ("/missing", "HTTP 404"),
    ("/text", "malformed"),
    ("/list", "malformed"),
    ("/nokey", "malformed"),
    ("/scalar", "malformed"),
    ("/nonnumeric", "malformed"),
])
def test_service_backend_bad_reply(stub_server, prefix, message):
    backend = EmbeddingServiceBackend(stub_server + prefix)
    with pytest.raises(TransportError) as exc:
        backend.embed("hello")
    assert message in str(exc.value)


def test_service_backend_unreachable():
    backend = EmbeddingServiceBackend("http://127.0.0.1:9", timeout=0.2)
    with pytest.raises(TransportError):
        backend.embed("hello")
    with pytest.raises(TransportError):
        EmbeddingServiceBackend("no-scheme-host").embed("hello")



_NUMBERS = (st.floats() | st.integers() | st.integers(min_value=10 ** 308)
            | st.booleans() | st.text(max_size=3))
_FINITE = st.lists(st.floats(allow_nan=False, allow_infinity=False)
                  | st.integers(-9, 9), min_size=1, max_size=3)
_ANY_FLOATS = st.lists(st.floats() | st.integers(min_value=10 ** 308), max_size=2)
_VECTORS = st.one_of(_FINITE, _FINITE, _FINITE, _ANY_FLOATS,
                     st.lists(_NUMBERS, max_size=3), JSON_VALUES)


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _expected_reply(status: int, body: bytes, n: int):
    """The vectors a service reply must give for *n* texts, or the type of
    the error it must raise."""
    try:
        reply = json.loads(body)
    except ValueError:
        return TransportError
    if (status != 200 or not isinstance(reply, dict)
            or not isinstance(reply.get("vectors"), list) or len(reply["vectors"]) != n):
        return TransportError
    vectors = reply["vectors"]
    if not all(isinstance(v, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
            for v in vectors):
        return TransportError
    if not all(v and all(map(_finite, v)) for v in vectors):
        return SimilarityError
    return [tuple(map(float, v)) for v in vectors]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_service_reply_gives_vectors_or_a_typed_error(stub_server, data):
    """A reply of any status, body and vector shape gives the vectors, a
    TransportError for a transport or shape fault, or a SimilarityError for
    an empty or non-finite vector; never another exception."""
    n = data.draw(st.integers(1, 3))
    # Mostly well-formed replies, so that every outcome is common.
    shaped = st.lists(_VECTORS, min_size=n, max_size=n)
    vectors = st.one_of(shaped, shaped, st.lists(_VECTORS, max_size=4))
    replies = st.builds(lambda v: {"vectors": v}, vectors)
    reply = data.draw(st.one_of(replies, replies, JSON_VALUES))
    encoded = st.just(json.dumps(reply).encode())
    body = data.draw(st.one_of(encoded, encoded, encoded, st.binary(max_size=16)))
    status = data.draw(st.sampled_from([200] * 12 + [201, 204, 400, 404, 500, 503]))
    _StubHandler.scripted = (status, body)
    backend = EmbeddingServiceBackend(f"{stub_server}/scripted", timeout=5)
    expected = _expected_reply(status, body, n)
    try:
        got = [v.values for v in backend.embed_many(["t"] * n)]
    except SimilarityError as exc:
        assert type(exc) is expected, exc
    else:
        assert got == expected
