import copy
import json
import math
import pickle
import random
import re
import sys
import threading
import tracemalloc
import zlib
from dataclasses import FrozenInstanceError
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import assume, given, settings, strategies as st

from amrex.errors import (ConfigError, DatasetError, EmbeddingMissError, SimilarityError,
                          TransportError)
from amrex.graph import parse_penman
from amrex.similarity import (_TEXTS_PER_REQUEST, DeterministicTestBackend,
                              EmbeddingServiceBackend, EmbeddingVector,
                              PrecomputedFileBackend, backend_from_spec, cosine)
from amrex.verdict import score_pairs

from _fixtures import JSON_VALUES


def test_vector_validation():
    with pytest.raises(SimilarityError):
        EmbeddingVector(())
    with pytest.raises(SimilarityError):
        EmbeddingVector((1.0, float("nan")))


@pytest.mark.parametrize("values, message", [
    ((), "empty embedding vector"),
    ([], "empty embedding vector"),
    ((1.0, float("nan")), "non-finite value in embedding vector"),
    ([float("-inf"), 1.0], "non-finite value in embedding vector"),
    ((1, 10 ** 400), "non-finite value in embedding vector"),
    ([2.0, -(10 ** 309)], "non-finite value in embedding vector"),
    ("123", "non-number value in embedding vector"),
    (["1", 2.0], "non-number value in embedding vector"),
    ((1.0, None), "non-number value in embedding vector"),
    ([[1.0], 2.0], "non-number value in embedding vector"),
])
def test_vector_errors(values, message):
    with pytest.raises(SimilarityError, match=f"^{message}$"):
        EmbeddingVector(values)


def test_a_vector_of_bytes_holds_their_integers():
    # Not their bytes read as machine doubles.
    assert EmbeddingVector(bytes(range(1, 9))).values == tuple(map(float, range(1, 9)))


def test_vectors_are_immutable_values():
    v = EmbeddingVector([0.0, 1.5, -2])
    assert v == EmbeddingVector((-0.0, 1.5, -2.0)) and v != EmbeddingVector((0.0, 1.5))
    assert hash(v) == hash(EmbeddingVector((-0.0, 1.5, -2.0)))
    assert v.dim == 3 and repr(v) == "EmbeddingVector(values=(0.0, 1.5, -2.0))"
    assert pickle.loads(pickle.dumps(v)) == copy.deepcopy(v) == v
    with pytest.raises(FrozenInstanceError):
        v.values = (1.0,)
    with pytest.raises(FrozenInstanceError):
        del v.values


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


def _uncached_cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """The cosine as taken before each vector kept its norm: both norms
    recomputed, and tiny vectors rescaled, on every call."""
    def rescaled(values):
        squares = sum(v * v for v in values)
        if squares < sys.float_info.min and any(values):
            shift = -math.frexp(max(map(abs, values)))[1]
            values = tuple(math.ldexp(v, shift) for v in values)
            squares = sum(v * v for v in values)
        return values, squares
    x, squares_a = rescaled(a.values)
    y, squares_b = rescaled(b.values)
    norms = math.sqrt(squares_a) * math.sqrt(squares_b)
    return sum(p * q for p, q in zip(x, y)) / norms


_ANY_SCALE = (_components | st.floats(min_value=-1e-150, max_value=1e-150)
              | st.floats(min_value=-1e150, max_value=1e150))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.lists(_ANY_SCALE, min_size=n, max_size=n)] * 2)))
def test_cosine_with_cached_norms_is_the_uncached_formula(pair):
    a, b = EmbeddingVector(pair[0]), EmbeddingVector(pair[1])
    try:
        expected = _uncached_cosine(a, b)
    except ZeroDivisionError:
        expected = None
    assume(expected is None or math.isfinite(expected))
    for _ in range(2):  # the first call fills the cache, the second reads it
        if expected is None:
            with pytest.raises(SimilarityError, match="zero-norm"):
                cosine(a, b)
        else:
            assert cosine(a, b) == expected
            assert cosine(b, a) == _uncached_cosine(b, a)


_TINY = st.floats(min_value=-1e-160, max_value=1e-160)


@st.composite
def _vector_pairs(draw):
    """Two vectors of up to 64 dimensions; each is, at random, of normal
    size, too small to square (so ``_scaled`` rescales it), or mixed."""
    n = draw(st.integers(1, 64))
    scales = {"normal": _components, "tiny": _TINY, "mixed": _ANY_SCALE}
    return tuple(EmbeddingVector(draw(st.lists(scales[draw(st.sampled_from(sorted(scales)))],
                                               min_size=n, max_size=n)))
                 for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(_vector_pairs())
def test_cosine_dot_product_is_the_zip_sum_bit_for_bit(pair):
    """cosine adds the same products in the same order as the written-out
    ``sum(p * q for p, q in zip(x, y))`` over the (possibly rescaled)
    values, so the float is the same."""
    a, b = pair
    (x, norm_a), (y, norm_b) = a._scaled, b._scaled
    assume(norm_a and norm_b and math.isfinite(norm_a * norm_b))
    if max(map(abs, a.values)) < 1e-156:
        assert x != a.values  # rescaled
    assert cosine(a, b) == sum(p * q for p, q in zip(x, y)) / (norm_a * norm_b)


_STORED = (_ANY_SCALE | _TINY | st.integers(-(2 ** 64), 2 ** 64)
           | st.integers(-(10 ** 150), 10 ** 150))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(*[st.lists(_STORED, min_size=n, max_size=n)] * 2)),
    st.sampled_from([list, tuple]))
def test_packed_vectors_give_the_floats_and_cosine_of_their_components(pair, kind):
    """Packed storage keeps each component as the float ``float()`` makes
    of it, and the cosine over it is the written-out formula's float."""
    a, b = EmbeddingVector(kind(pair[0])), EmbeddingVector(kind(pair[1]))
    assert a.values == tuple(map(float, pair[0])) and b.values == tuple(map(float, pair[1]))
    assert all(type(v) is float for v in a.values + b.values)
    try:
        expected = _uncached_cosine(a, b)
    except ZeroDivisionError:
        with pytest.raises(SimilarityError, match="zero-norm"):
            cosine(a, b)
    else:
        assert cosine(a, b) == expected


def test_vectors_hold_eight_bytes_per_component():
    """100 vectors of 384 components, built from a decoded JSON list, keep
    their packed doubles and a small constant each: no float objects."""
    rng = random.Random(0)
    text = json.dumps([[rng.uniform(-1, 1) for _ in range(384)] for _ in range(100)])
    tracemalloc.start()
    try:
        vectors = [EmbeddingVector(row) for row in json.loads(text)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vectors) == 100
    assert held <= 100 * (8 * 384 + 1024)


def test_cosine_with_cached_norms_of_an_underflowing_vector():
    tiny, one = EmbeddingVector((1e-200, 1e-200)), EmbeddingVector((1.0, 1.0))
    for _ in range(2):
        assert cosine(tiny, one) == _uncached_cosine(tiny, one) == 1.0
        assert cosine(tiny, tiny) == _uncached_cosine(tiny, tiny)


def test_cosine_errors_are_raised_on_every_call():
    zero, other = EmbeddingVector((0.0, 0.0)), EmbeddingVector((1.0, 2.0))
    huge = EmbeddingVector((1e200, 1e200))
    for _ in range(3):
        with pytest.raises(SimilarityError, match="zero-norm"):
            cosine(zero, other)
        with pytest.raises(SimilarityError, match="zero-norm"):
            cosine(other, zero)
        with pytest.raises(SimilarityError, match="cosine overflow"):
            cosine(huge, huge)
        with pytest.raises(SimilarityError, match="cosine overflow"):
            cosine(other, huge)


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


def test_deterministic_backend_gives_no_zero_vector():
    # "##ba##" has four trigrams whose signs cancel in both of two dims.
    assert DeterministicTestBackend(dim=2).embed("ba").values == (1.0, 0.0)


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
    # Blank lines are skipped.
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n" + path.read_text().replace("\n", "\n  \n"))
    assert PrecomputedFileBackend(str(padded))._cache == backend._cache


def test_precomputed_backend_bad_record(tmp_path):
    path = tmp_path / "vecs.jsonl"
    path.write_text(json.dumps({"text": "hello", "vector": ["x"]}) + "\n")
    with pytest.raises(DatasetError) as exc:
        PrecomputedFileBackend(str(path))
    assert str(exc.value) == f"{path}:1: vector must be a list of numbers"


@pytest.mark.parametrize("vector", [
    "123", [True, "2", 3], [1, True], [False], [1.0, None], [[1.0]], {"1": 2}, 5, None,
    [], [1e400], [1, 10 ** 400],
])
def test_precomputed_backend_takes_a_list_of_finite_numbers(tmp_path, vector):
    """The file backend's number rule is the service's: a non-empty JSON
    list of finite numbers, with true and false not numbers."""
    path = tmp_path / "vecs.jsonl"
    path.write_text(json.dumps({"text": "hello", "vector": [1, 0]}) + "\n"
                    + json.dumps({"text": "bad", "vector": vector}) + "\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: (vector must be a list "
                                           "of numbers|empty embedding vector|non-finite "
                                           "value in embedding vector)$"):
        PrecomputedFileBackend(str(path))


@pytest.mark.parametrize("text", [5, None, True, ["a"], {"a": 1}])
def test_precomputed_backend_takes_a_text_that_is_a_string(tmp_path, text):
    """A key that is no string could never be looked up by a text."""
    path = tmp_path / "vecs.jsonl"
    path.write_text(json.dumps({"text": "hello", "vector": [1, 0]}) + "\n"
                    + json.dumps({"text": text, "vector": [1, 0]}) + "\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: "
                                           r"text must be a string, got \w+$"):
        PrecomputedFileBackend(str(path))


def test_precomputed_backend_rejects_a_repeated_text(tmp_path):
    """Two records for one text would make the file's vector for it depend
    on record order: the second is an error naming the first's line."""
    path = tmp_path / "vecs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in (
        {"text": "a", "vector": [1, 0]}, {"text": "b", "vector": [1, 0]},
        {"text": "a", "vector": [0, 1]})) + "\n")
    with pytest.raises(DatasetError) as exc:
        PrecomputedFileBackend(str(path))
    assert str(exc.value) == f"{path}:3: duplicate text 'a' (first at line 1)"


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
    with pytest.raises(ConfigError, match="test backend dim must be >= 2, got 1"):
        backend_from_spec("test:dim=1")
    with pytest.raises(ConfigError, match="file backend needs a path"):
        backend_from_spec("file:")
    with pytest.raises(ConfigError, match="service backend needs a URL"):
        backend_from_spec("service:")


class _StubHandler(BaseHTTPRequestHandler):
    """Answers ``POST <prefix>/embed``; the prefix picks the reply, and
    ``/scripted`` sends the status and body held in ``scripted``."""

    scripted: tuple[int, bytes] = (200, b"")
    received: list[list[str]] = []  # the texts of each request, in order

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.received.append(body["texts"])
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
            "/spread/embed": {"vectors": [_spread(t) for t in body["texts"]]},
            "/emptyforbad/embed": {"vectors": [[] if t.startswith("bad") else _spread(t)
                                               for t in body["texts"]]},
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


def _spread(text: str) -> list[float]:
    """The ``/spread`` stub's vector of *text*: texts that differ mostly
    get different directions."""
    h = zlib.crc32(text.encode("utf-8", "surrogatepass"))
    return [float(h % 97) - 48.0, float(h >> 16 & 255) + 0.5, float(len(text))]


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
    _StubHandler.received.clear()
    assert backend.embed("a", iter(["bb"])).values == (1.0, 1.0)
    assert backend.embed("bb").values == (2.0, 1.0)
    assert _StubHandler.received == [["a", "bb"]]


def test_service_backend_length_mismatch(stub_server):
    backend = EmbeddingServiceBackend(f"{stub_server}/short")
    with pytest.raises(TransportError) as exc:
        backend.embed("one", iter(["two", "three"]))
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
        got = [EmbeddingVector(tuple(row)).values for row in backend._request(["t"] * n)]
    except SimilarityError as exc:
        assert type(exc) is expected, exc
    else:
        assert got == expected


def test_a_service_reply_nested_too_deep_is_a_transport_error(stub_server):
    """The decoder gives up on a reply nested 1,500 levels deep: that is a
    malformed reply, not a RecursionError."""
    _StubHandler.scripted = (200, b'{"vectors": ' + b"[" * 1500 + b"]" * 1500 + b"}")
    backend = EmbeddingServiceBackend(f"{stub_server}/scripted", timeout=5)
    with pytest.raises(TransportError, match="malformed embedding service"):
        backend._request(["t"])


@settings(max_examples=200, deadline=None)
@given(_VECTORS)
def test_file_records_and_service_replies_give_the_same_vectors(stub_server, tmp_path_factory,
                                                                vector):
    """A vector a service reply would give, the same JSON in a file record
    gives; one the service rejects, the file rejects with its line."""
    _StubHandler.scripted = (200, json.dumps({"vectors": [vector]}).encode())
    try:
        expected = EmbeddingServiceBackend(f"{stub_server}/scripted", timeout=5).embed("t")
    except SimilarityError:
        expected = None
    path = tmp_path_factory.mktemp("vecs") / "vecs.jsonl"
    path.write_text(json.dumps({"text": "t", "vector": vector}) + "\n")
    try:
        got = PrecomputedFileBackend(str(path)).embed("t")
    except DatasetError as exc:
        assert expected is None and str(exc).startswith(f"{path}:1: ")
    else:
        assert got.values == expected.values


_GRAPH = parse_penman("(x / film)")


def _pairs(texts):
    """score_pairs input taking *texts* two at a time as (evidence, claim)."""
    return [(texts[i], _GRAPH, texts[i + 1], _GRAPH, 0) for i in range(0, len(texts), 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_score_pairs_requests_each_uncached_text_once_in_full_batches(stub_server, data):
    """Duplicates and cached texts are never requested, the uncached ones
    go in ceil(uncached / batch) requests, and the cosines are bitwise
    those of per-text embedding."""
    batch = _TEXTS_PER_REQUEST
    n = data.draw(st.sampled_from([1, batch - 1, batch, batch + 1, 4 * batch + 1, 200])
                  | st.integers(1, 200), label="distinct texts")
    repeats = data.draw(st.lists(st.integers(0, n - 1), max_size=80), label="repeats")
    texts = data.draw(st.permutations([f"text {i}" for i in range(n)]
                                      + [f"text {i}" for i in repeats]))
    if len(texts) % 2:
        texts.append(texts[0])
    cached = data.draw(st.sets(st.sampled_from(texts), max_size=80), label="cached")
    backend = EmbeddingServiceBackend(f"{stub_server}/spread", timeout=5)
    for text in cached:
        backend.embed(text)
    _StubHandler.received.clear()
    scored = score_pairs(_pairs(texts), backend)
    requests = list(_StubHandler.received)
    uncached = len(set(texts) - cached)
    assert len(requests) == -(-uncached // batch)
    assert [len(r) for r in requests[:-1]] == [batch] * (len(requests) - 1)
    sent = [t for r in requests for t in r]
    assert sorted(sent) == sorted(set(texts) - cached)
    expected = [cosine(EmbeddingVector(_spread(e)), EmbeddingVector(_spread(c)))
                for e, _, c, _, _ in _pairs(texts)]
    assert [sim for _, sim in scored] == expected
    _StubHandler.received.clear()
    assert score_pairs(_pairs(texts), backend) == scored
    assert _StubHandler.received == []


def test_an_unreachable_service_names_the_first_pair():
    backend = EmbeddingServiceBackend("http://127.0.0.1:9", timeout=0.2)
    with pytest.raises(SimilarityError,
                       match=r"^pair 0: embedding service unreachable") as exc:
        score_pairs(_pairs(["a", "b", "c", "d"]), backend, names=["pair 0", "pair 1"])
    assert isinstance(exc.value, TransportError)


@pytest.mark.parametrize("bad, message", [
    ("", "cannot embed empty text"),
    ("film \udcff", "cannot embed text holding a lone surrogate"),
], ids=["empty", "lone-surrogate"])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("side", [0, 1], ids=["evidence", "claim"])
def test_an_unembeddable_text_names_its_pair_and_is_never_sent(stub_server, bad, message,
                                                                k, side):
    texts = [f"text {i}" for i in range(10)]
    texts[2 * k + side] = bad
    names = [f"pair {i}" for i in range(5)]
    _StubHandler.received.clear()
    with pytest.raises(SimilarityError, match=f"^pair {k}: {message}"):
        score_pairs(_pairs(texts), EmbeddingServiceBackend(f"{stub_server}/spread"),
                    names=names)
    assert all(bad not in request for request in _StubHandler.received)


def test_a_malformed_reply_names_a_pair(stub_server):
    backend = EmbeddingServiceBackend(f"{stub_server}/text")
    with pytest.raises(SimilarityError, match=r"^pair 0: malformed embedding service") as exc:
        score_pairs(_pairs(["a", "b", "c", "d"]), backend, names=["pair 0", "pair 1"])
    assert isinstance(exc.value, TransportError)


def test_a_bad_vector_names_the_pair_of_its_text(stub_server):
    texts = ["a", "b", "c", "d", "bad e", "f"]
    backend = EmbeddingServiceBackend(f"{stub_server}/emptyforbad")
    with pytest.raises(SimilarityError, match=r"^pair 2: empty embedding vector"):
        score_pairs(_pairs(texts), backend, names=["pair 0", "pair 1", "pair 2"])
