"""Pluggable sentence-embedding backends and cosine similarity.

The pipeline never bundles an embedding model.  It talks to one of three
backends: a precomputed JSONL file of text/vector pairs, a remote embedding
service, or a deterministic model-free test backend that hashes character
n-grams.  All backends cache by exact text string, so repeated lookups are
bitwise identical within a run.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import zlib
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, DatasetError, EmbeddingMissError, SimilarityError, TransportError
from .ingest import _typed, read_records

# Texts per embedding-service request: a missing text and up to 15 that
# follow it.  A service's memory per request grows with the batch: a Python
# service building 64 384-dim vectors peaked about 3 MB above one building
# 16, and on the seed-13 averitec-sweep benchmark (2 vCPUs, CPython 3.11)
# 16 ran as fast as 32.
_TEXTS_PER_REQUEST = 16

_NUMBER_TYPES = frozenset((int, float))


def _is_number_list(row) -> bool:
    """Whether *row*, decoded by ``json.loads``, is a list of numbers.
    The decoder gives exact types, so testing each component's type
    against int and float is ``isinstance(x, (int, float))`` without bool,
    at C speed."""
    return isinstance(row, list) and _NUMBER_TYPES.issuperset(map(type, row))


@dataclass(frozen=True, init=False, repr=False)
class EmbeddingVector:
    """A sentence embedding: one or more finite real components.

    The components are packed as C doubles, 8 bytes each, in a read-only
    ``'d'`` memoryview over bytes; a tuple of float objects costs 32 (an
    8-byte slot and a 24-byte float).  ``values`` gives them back as a
    tuple of floats.  A vector is immutable and equals another with equal
    components.  An empty vector, a component that is not a real number,
    and one that is not finite as a float (an integer too large for a
    float included) are SimilarityErrors.
    """

    _packed: memoryview

    def __init__(self, values: Iterable[float]):
        # list(): array() would read bytes as raw machine doubles.
        values = list(values)
        try:
            packed = array("d", values)
        except TypeError:
            raise SimilarityError("non-number value in embedding vector") from None
        except OverflowError:  # an integer too large for a float
            raise SimilarityError("non-finite value in embedding vector") from None
        if not packed:
            raise SimilarityError("empty embedding vector")
        if not all(map(math.isfinite, values)):
            raise SimilarityError("non-finite value in embedding vector")
        object.__setattr__(self, "_packed", memoryview(packed.tobytes()).cast("d"))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._packed)

    @property
    def dim(self) -> int:
        return len(self._packed)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"EmbeddingVector(values={self.values!r})"

    def __reduce__(self):
        return EmbeddingVector, (self.values,)

    @cached_property
    def _scaled(self) -> tuple[Sequence[float], float]:
        """The components and their norm.  When the sum of squares is below
        the least normal float and a component is nonzero, the components
        are first scaled by a power of two (exact) that brings the largest
        into [0.5, 1).  Computed once per vector, on its first cosine."""
        values = self._packed
        squares = sum(map(operator.mul, values, values))
        if squares < sys.float_info.min and any(values):
            shift = -math.frexp(max(map(abs, values)))[1]
            values = tuple(math.ldexp(v, shift) for v in values)
            squares = sum(map(operator.mul, values, values))
        return values, math.sqrt(squares)


def _unembeddable(text: str) -> str | None:
    """Why *text* cannot be embedded, or None when it can."""
    if not text:
        return "cannot embed empty text"
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return "cannot embed text holding a lone surrogate"
    return None


class SimilarityBackend:
    """Base backend: resolves a text to exactly one vector or a typed miss."""

    def __init__(self):
        self._cache: dict[str, EmbeddingVector] = {}

    def embed(self, text: str, upcoming: Iterable[str] = ()) -> EmbeddingVector:
        """The vector of *text*, from the cache or else from the backend.

        *upcoming* holds texts the caller will embed later, in order; on a
        cache miss the service backend takes texts from it into the same
        request, and the other backends ignore it.  An empty text or one
        holding a lone surrogate is a SimilarityError.
        """
        fault = _unembeddable(text)
        if fault:
            raise SimilarityError(fault)
        cached = self._cache.get(text)
        if cached is None:
            cached = self._cache[text] = self._embed(text, upcoming)
        return cached

    def _embed(self, text: str, upcoming: Iterable[str]) -> EmbeddingVector:
        raise NotImplementedError


def _embedding_record(raw: dict, lineno: int) -> tuple[str, EmbeddingVector]:
    """The text and vector of a ``file:`` embeddings record, for
    :func:`read_records`: a vector fault is a DatasetError, as a text fault is."""
    text, vector = _typed(raw["text"], str, "text"), raw["vector"]
    if not _is_number_list(vector):
        raise DatasetError("vector must be a list of numbers")
    try:
        return text, EmbeddingVector(vector)
    except SimilarityError as exc:
        raise DatasetError(str(exc)) from None


class PrecomputedFileBackend(SimilarityBackend):
    """Looks vectors up by exact text key in a JSONL file of ``{"text": ...,
    "vector": [...]}`` records, read as a claims file is (:func:`read_records`).
    A text is a JSON string, with no lone surrogate, that no other record
    holds.  A vector is a JSON list of numbers, as in a service reply."""

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._cache.update((text, vector) for _, text, vector
                           in read_records(path, _embedding_record, "text", "text"))

    def _embed(self, text: str, upcoming: Iterable[str]) -> EmbeddingVector:
        # Every vector of the file is in the cache: a text that reaches here
        # is not in the file.
        raise EmbeddingMissError(text)


class EmbeddingServiceBackend(SimilarityBackend):
    """POSTs ``{"texts": [...]}`` to ``<endpoint>/embed`` and expects
    ``{"vectors": [[...], ...]}`` in the same order."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        super().__init__()
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout

    def _embed(self, text: str, upcoming: Iterable[str]) -> EmbeddingVector:
        """One request for *text* and the next texts of *upcoming* that are
        neither cached nor unembeddable, up to ``_TEXTS_PER_REQUEST`` in all.
        *upcoming* is read only as far as the request fills, so a run of
        calls sharing one iterator reads each text once."""
        batch = {text: None}
        for other in upcoming:
            if other not in batch and other not in self._cache and not _unembeddable(other):
                batch[other] = None
                if len(batch) == _TEXTS_PER_REQUEST:
                    break
        texts = list(batch)
        rows = self._request(texts)
        for other, row in zip(texts[1:], rows[1:]):
            try:
                self._cache[other] = EmbeddingVector(row)
            except SimilarityError:
                pass  # requested again, and the error raised, when *other* is embedded
        return EmbeddingVector(rows[0])

    def _request(self, texts: list[str]) -> list[list]:
        """One POST of *texts*: a list of numbers per text, in order."""
        vectors = post_json(f"{self.endpoint}/embed", {"texts": texts},
                            "vectors", self.timeout, "embedding service")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise TransportError(
                f"embedding response length {len(vectors) if isinstance(vectors, list) else '?'} "
                f"does not match request length {len(texts)}")
        if not all(map(_is_number_list, vectors)):
            raise TransportError("malformed embedding service vector: "
                                 "expected a list of numbers per text")
        return vectors


def post_json(url: str, payload: dict, key: str, timeout: float, service: str):
    """POST *payload* as JSON to *url* and return field *key* of the reply.

    An unreachable or timed-out *service*, a status other than 200, and a
    reply that is not a JSON object holding *key*, or is nested too deep to
    decode, are all TransportErrors.
    """
    # Imported here: a run that reaches no service need not pay for loading them.
    import http.client
    import urllib.error
    import urllib.request
    try:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        status, body = exc.code, b""
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise TransportError(f"{service} unreachable: {exc}")
    if status != 200:
        raise TransportError(f"{service} returned HTTP {status}")
    try:
        reply = json.loads(body)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TransportError(f"malformed {service} response: {exc}")
    if not isinstance(reply, dict) or key not in reply:
        raise TransportError(f"malformed {service} response: no JSON object with {key!r}")
    return reply[key]


class DeterministicTestBackend(SimilarityBackend):
    """Model-free backend hashing character trigrams into a fixed-dim
    vector.  Reproducible across runs and platforms; for tests and demos
    only, the vectors carry no semantics beyond surface overlap."""

    def __init__(self, dim: int = 256):
        super().__init__()
        if dim < 2:
            raise ConfigError(f"test backend dim must be >= 2, got {dim}")
        self.dim = dim

    def _embed(self, text: str, upcoming: Iterable[str]) -> EmbeddingVector:
        padded = f"##{text}##"
        values = [0.0] * self.dim
        for i in range(len(padded) - 2):
            h = zlib.crc32(padded[i:i + 3].encode("utf-8"))
            sign = 1.0 if (h >> 16) & 1 else -1.0
            values[h % self.dim] += sign
        if not any(values):
            values[0] = 1.0
        return EmbeddingVector(values)


def backend_from_spec(spec: str) -> SimilarityBackend:
    """Build a backend from a CLI spec string.

    ``test`` or ``test:dim=N``, ``file:<path>``, ``service:<url>``.
    """
    kind, _, arg = spec.partition(":")
    if kind == "test":
        if not arg:
            return DeterministicTestBackend()
        key, _, value = arg.partition("=")
        if key != "dim" or not value.isdecimal():
            raise ConfigError(f"bad test backend spec: {spec!r}")
        return DeterministicTestBackend(dim=int(value))
    if kind == "file":
        if not arg:
            raise ConfigError("file backend needs a path: file:<path>")
        return PrecomputedFileBackend(arg)
    if kind == "service":
        if not arg:
            raise ConfigError("service backend needs a URL: service:<url>")
        return EmbeddingServiceBackend(arg)
    raise ConfigError(f"unknown similarity backend {spec!r}")


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| |b|).  Dimension mismatch, zero-norm vectors and
    vectors too large to square in floats are errors rather than silent
    defaults, on every call; a vector too small to square is scaled first.
    Each vector's norm is computed once, on its first cosine."""
    if a.dim != b.dim:
        raise SimilarityError(f"dimension mismatch: {a.dim} vs {b.dim}")
    x, norm_a = a._scaled
    y, norm_b = b._scaled
    if norm_a == 0.0 or norm_b == 0.0:
        raise SimilarityError("cosine of zero-norm vector")
    # A finite product of the norms bounds the dot product (Cauchy-Schwarz),
    # so the quotient is finite too.
    norms = norm_a * norm_b
    if not math.isfinite(norms):
        raise SimilarityError("cosine overflow: vector norms too large for floats")
    # The products of zip(x, y), added in the same order, at C speed.
    dot = sum(map(operator.mul, x, y))
    return dot / norms
