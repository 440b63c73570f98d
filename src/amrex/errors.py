"""Exception hierarchy shared across the package."""


class AmrexError(Exception):
    """Base class for all domain errors raised by this package."""


class PenmanParseError(AmrexError):
    """Malformed Penman text. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class GraphError(AmrexError):
    """A graph violates a structural invariant (cycle, dangling edge, ...)."""


class MappingError(AmrexError):
    """A variable mapping references unknown variables or is not injective."""


class SimilarityError(AmrexError):
    """Base class for embedding backend failures."""


class EmbeddingMissError(SimilarityError):
    """A precomputed backend has no vector for the requested text."""

    def __init__(self, text: str):
        super().__init__(f"no embedding for text: {text!r}")
        self.text = text


class TransportError(SimilarityError):
    """An embedding or generation service was unreachable or malformed."""


class ConfigError(AmrexError):
    """Inconsistent or out-of-range configuration."""


class DatasetError(AmrexError):
    """A dataset file is malformed or incomplete."""
