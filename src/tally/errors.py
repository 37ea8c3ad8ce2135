"""Exception types shared across the tally package.

Every error raised on a contract boundary derives from TallyError so callers
(and the CLI) can map failures to exit codes without string matching.
"""


class TallyError(Exception):
    """Base class for all tally errors."""


class InputError(TallyError):
    """Bad input data: missing files, schema mismatches, malformed artifacts."""


class EmptyCorpusError(InputError):
    """A corpus file yielded zero parsable records."""


class EmptyPatternSetError(InputError):
    """A matcher was compiled with no patterns."""


class MissingEmbeddingError(InputError):
    """A required embedding key is absent from the embedding matrix."""

    def __init__(self, key: str):
        super().__init__(f"missing embedding for key {key!r}")
        self.key = key


class EmbeddingFormatError(InputError):
    """An embedding file is structurally invalid (magic, truncation, NaN/Inf)."""


class DegenerateAverageError(TallyError):
    """Normalized average undefined: the mean vector has (near-)zero norm."""


class UndefinedCorrelationError(TallyError):
    """Correlation undefined: one of the inputs has zero variance."""


class UndefinedPrecisionError(TallyError):
    """Precision undefined: the judge marked zero pairs relevant."""


class ConsistencyError(TallyError):
    """Cross-artifact invariant violated (e.g. a hit without a verdict)."""


class ProviderError(TallyError):
    """A synonym or judge provider failed after exhausting its retry budget."""

    def __init__(self, message: str, concept_id: int | None = None):
        super().__init__(message)
        self.concept_id = concept_id


class DivergenceError(TallyError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, epoch: int):
        super().__init__(f"non-finite loss at step {step} (epoch {epoch})")
        self.step = step
        self.epoch = epoch
