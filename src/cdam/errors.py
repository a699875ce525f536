"""Exception types shared across the package."""


class CdamError(Exception):
    """Base class for all package errors."""


class InvalidSizeError(CdamError):
    """A graph builder was asked for an infeasible size or degree."""


class RetryExhaustedError(CdamError):
    """A randomized construction ran out of rejection retries."""


class UnknownNameError(CdamError):
    """Lookup of a named graph, state, or label failed."""


class GraphFormatError(CdamError):
    """A graph file could not be parsed."""


class ContractError(CdamError):
    """Caller violated a dimension or argument contract."""


class NumericDivergenceError(CdamError):
    """Simulation state, or a readout of it, became non-finite."""

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


class UndefinedCorrelationError(CdamError):
    """Pearson correlation requested for a zero-variance input."""


class EnergyUndefinedError(CdamError):
    """Energy evaluation hit a nonpositive log argument."""


class FormatError(CdamError):
    """A data file (IDX, PNM, CSV frame) is malformed."""


class LengthError(FormatError):
    """A data file payload is shorter than its header declares."""


class IngestError(CdamError):
    """Frame ingestion failed (mixed dimensions, empty directory, ...)."""


class SpecError(CdamError):
    """An automaton specification is inconsistent."""
