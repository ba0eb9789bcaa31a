"""Exception types shared across the toolkit."""


class BridgekitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(BridgekitError):
    """A document or serialized record violates a model invariant."""


class ParseError(BridgekitError):
    """Malformed dialect input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DialectViolationError(BridgekitError):
    """The document uses structure the target dialect cannot represent."""


class UnknownEntityTypeError(BridgekitError):
    """Entity-type label outside the unified mapping inventory."""

    def __init__(self, schema: str, label: str):
        self.schema = schema
        self.label = label
        super().__init__(f"unknown entity type {label!r} for schema {schema!r}")


class EmptyDatasetError(BridgekitError):
    """Dataset construction found nothing to build from."""


class UndefinedDistanceError(BridgekitError):
    """No attested bridging pair from which to take a maximum distance."""


class DegenerateTrainingError(BridgekitError):
    """Training data contains a single class, or boosting left the finite numbers."""


class DegenerateTableError(BridgekitError):
    """Contingency table has a zero marginal total."""


class SchemaMismatchError(BridgekitError):
    """Encoded row width does not match the model's encoder schema."""


class ConfigError(BridgekitError):
    """Pipeline configuration is invalid or references missing inputs."""
