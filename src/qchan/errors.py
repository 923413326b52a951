"""Exception types raised across the toolkit.

Two broad families matter to callers: validation errors (bad inputs,
out-of-range parameters, malformed objects) and solver errors (a
computation that cannot be carried out at the requested size). The CLI
maps the former to exit code 2 and the latter to exit code 1.

The integer check that capacity and repeater share lives here too, so
importing capacity does not load repeater.
"""


class QchanError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QchanError):
    """Invalid input or parameter."""


class SolverError(QchanError):
    """A solver could not produce a result."""


class InvalidState(ValidationError):
    """Matrix or amplitude vector fails a state invariant."""


class NotHermitian(ValidationError):
    """Matrix expected to be Hermitian is not."""


class InvalidBlochVector(ValidationError):
    """Bloch vector norm exceeds 1."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class IncompleteMeasurement(ValidationError):
    """Measurement operators do not sum to the identity."""


class InvalidChannel(ValidationError):
    """Channel fails Kraus completeness or is unusable for the operation."""


class InvalidProbability(ValidationError):
    """Probability outside [0, 1]."""


class InvalidParameter(ValidationError):
    """Channel or solver parameter outside its valid range."""


class InvalidOrder(ValidationError):
    """Renyi order is negative."""


class InfiniteDivergence(ValidationError):
    """Relative entropy diverges for the requested closed form."""


class Unsupported(ValidationError):
    """Operation not available for this input (wrong kind or dimension)."""


class InvalidLevel(ValidationError):
    """Swap level outside [0, n]."""


class Divergent(ValidationError):
    """Expected value diverges (zero success probability)."""


class DegenerateLoss(ValidationError):
    """Loss parameter at its singular value."""


class DegeneratePair(ValidationError):
    """Purification attempted on a zero-success pair."""


class TooLarge(SolverError):
    """Problem size exceeds the exact-solver bound."""


def _check_count(name: str, value, least: int = 0) -> int:
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < least:
        raise InvalidParameter(f"{name} = {value!r} must be an integer of at least {least}")
    return value.__index__()
