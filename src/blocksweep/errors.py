"""Exception types shared across the package."""


class BlocksweepError(Exception):
    """Base class for package-specific failures."""


class ShapeError(BlocksweepError, ValueError):
    """Block counts or block lengths do not match."""


class NonFiniteError(ShapeError):
    """A block vector would hold an infinite or NaN entry.

    The drivers end a run with ``termination="diverged"`` when an iterate
    or an operator value raises it.
    """


class ParameterError(BlocksweepError, ValueError):
    """A scalar parameter or schedule violates its admissible range."""


class InvalidRuleError(ParameterError):
    """A sweeping rule or error model fails its validity conditions."""


class CapacityError(BlocksweepError, RuntimeError):
    """Exact enumeration was requested beyond the supported size."""


class NumericError(BlocksweepError, RuntimeError):
    """A linear-algebra subroutine failed or produced non-finite values."""


class CapabilityError(BlocksweepError, RuntimeError):
    """The requested computation is not available for this operator kind."""


class OracleFailureError(BlocksweepError, RuntimeError):
    """A deterministic reference run did not reach its target accuracy."""


class ConfigError(BlocksweepError, ValueError):
    """A run configuration document is malformed or violates a bound."""
