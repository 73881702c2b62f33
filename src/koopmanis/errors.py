"""Exception types shared across the package."""


class KoopmanisError(Exception):
    """Base class for all package-specific errors."""


class ModelNotFoundError(KoopmanisError):
    """Requested built-in model name does not exist."""


class InvalidParameterError(KoopmanisError):
    """A model or config parameter is out of its admissible range."""


class ShapeError(KoopmanisError):
    """Array dimensions do not match the declared model dimensions."""


class UnsupportedSchemeError(KoopmanisError):
    """Integration scheme not applicable to the given model."""


class ConfigError(KoopmanisError):
    """Experiment configuration is inconsistent or incomplete."""


class NumericalError(KoopmanisError):
    """An eigensolve, linear solve or quadrature failed to meet its
    tolerance, or path weights overflowed."""


class EmptySpectrumError(KoopmanisError):
    """Validation rejected every eigenpair; enlarge the basis or point set."""


class TuningFailedError(KoopmanisError):
    """No multiplier in the sweep grid produced any event hits."""


class RankDeficiencyWarning(UserWarning):
    """Feature matrix rank fell below the dictionary size."""
