"""Exception hierarchy shared by all chandisc modules."""


class ChandiscError(Exception):
    """Base class for all library errors."""


class NonSquareError(ChandiscError):
    pass


class DimensionOverflowError(ChandiscError):
    pass


class DimensionMismatchError(ChandiscError):
    pass


class InvalidStateError(ChandiscError):
    pass


class NormalizationError(ChandiscError):
    pass


class InvalidAlphaError(ChandiscError):
    pass


class OptimizerFailure(ChandiscError):
    pass


class InfiniteDivergenceError(ChandiscError):
    pass


class TauTooLargeError(ChandiscError):
    pass


class SupportMismatchError(ChandiscError):
    pass


class ExcessiveCensoringError(ChandiscError):
    pass


class DegenerateSamplingError(ChandiscError):
    pass


class ConfigError(ChandiscError):
    pass
