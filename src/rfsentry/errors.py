"""Exception hierarchy shared across the pipeline."""


class RfSentryError(Exception):
    """Base class for all rfsentry errors; the CLI maps these to exit code 2."""


# signal model / preprocessing

class ZeroPowerSignal(RfSentryError):
    """SNR is undefined for an all-zero signal."""


class NoTrigger(RfSentryError):
    """No window reached the energy threshold."""


class InputTooShort(RfSentryError):
    """Fewer samples than one capture window."""


# corpus generation

class ConfigError(RfSentryError, ValueError):
    """Invalid configuration or parameter value."""


class EmptyEval(RfSentryError):
    """Cannot split an empty evaluation set."""


# wavelet packet transform

class TooShort(RfSentryError):
    """Input too short for one filter-bank stage."""


# features

class EmptyPacket(RfSentryError):
    """Statistics are undefined for an empty coefficient sequence."""


class ShapeError(RfSentryError):
    """Statistic matrix has the wrong shape for ranking."""


# LOF model

class DimensionMismatch(RfSentryError):
    """Query dimension differs from the training dimension."""


class NotEnoughTrainingData(RfSentryError):
    """Need at least k+1 training rows."""


class NonFiniteFeature(RfSentryError):
    """NaN or infinity in a feature matrix."""


# evaluation

class LengthMismatch(RfSentryError):
    """Truth and prediction sequences differ in length."""


class EmptyInput(RfSentryError):
    """Cannot build a confusion matrix from zero predictions."""


class EmptyMatrix(RfSentryError):
    """Metrics are undefined for an all-zero confusion matrix."""


# file formats

class FormatError(RfSentryError, ValueError):
    """A file the CLI reads is malformed or internally inconsistent."""
