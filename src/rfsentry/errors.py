"""The three errors the pipeline raises on purpose.

* ``ConfigError``: the caller passed an invalid argument, such as a value
  out of range, arrays of mismatched shape, dimension or length,
  non-finite features, fewer training rows than k+1, or a value that is
  not a number (or not an integer) where one belongs.
* ``FormatError``: a file the CLI reads is malformed or internally
  inconsistent.
* ``RfSentryError`` itself: valid input that cannot be processed, such as a
  burst with no trigger, an all-zero signal, too few samples, or an empty
  packet, evaluation set, prediction set or confusion matrix.

The CLI maps every ``RfSentryError`` to exit code 2 with a one-line
message; any other exception is a bug. Both subclasses are also
``ValueError``s.
"""


class RfSentryError(Exception):
    """Valid input that cannot be processed; the base class of the other two."""


class ConfigError(RfSentryError, ValueError):
    """An invalid argument or parameter value."""


class FormatError(RfSentryError, ValueError):
    """A file the CLI reads is malformed or internally inconsistent."""
