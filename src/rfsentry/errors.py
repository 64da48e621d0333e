"""The three errors the pipeline raises on purpose, and the argument rules.

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

The argument rules live here too, each stated once: ``float_array``,
``integer`` and ``real`` give a library argument as a float64 array, an
``int`` within int64 or a ``float``, and refuse a bool, complex, text or
object value with a ``ConfigError`` that names it, and so is a finite
value that float64 cannot hold (a wide ``np.longdouble``). The JSON readers pass
their values to the records' constructors, which apply these rules. Ranges,
NaN included, stay each caller's rule.
"""

import math
import numbers

import numpy as np


class RfSentryError(Exception):
    """Valid input that cannot be processed; the base class of the other two."""


class ConfigError(RfSentryError, ValueError):
    """An invalid argument or parameter value."""


class FormatError(RfSentryError, ValueError):
    """A file the CLI reads is malformed or internally inconsistent."""


def float_array(value, what: str) -> np.ndarray:
    """``value`` as float64, uncopied if it is; only integer and float dtypes are numbers."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:  # a ragged sequence, for one
        raise ConfigError(f"{what} must be numbers: {exc}") from None
    if array.dtype.kind not in "iuf":  # numpy would cast bool and complex, and parse text
        raise ConfigError(f"{what} must be numbers, got dtype {array.dtype}")
    if array.dtype.itemsize > 8:  # np.longdouble, whose finite values may exceed float64
        with np.errstate(over="ignore"):
            narrow = array.astype(np.float64)
        if np.any(np.isinf(narrow) & np.isfinite(array)):
            raise ConfigError(f"{what} is beyond float range")
        return narrow
    return array.astype(np.float64, copy=False)


def integer(value, what: str) -> int:
    """``value`` as an ``int``; a bool, a non-integer or one beyond int64 is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not -2**63 <= value < 2**63:
        raise ConfigError(f"{what} is beyond int64 range")
    return value


def real(value, what: str) -> float:
    """``value`` as a ``float``; a bool, a non-number or an overflow is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a Python int, say
        number = math.inf
    if math.isinf(number) and value != number:  # a wide np.longdouble becomes inf instead
        raise ConfigError(f"{what} is beyond float range")
    return number
