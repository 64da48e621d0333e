"""RF burst fingerprinting and UAV-controller anomaly detection.

Pipeline: energy-triggered transient capture -> two-level Haar wavelet
packet transform -> four-variance fingerprint -> Local Outlier Factor
novelty score against a recognized-signal reference set.
"""

from .errors import RfSentryError
from .features import fingerprint
from .lof import LofModel, Metric, fit, fit_grid, score_grid
from .signals import Signal, SignalClass, TriggerConfig, extract_transient
from .wpt import packet_coefficients

__version__ = "0.1.0"

__all__ = [
    "LofModel",
    "Metric",
    "RfSentryError",
    "Signal",
    "SignalClass",
    "TriggerConfig",
    "__version__",
    "extract_transient",
    "fingerprint",
    "fit",
    "fit_grid",
    "packet_coefficients",
    "score_grid",
]
