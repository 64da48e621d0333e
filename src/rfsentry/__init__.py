"""RF burst fingerprinting and UAV-controller anomaly detection.

Pipeline: energy-triggered transient capture -> two-level Haar wavelet
packet transform -> packet-variance fingerprint -> Local Outlier Factor
novelty score against a recognized-signal reference set.
"""

from .errors import RfSentryError
from .features import fingerprint, rank_features
from .lof import LofModel, Metric, fit, fit_grid, score_grid
from .signals import Signal, SignalClass, TriggerConfig, add_awgn, extract_transient
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
    "add_awgn",
    "extract_transient",
    "fingerprint",
    "fit",
    "fit_grid",
    "packet_coefficients",
    "rank_features",
    "score_grid",
]
