import os
import tracemalloc
from pathlib import Path

import pytest

import rfsentry
from rfsentry.features import FeatureTable, fingerprint
from rfsentry.seeding import stage_seed
from rfsentry.signals import TriggerConfig
from rfsentry.synth import CorpusConfig, build_corpus, default_profiles

# The CLI tests run ``python -m rfsentry`` in subprocesses: point them at the
# package under test, so that a plain checkout needs no install, and turn a
# RuntimeWarning there into an error, as pyproject's filter does in-process.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(rfsentry.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)


def table_from_signals(signals, trigger: TriggerConfig) -> FeatureTable:
    return FeatureTable.from_rows(
        [(s.device_id, s.signal_class, s.snr_db, fingerprint(s, trigger)) for s in signals]
    )


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def default_trigger() -> TriggerConfig:
    return TriggerConfig()


@pytest.fixture(scope="session")
def default_corpus():
    """Full-size corpus (10 devices x 300 signals at 30 dB), seed 0."""
    cfg = CorpusConfig(profiles=default_profiles(), master_seed=stage_seed(0, "corpus"))
    train, evaluation = build_corpus(cfg)
    return cfg, train, evaluation


@pytest.fixture(scope="session")
def mini_cfg() -> CorpusConfig:
    """Small fast corpus for plumbing tests; same shape, shorter captures."""
    return CorpusConfig(
        profiles=default_profiles(256),
        signals_per_device=12,
        capture_len=256,
        master_seed=stage_seed(5, "corpus"),
    )
