"""Damaged input files: each command that reads one exits 0 or 2, never a traceback.

Every parser gets truncated and byte-mutated copies of a valid file and runs
in-process through ``cli.main``. Hypothesis is derandomized and has no
example database, so the examples are the same on every run.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfsentry import cli

MINI = ["--capture-len", "256"]

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A mini corpus with its features and model, written by the CLI."""
    root = tmp_path_factory.mktemp("valid")
    corpus = root / "corpus"
    steps = [
        ["synth", "--out", corpus, "--seed", "3", "--signals-per-device", "12", *MINI],
        ["extract", "--manifest", corpus / "train_manifest.csv",
         "--out", root / "train.csv", *MINI],
        ["extract", "--manifest", corpus / "eval_manifest.csv",
         "--out", root / "eval.csv", *MINI],
        ["train", "--features", root / "train.csv", "--out", root / "model.json",
         "--k", "5"],
    ]
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == 0
    return root


def _damage(data, original: bytes) -> bytes:
    """``original`` cut short, or with one to four bytes replaced.

    Half the replacements land in the first 32 bytes, where the headers are.
    """
    if data.draw(st.booleans(), label="truncate"):
        return original[: data.draw(st.integers(0, len(original) - 1), label="length")]
    damaged = bytearray(original)
    head = st.integers(0, min(31, len(original) - 1))
    anywhere = st.integers(0, len(original) - 1)
    for _ in range(data.draw(st.integers(1, 4), label="replacements")):
        damaged[data.draw(st.one_of(head, anywhere), label="at")] = data.draw(
            st.integers(0, 255), label="byte")
    return bytes(damaged)


def _run(argv) -> int:
    code = cli.main([str(a) for a in argv])
    assert code in (0, 2)
    return code


@FUZZ
@given(data=st.data())
def test_damaged_signal_file(valid, tmp_path, data):
    rfsg = (valid / "corpus" / "signals" / "bt_phone_00000.rfsg").read_bytes()
    (tmp_path / "x.rfsg").write_bytes(_damage(data, rfsg))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,device_id,class,snr_db\nx.rfsg,bt_phone,recognized,30.0\n")
    _run(["extract", "--manifest", manifest, "--out", tmp_path / "f.csv", *MINI])


@FUZZ
@given(data=st.data())
def test_damaged_manifest(valid, tmp_path, data):
    manifest = valid / "corpus" / "damaged_manifest.csv"  # its paths are corpus-relative
    manifest.write_bytes(_damage(data, (valid / "corpus" / "eval_manifest.csv").read_bytes()))
    _run(["extract", "--manifest", manifest, "--out", tmp_path / "f.csv", *MINI])


@FUZZ
@given(data=st.data())
def test_damaged_feature_csv(valid, tmp_path, data):
    features = tmp_path / "train.csv"
    features.write_bytes(_damage(data, (valid / "train.csv").read_bytes()))
    _run(["train", "--features", features, "--out", tmp_path / "model.json", "--k", "5"])


@FUZZ
@given(data=st.data())
def test_damaged_model_json(valid, tmp_path, data):
    model = tmp_path / "model.json"
    model.write_bytes(_damage(data, (valid / "model.json").read_bytes()))
    _run(["score", "--model", model, "--features", valid / "eval.csv",
          "--out", tmp_path / "scores.csv"])


@FUZZ
@given(data=st.data())
def test_damaged_corpus_json(valid, tmp_path, data):
    (tmp_path / "corpus.json").write_bytes(
        _damage(data, (valid / "corpus" / "corpus.json").read_bytes()))
    _run(["sweep-snr", "--corpus", tmp_path, "--train-features", valid / "train.csv",
          "--out", tmp_path / "report", "--k-grid", "5", "--snr-grid", "30",
          "--per-class", "4"])
