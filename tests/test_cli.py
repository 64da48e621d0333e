"""End-to-end CLI behavior via subprocess (installed entry point)."""

import argparse
import csv
import fractions
import json
import shutil
import subprocess
import sys
import threading

import pytest

from rfsentry import cli, lof, seeding, signals
from rfsentry.cli import _atomic, _parse_grid
from rfsentry.features import load_feature_csv
from rfsentry.signals import _HEADER_STRUCT
from rfsentry.synth import default_profiles, gen_burst

SUBCOMMANDS = ["synth", "extract", "train", "score", "eval", "sweep-n", "sweep-snr"]

SYNTH_ARGS = ["--seed", "3", "--snr", "30", "--capture-len", "256",
              "--signals-per-device", "12"]
# recognized: 4 devices x round(12 * 2/3) = 32 train, 16 eval; UAV: 6 x 12 eval
N_TRAIN, N_EVAL = 32, 88


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rfsentry", *(str(a) for a in args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def extract(corpus, manifest, out):
    return run_cli("extract", "--manifest", corpus / manifest, "--out", out,
                   "--capture-len", 256)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    result = run_cli("synth", "--out", out, *SYNTH_ARGS)
    assert result.returncode == 0, result.stderr
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, corpus):
    """Features and a trained model derived from the module corpus."""
    work = tmp_path_factory.mktemp("pipeline")
    train_csv = work / "train_features.csv"
    eval_csv = work / "eval_features.csv"
    model = work / "model.json"
    assert extract(corpus, "train_manifest.csv", train_csv).returncode == 0
    assert extract(corpus, "eval_manifest.csv", eval_csv).returncode == 0
    result = run_cli("train", "--features", train_csv, "--out", model, "--k", 5)
    assert result.returncode == 0, result.stderr
    return work, train_csv, eval_csv, model


@pytest.mark.parametrize("cmd", [None] + SUBCOMMANDS)
def test_help_exits_zero(cmd):
    args = (["--help"] if cmd is None else [cmd, "--help"])
    result = run_cli(*args)
    assert result.returncode == 0
    assert "usage" in result.stdout.lower()


def test_no_command_is_an_error():
    assert run_cli().returncode == 2


def test_synth_layout(corpus):
    assert (corpus / "corpus.json").is_file()
    assert (corpus / "train_manifest.csv").is_file()
    assert (corpus / "eval_manifest.csv").is_file()
    assert len(list((corpus / "signals").glob("*.rfsg"))) == 120


def test_synth_deterministic_across_runs_and_jobs(corpus, tmp_path, monkeypatch):
    again = tmp_path / "again"
    threaded = tmp_path / "threaded"
    assert run_cli("synth", "--out", again, *SYNTH_ARGS).returncode == 0
    assert run_cli("synth", "--out", threaded, *SYNTH_ARGS, "--jobs", 2).returncode == 0
    for name in ["corpus.json", "train_manifest.csv", "eval_manifest.csv"]:
        reference = (corpus / name).read_bytes()
        assert (again / name).read_bytes() == reference
        assert (threaded / name).read_bytes() == reference
    for sample in ["bt_phone_00000.rfsg", "uav_ctrl_f_00011.rfsg"]:
        reference = (corpus / "signals" / sample).read_bytes()
        assert (again / "signals" / sample).read_bytes() == reference
        assert (threaded / "signals" / sample).read_bytes() == reference
    # 3 chunks of 40 bursts: chunk edges fall inside a device's bursts; in
    # process with three usable CPUs, so that --jobs 3 is not capped on a
    # smaller host
    chunked = tmp_path / "chunked"
    monkeypatch.setattr(seeding, "usable_cpus", lambda: 3)
    assert cli.main(["synth", "--out", str(chunked), *map(str, SYNTH_ARGS), "--jobs", "3"]) == 0
    names = sorted(p.relative_to(corpus) for p in corpus.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(chunked) for p in chunked.rglob("*") if p.is_file())
    for name in names:
        assert (chunked / name).read_bytes() == (corpus / name).read_bytes(), name


CORPUS_PRODUCTS = ["corpus.json", "train_manifest.csv", "eval_manifest.csv"]


def test_synth_traces_hold_the_bursts_they_are_named_for(corpus):
    # the helper thread writes each trace to its own file: every file holds
    # the RFSG encoding of the burst its name gives
    cfg = cli._load_corpus(corpus)
    names = set()
    for profile in cfg.profiles:
        for index in range(cfg.signals_per_device):
            burst = gen_burst(profile, index, cfg)
            samples = burst.samples.astype("<f4")
            name = f"{profile.name}_{index:05d}.rfsg"
            names.add(name)
            assert (corpus / "signals" / name).read_bytes() == _HEADER_STRUCT.pack(
                b"RFSG", 1, burst.sample_rate, samples.size) + samples.tobytes(), name
    assert {p.name for p in (corpus / "signals").iterdir()} == names


def test_synth_writes_its_traces_on_one_helper_thread(tmp_path, monkeypatch):
    # --jobs 1 runs in-process; the helper starts even on one usable CPU
    monkeypatch.setattr(seeding, "usable_cpus", lambda: 1)
    writers, started = set(), []
    write, start = signals._write_file, threading.Thread.start

    def recording_write(path, data):
        writers.add(threading.get_ident())
        write(path, data)

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(signals, "_write_file", recording_write)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    before = threading.active_count()
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(out), *map(str, SYNTH_ARGS), "--jobs", "1"]) == 0
    assert threading.active_count() == before
    assert len(started) == 1
    assert writers == {started[0].ident} and threading.get_ident() not in writers
    assert len(list((out / "signals").iterdir())) == 120


def test_synth_stops_at_a_trace_it_cannot_write(tmp_path, caplog):
    out = tmp_path / "corpus"
    blocked = out / "signals" / "bt_watch_00005.rfsg"
    blocked.mkdir(parents=True)
    before = threading.active_count()
    assert cli.main(["synth", "--out", str(out), *map(str, SYNTH_ARGS), "--jobs", "1"]) == 2
    assert threading.active_count() == before
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(blocked) in errors[0]
    assert not any((out / name).exists() for name in CORPUS_PRODUCTS)
    order = [f"{p.name}_{i:05d}.rfsg" for p in default_profiles(256) for i in range(12)]
    failing = order.index(blocked.name)
    written = {p.name for p in (out / "signals").iterdir() if p.is_file()}
    assert set(order[:failing]) <= written <= set(order[:failing + 2]) - {blocked.name}


def test_synth_rejects_bad_config(tmp_path):
    result = run_cli("synth", "--out", tmp_path / "x", "--signals-per-device", 0)
    assert result.returncode == 2


def test_extract_row_counts(pipeline):
    _, train_csv, eval_csv, _ = pipeline
    assert len(load_feature_csv(train_csv)) == N_TRAIN
    assert len(load_feature_csv(eval_csv)) == N_EVAL


def test_extract_skips_corrupt_signal(corpus, tmp_path):
    damaged = tmp_path / "damaged"
    shutil.copytree(corpus, damaged)
    victim = damaged / "signals" / "uav_ctrl_a_00003.rfsg"
    victim.write_bytes(b"not a signal file")
    out = tmp_path / "features.csv"
    result = run_cli("extract", "--manifest", damaged / "eval_manifest.csv",
                     "--out", out, "--capture-len", 256)
    assert result.returncode == 0
    assert "skipping" in result.stderr
    assert len(load_feature_csv(out)) == N_EVAL - 1


def test_extract_missing_signal_is_fatal(corpus, tmp_path):
    # a corrupt file is skippable noise; a missing file means a broken corpus
    damaged = tmp_path / "damaged"
    shutil.copytree(corpus, damaged)
    (damaged / "signals" / "uav_ctrl_a_00003.rfsg").unlink()
    result = run_cli("extract", "--manifest", damaged / "eval_manifest.csv",
                     "--out", tmp_path / "features.csv", "--capture-len", 256)
    assert result.returncode == 2


def test_extract_missing_manifest_exits_two(tmp_path):
    result = run_cli("extract", "--manifest", tmp_path / "none.csv",
                     "--out", tmp_path / "out.csv")
    assert result.returncode == 2


def test_train_refuses_uav_rows(pipeline, tmp_path):
    _, _, eval_csv, _ = pipeline
    result = run_cli("train", "--features", eval_csv,
                     "--out", tmp_path / "model.json", "--k", 5)
    assert result.returncode == 2
    assert "UAV" in result.stderr
    assert not (tmp_path / "model.json").exists()


def test_train_k_too_large_exits_two(pipeline, tmp_path):
    _, train_csv, _, _ = pipeline
    result = run_cli("train", "--features", train_csv,
                     "--out", tmp_path / "model.json", "--k", 200)
    assert result.returncode == 2


def test_train_k_zero_exits_two(pipeline, tmp_path):
    _, train_csv, _, _ = pipeline
    result = run_cli("train", "--features", train_csv,
                     "--out", tmp_path / "model.json", "--k", 0)
    assert result.returncode == 2
    assert "k must be at least 1, got 0" in result.stderr


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("lrd"), "missing key(s) lrd"),
    (lambda d: d.update(kdist=d["kdist"][:-1]), "kdist has shape"),
    (lambda d: d.update(lrd=d["lrd"] + [1.0]), "lrd has shape"),
    (lambda d: d.update(k=0), "k=0 outside 1..31"),
    (lambda d: d.update(k=len(d["train"])), "k=32 outside 1..31"),
    (lambda d: d.update(scaler_mean=d["scaler_mean"][:-1]), "scaler_mean has shape"),
    (lambda d: d.update(scaler_std=d["scaler_std"] + [1.0]), "scaler_std has shape"),
    (lambda d: d["train"][0].__setitem__(0, float("nan")), "train holds non-finite values"),
    (lambda d: d.update(threshold=True), "threshold must be a number, got True"),
    (lambda d: d.update(threshold="1.5"), "threshold must be a number, got '1.5'"),
    (lambda d: d.update(threshold=10**400), "threshold is beyond float range"),
    (lambda d: d["kdist"].__setitem__(0, 10**400), "int too large to convert to float"),
    (lambda d: d.update(k=5.0), "k must be an integer, got 5.0"),
    (lambda d: d.update(standardized=1), "standardized must be a boolean, got 1"),
    (lambda d: d.update(version=True), "unsupported rfsentry-lof version True"),
    (lambda d: d["lrd"].__setitem__(3, "1.5"), "lrd entries must be numbers, got '1.5'"),
    (lambda d: d["kdist"].__setitem__(0, True), "kdist entries must be numbers, got True"),
    (lambda d: d["train"][2].__setitem__(1, True), "train entries must be numbers, got True"),
], ids=["missing-key", "short-kdist", "long-lrd", "k-zero", "k-n", "short-mean",
        "long-std", "nan", "bool-threshold", "text-threshold", "huge-threshold",
        "huge-kdist", "float-k", "int-standardized", "bool-version", "text-lrd",
        "bool-kdist", "bool-train"])
def test_score_rejects_inconsistent_model(pipeline, tmp_path, edit, message):
    _, _, eval_csv, model = pipeline
    doc = json.loads(model.read_text())
    edit(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    result = run_cli("score", "--model", bad, "--features", eval_csv,
                     "--out", tmp_path / "scores.csv")
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "scores.csv").exists()


# JSON nested deeper than the decoder's recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def test_score_rejects_deeply_nested_model_json(pipeline, tmp_path):
    _, _, eval_csv, _ = pipeline
    bad = tmp_path / "model.json"
    bad.write_text(DEEP_JSON)
    result = run_cli("score", "--model", bad, "--features", eval_csv,
                     "--out", tmp_path / "scores.csv")
    assert result.returncode == 2
    assert "not JSON: maximum recursion depth exceeded" in result.stderr
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "scores.csv").exists()


def _rewrite_csv(src, dst, edit):
    """Copy a CSV with ``edit`` applied to its rows (header first)."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set(row_index, column, value):
    def edit(rows):
        rows[row_index][column] = value
        return rows

    return edit


# Each edit breaks one rule shared by the feature-CSV and manifest parsers.
# ``c`` is (class column, a numeric column, columns to drop from data rows):
# the drop makes 2-sigma feature rows and 3-column manifest rows.
PARSER_CASES = [
    ("empty", lambda c: lambda rows: [], "empty file"),
    ("header", lambda c: _set(0, 0, "id"), "got the header ['id',"),
    ("columns", lambda c: lambda rows: rows[:1] + [r[: -c[2]] for r in rows[1:]],
     "columns, got"),
    ("class", lambda c: _set(1, c[0], "drone"), "unknown class 'drone'"),
    ("text", lambda c: _set(1, c[1], "loud"), "'loud' is not a number"),
    ("nan", lambda c: _set(1, c[1], "nan"), "'nan' is not finite"),
    ("inf", lambda c: _set(1, c[1], "-inf"), "'-inf' is not finite"),
]


@pytest.mark.parametrize("case, make_edit, message", PARSER_CASES,
                         ids=[c[0] for c in PARSER_CASES])
def test_train_rejects_malformed_feature_csv(pipeline, tmp_path, case, make_edit, message):
    _, train_csv, _, _ = pipeline
    bad = tmp_path / "features.csv"
    _rewrite_csv(train_csv, bad, make_edit((1, 3, 2)))
    result = run_cli("train", "--features", bad, "--out", tmp_path / "model.json", "--k", 5)
    assert result.returncode == 2
    assert message in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("case, make_edit, message", PARSER_CASES,
                         ids=[c[0] for c in PARSER_CASES])
def test_extract_rejects_malformed_manifest(corpus, tmp_path, case, make_edit, message):
    bad = tmp_path / "manifest.csv"
    _rewrite_csv(corpus / "eval_manifest.csv", bad, make_edit((2, 3, 1)))
    (tmp_path / "signals").symlink_to(corpus / "signals")
    result = run_cli("extract", "--manifest", bad, "--out", tmp_path / "f.csv",
                     "--capture-len", 256)
    assert result.returncode == 2
    assert message in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("rows", ["none", "all-corrupt"])
def test_extract_keeping_no_rows_exits_two(corpus, tmp_path, rows):
    (tmp_path / "signals").mkdir()
    (tmp_path / "signals" / "bad.rfsg").write_bytes(b"not a signal file")
    manifest = tmp_path / "manifest.csv"
    body = "" if rows == "none" else "signals/bad.rfsg,uav_ctrl_a,uav,30.0\n"
    manifest.write_text("path,device_id,class,snr_db\n" + body)
    out = tmp_path / "features.csv"
    result = run_cli("extract", "--manifest", manifest, "--out", out, "--capture-len", 256)
    assert result.returncode == 2
    assert "could be fingerprinted" in result.stderr
    assert not out.exists()


def test_atomic_write_failure_leaves_no_files(tmp_path):
    target = tmp_path / "out.csv"

    def failing_writer(path):
        path.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic(failing_writer, target)
    assert list(tmp_path.iterdir()) == []


def test_write_to_a_missing_directory_names_the_output_path(pipeline, tmp_path):
    _, _, eval_csv, model = pipeline
    out = tmp_path / "missing" / "s.csv"
    result = run_cli("score", "--model", model, "--features", eval_csv, "--out", out)
    assert result.returncode == 2
    assert result.stderr.strip().endswith(f"No such file or directory: '{out}'")
    assert ".tmp" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def reference_scores(pipeline, tmp_path_factory):
    """scores.csv of the pipeline's model, from a subprocess at the default settings."""
    _, _, eval_csv, model = pipeline
    out = tmp_path_factory.mktemp("reference") / "scores.csv"
    result = run_cli("score", "--model", model, "--features", eval_csv, "--out", out)
    assert result.returncode == 0, result.stderr
    return out.read_bytes()


@pytest.mark.parametrize("cpus", [1, 3, None], ids=["one-thread", "three-threads", "default"])
def test_train_and_score_do_not_depend_on_lof_threads(pipeline, reference_scores, tmp_path,
                                                      monkeypatch, cpus):
    # 4-row blocks: train has 8 row blocks and score 22, so each thread count
    # splits them; the reference outputs come from the default block size
    _, train_csv, eval_csv, model = pipeline
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", 4 * N_TRAIN)
    if cpus is not None:
        monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
    mine, scores = tmp_path / "model.json", tmp_path / "scores.csv"
    assert cli.main(["train", "--features", str(train_csv), "--out", str(mine), "--k", "5"]) == 0
    assert mine.read_bytes() == model.read_bytes()
    assert cli.main(["score", "--model", str(mine), "--features", str(eval_csv),
                     "--out", str(scores)]) == 0
    assert scores.read_bytes() == reference_scores


def test_score_output(pipeline, tmp_path):
    _, _, eval_csv, model = pipeline
    out = tmp_path / "scores.csv"
    assert run_cli("score", "--model", model, "--features", eval_csv,
                   "--out", out).returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["device_id", "class", "snr_db", "score", "label"]
    assert len(rows) == 1 + N_EVAL
    labels = {r[4] for r in rows[1:]}
    assert labels <= {"inlier", "outlier"}
    assert all(float(r[3]) > 0 for r in rows[1:])


def test_eval_reports(pipeline, tmp_path):
    _, _, eval_csv, model = pipeline
    out = tmp_path / "report"
    assert run_cli("eval", "--model", model, "--features", eval_csv,
                   "--out", out).returncode == 0
    with open(out / "confusion.csv", newline="") as fh:
        header, counts = list(csv.reader(fh))
    assert header == ["tp", "fp", "fn", "tn"]
    assert sum(int(c) for c in counts) == N_EVAL
    with open(out / "metrics.csv", newline="") as fh:
        mh, mrow = list(csv.reader(fh))
    accuracy = float(mrow[mh.index("accuracy")])
    assert accuracy >= 0.9  # mini corpus at the training SNR is easy


def test_sweep_n(pipeline, tmp_path):
    _, train_csv, eval_csv, _ = pipeline
    out = tmp_path / "report"
    result = run_cli("sweep-n", "--train-features", train_csv,
                     "--eval-features", eval_csv, "--out", out,
                     "--k-grid", "3,5,7", "--seed", 0)
    assert result.returncode == 0, result.stderr
    with open(out / "neighbors_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows] == ["k", "3", "5", "7"]
    assert int(result.stdout.strip()) in (3, 5, 7)


def test_sweep_n_rejects_bad_grid(pipeline, tmp_path):
    _, train_csv, eval_csv, _ = pipeline
    result = run_cli("sweep-n", "--train-features", train_csv,
                     "--eval-features", eval_csv, "--out", tmp_path / "r",
                     "--k-grid", "5:1:0")
    assert result.returncode == 2


def test_sweep_snr_outputs_and_parallel_determinism(corpus, pipeline, tmp_path):
    _, train_csv, _, _ = pipeline
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    base = ["sweep-snr", "--corpus", corpus, "--train-features", train_csv,
            "--k-grid", "5", "--snr-grid", "10,30", "--per-class", 10]
    assert run_cli(*base, "--out", serial_dir).returncode == 0
    assert run_cli(*base, "--out", parallel_dir, "--jobs", 2).returncode == 0
    with open(serial_dir / "snr_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "k", "accuracy"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("10.0", "5"), ("30.0", "5")]
    svg = (serial_dir / "snr_sweep.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 1
    assert (parallel_dir / "snr_sweep.csv").read_bytes() == (
        serial_dir / "snr_sweep.csv"
    ).read_bytes()


def _edit_config(edit):
    """A corpus.json text transform that applies ``edit`` to the parsed document."""

    def transform(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return transform


CORPUS_CASES = [
    ("not-json", lambda text: text[:-5], "not JSON"),
    ("deep-nesting", lambda text: text.replace('"profiles": [', f'"profiles": [{DEEP_JSON},', 1),
     "not JSON: maximum recursion depth exceeded"),
    ("list", lambda text: "[1,2]", "not a rfsentry-corpus document"),
    ("format", _edit_config(lambda d: d.update(format="rfsentry-lof")),
     "not a rfsentry-corpus document"),
    ("config-key", _edit_config(lambda d: d["config"].pop("lead_len")),
     "config: missing key(s) lead_len"),
    ("profile-key", _edit_config(lambda d: d["config"]["profiles"][2].pop("kind")),
     "profiles[2]: profile: missing key(s) kind"),
    ("profiles-type", _edit_config(lambda d: d["config"].update(profiles={})),
     "profiles must be a list, got {}"),
    ("float-count", _edit_config(lambda d: d["config"].update(signals_per_device=12.5)),
     "signals_per_device must be an integer, got 12.5"),
    ("bool-seed", _edit_config(lambda d: d["config"].update(master_seed=True)),
     "master_seed must be an integer, got True"),
    ("kind", _edit_config(lambda d: d["config"]["profiles"][0].update(kind="radar")),
     "unknown kind 'radar'"),
    ("capture-len", _edit_config(lambda d: d["config"].update(capture_len=2)),
     "capture_len must be at least 4"),
    ("snr-nan", _edit_config(lambda d: d["config"].update(snr_db=float("nan"))),
     "snr_db must be finite or +inf (clean), got nan"),
    ("snr-huge", _edit_config(lambda d: d["config"].update(snr_db=10**400)),
     "config: snr_db is beyond float range"),
    ("hop-period-huge",
     _edit_config(lambda d: d["config"]["profiles"][0].update(hop_period=10**30)),
     "profiles[0]: profile: hop_period is beyond int64 range"),
    ("lead-len-huge", _edit_config(lambda d: d["config"].update(lead_len=10**30)),
     "config: lead_len is beyond int64 range"),
    ("hop-period-long",
     _edit_config(lambda d: d["config"]["profiles"][0].update(hop_period=2**62)),
     f"bt_phone: hop_period must not exceed the burst length 288, got {2**62}"),
    ("config-type", _edit_config(lambda d: d.update(config=[])),
     "config must be an object, got []"),
]


@pytest.mark.parametrize("case, transform, message", CORPUS_CASES,
                         ids=[c[0] for c in CORPUS_CASES])
def test_sweep_snr_rejects_malformed_corpus_json(corpus, pipeline, tmp_path, case,
                                                 transform, message):
    _, train_csv, _, _ = pipeline
    bad = tmp_path / "corpus"
    bad.mkdir()
    (bad / "corpus.json").write_text(transform((corpus / "corpus.json").read_text()))
    result = run_cli("sweep-snr", "--corpus", bad, "--train-features", train_csv,
                     "--out", tmp_path / "report", "--k-grid", "5", "--snr-grid", "30",
                     "--per-class", 10)
    assert result.returncode == 2
    assert message in result.stderr
    assert str(bad / "corpus.json") in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "report").exists()


# corpus.json edits that its own manifests and traces contradict; the module
# corpus has 10 devices x 12 bursts of 32 + 288 samples
CORPUS_MISMATCH_CASES = [
    ("row-count", _edit_config(lambda d: d["config"].update(signals_per_device=13)),
     "10 devices x 13 signals are 130 bursts, but the manifests hold 120"),
    ("device-name", _edit_config(lambda d: d["config"]["profiles"][0].update(name="bt_tablet")),
     "device bt_tablet has no rows in the manifests"),
    ("sample-count", _edit_config(lambda d: d["config"].update(capture_len=512)),
     "generates 608 samples per burst, but "),
    ("sample-count-huge", _edit_config(lambda d: d["config"].update(capture_len=10**12)),
     f"generates {32 + 10**12 + 10**12 // 8} samples per burst, but "),
]


@pytest.mark.parametrize("case, transform, message", CORPUS_MISMATCH_CASES,
                         ids=[c[0] for c in CORPUS_MISMATCH_CASES])
def test_sweep_snr_rejects_corpus_json_its_files_contradict(corpus, pipeline, tmp_path, case,
                                                            transform, message):
    _, train_csv, _, _ = pipeline
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    (bad / "corpus.json").write_text(transform((corpus / "corpus.json").read_text()))
    result = run_cli("sweep-snr", "--corpus", bad, "--train-features", train_csv,
                     "--out", tmp_path / "report", "--k-grid", "5", "--snr-grid", "30",
                     "--per-class", 10)
    assert result.returncode == 2
    assert message in result.stderr
    assert str(bad / "corpus.json") in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "report").exists()


def _features_at_capture_len_128(corpus, train_csv, tmp_path):
    features = tmp_path / "train_128.csv"
    result = run_cli("extract", "--manifest", corpus / "train_manifest.csv", "--out", features,
                     "--capture-len", 128)
    assert result.returncode == 0, result.stderr
    return corpus, features


def _features_of_another_seed(corpus, train_csv, tmp_path):
    other = tmp_path / "other"
    assert SYNTH_ARGS[:2] == ["--seed", "3"]
    assert run_cli("synth", "--out", other, "--seed", 4, *SYNTH_ARGS[2:]).returncode == 0
    assert extract(other, "train_manifest.csv", tmp_path / "train_4.csv").returncode == 0
    return corpus, tmp_path / "train_4.csv"


def _corpus_of_another_master_seed(corpus, train_csv, tmp_path):
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    edit = _edit_config(lambda d: d["config"].update(master_seed=d["config"]["master_seed"] + 1))
    (bad / "corpus.json").write_text(edit((corpus / "corpus.json").read_text()))
    return bad, train_csv


# a training CSV that the corpus did not produce under its capture rule; the
# models it fits do not describe the bursts that the sweep regenerates
TRAINING_MISMATCH_CASES = {
    "capture-len": _features_at_capture_len_128,
    "other-corpus-seed": _features_of_another_seed,
    "corpus-json-master-seed": _corpus_of_another_master_seed,
}


@pytest.mark.parametrize("case", TRAINING_MISMATCH_CASES)
def test_sweep_snr_rejects_training_features_the_corpus_did_not_produce(corpus, pipeline,
                                                                        tmp_path, case):
    _, train_csv, _, _ = pipeline
    root, features = TRAINING_MISMATCH_CASES[case](corpus, train_csv, tmp_path)
    result = run_cli("sweep-snr", "--corpus", root, "--train-features", features,
                     "--out", tmp_path / "report", "--k-grid", "5", "--snr-grid", "30",
                     "--per-class", 10)
    assert result.returncode == 2
    assert "no bt_phone row matches burst 0 of" in result.stderr
    assert str(features) in result.stderr and str(root / "corpus.json") in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "report").exists()


def test_sweep_snr_rejects_a_profile_whose_waveform_overflows(corpus, pipeline, tmp_path):
    # finite tone weights whose sum overflows the float range
    _, train_csv, _, _ = pipeline
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    edit = _edit_config(lambda d: d["config"]["profiles"][2].update(modulation_index=1e308))
    (bad / "corpus.json").write_text(edit((corpus / "corpus.json").read_text()))
    result = run_cli("sweep-snr", "--corpus", bad, "--train-features", train_csv,
                     "--out", tmp_path / "report", "--k-grid", "5", "--snr-grid", "30",
                     "--per-class", 10)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == [
        f"ERROR {bad / 'corpus.json'}: wifi_router_a: the waveform is not finite "
        "(overflow encountered in multiply)"]
    assert not (tmp_path / "report").exists()


def test_sweep_snr_rejects_an_snr_grid_value_as_synth_rejects_it(corpus, pipeline, tmp_path):
    # the grid comes from the command line, so its error names no file
    _, train_csv, _, _ = pipeline
    sweep = run_cli(*_sweep_snr(corpus, train_csv, tmp_path / "report", "--snr-grid", "10,4000"))
    synth = run_cli("synth", "--out", tmp_path / "corpus", *SYNTH_ARGS, "--snr", 4000)
    assert sweep.returncode == synth.returncode == 2
    assert sweep.stderr.strip().splitlines() == synth.stderr.strip().splitlines() == [
        "ERROR an SNR of 4000.0 dB is out of range"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "sweep-snr"])
def test_jobs_below_one_is_rejected(corpus, pipeline, tmp_path, command):
    _, train_csv, _, _ = pipeline
    args = {"synth": ["synth", *SYNTH_ARGS],
            "sweep-snr": ["sweep-snr", "--corpus", corpus, "--train-features", train_csv]}
    result = run_cli(*args[command], "--out", tmp_path / "out", "--jobs", 0)
    assert result.returncode == 2
    assert "--jobs: must be at least 1, got 0" in result.stderr
    assert not (tmp_path / "out").exists()


def _sweep_snr(corpus, train_csv, out, *extra):
    return ["sweep-snr", "--corpus", corpus, "--train-features", train_csv, "--out", out,
            "--k-grid", "5", "--per-class", 10, *extra]


def _sweep_n(train_csv, eval_csv, out, *extra):
    return ["sweep-n", "--train-features", train_csv, "--eval-features", eval_csv,
            "--out", out, *extra]


# Each case names a non-finite number or a count below 1. ``usage`` marks the
# argparse errors, which print the usage block before their one error line.
REJECTED_VALUE_CASES = [
    ("snr-grid-minus-inf",
     lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--snr-grid=-inf,30"),
     "grid '-inf,30' holds a non-finite value", True),
    ("snr-grid-inf", lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--snr-grid=30,inf"),
     "grid '30,inf' holds a non-finite value", True),
    ("k-grid-inf", lambda c, tr, ev, out: _sweep_n(tr, ev, out, "--k-grid", "inf"),
     "grid 'inf' holds a non-finite value", True),
    ("synth-snr-minus-inf",
     lambda c, tr, ev, out: ["synth", "--out", out, *SYNTH_ARGS, "--snr=-inf"],
     "snr_db must be finite or +inf (clean), got -inf", False),
    ("synth-snr-nan", lambda c, tr, ev, out: ["synth", "--out", out, *SYNTH_ARGS, "--snr=nan"],
     "snr_db must be finite or +inf (clean), got nan", False),
    ("train-threshold-nan",
     lambda c, tr, ev, out: ["train", "--features", tr, "--out", out, "--k", 5,
                             "--threshold", "nan"],
     "threshold must be a number, got NaN", False),
    ("sweep-n-threshold-nan",
     lambda c, tr, ev, out: _sweep_n(tr, ev, out, "--k-grid", "5", "--threshold", "nan"),
     "threshold must be a number, got NaN", False),
    ("per-class-negative",
     lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--snr-grid", "30", "--per-class", -2),
     "--per-class: must be at least 1, got -2", True),
    ("snr-grid-out-of-range",
     lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--snr-grid", "4000"),
     "an SNR of 4000.0 dB is out of range", False),
    ("synth-snr-out-of-range",
     lambda c, tr, ev, out: ["synth", "--out", out, *SYNTH_ARGS, "--snr", "4000"],
     "an SNR of 4000.0 dB is out of range", False),
    ("k-grid-too-long", lambda c, tr, ev, out: _sweep_n(tr, ev, out, "--k-grid", "1:1e9:1"),
     "grid '1:1e9:1': 1000000000 values, more than the 1000 allowed", True),
    ("snr-grid-beyond-float-range",
     lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--snr-grid", "0:1:1e-100000000"),
     "grid '0:1:1e-100000000': '1e-100000000' is beyond float range", True),
    ("k-grid-non-integer", lambda c, tr, ev, out: _sweep_n(tr, ev, out, "--k-grid", "2.6,3.4"),
     "grid '2.6,3.4' holds a non-integer value", True),
    ("k-grid-repeat",
     lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--k-grid", "5,5", "--snr-grid", "30"),
     "grid '5,5' repeats a value", True),
    ("snr-grid-repeat", lambda c, tr, ev, out: _sweep_snr(c, tr, out, "--snr-grid", "30,30"),
     "grid '30,30' repeats a value", True),
    ("energy-threshold-nan",
     lambda c, tr, ev, out: ["extract", "--manifest", c / "eval_manifest.csv", "--out", out,
                             "--capture-len", 256, "--energy-threshold", "nan"],
     "energy_threshold must be >= 0, got nan", False),
]


@pytest.mark.parametrize("case, make_args, message, usage", REJECTED_VALUE_CASES,
                         ids=[c[0] for c in REJECTED_VALUE_CASES])
def test_rejected_values_exit_two_and_write_nothing(corpus, pipeline, tmp_path, case,
                                                    make_args, message, usage):
    _, train_csv, eval_csv, _ = pipeline
    out = tmp_path / "out"
    result = run_cli(*make_args(corpus, train_csv, eval_csv, out))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert message in lines[-1]
    if not usage:
        assert len(lines) == 1
    assert list(tmp_path.iterdir()) == []


def test_value_error_from_a_bug_propagates(monkeypatch):
    # only deliberate checks (RfSentryError) and OSError become exit code 2
    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["eval", "--model", "m.json", "--features", "f.csv", "--out", "r"])


def test_synth_rejects_capture_len_nothing_can_fingerprint(tmp_path):
    result = run_cli("synth", "--out", tmp_path / "x", "--capture-len", 2,
                     "--signals-per-device", 3)
    assert result.returncode == 2
    assert "capture_len must be at least 4" in result.stderr
    assert not (tmp_path / "x").exists()


def test_grid_length_is_capped_before_the_grid_is_built():
    cap = cli.MAX_GRID_VALUES
    assert _parse_grid(f"1:{cap}:1", integral=True) == list(range(1, cap + 1))
    assert len(_parse_grid(",".join(str(v) for v in range(cap)), integral=False)) == cap
    for text in (f"1:{cap + 1}:1", "0:1e300:1e-300", ",".join(["1"] * (cap + 1))):
        with pytest.raises(argparse.ArgumentTypeError, match=f"more than the {cap} allowed"):
            _parse_grid(text, integral=True)


@pytest.mark.parametrize("text, integral, message", [
    ("2.6,3.4", True, "holds a non-integer value"),
    ("1:3:0.5", True, "holds a non-integer value"),
    ("100,100", True, "repeats a value"),
    ("100,1e2", True, "repeats a value"),
    ("30,30.0", False, "repeats a value"),
])
def test_grid_rejects_fractional_k_and_repeats(text, integral, message):
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        _parse_grid(text, integral)


def test_grid_steps_do_not_accumulate_float_error():
    assert _parse_grid("0:1:0.1", integral=False) == [i / 10 for i in range(11)]
    assert _parse_grid("6:30:2", integral=False) == [float(v) for v in range(6, 31, 2)]
    assert _parse_grid("10:200:10", integral=True) == list(range(10, 201, 10))
    assert _parse_grid("100:200:20", integral=True) == list(range(100, 201, 20))
    assert _parse_grid("0:1:1/4", integral=False) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_grid("1_0:2e1:5", integral=True) == [10, 15, 20]
    assert _parse_grid("-0e-100000000:1e-320:1e-320", integral=False) == [0.0, 1e-320]


@pytest.mark.parametrize("text", ["0:1:1e-100000000", "0:1:-1e-100000000", "1e100000000:1:1",
                                  "0:1e400:1e401", "0:1:1e-400"])
def test_grid_part_beyond_float_range_builds_no_fraction(text, monkeypatch):
    # Fraction would expand the exponent into an exact integer first, at
    # about 40x the time per decade of exponent; a spy on its constructor
    # shows that none is built
    calls = []
    real_new = fractions.Fraction.__new__

    def spy(cls, *args, **kwargs):
        calls.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(spy))
    with pytest.raises(argparse.ArgumentTypeError, match="is beyond float range"):
        _parse_grid(text, integral=False)
    assert calls == []
    assert _parse_grid("0:1:0.5", integral=False) == [0.0, 0.5, 1.0]
    assert calls[:3] == [("0",), ("1",), ("0.5",)]


def test_pipeline_rerun_is_byte_identical(corpus, tmp_path):
    """Same corpus, fresh working dir: every derived artifact reproduces."""

    def produce(work):
        work.mkdir()
        train_csv, eval_csv = work / "train.csv", work / "eval.csv"
        model = work / "model.json"
        assert extract(corpus, "train_manifest.csv", train_csv).returncode == 0
        assert extract(corpus, "eval_manifest.csv", eval_csv).returncode == 0
        assert run_cli("train", "--features", train_csv, "--out", model,
                       "--k", 5).returncode == 0
        report = work / "report"
        assert run_cli("eval", "--model", model, "--features", eval_csv,
                       "--out", report).returncode == 0
        return [train_csv, eval_csv, model, report / "confusion.csv",
                report / "metrics.csv"]

    first = produce(tmp_path / "a")
    second = produce(tmp_path / "b")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name
