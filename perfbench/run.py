#!/usr/bin/env python3
"""rfsentry benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``, never
from an installed copy. Each workload runs in its own child process (so peak
RSS belongs to one workload), one at a time:

* ``--trace 0``: set-up runs ``SETUP_REPEATS`` times, each in a fresh
  interpreter (import plus input generation), and ``setup_s`` is their
  median. A measuring child then runs the timed part ``--seconds //
  nominal_s`` times (see ``workloads.Workload``) and reports the median
  iteration as ``wall_s``.
* ``--trace 1``: one child runs set-up traced, then the timed part as an
  untraced warm-up, traced, and untraced again. It checks that all three
  produce byte-identical outputs, and reports the per-layer metrics plus the
  tracing overhead.

Outputs are checked every run: against ``perfbench/reference/`` for seeds
that have a reference, and for internal consistency and iteration-to-
iteration determinism for every seed. The last line of stdout is one JSON
object with the metrics named in BENCHMARK.json; any failed operation exits 1.
``--record-reference`` writes the reference for the given workload and seed
instead of comparing against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_scratch"
RECORDS = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170.0
# Environment of every child. BLAS/OpenMP pools get one thread: the CLI runs
# with --jobs 1, and one thread keeps timings steady on a small shared
# machine. glibc's mmap threshold is fixed at 32 MiB, the ceiling of its
# dynamic threshold. Left dynamic, the heap trim threshold follows it up, so
# up to ~40 MB of freed heap stayed resident or not depending on allocation
# order, and corpus_pipeline's peak RSS read 163 MB for some seeds and 203 MB
# for others.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="rfsentry benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time; sets the number of timed iterations "
                        "(default %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="write perfbench/reference/<workload>-seed<seed>.json")
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--scratch", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    import rfsentry

    if Path(rfsentry.__file__).resolve().parent != (SRC / "rfsentry").resolve():
        raise SystemExit(f"perfbench: imported rfsentry from {rfsentry.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure_traced(workload, wl_mod, args, scratch: Path, ops, result: dict) -> None:
    from tracing import Tracer

    tracer = Tracer()
    tracer.run_id = "setup"
    tracer.install()
    try:
        workload.setup(scratch / "inputs", args.seed, ops)
    finally:
        tracer.uninstall()
    # A process's first iteration is cold (lof_scale's first fit is ~25%
    # slower than later ones), so the overhead compares the traced iteration
    # with a warm untraced one after it.
    walls, products = {}, {}
    for mode in ("warmup", "traced", "untraced"):
        run_out = scratch / mode
        wl_mod.reset(run_out)
        if mode == "traced":
            tracer.run_id = "timed"
            tracer.install()
        start = time.perf_counter()
        try:
            workload.iterate(scratch / "inputs", run_out, args.seed, ops)
        finally:
            walls[mode] = time.perf_counter() - start
            tracer.uninstall()
        products[mode] = wl_mod.digests(run_out, workload.products)
    ops.check(products["traced"] == products["untraced"] == products["warmup"],
              "traced outputs differ from untraced outputs")
    workload.finish(scratch / "inputs", scratch / "traced", ops)
    workload.verify(scratch / "traced", wl_mod.load_reference(workload.name, args.seed), ops)
    layers = tracer.layer_values()
    layers["trace.untraced_s"] = walls["untraced"]
    layers["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / walls["untraced"]
    result["per_layer"] = layers
    RECORDS.mkdir(exist_ok=True)
    tracer.write_spans(RECORDS / f"{workload.name}.spans.jsonl")


def _measure(workload, wl_mod, args, scratch: Path, ops, result: dict) -> None:
    inputs, out = scratch / "inputs", scratch / "out"
    reference = None if args.record_reference else wl_mod.load_reference(
        workload.name, args.seed)
    iterations, first = [], None
    for _ in range(workload.iterations(args.seconds)):
        wl_mod.reset(out)
        start = time.perf_counter()
        parts = workload.iterate(inputs, out, args.seed, ops)
        parts["wall_s"] = time.perf_counter() - start
        iterations.append(parts)
        products = wl_mod.digests(out, workload.products)
        if first is None:
            first = products
            # A CLI user runs one command per process; later in-process
            # iterations would only add allocator fragmentation.
            result["peak_rss_mb"] = _peak_rss_mb()
        else:
            ops.check(products == first, "outputs differ from the first iteration")
        if ops.failed:
            break
    workload.finish(inputs, out, ops)
    result["accuracy"] = workload.verify(out, reference, ops)
    result["iterations"] = iterations
    result["reference_checked"] = reference is not None
    if args.record_reference and not ops.failed:
        wl_mod.REFERENCE_DIR.mkdir(exist_ok=True)
        path = wl_mod.REFERENCE_DIR / f"{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps(workload.reference(out)) + "\n")


def child(args: argparse.Namespace) -> int:
    """A set-up or measuring child; reports through <scratch>/<role>.json."""
    _import_package()
    import numpy as np
    import workloads as wl_mod

    scratch = Path(args.scratch)
    workload = wl_mod.WORKLOADS[args.workload]
    ops = wl_mod.Ops()
    result: dict = {"env": {"python": platform.python_version(), "numpy": np.__version__}}
    if args.role == "setup":
        workload.setup(scratch / "inputs", args.seed, ops)
    elif args.trace:
        _measure_traced(workload, wl_mod, args, scratch, ops, result)
    else:
        _measure(workload, wl_mod, args, scratch, ops, result)
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    result.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems)
    (scratch / f"{args.role}.json").write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: orchestration, environment record, result line.
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    return {**os.environ, **CHILD_ENV, "PYTHONPATH": str(SRC)}


def _spawn(args: argparse.Namespace, role: str, scratch: Path, deadline: float) -> tuple[int, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--scratch", str(scratch)]
    if args.record_reference:
        cmd.append("--record-reference")
    report = scratch / f"{role}.json"
    report.unlink(missing_ok=True)
    with open(scratch / f"{role}.log", "ab") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        # A blocking wait sees the exit at once; wait(timeout=...) polls in
        # up-to-50 ms sleeps, which quantized setup_s. A timer enforces the
        # deadline instead.
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    data = json.loads(report.read_text()) if code == 0 and report.exists() else {}
    return code, data


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"


def _print_report(args, env_record: dict, setup_times: list[float], measured: dict,
                  metrics: dict, attempted: int, failed: int, problems: list[str]) -> None:
    """The readable lines printed before the result line."""
    iterations = measured.get("iterations", [])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    if setup_times:
        print(f"setup_s over {len(setup_times)} set-ups: {_quartiles(setup_times)}")
    if iterations:
        print(f"timed iterations: {len(iterations)}; reference checked: "
              f"{measured.get('reference_checked')}")
        for key in iterations[0]:
            print(f"  {key}: {_quartiles([it[key] for it in iterations])}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(f"operations: {attempted} attempted, {failed} failed, error_rate "
          f"{failed / max(attempted, 1):.6f}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)


def orchestrate(args: argparse.Namespace, spec: dict) -> int:
    scratch = SCRATCH / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    attempted = failed = 0
    problems: list[str] = []
    setup_times: list[float] = []
    measured: dict = {}
    env_record = {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "mem_available_mb": _mem_available_mb(),
        "child_env": CHILD_ENV,
    }
    try:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        roles = ["setup"] * (0 if args.trace else SETUP_REPEATS) + ["measure"]
        for role in roles:
            if role == "setup":
                shutil.rmtree(scratch / "inputs", ignore_errors=True)
            start = time.perf_counter()
            code, data = _spawn(args, role, scratch, deadline)
            if role == "setup":
                setup_times.append(time.perf_counter() - start)
            attempted += 1 + data.get("attempted", 0)
            failed += data.get("failed", 0)
            problems += data.get("problems", [])
            if code != 0:
                failed += 1
                log = (scratch / f"{role}.log").read_text(errors="replace")
                problems.append(f"{role} process exited {code}; log tail:\n{log[-3000:]}")
                break
            measured = data
        env_record.update(measured.get("env", {}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    iterations = measured.get("iterations", [])
    if args.trace:
        layers = measured.get("per_layer", {})
        values = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": _median(setup_times),
            "wall_s": _median([it["wall_s"] for it in iterations]),
            "peak_rss_mb": measured.get("peak_rss_mb", 0.0),
            "accuracy": measured.get("accuracy", 0.0),
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    _print_report(args, env_record, setup_times, measured, metrics, attempted, failed, problems)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env_record, "setup_times_s": setup_times, "iterations": iterations,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "problems": problems}
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    correct = failed == 0 and bool(measured)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rfsentry" / "__init__.py").is_file():
        print(f"perfbench: no rfsentry package at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.role:
        return child(args)
    return orchestrate(args, spec)


if __name__ == "__main__":
    sys.exit(main())
