"""Span tracing of the rfsentry modules, installed from outside the package.

The package is never edited. ``Tracer.install`` replaces every public
function and public method of the traced modules with a timing wrapper, at
every name the function is bound to: the modules import each other with
``from .x import y``, so ``rfsentry.cli.fingerprint`` and
``rfsentry.evaluate.fingerprint`` are bindings of their own and patching only
``rfsentry.features.fingerprint`` would miss those calls. ``uninstall``
restores every binding.

Each call records one span ``(name, start, end, parent, span_id, run_id)``
in memory, appended when the call returns, so children precede their parent.
Spans are tuples of plain values, which the garbage collector stops
tracking; a list per span made collections walk every span recorded so far.
The spans are written out once, when the run ends. A span's self time is its
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).

A few counters are computed from call arguments and results rather than
measured; the report labels them "computed":

* ``lof.distance_pairs``: rows(query) x rows(reference) summed over every
  ``fit`` (reference against itself) and ``LofModel.score_batch`` call;
* ``lof.distance_pairs_unique``: the same, counting each distinct pair of
  (query matrix, reference matrix) contents once;
* ``lof.pairwise_peak_bytes``: the largest q * n * d * 8-byte difference
  tensor one of those calls builds;
* ``signals.save_signal.bytes`` / ``signals.load_signal.bytes``: size of
  the RFSG files written and read;
* ``synth.regen_used_ratio``: bursts from ``gen_burst`` that later reach
  ``save_signal``, ``add_awgn`` or ``fingerprint``, over bursts generated.
"""

from __future__ import annotations

import enum
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "rfsentry"
MODULES = ("cli", "synth", "seeding", "signals", "wpt", "features", "lof", "evaluate")

# Functions whose first argument is a burst; a gen_burst result that reaches
# one of them was used.
_BURST_CONSUMERS = ("signals.save_signal", "signals.add_awgn", "features.fingerprint")


def _digest(matrix: np.ndarray) -> bytes:
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    return hashlib.sha1(repr(m.shape).encode() + m.tobytes()).digest()


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = "run"
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pairs = 0
        self._unique_pairs: dict[tuple[bytes, bytes], int] = {}
        self._peak_bytes = 0
        self._bytes: dict[str, int] = defaultdict(int)
        self._bursts_generated = 0
        self._bursts_used = 0
        self._pending: dict[int, weakref.ref] = {}
        self._hooks: dict = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self._hooks = {
            "lof.fit": self._after_fit,
            "lof.LofModel.score_batch": self._after_score_batch,
            "signals.save_signal": self._after_file("signals.save_signal", 1, "path"),
            "signals.load_signal": self._after_file("signals.load_signal", 0, "path"),
            "synth.gen_burst": self._after_gen_burst,
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._install_methods(obj, f"{short}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _install_methods(self, cls: type, qual: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, f"{qual}.{attr}")))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"{qual}.{attr}"))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        after = self._hooks.get(name)
        consumes_burst = name in _BURST_CONSUMERS

        def traced(*args, **kwargs):
            if consumes_burst:
                self._note_burst_used(args[0] if args else None)
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, start, end, parent, span_id, self.run_id))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- computed counters ----------------------------------------------------

    def _count_pairs(self, query: np.ndarray, reference: np.ndarray) -> None:
        q, n = query.shape[0], reference.shape[0]
        self._pairs += q * n
        self._unique_pairs.setdefault((_digest(query), _digest(reference)), q * n)
        self._peak_bytes = max(self._peak_bytes, q * n * reference.shape[1] * 8)

    def _after_fit(self, args, kwargs, result) -> None:
        x = np.asarray(args[0] if args else kwargs["train"], dtype=np.float64)
        self._count_pairs(x, x)

    def _after_score_batch(self, args, kwargs, result) -> None:
        model = args[0]
        queries = args[1] if len(args) > 1 else kwargs["queries"]
        q = np.asarray(queries, dtype=np.float64)
        self._count_pairs(q.reshape(-1, model.train.shape[1]), model.train)

    def _after_file(self, name: str, position: int, keyword: str):
        def after(args, kwargs, result) -> None:
            path = args[position] if len(args) > position else kwargs[keyword]
            self._bytes[name] += os.path.getsize(path)

        return after

    def _after_gen_burst(self, args, kwargs, burst) -> None:
        self._bursts_generated += 1
        key = id(burst)
        self._pending[key] = weakref.ref(burst, lambda _ref, key=key: self._pending.pop(key, None))

    def _note_burst_used(self, signal) -> None:
        ref = self._pending.get(id(signal))
        if ref is not None and ref() is signal:
            self._bursts_used += 1
            del self._pending[id(signal)]

    # -- results --------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Calls, self time and computed counters, keyed by metric name."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _id, _run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent, span_id, _run in self.spans:
            calls[name] += 1
            own = end - start - child_time[span_id]
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
            durations[name].append(end - start)
        values: dict[str, float] = {}
        for name, count in calls.items():
            values[f"{name}.calls"] = count
        for name, seconds in self_s.items():
            values[f"{name}.self_s"] = seconds
        fp = sorted(durations.get("features.fingerprint", []))
        values["features.fingerprint.p50_us"] = _percentile(fp, 50) * 1e6
        values["features.fingerprint.p99_us"] = _percentile(fp, 99) * 1e6
        unique = sum(self._unique_pairs.values())
        values["lof.distance_pairs"] = self._pairs
        values["lof.distance_pairs_unique"] = unique
        values["lof.distance_reuse_ratio"] = unique / self._pairs if self._pairs else 0.0
        values["lof.pairwise_peak_bytes"] = self._peak_bytes
        for name, total in self._bytes.items():
            values[f"{name}.bytes"] = total
        values["synth.regen_used_ratio"] = (
            self._bursts_used / self._bursts_generated if self._bursts_generated else 0.0
        )
        values["trace.spans"] = len(self.spans)
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
