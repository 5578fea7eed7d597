"""Outside-in layer tracing for the gep benchmark.

The traced run swaps the module attributes that ``dp_train`` and
``train_command`` look up at call time for timing wrappers, so spans are
recorded at every layer boundary without touching the library.  A span
is ``[name, start, end, parent index, run id]``; spans stay in memory
until the run ends.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import gep

# (span name, defining module, attribute, probe).  A probe maps
# (args, result) to a number recorded per call.
SPANS = (
    ("training.dp_train", "training", "dp_train", None),
    ("training.optimizer_step", "training", "optimizer_step", None),
    ("training.calibrate_noise_multiplier", "training", "calibrate_noise_multiplier", None),
    ("accounting.calibrate_sigma_search", "accounting", "calibrate_sigma_search", None),
    ("models.per_sample_gradients", "models", "per_sample_gradients",
     lambda args, out: out.nbytes / 2**20),
    ("models.evaluate", "models", "evaluate", None),
    ("release.build_anchor_basis", "release", "build_anchor_basis",
     lambda args, out: out.k_effective / args[2].k),
    ("release.gep_release", "release", "gep_release", None),
    ("release.bgep_release", "release", "bgep_release", None),
    ("release.gp_release", "release", "gp_release", None),
    ("linalg.power_iteration_basis", "linalg", "power_iteration_basis", None),
    ("linalg.orthonormalize_rows", "linalg", "orthonormalize_rows", None),
    ("linalg.project_split", "linalg", "project_split", None),
    ("linalg.clip_rows", "linalg", "clip_rows", None),
    ("linalg.gaussian_noise", "linalg", "gaussian_noise", None),
    ("harness.train_command", "harness", "train_command", None),
    ("harness.build_task", "harness", "build_task", None),
    ("harness.write_metrics", "harness", "write_metrics", None),
    ("data.ingest_csv", "data", "ingest_csv", None),
    ("config.load_config", "config", "load_config", None),
)

# Called thousands of times per calibration: counted, not spanned.
COUNTERS = (
    ("accounting.rdp_subsampled_gaussian", "accounting", "rdp_subsampled_gaussian"),
)

# Metrics reported as mean inclusive ms per call, and as calls per
# (one traced set-up + one traced sweep).
INCLUSIVE = (
    "training.calibrate_noise_multiplier",
    "accounting.calibrate_sigma_search",
    "data.ingest_csv",
    "harness.build_task",
    "harness.write_metrics",
    "config.load_config",
)
CALLS = (
    "models.per_sample_gradients",
    "models.evaluate",
    "data.ingest_csv",
    "harness.build_task",
    "accounting.rdp_subsampled_gaussian",
)


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.self_ms": "ms" for name, *_ in SPANS}
    units.update({f"{name}.ms": "ms" for name in INCLUSIVE})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({
        "models.per_sample_gradients.out_mb": "MiB",
        "release.k_effective_ratio": "ratio",
        "linalg.macs_per_step": "count",
        "trace.wall_ms_per_step": "ms",
        "trace.unattributed_pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


MODULES = (
    "accounting", "cli", "config", "data", "harness", "linalg",
    "models", "release", "tasks", "training",
)


def _module(name: str):
    return importlib.import_module(f"gep.{name}")


class Tracer:
    """Span recorder plus the attribute swaps that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.probes: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._run_id = 0
        self._swapped: list[tuple[object, str, object]] = []
        self._setup_end: tuple[int, Counter] | None = None
        self._sweep_start: tuple[int, Counter] = (0, Counter())
        self._sweeps: list[tuple[int, int, Counter, int | None]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, probe):
        spans, stack, probes = self.spans, self._stack, self.probes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                self._run_id += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self._run_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    probes[name].append(float(probe(args, out)))
                except (AttributeError, IndexError, TypeError):
                    pass  # signature changed; the probe metric reads as absent
            return out

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Swap every binding of each traced function in the gep modules."""
        modules = [gep] + [_module(m) for m in MODULES]
        wrappers = []
        self.absent = []
        for name, mod, attr, probe in SPANS:
            original = getattr(_module(mod), attr, None)
            if original is None:
                self.absent.append(name)
            else:
                wrappers.append((original, self._span(name, original, probe)))
        for name, mod, attr in COUNTERS:
            original = getattr(_module(mod), attr, None)
            if original is None:
                self.absent.append(name)
            else:
                wrappers.append((original, self._counter(name, original)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers:
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._swapped.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped = []

    # -- sweeps -----------------------------------------------------------
    def begin_sweep(self) -> None:
        """Everything recorded before the first sweep counts as set-up."""
        if not self._sweeps and self._setup_end is None:
            self._setup_end = (len(self.spans), Counter(self.counts))
        self._sweep_start = (len(self.spans), Counter(self.counts))

    def end_sweep(self, macs: int | None) -> None:
        start, counts = self._sweep_start
        self._sweeps.append((start, len(self.spans), self.counts - counts, macs))

    # -- analysis ---------------------------------------------------------
    def _self_seconds(self, start: int, stop: int) -> list[tuple[str, float]]:
        """(name, self seconds) of each span in ``spans[start:stop]``."""
        child = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans[start:stop]:
            if parent >= start:
                child[parent] += t1 - t0
        return [(name, (t1 - t0) - child[i])
                for i, (name, t0, t1, _, _) in enumerate(self.spans[start:stop], start)]

    def layer_metrics(self, steps_per_method: int, wall_s: float,
                      overhead_pct: float) -> dict[str, float]:
        """Per-layer values over the traced sweeps; see ``layer_units``.

        Self times are ms per step per method.  ``wall_s`` is the traced
        sweeps' wall time from the sweeps' own timers; the share of it
        that no span covers is ``trace.unattributed_pct``.
        """
        n = len(self._sweeps)
        per_step = 1e3 / (steps_per_method * n)
        setup_stop, setup_counts = self._setup_end
        self_s: dict[str, float] = defaultdict(float)
        sweep_calls: Counter = Counter()
        sweep_counts: Counter = Counter()
        macs = 0
        for start, stop, counts, sweep_macs in self._sweeps:
            for name, seconds in self._self_seconds(start, stop):
                self_s[name] += seconds
            for name, *_ in self.spans[start:stop]:
                sweep_calls[name] += 1
            sweep_counts += counts
            macs += sweep_macs or 0
        setup_calls = Counter(s[0] for s in self.spans[:setup_stop])

        out = {f"{name}.self_ms": self_s.get(name, 0.0) * per_step for name, *_ in SPANS}
        for name in INCLUSIVE:
            times = [(t1 - t0) * 1e3 for n_, t0, t1, _, _ in self.spans if n_ == name]
            out[f"{name}.ms"] = sum(times) / len(times) if times else 0.0
        for name in CALLS:
            setup = setup_calls[name] + setup_counts[name]
            out[f"{name}.calls"] = setup + (sweep_calls[name] + sweep_counts[name]) / n
        out_mb = self.probes.get("models.per_sample_gradients", [])
        ratios = self.probes.get("release.build_anchor_basis", [])
        out["models.per_sample_gradients.out_mb"] = max(out_mb, default=0.0)
        out["release.k_effective_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        out["linalg.macs_per_step"] = macs / (steps_per_method * n)
        out["trace.wall_ms_per_step"] = wall_s * per_step
        out["trace.unattributed_pct"] = (1.0 - sum(self_s.values()) / wall_s) * 100.0
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, t0, t1, parent, run_id in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": t0, "end": t1, "parent": parent, "run": run_id}
                ) + "\n")
