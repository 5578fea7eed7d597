"""Run one workload of the gep benchmark and print its metrics.

    python3 perfbench/run.py --workload logreg-full --seed 0 --seconds 15 --trace 0

Sweeps (one timed run per method) repeat for ``--seconds``.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead.  The lines before it give the same numbers for
people, with sample counts and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread (never more than nproc): on a shared two-core machine a
# second thread mostly adds run-to-run noise.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SHARE = 0.4
SETUP_MIN_SAMPLES = 5
SETUP_TIMEOUT_S = 120
METHODS = ("gep", "bgep", "gp")
END_TO_END_UNITS = {
    "gep.ms_per_step": "ms",
    "bgep.ms_per_step": "ms",
    "gp.ms_per_step": "ms",
    "setup_s": "s",
    "grid_s": "s",
    "peak_rss_mb": "MiB",
    "gep.eval_accuracy": "fraction",
    "bgep.eval_accuracy": "fraction",
    "gp.eval_accuracy": "fraction",
}


def import_gep():
    """Import gep from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gep", "__init__.py")):
        sys.exit(f"perfbench: no gep sources under {SRC}")
    sys.path.insert(0, SRC)
    import gep

    if not os.path.abspath(gep.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported gep from {gep.__file__}, not from {SRC}")
    return gep


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # Spelled out: workloads.py needs gep, which is imported only after this.
    parser.add_argument("--workload", required=True,
                        choices=("logreg-full", "mlp-wide", "poisson-q05", "cli-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the benchmark's self-test")
    parser.add_argument("--setup-ctx", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time


def setup_child(args) -> None:
    """Child process: time a fresh import of gep plus the workload set-up."""
    t0 = time.perf_counter()
    import_gep()
    import workloads

    workloads.WORKLOADS[args.workload].setup(json.loads(args.setup_ctx))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_sample(args, ctx: dict) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-ctx", json.dumps(ctx)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# reporting


def tail_percentile(n: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}"
    return ""


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> str:
    """Sample count, median, minimum and the highest percentile the count supports."""
    if not values:
        return "no samples"
    text = f"{len(values)} samples, median {median(values):.6g}, min {min(values):.6g}"
    pct = tail_percentile(len(values))
    if pct:
        q = statistics.quantiles(values, n=100)[int(pct[1:]) - 1]
        return text + f", {pct} {q:.6g}"
    return text + f", too few for a tail percentile (max {max(values):.6g})"


def environment(gep, args) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gep": gep.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def emit(lines: list[str], env: dict, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    for line in lines:
        print(line)
    share = failed / attempted if attempted else 1.0
    print(f"  {'failed_share':36s} {share:.4g}  ({failed} of {attempted} runs failed)")
    print("environment " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# the two kinds of run


class Ledger:
    """Attempted and failed runs, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, runs: int, failed_keys, messages) -> None:
        self.attempted += runs
        self.failed += len(failed_keys)
        for message in messages:
            print(f"FAILED {message}", file=sys.stderr)


def check_repeat(outcome, reference, ledger: Ledger, what: str) -> None:
    bad = [m for m in METHODS
           if m in outcome.fingerprint and m in reference.fingerprint
           and outcome.fingerprint[m] != reference.fingerprint[m]]
    ledger.add(0, bad, [f"{m}: {what}" for m in bad])


def end_to_end(args, wl, ctx: dict, state: dict, gep) -> None:
    import workloads

    ledger = Ledger()
    failures = wl.release_check(state)
    ledger.add(2, failures, failures)

    # Reference sweeps first (they give the accuracy), then sweeps at the
    # workload's own seeds until time is up, then a repeat of the first.
    # Set-up samples are interleaved with the sweeps, taking SETUP_SHARE of
    # the window, so that both see the same machine.
    steps = wl.steps_per_method(state)
    refs = wl.reference_seeds
    setup: list[float] = []
    setup_wall = 0.0
    outcomes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if setup_wall <= SETUP_SHARE * elapsed or (
            elapsed >= args.seconds and len(setup) < SETUP_MIN_SAMPLES
        ):
            t0 = time.perf_counter()
            setup.append(setup_sample(args, ctx))
            setup_wall += time.perf_counter() - t0
        elif len(outcomes) < len(refs):
            outcomes.append(wl.sweep(state, refs[len(outcomes)], f"ref{len(outcomes)}"))
        elif elapsed < args.seconds:
            index = len(outcomes) - len(refs)
            outcomes.append(wl.sweep(state, workloads.workload_seed(args.seed, index), str(index)))
        else:
            break
    outcomes.append(wl.sweep(state, refs[0], "repeat"))
    elapsed = time.perf_counter() - start
    for outcome in outcomes:
        ledger.add(outcome.runs, outcome.failed, outcome.messages)
    check_repeat(outcomes[-1], outcomes[0], ledger,
                 "repeating a run with the same seed changed its output")

    ms = {m: [o.seconds[m] * 1e3 / steps for o in outcomes if m in o.seconds] for m in METHODS}
    grids = [sum(o.seconds.values()) for o in outcomes if len(o.seconds) == len(METHODS)]
    metrics = {f"{m}.ms_per_step": median(ms[m]) for m in METHODS}
    metrics["setup_s"] = median(setup)
    metrics["grid_s"] = median(grids)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for m in METHODS:
        accuracies = [o.accuracy[m] for o in outcomes[: len(refs)] if m in o.accuracy]
        metrics[f"{m}.eval_accuracy"] = sum(accuracies) / len(accuracies) if accuracies else 0.0

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"{len(outcomes)} sweeps of {steps} steps per method in {elapsed:.1f} s"]
    notes = {f"{m}.ms_per_step": describe(ms[m]) for m in METHODS}
    notes["setup_s"] = describe(setup)
    notes["grid_s"] = describe(grids)
    notes.update({f"{m}.eval_accuracy": f"mean over the {len(refs)} reference sweeps"
                  for m in METHODS})
    for name, unit in END_TO_END_UNITS.items():
        lines.append(f"  {name:36s} {metrics[name]:.6g} {unit}  {notes.get(name, '')}")
    emit(lines, environment(gep, args), ledger.attempted, ledger.failed, metrics,
         END_TO_END_UNITS)


def traced(args, wl, ctx: dict, state: dict, gep) -> None:
    import spans
    import workloads

    ledger = Ledger()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_state = wl.setup(ctx)
    finally:
        tracer.uninstall()
    changed = wl.setup_result(traced_state) != wl.setup_result(state)
    ledger.add(1, ["setup"] * changed, ["setup: tracing changed the set-up's result"] * changed)

    count_flops = getattr(gep.linalg, "count_flops", None)
    steps = wl.steps_per_method(state)
    walls = {"untraced": 0.0, "traced": 0.0}
    pairs = 0
    start = time.perf_counter()
    while pairs < 1 or time.perf_counter() - start < args.seconds:
        seed = workloads.workload_seed(args.seed, pairs)
        plain = wl.sweep(state, seed, f"plain{pairs}")
        tracer.install()
        tracer.begin_sweep()
        try:
            with count_flops() if count_flops else contextlib.nullcontext() as counter:
                seen = wl.sweep(state, seed, f"traced{pairs}")
        finally:
            tracer.uninstall()
        tracer.end_sweep(getattr(counter, "macs", None))
        for outcome in (plain, seen):
            ledger.add(outcome.runs, outcome.failed, outcome.messages)
        check_repeat(seen, plain, ledger, "tracing changed the run's output")
        walls["untraced"] += sum(plain.seconds.values())
        walls["traced"] += sum(seen.seconds.values())
        pairs += 1

    overhead = (walls["traced"] / walls["untraced"] - 1.0) * 100.0
    metrics = tracer.layer_metrics(steps, walls["traced"], overhead)
    total = metrics["trace.wall_ms_per_step"]
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))

    os.makedirs(WORK_ROOT, exist_ok=True)
    trace_path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    units = spans.layer_units()
    absent = sorted(n for n in units if any(n.startswith(a + ".") for a in tracer.absent))
    idle = sorted(n for n in units if metrics[n] == 0.0 and n not in absent)
    lines = [f"workload {args.workload}  seed {args.seed}  traced: {pairs} sweeps of "
             f"{steps} steps per method, spans in {trace_path}",
             f"  self times sum to {self_sum:.6g} ms per step; traced wall "
             f"{total:.6g} ms per step; {total - self_sum:.6g} ms outside every span"]
    lines += [f"  {name:44s} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(f"  absent (no such function): {', '.join(absent) or 'none'}")
    lines.append(f"  not exercised on this workload: {', '.join(idle) or 'none'}")
    emit(lines, environment(gep, args), ledger.attempted, ledger.failed, metrics, units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_ctx is not None:
        setup_child(args)
        return 0
    gep = import_gep()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        ctx = wl.prepare(work, args.seed, args.toy)
        state = wl.setup(ctx)
        (traced if args.trace else end_to_end)(args, wl, ctx, state, gep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
