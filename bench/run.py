"""Benchmark of sphenergy's public functions, timed from outside the library.

Run from the repository root:

    python3 bench/run.py --workload class-sweep --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from --seed; see gen.py), each a closed
loop with one client in one process:

  class-sweep  ``strip(n, M, s, kernel)`` with warm caches, over one class
               in every (n, m, kernel) cell for n in {3, 4, 5, 8, 10, 24},
               m in 1..20, plus four anchor classes.  The m range covers
               the band where ``uub`` refuses today.
  code-check   ``SphericalCode`` + ``verify_strip`` on rotated s = 1/2 codes
               in R^24 with M from 256 to 592, and a rotated E8.
  cli-calls    ``sphenergy`` subcommands as sequential subprocesses of this
               interpreter, each paying start-up, imports and cold caches.

A run makes whole passes over the seed's operations until --seconds have
passed, at least two, so every run times every operation.  An operation's
latency is the median of its repetitions across the passes.
Operation and set-up times are rescaled to a reference machine speed by
calibration kernels timed next to them (see Calibration); the unscaled values
are printed and written to the report as well.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones, the same six on every workload:

  setup_s     median time of fresh interpreters that import the workload's
              entry module and fill the interval caches it uses, each
              rescaled by the spawn kernel timed right before it
  work_per_s  work per second of operation latency: strip calls
              (class-sweep), code pairs M(M-1) (code-check), CLI calls
              (cli-calls)
  op_ms_p50   median over operations of their latency
  op_ms_tail  latency at the highest percentile with 10 operations beyond it
  peak_mb     peak RSS of the process doing the work (of the CLI children
              on cli-calls)
  ok_frac     operations that certified and passed every output check,
              over those attempted; ``1 - ok_frac`` is the failure fraction

The result line's ``failed`` counts wrong outputs and unexpected exceptions
only.  A class the library refuses to certify (CertificationError or
NumericsError; on class-sweep, most of the m = 14..19 band) is not a wrong
output: it stays in the workload and lowers ``ok_frac``, which is how the
refusals are measured and gated.

With --trace 1 each operation runs once untraced and once traced, and the
run reports per-layer metrics from spans recorded around the
library's public functions (spans.py): inclusive ``.ms`` and ``.self_ms``
per operation, ``.calls`` per operation, the tracemalloc peak of operations
that reach the codes layer, the computed array bytes of the largest code,
CLI start-up parts, and the tracing overhead.  A metric of a layer that the
workload never calls reads 0.

Every run also writes its provenance, metrics, output failures and (when
tracing) its spans to bench/out/<workload>[.trace].json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from collections import Counter
from time import perf_counter

SETUP_REPS = 5

SETUP_CODE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
import sphenergy
fill = json.loads(sys.argv[2])
for n, m in fill["intervals"]:
    sphenergy.interval_for(n, m)
for n, M in fill["cardinalities"]:
    sphenergy.solve_cardinality(n, M)
"""

IMPORT_CODE = "import time; t = time.perf_counter(); import sphenergy.cli; print(time.perf_counter() - t)"

LAYERS = ("orthopoly", "levenshtein", "potentials", "bounds", "codes", "cli")
SPAN_MS = (
    "orthopoly.gegenbauer_table", "orthopoly.product_to_gegen",
    "levenshtein.lev_poly_roots", "levenshtein.solve_cardinality", "levenshtein.levenshtein_poly",
    "potentials.call",
    "bounds.hermite_interpolant", "bounds.lambda_star", "bounds.strip",
    "codes.SphericalCode", "codes.separation", "codes.energy", "codes.moments",
)
SPAN_SELF_MS = ("levenshtein.quadrature", "bounds.uub", "bounds.ulb", "codes.verify_strip")
COUNTS = ("orthopoly.eval_gegenbauer", "levenshtein.find_interval")


def pin_to_one_cpu() -> tuple[int, int]:
    """Run this process and the ones it starts on one CPU, with one BLAS and
    OpenMP thread; must run before numpy is imported.  The CPUs of a shared
    machine slow down independently, and a Calibration only tracks the CPU
    it ran on.  Returns (CPUs available, CPU chosen)."""
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(cpus), cpu


def checkout_root() -> str:
    """The working directory, which must hold the library's sources."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sphenergy", "__init__.py")):
        sys.exit("bench: src/sphenergy not found; run from the root of a sphenergy checkout")
    return root


def child_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def spawn(args: list[str], env: dict) -> tuple[float, str]:
    """Wall time from spawn to exit of ``python <args>``, and its stdout."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return perf_counter() - t0, proc.stdout


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def interpreter_kernel() -> None:
    """Interpreter arithmetic and small-array numpy work, like the bound pipeline's."""
    import numpy as np

    t = np.linspace(-1.0, 1.0, 33)
    x = 0.0
    for j in range(40):
        prev, cur = np.ones_like(t), t.copy()
        for i in range(1, 10):
            prev, cur = cur, ((2 * i + 1) * t * cur - i * prev) / (i + 1)
        x += float(cur[j % 33])
        for k in range(60):
            x = (x * 0.999 + k) % 1e6


def array_kernel() -> None:
    """A Gram matrix and a ten-term recurrence over it, like the codes layer's work."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((400, 24))
    g = x @ x.T
    prev, cur = np.ones_like(g), g
    for i in range(1, 11):
        prev, cur = cur, ((2 * i + 22) * g * cur - i * prev) / (i + 22)
        float(cur.sum())


def spawn_kernel() -> None:
    """A fresh interpreter importing numpy, like the start of every CLI call."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)


# Kernel, its reference time (about its best on the machine the bounds were
# tuned on, undisturbed), how many timings of it to take the best of, and
# after how many times its own duration it is re-timed.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0016, 2, 10),
    "arrays": (array_kernel, 0.0145, 2, 10),
    "spawn": (spawn_kernel, 0.175, 1, 0),
}


class Calibration:
    """Rescales times to the reference speed of the machine the bounds were
    tuned on, by timing a fixed kernel written here, so no change to the
    library can change it.  The shared 2-core machine drifts in speed by up
    to 1.7x over minutes, and not equally for all kinds of work, so each
    workload names the kernel most like its operations.  The in-process
    kernels are re-timed (best of two) whenever ten times their own duration
    has passed, so calibrating costs at most a tenth of the run.  Interpreter
    start-up switches between speeds some 1.4x apart from one second to the
    next, so the spawn kernel runs once right before every operation: it
    costs two fifths of the run.  Over twelve runs it took the spread of the
    median CLI call time from 23% unscaled to 4%; re-timed every few seconds
    instead, the spread over ten seeds was 13%."""

    def __init__(self, kind: str):
        self.kernel, self.ref_s, self.reps, self.gap = KERNELS[kind]
        self._scale, self._next = 1.0, -math.inf

    def scale(self) -> float:
        """Factor that turns a time measured now into one at reference speed."""
        if perf_counter() >= self._next:
            t0, best = perf_counter(), math.inf
            for _ in range(self.reps):
                t = perf_counter()
                self.kernel()
                best = min(best, perf_counter() - t)
            self._scale = self.ref_s / best
            self._next = perf_counter() + self.gap * (perf_counter() - t0)
        return self._scale


class Loop:
    """Runs operations, keeping latencies, outcomes and, given a calibration,
    latencies at reference speed."""

    def __init__(self, calibration: Calibration | None = None):
        self.latency: list[float] = []
        self.scaled: list[float] = []
        self.outcomes: Counter = Counter()
        self.wrong: list[str] = []
        self.calibration = calibration

    def run(self, op) -> None:
        scale = self.calibration.scale() if self.calibration else 1.0
        try:
            elapsed, outcome = op.run()
        except Exception:  # an unexpected exception is a wrong output
            elapsed, outcome = math.nan, "wrong: " + traceback.format_exc()
        self.latency.append(elapsed)
        self.scaled.append(elapsed * scale)
        self.outcomes["wrong" if outcome.startswith("wrong") else outcome] += 1
        if outcome.startswith("wrong"):
            self.wrong.append(outcome)

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def ok(self) -> int:
        return self.outcomes["ok"]

    @property
    def failed(self) -> int:
        """Wrong outputs and unexpected exceptions; refusals are not counted."""
        return self.outcomes["wrong"]


def measure(ops, seconds: float, calibration: Calibration) -> Loop:
    """Whole passes over ``ops`` until ``seconds`` have passed, at least two;
    latency[p * len(ops) + i] is operation i in pass p."""
    loop = Loop(calibration)
    deadline = perf_counter() + seconds
    while loop.attempted < 2 * len(ops) or perf_counter() < deadline:
        for op in ops:
            loop.run(op)
    return loop


def fill_caches(sp, fill: dict) -> None:
    for n, m in fill["intervals"]:
        sp.interval_for(n, m)
    for n, M in fill["cardinalities"]:
        sp.solve_cardinality(n, M)


def per_op(samples: list[float], n: int) -> list[float]:
    """Each of ``n`` operations' median time over the passes (NaN if it never ran cleanly)."""
    out = []
    for i in range(n):
        clean = [t for t in samples[i::n] if t == t]
        out.append(statistics.median(clean) if clean else math.nan)
    return out


def measure_setup(w, env: dict) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPS fresh set-ups, and the same at reference
    speed.  Set-up is mostly interpreter start-up and imports, so each is
    rescaled by the spawn kernel timed right before it: over twelve runs of
    five set-ups this took the spread of the median from 15-39% unscaled to
    8-13%."""
    calibration = Calibration("spawn")
    args = ["-c", SETUP_CODE, w.setup_module, json.dumps(w.fill)]
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        scale = calibration.scale()
        raw.append(spawn(args, env)[0])
        scaled.append(raw[-1] * scale)
    return raw, scaled


def end_to_end(w, loop: Loop, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """End-to-end metrics, times at reference speed; ``info`` keeps them unscaled."""
    n = len(w.ops)
    who = resource.RUSAGE_CHILDREN if w.peak_children else resource.RUSAGE_SELF
    metrics = {"setup_s": (statistics.median(setup[1]), "s")}
    raw = {"setup_s": (statistics.median(setup[0]), "s")}
    for out, samples in ((metrics, loop.scaled), (raw, loop.latency)):
        each = per_op(samples, n)
        timed = [t for t in each if t == t]
        tail_s, pct = tail(timed)
        out["work_per_s"] = (sum(op.work for op, t in zip(w.ops, each) if t == t) / sum(timed), "1/s")
        out["op_ms_p50"] = (1e3 * statistics.median(timed), "ms")
        out["op_ms_tail"] = (1e3 * tail_s, "ms")
    metrics["peak_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    metrics["ok_frac"] = (loop.ok / loop.attempted, "ratio")
    info = {"tail_percentile": pct, "operations": len(timed), "passes": loop.attempted // n,
            "raw": {k: v for k, (v, _) in raw.items()}, "setup_runs": setup[0]}
    return metrics, info


def per_layer(w, tracer, traced: Loop, untraced: Loop, mem_peaks: list[int], cli_parts: dict) -> dict:
    """Per-operation layer times and counts over the traced pass."""
    ops = traced.attempted
    incl, own = tracer.totals(set(range(ops)))
    cold_incl, _ = tracer.totals({-1})
    metrics = {"orthopoly.greatest_zero.cold_ms": (1e3 * cold_incl.get("orthopoly.greatest_zero", 0.0), "ms")}
    for name in SPAN_MS:
        metrics[f"{name}.ms"] = (1e3 * incl.get(name, 0.0) / ops, "ms")
    for name in SPAN_SELF_MS:
        metrics[f"{name}.self_ms"] = (1e3 * own.get(name, 0.0) / ops, "ms")
    for layer in LAYERS:
        total = sum(v for k, v in own.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = (1e3 * total / ops, "ms")
    for name in COUNTS:
        metrics[f"{name}.calls"] = (tracer.counts[name] / ops, "count")
    metrics["bounds.cert_errors"] = (tracer.counts["bounds.cert_errors"] / ops, "count")
    metrics["codes.peak_mb"] = (max(mem_peaks, default=0) / 2**20, "MB")
    largest = max((op.computed for op in w.trace_ops if op.computed), key=lambda c: c["gram"], default=None)
    for part in ("gram", "triu", "moments"):
        metrics[f"codes.computed_{part}_bytes"] = (largest[part] if largest else 0, "B")
    for part in ("interp_ms", "import_ms", "main_ms"):
        metrics[f"cli.{part}"] = (cli_parts.get(part, 0.0), "ms")
    overhead = (sum(traced.latency) - sum(untraced.latency)) / ops
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    return metrics


def run_traced(sp, w, env: dict) -> tuple[dict, Loop, object]:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        fill_caches(sp, w.fill)
    finally:
        tracer.uninstall()

    untraced, traced = Loop(), Loop()
    peaks: list[int] = []
    for i, op in enumerate(w.trace_ops):
        # Each operation runs untraced and traced back to back, in turns
        # first, so that drift in machine speed cancels from the overhead.
        for trace_now in ((False, True) if i % 2 == 0 else (True, False)):
            if not trace_now:
                untraced.run(op)
                continue
            tracer.op = i
            if w.trace_memory:
                tracemalloc.start()
            tracer.install()
            try:
                traced.run(op)
            finally:
                tracer.uninstall()
                if w.trace_memory:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

    cli_parts = {}
    if w.setup_module == "sphenergy.cli":
        cli_parts["interp_ms"] = 1e3 * statistics.median(spawn(["-c", "pass"], env)[0] for _ in range(SETUP_REPS))
        cli_parts["import_ms"] = 1e3 * statistics.median(
            float(spawn(["-c", IMPORT_CODE], env)[1]) for _ in range(SETUP_REPS))
        cli_parts["main_ms"] = 1e3 * statistics.median(untraced.latency)
    metrics = per_layer(w, tracer, traced, untraced, peaks, cli_parts)
    both = Loop()
    for part in (untraced, traced):
        both.latency += part.latency
        both.outcomes += part.outcomes
        both.wrong += part.wrong
    return metrics, both, tracer


def provenance(args, w, nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "blas_threads": 1,
        "inputs_sha256": w.fingerprint,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    nproc, cpu = pin_to_one_cpu()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sphenergy as sp
    import workloads

    if not os.path.abspath(sp.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported sphenergy from {sp.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = child_env(src)
    w = workloads.WORKLOADS[args.workload](sp, args.seed, env)
    prov = provenance(args, w, nproc, cpu)

    if args.trace:
        metrics, loop, tracer = run_traced(sp, w, env)
        info = {"traced_ops": len(w.trace_ops)}
    else:
        setup = measure_setup(w, env)
        fill_caches(sp, w.fill)
        loop = measure(w.ops, args.seconds, Calibration(w.calibration))
        metrics, info = end_to_end(w, loop, setup)
        tracer = None

    report = {"provenance": prov, "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "outcomes": dict(loop.outcomes), "wrong": loop.wrong[:50]}
    if tracer is not None:
        report["spans"] = {"fields": ["name", "start", "end", "parent", "op"], "rows": tracer.spans}
        report["counts"] = dict(tracer.counts)
    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}{'.trace' if args.trace else ''}.json"), "w") as fh:
        json.dump(report, fh)

    for key, val in prov.items():
        print(f"# {key}: {val}")
    for key, (val, unit) in metrics.items():
        print(f"{key:40s} {val:.6g} {unit}")
    if not args.trace:
        for issue_name, key in w.names.items():
            print(f"{issue_name:40s} {metrics[key][0]:.6g} {metrics[key][1]} (= {key})")
        print(f"{'fail_frac':40s} {1.0 - metrics['ok_frac'][0]:.6g} ratio (= 1 - ok_frac)")
        print(f"# tail percentile {info['tail_percentile']:.1f} over {info['operations']} operations, "
              f"median of {info['passes']} passes each")
        print(f"# unscaled: {info['raw']}")
    print(f"# outcomes {dict(loop.outcomes)}")
    for line in loop.wrong[:10]:
        print(f"# {line}")
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
