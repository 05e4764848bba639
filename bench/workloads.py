"""The three workloads: their operations, output checks and set-up fill.

An operation runs one unit of work against sphenergy and returns how long
the call took and its outcome: ``OK``, ``REFUSED`` (the library raised
CertificationError or NumericsError) or a string starting with "wrong"
that says which check failed.  Checks run outside the timed region.
Library functions are looked up at call time, so a tracer that replaces
them is seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import gen

OK = "ok"
REFUSED = "refused"


@dataclass
class Op:
    run: Callable[[], tuple[float, str]]
    work: float
    # Bytes of the arrays the codes layer builds for this operation, as
    # computed from its size; filled in by code-check operations only.
    computed: dict | None = None


def kernel_value(spec: str, n: int, t: float) -> float:
    """The named kernels, written out independently of sphenergy.potentials."""
    name, _, arg = spec.partition(":")
    if name == "newton":
        name, arg = ("log", "0.5") if n == 2 else ("riesz", str(n - 2))
    if name == "riesz":
        return (2.0 - 2.0 * t) ** (-float(arg) / 2.0)
    if name == "gauss":
        return math.exp(-float(arg) * (1.0 - t))
    return -float(arg or 1.0) * math.log(2.0 - 2.0 * t)


# ---------------------------------------------------------------- class-sweep


def strip_op(sp, c: gen.StripClass) -> Op:
    pot = sp.parse_potential(c.kernel, c.n)
    refusals = (sp.CertificationError, sp.NumericsError)

    def run():
        t0 = perf_counter()
        try:
            es = sp.strip(c.n, c.M, c.s, pot)
        except refusals:
            return perf_counter() - t0, REFUSED
        elapsed = perf_counter() - t0
        return elapsed, check_strip(c, es)

    return Op(run, 1.0)


def check_strip(c: gen.StripClass, es) -> str:
    if not (math.isfinite(es.ulb) and math.isfinite(es.uub)):
        return "wrong: non-finite strip"
    if es.ulb > es.uub + 1e-9 * max(1.0, abs(es.uub)):
        return f"wrong: ulb {es.ulb!r} > uub {es.uub!r}"
    for key, want in c.expect:
        got = getattr(es, key)
        if key == "sharp" and got is not want:
            return f"wrong: sharp is {got}"
        if key != "sharp" and abs(got - want) > 1e-2:
            return f"wrong: {key} {got!r}, expected about {want}"
    return OK


# ----------------------------------------------------------------- code-check


def code_op(sp, code: gen.Code) -> Op:
    pot = sp.parse_potential(code.kernel, code.points.shape[1])
    size = code.points.shape[0]
    expected_s = max(v for v, _ in code.pair_counts) / code.scale2
    n = code.points.shape[1]
    expected_e = sum(cnt * kernel_value(code.kernel, n, v / code.scale2) for v, cnt in code.pair_counts)
    computed = {"gram": 8 * size * size, "triu": 8 * size * (size - 1), "moments": 0}

    def run():
        t0 = perf_counter()
        v = sp.verify_strip(sp.SphericalCode(code.points), pot)
        elapsed = perf_counter() - t0
        computed["moments"] = 8 * v.moments.size * size * size
        return elapsed, check_verdict(code, v, expected_s, expected_e)

    return Op(run, float(size * (size - 1)), computed)


def check_verdict(code: gen.Code, v, expected_s: float, expected_e: float) -> str:
    size = code.points.shape[0]
    if abs(v.separation - expected_s) > 1e-12:
        return f"wrong: separation {v.separation!r}, expected {expected_s}"
    if abs(v.energy - expected_e) > 1e-9 * abs(expected_e):
        return f"wrong: energy {v.energy!r}, expected {expected_e!r}"
    if abs(v.moments[0] - size * size) > 1e-9 * size * size or v.moments.min() < -1e-9 * size * size:
        return "wrong: moments"
    if not v.inside:
        return "wrong: energy outside its strip"
    if code.sharp and not (v.attains_ulb and v.attains_uub and v.strip.sharp):
        return "wrong: sharp code does not attain both bounds"
    return OK


# ------------------------------------------------------------------ cli-calls

CLI_ENTRY = "from sphenergy.cli import console_main; console_main()"


def cli_op(call: gen.CliCall, env: dict) -> Op:
    argv = [sys.executable, "-c", CLI_ENTRY, *call.args]

    def run():
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, "wrong: timed out"
        elapsed = perf_counter() - t0
        return elapsed, check_cli(call, proc.returncode, proc.stdout, proc.stderr)

    return Op(run, 1.0)


def cli_inprocess_op(call: gen.CliCall) -> Op:
    """The same call through ``sphenergy.cli.main`` with output captured."""
    cli = importlib.import_module("sphenergy.cli")

    def run():
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.args))
            except SystemExit as exc:  # --version exits from argparse
                code = exc.code
        elapsed = perf_counter() - t0
        return elapsed, check_cli(call, code, out.getvalue(), err.getvalue())

    return Op(run, 1.0)


def check_cli(call: gen.CliCall, code, out: str, err: str) -> str:
    if code != call.exit_code:
        return f"wrong: exit {code}, expected {call.exit_code}: {err.strip()[:200]}"
    kind = call.check
    if kind == "version":
        version = importlib.import_module("sphenergy").__version__
        return OK if out.strip() == f"sphenergy {version}" else "wrong: version text"
    if kind == "uub":
        found = re.search(r"^uub = (\S+)$", out, re.M)
        return OK if found and math.isfinite(float(found.group(1))) else "wrong: no uub line"
    if kind == "recheck":
        cli = importlib.import_module("sphenergy.cli")
        return OK if cli.recheck_certificate(json.loads(out))["ok"] else "wrong: certificate recheck failed"
    if kind == "strip":
        found = re.search(r"^strip = \[(\S+), (\S+)\]", out, re.M)
        if not found:
            return "wrong: no strip line"
        return OK if float(found.group(1)) <= float(found.group(2)) else "wrong: inverted strip"
    if kind == "inside":
        return OK if "verdict: inside strip" in out else "wrong: verdict"
    if kind == "table":
        rows = int(call.args[4]) - int(call.args[2]) + 1
        return OK if len(out.strip().splitlines()) == rows + 1 else "wrong: table rows"
    if kind == "testfn":
        rows = len(re.findall(r"^R_\d+ = ", out, re.M))
        return OK if rows == int(call.args[-1]) and "verdict:" in out else "wrong: testfn output"
    if kind == "infeasible":
        return OK if err.startswith("infeasible:") else "wrong: infeasible message"
    raise ValueError(f"unknown check {kind!r}")


# ------------------------------------------------------------------ workloads


@dataclass
class Workload:
    """Operations for the measured loop, operations for the traced pass, the
    set-up fill, and the names the issue gives each end-to-end metric."""

    ops: list[Op]
    trace_ops: list[Op]
    setup_module: str
    fill: dict
    names: dict
    fingerprint: str
    peak_children: bool = False
    # tracemalloc slows small allocations tenfold, so the traced pass turns
    # it on only where the codes layer's large arrays are the point.
    trace_memory: bool = False
    # The run.KERNELS entry whose work is most like the operations'.
    calibration: str = "interpreter"


def _fill(dims, max_m: int, cardinalities=()) -> dict:
    return {"intervals": [[n, m] for n in dims for m in range(1, max_m + 1)],
            "cardinalities": [list(nm) for nm in cardinalities]}


def class_sweep(sp, seed: int, env: dict) -> Workload:
    classes = gen.sweep_classes(seed)
    order = np.random.default_rng(seed).permutation(len(classes))
    ops = [strip_op(sp, classes[i]) for i in order]
    # Solving L(n, r) = M for the largest M of each dimension walks the
    # widest bracket, so it touches every interval the sweep will touch.
    fill = _fill(gen.SWEEP_DIMS, gen.SWEEP_MAX_M + 1, gen.sweep_largest_cardinalities())
    names = {"classes_per_s": "work_per_s", "class_ms_p50": "op_ms_p50",
             "class_ms_tail": "op_ms_tail"}
    return Workload(ops, ops, "sphenergy", fill, names, gen.fingerprint(classes))


def code_check(sp, seed: int, env: dict) -> Workload:
    codes = gen.check_codes(seed)
    ops = [code_op(sp, c) for c in codes]
    sizes = sorted({(c.points.shape[1], c.points.shape[0]) for c in codes})
    fill = _fill(sorted({n for n, _ in sizes}), 12, sizes)
    names = {"code_pairs_per_s": "work_per_s", "code_ms_p50": "op_ms_p50", "code_ms_tail": "op_ms_tail"}
    return Workload(ops, ops, "sphenergy", fill, names, gen.fingerprint(codes),
                    trace_memory=True, calibration="arrays")


def cli_calls(sp, seed: int, env: dict) -> Workload:
    rounds = gen.cli_rounds(seed, 3)
    calls = [c for r in rounds for c in r]
    names = {"cli_ms_p50": "op_ms_p50", "cli_ms_tail": "op_ms_tail", "cli_calls_per_s": "work_per_s"}
    return Workload(
        ops=[cli_op(c, env) for c in calls],
        trace_ops=[cli_inprocess_op(c) for c in calls],
        setup_module="sphenergy.cli",
        fill=_fill(gen.CLI_DIMS, gen.CLI_MAX_M + 1),
        names=names,
        fingerprint=gen.fingerprint(rounds),
        peak_children=True,
        calibration="spawn",
    )


WORKLOADS = {"class-sweep": class_sweep, "code-check": code_check, "cli-calls": cli_calls}
