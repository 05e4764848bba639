"""Fast self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sphenergy as sp  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = gen.sweep_classes(7), gen.sweep_classes(7), gen.sweep_classes(8)
    assert gen.fingerprint(a) == gen.fingerprint(b) != gen.fingerprint(c)
    assert gen.fingerprint(gen.cli_rounds(7, 2)) == gen.fingerprint(gen.cli_rounds(7, 2))


def test_sweep_classes_lie_in_their_interval_and_below_the_bound():
    classes = gen.sweep_classes(3)
    assert len(classes) == len(gen.SWEEP_DIMS) * gen.SWEEP_MAX_M * len(gen.KERNEL_KINDS) + 4
    for c in classes[::37]:
        if c.m:
            iv = sp.find_interval(c.n, c.s)
            assert iv.m == c.m
            assert 2 <= c.M <= sp.lev_value(c.n, iv, c.s)
    assert gen.ez_separation(5) == pytest.approx(sp.ez_separation(5), abs=1e-14)


def test_codes_have_exact_unit_rows_and_separation_one_half():
    z = gen.half_code(np.random.default_rng(0), 64)
    assert z.shape == (64, 24) and np.all((z * z).sum(axis=1) == 4)
    assert max(v for v, _ in gen._pair_counts(z)) == 2
    e8 = dict(gen._pair_counts(gen.e8_roots()))
    assert e8 == {-8: 240, -4: 56 * 240, 0: 126 * 240, 4: 56 * 240}


def test_tracer_nests_spans_counts_calls_and_restores_functions():
    original = sp.levenshtein.quadrature
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sp.bounds.quadrature is sp.levenshtein.quadrature is not original
        tracer.op = 0
        sp.strip(5, 11, sp.ez_separation(5), sp.make_potential("newton", n=5))
    finally:
        tracer.uninstall()
    assert sp.bounds.quadrature is sp.levenshtein.quadrature is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "bounds.strip" and "bounds.uub" in names and "levenshtein.quadrature" in names
    uub = names.index("bounds.uub")
    assert tracer.spans[uub][3] == 0 and tracer.spans[uub][4] == 0
    assert tracer.counts["levenshtein.find_interval"] > 0
    incl, own = tracer.totals({0})
    assert 0 < own["bounds.strip"] < incl["bounds.strip"]


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
    incl, own = tracer.totals({0})
    assert incl == {"a": 10.0, "b": 3.0, "c": 1.0}
    assert own == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_checks_flag_wrong_outputs():
    c = gen.StripClass(8, 240, 0.5, "newton", 0, (("sharp", True),))
    es = sp.strip(8, 240, 0.5, sp.make_potential("newton", n=8))
    assert workloads.check_strip(c, es) == workloads.OK
    inverted = type("S", (), {"ulb": 2.0, "uub": 1.0, "sharp": True})()
    assert workloads.check_strip(c, inverted).startswith("wrong")
    call = gen.CliCall(("bound",), 2, "infeasible")
    assert workloads.check_cli(call, 0, "", "").startswith("wrong")


def test_tiny_operations_of_each_workload_pass_their_checks():
    loop = run.Loop()
    for c in gen.sweep_classes(1)[-4:]:
        loop.run(workloads.strip_op(sp, c))
    rng = np.random.default_rng(1)
    z = gen.half_code(rng, 64)
    code = gen.Code("tiny", (z / 2.0) @ gen._rotation(rng, 24), "gauss:1.5", gen._pair_counts(z), 4, False)
    loop.run(workloads.code_op(sp, code))
    for call in gen.cli_rounds(1, 1)[0]:
        loop.run(workloads.cli_inprocess_op(call))
    env = run.child_env(str(ROOT / "src"))
    loop.run(workloads.cli_op(gen.CliCall(("--version",), 0, "version"), env))
    assert loop.wrong == [] and loop.ok == loop.attempted == 14


def test_refusals_lower_ok_but_are_not_failures():
    loop = run.Loop()
    for outcome in (workloads.REFUSED, "wrong: ulb > uub", workloads.OK):
        loop.run(workloads.Op(lambda outcome=outcome: (0.001, outcome), 1.0))
    assert (loop.attempted, loop.ok, loop.failed) == (3, 1, 1)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "class-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
