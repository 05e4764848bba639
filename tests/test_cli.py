"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import sphenergy
from sphenergy.bounds import COEFF_TOL, recheck_certificate, ulb
from sphenergy.cli import main
from sphenergy.levenshtein import interval_for
from sphenergy.potentials import parse_potential

SCHEMA_KEYS = {
    "meta",
    "inputs",
    "quadrature",
    "interpolant",
    "lambda",
    "coefficients",
    "feasibility",
    "bounds",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), out


def test_bound_json_document(capsys):
    doc, _ = run_json(
        capsys, "bound", "-n", "5", "-M", "11", "-s", "auto-ez", "--format", "json"
    )
    assert SCHEMA_KEYS <= set(doc)
    assert doc["meta"]["tool"] == "sphenergy"
    assert doc["inputs"] == {
        "n": 5,
        "M": 11.0,
        "s": pytest.approx(0.13285354259858992),
        "potential": "newton",
    }
    assert doc["quadrature"]["m"] == 3
    assert doc["quadrature"]["L"] == pytest.approx(13.3014, abs=1e-3)
    assert doc["lambda"]["value"] == pytest.approx(0.66, abs=5e-3)
    assert doc["lambda"]["argmax"] == 1
    assert doc["feasibility"]["passed"] is True
    assert doc["bounds"]["uub"] == pytest.approx(41.90201357470821, rel=1e-10)
    assert doc["bounds"]["uub_value_form"] == pytest.approx(
        doc["bounds"]["uub"], rel=1e-10
    )


def test_bound_output_is_deterministic(capsys):
    _, first = run_json(
        capsys, "bound", "-n", "6", "-M", "72", "-s", "0.5", "--format", "json"
    )
    _, second = run_json(
        capsys, "bound", "-n", "6", "-M", "72", "-s", "0.5", "--format", "json"
    )
    assert first == second


def test_bound_text_output(capsys):
    code, out, _ = run(capsys, "bound", "-n", "8", "-M", "240", "-s", "0.5")
    assert code == 0
    assert "L_m(n, s) = 240" in out
    assert "uub = 17721.5" in out
    assert "interval: m = 6" in out
    assert "tie with m = 7" in out


def test_bound_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "bound", "-n", "4", "-M", "27", "-s", "0.5")
    assert code == 2
    assert "infeasible" in err


def test_input_error_exit_codes(capsys):
    cases = [
        ("bound", "-n", "4", "-M", "24", "-s", "0.5", "-h", "coulomb"),
        ("bound", "-n", "4", "-M", "3.5", "-s", "0.5"),
        ("bound", "-n", "4", "-M", "1", "-s", "0.5"),
        ("bound", "-n", "4", "-M", "24", "-s", "one-half"),
        ("verify", "--code", "/no/such/file.txt"),
        ("verify", "--generate", "simplex:x"),
        ("testfn", "-n", "5", "-s", "0", "--jmax", "0"),
        # R_j depends on (n, s) only, so testfn takes no kernel flag.
        ("testfn", "-n", "3", "-s", "0.5", "--jmax", "3", "-h", "bogus"),
        ("table", "--nmin", "9", "--nmax", "3"),
        ("table", "--nmin", "11", "--nmax", "12"),
        ("table", "--nmax", "12"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 4, argv
        assert err
    # A non-finite kernel parameter is refused by name, before any kernel
    # is evaluated.
    for kernel in ("riesz:inf", "gauss:inf"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "bound", "-n", "5", "-M", "11", "-s", "0.2", "-h", kernel)
        assert code == 4, kernel
        assert f"{kernel.partition(':')[0]} kernel needs a finite alpha > 0, got inf" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["bound", "strip"])
def test_a_kernel_beyond_binary64_at_a_node_is_a_certification_failure(capsys, command):
    # h(0.6) = 0.8^-5000 overflows; the class and the kernel are both valid.
    # A leaked RuntimeWarning fails the test (filterwarnings = error).
    code, _, err = run(capsys, command, "-n", "3", "-M", "5", "-s", "0.6", "-h", "riesz:10000")
    assert code == 3
    assert err == "certification failure: kernel riesz:10000 is not finite in binary64 at the node 0.6\n"


def test_strip_text_sharp_simplex(capsys):
    code, out, _ = run(
        capsys, "strip", "-n", "6", "-M", "7", "-s", "-0.16666666666666666", "-h", "log"
    )
    assert code == 0
    assert "[sharp]" in out
    assert "ulb = " in out


def test_strip_json_reference(capsys):
    doc, _ = run_json(
        capsys, "strip", "-n", "3", "-M", "12", "-s", "0.5", "--format", "json"
    )
    assert doc["bounds"]["ulb"] == pytest.approx(98.3305, abs=1e-3)
    assert doc["bounds"]["uub"] == pytest.approx(101.38479, abs=1e-3)
    assert doc["bounds"]["sharp"] is False
    assert doc["ulb_quadrature"]["L"] == pytest.approx(12.0, abs=1e-8)
    assert doc["ulb_quadrature"]["r"] < 0.5


def test_verify_generated_orthonormal(capsys):
    code, out, _ = run(
        capsys, "verify", "--generate", "orthonormal:6", "-h", "riesz:2"
    )
    assert code == 0
    assert "energy = 15" in out
    assert "attains uub" in out
    assert "inside strip" in out


def test_verify_icosahedron_json(capsys):
    doc, _ = run_json(
        capsys, "verify", "--generate", "icosahedron", "--format", "json"
    )
    v = doc["verify"]
    assert v["M"] == 12
    assert v["inside"] is True
    assert v["attains_ulb"] is True
    assert v["nodes_cover_products"] is True
    assert v["energy"] == pytest.approx(98.33050611525762, rel=1e-9)


def test_verify_code_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "square.txt"
    path.write_text("1 0\n0 1\n-1 0\n0 -1\n")
    code, out, _ = run(capsys, "verify", "--code", str(path))
    assert code == 0
    assert "inside strip" in out

    # A verdict outside its strip is a certification failure.
    verify_strip = sphenergy.cli.verify_strip
    monkeypatch.setattr(sphenergy.cli, "verify_strip", lambda *args: verify_strip(*args)._replace(inside=False))
    code, out, err = run(capsys, "verify", "--code", str(path))
    assert code == 3
    assert "verdict: OUTSIDE STRIP" in out
    assert err == "certification failure: code energy falls outside its certified strip\n"

    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n0.2 0.2\n")
    code, _, err = run(capsys, "verify", "--code", str(bad))
    assert code == 4
    assert "norm" in err


def test_verify_code_with_a_repeated_point(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("1 0 0\n0 1 0\n0 0 1\n1 0 0\n")
    code, _, err = run(capsys, "verify", "--code", str(path), "-h", "gauss:1")
    assert code == 4
    assert err.startswith("input error: the code has coincident points")
    code, _, err = run(capsys, "verify", "--code", str(path))
    assert code == 4
    assert "coincident points make the energy diverge" in err


def test_verify_random_code_beyond_the_last_interval(capsys, tmp_path):
    # 200 random points in R^5 have s(C) ~ 0.9895, past I_64 = [.., 0.98893]
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 5))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    path = tmp_path / "random.txt"
    path.write_text("\n".join(" ".join(repr(x) for x in row) for row in pts.tolist()))
    code, _, err = run(capsys, "verify", "--code", str(path))
    assert code == 3
    assert "beyond I_64" in err


def test_verify_thirty_random_codes_records_every_exit(capsys, tmp_path):
    # Unit-normalized Gaussian codes, n = 2..8 and M = 3..59: each exit with
    # its cause up to the first number, as tests/test_golden.py pins refusals.
    rng = np.random.default_rng(13)
    tally = Counter()
    for i in range(30):
        n, M = int(rng.integers(2, 9)), int(rng.integers(3, 60))
        pts = rng.standard_normal((M, n))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        path = tmp_path / f"code{i}.txt"
        path.write_text("\n".join(" ".join(repr(x) for x in row) for row in pts.tolist()))
        code, _, err = run(capsys, "verify", "--code", str(path))
        cause = re.split(r"[-+]?[.]?[0-9]", err)[0].rstrip()
        tally[code, cause] += 1
        if cause == "certification failure: separation":
            iv = interval_for(n, 64)
            assert err.endswith(
                f" lies beyond I_64 = [{iv.lo!r}, {iv.hi!r}], the last supported interval for n = {n}\n"
            )
    assert tally == {
        (0, ""): 5,
        (3, "certification failure: interpolation residual"): 17,
        (3, "certification failure: nonpositive node polynomial coefficients"): 2,
        (3, "certification failure: separation"): 6,
    }


def test_table_reference_row(capsys):
    doc, _ = run_json(
        capsys, "table", "--nmin", "4", "--nmax", "4", "--format", "json"
    )
    (row,) = doc["rows"]
    assert row["n"] == 4
    assert (row["M_lo"], row["M_hi"]) == (24, 24)
    assert row["L"] == pytest.approx(26.0, abs=1e-8)
    assert row["ulb_lo"] == pytest.approx(333.0, abs=1e-6)
    assert row["uub_lo"] == pytest.approx(344.8946, abs=5e-4)


def test_table_json_carries_the_kernel_label(capsys):
    # The label, as bound, strip and verify write it, not the flag as typed.
    doc, _ = run_json(capsys, "table", "--nmin", "2", "--nmax", "2", "-h", "riesz:1.50", "--format", "json")
    strip_doc, _ = run_json(capsys, "strip", "-n", "2", "-M", "6", "-s", "0.5", "-h", "riesz:1.50", "--format", "json")
    assert doc["potential"] == strip_doc["inputs"]["potential"] == "riesz:1.5"


def test_table_plane_row_is_sharp(capsys):
    code, out, _ = run(capsys, "table", "--nmin", "2", "--nmax", "2")
    assert code == 0
    assert "-10.7506" in out


def test_testfn_text_and_json(capsys):
    code, out, _ = run(capsys, "testfn", "-n", "5", "-s", "0", "--jmax", "6")
    assert code == 0
    assert "R_1 = " in out
    assert "verdict: optimal in range" in out

    doc, _ = run_json(
        capsys, "testfn", "-n", "5", "-s", "0", "--jmax", "6", "--format", "json"
    )
    assert doc["m"] == 2
    assert doc["threshold"] == 3
    assert len(doc["values"]) == 6
    assert doc["optimal_in_range"] is True
    assert doc["first_negative"] is None


def test_testfn_below_the_sign_test_settles_nothing(capsys):
    # m = 5 at s = 1/2, so the sign test starts at j = 6 > --jmax
    code, out, _ = run(capsys, "testfn", "-n", "5", "-s", "0.5", "--jmax", "2")
    assert code == 0
    assert out.endswith("verdict: not settled (the sign test starts above --jmax 2)\n")
    doc, _ = run_json(capsys, "testfn", "-n", "5", "-s", "0.5", "--jmax", "2", "--format", "json")
    assert (doc["threshold"], doc["optimal_in_range"], doc["first_negative"]) == (6, False, None)


def test_testfn_names_the_first_negative_test_function(capsys):
    # At (3, 1/2), m = 5 and the sign test starts at j = 6; R_8 is the first negative.
    code, out, _ = run(capsys, "testfn", "-n", "3", "-s", "0.5", "--jmax", "64")
    assert code == 0
    assert out.endswith("verdict: not settled (R_8 < 0)\n")
    doc, _ = run_json(capsys, "testfn", "-n", "3", "-s", "0.5", "--jmax", "64", "--format", "json")
    assert (doc["optimal_in_range"], doc["first_negative"]) == (False, 8)


@pytest.mark.parametrize(
    "command, n, M, s, kernel",
    [
        ("bound", "4", "24", "0.5", "newton"),
        ("bound", "5", "11", "0.2", "riesz:1.2345678"),
        ("bound", "5", "11", "0.2", "gauss:2.718281828"),
        ("strip", "5", "11", "0.2", "gauss:0.1234567"),
        ("strip", "3", "12", "0.5", "log"),
        ("strip", "8", "240", "0.5", "riesz:3"),
    ],
)
def test_recheck_round_trip(capsys, command, n, M, s, kernel):
    doc, _ = run_json(
        capsys, command, "-n", n, "-M", M, "-s", s, "-h", kernel, "--format", "json"
    )
    assert doc["inputs"]["potential"] == kernel
    report = recheck_certificate(doc)
    assert report["ok"] is True
    rows = {gate: (value, allowed) for gate, value, allowed in report["gates"]}
    for gate in ("bound forms disagree by", "stored bound disagrees by"):
        assert rows[gate][0] <= rows[gate][1], gate
    assert rows["quadrature exactness residual"][0] < 1e-9

    tampered = json.loads(json.dumps(doc))
    tampered["bounds"]["uub"] *= 1.001
    assert recheck_certificate(tampered)["ok"] is False

    shaved = json.loads(json.dumps(doc))
    shaved["coefficients"]["f"][0] *= 0.999
    assert recheck_certificate(shaved)["ok"] is False
    if command == "bound":
        return

    # The lower side: its stored value, its place below uub, and its rule.
    # The largest weight is the one tampered: the smallest can lie below
    # the exactness tolerance.
    bounds, weights = doc["bounds"], doc["ulb_quadrature"]["weights"]
    heavier = [w * 1.001 if w == max(weights) else w for w in weights]
    for part, key, value in [("bounds", "ulb", bounds["ulb"] * 1.001),
                             ("bounds", "ulb", bounds["uub"] + abs(bounds["uub"])),
                             ("ulb_quadrature", "weights", heavier)]:
        tampered = json.loads(json.dumps(doc))
        tampered[part][key] = value
        assert recheck_certificate(tampered)["ok"] is False, (key, value)


def test_recheck_refuses_a_lower_rule_for_another_cardinality(capsys):
    # The rule of M = 11 is exact and positive, and the stored ulb is its
    # sum at M = 12, below uub: only its L tells it from the rule of M = 12.
    doc, _ = run_json(capsys, "strip", "-n", "3", "-M", "12", "-s", "0.5", "--format", "json")
    assert recheck_certificate(doc)["ok"] is True
    pot = parse_potential("newton", 3)
    _, rule = ulb(3, 11, pot)
    doc["ulb_quadrature"].update(m=rule.m, L=rule.N, nodes=rule.nodes.tolist(), weights=rule.weights.tolist())
    doc["bounds"]["ulb"] = 144.0 * float(np.dot(rule.weights, pot(rule.nodes)))
    assert doc["bounds"]["ulb"] < doc["bounds"]["uub"]
    assert recheck_certificate(doc)["ok"] is False


def test_recheck_rejects_each_gate(capsys):
    doc, _ = run_json(
        capsys, "bound", "-n", "4", "-M", "24", "-s", "0.5", "--format", "json"
    )

    def failing(edit):
        # The gates of the rows that the edit makes fail.
        tampered = json.loads(json.dumps(doc))
        edit(tampered)
        report = recheck_certificate(tampered)
        assert report["ok"] is False
        return {gate for gate, value, allowed in report["gates"] if not value <= allowed}

    def lift_f0(d):
        d["coefficients"]["f"][0] += 1e-6

    def raise_interior(d):
        d["coefficients"]["f"][1] = 1e-6

    def scale_weight(d):
        d["quadrature"]["weights"][0] *= 1.001

    def swap_kernel(d):
        # riesz:1 lies above the newton kernel (riesz:2 in R^4) on [-1, 1/2)
        d["inputs"]["potential"] = "riesz:1"

    def inflate_uub(d):
        d["bounds"]["uub"] *= 1.001

    assert "interpolation residual" in failing(lift_f0)
    assert "feasibility failed: max interior coefficient" in failing(raise_interior)
    assert "quadrature exactness residual" in failing(scale_weight)
    assert {"feasibility failed: max h - f on the grid", "bound forms disagree by"} <= failing(swap_kernel)
    assert "stored bound disagrees by" in failing(inflate_uub)


@pytest.mark.parametrize("argv", [
    ["bound", "-n", "200", "-M", "300", "-s", "0.1"],
    ["strip", "-n", "3", "-M", "5", "-s", "0.6", "-h", "gauss:1000"],
], ids=["newton-n200", "gauss1000"])
def test_a_kernel_far_below_scale_one_gets_a_true_certificate(capsys, argv):
    # The kernels' values at the nodes are near 5e-26 and 4e-174, so a gate
    # with an absolute limit would pass uub < 0 here: f_i > 0 that lambda
    # missed, or a gap far below the kernel.
    doc, _ = run_json(capsys, *argv, "--format", "json")
    n, M = doc["inputs"]["n"], doc["inputs"]["M"]
    pot = parse_potential(doc["inputs"]["potential"], n)
    f = doc["coefficients"]["f"]
    scale = max(abs(f[0]), float(pot(np.array(doc["quadrature"]["nodes"])).max()))
    assert max(f[1:]) <= COEFF_TOL * scale
    low = doc["bounds"]["ulb"] if "ulb" in doc["bounds"] else ulb(n, M, pot)[0]
    assert 0.0 <= low <= doc["bounds"]["uub"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "sphenergy" in capsys.readouterr().out


def run_python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this sphenergy, run with ``args``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphenergy.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def run_probe(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this sphenergy."""
    out = run_python("-c", code)
    out.check_returncode()
    return out.stdout


def test_python_dash_m_runs_the_cli():
    version = run_python("-m", "sphenergy.cli", "--version")
    assert (version.returncode, version.stdout) == (0, f"sphenergy {sphenergy.__version__}\n")
    infeasible = run_python("-m", "sphenergy.cli", "bound", "-n", "4", "-M", "27", "-s", "0.5")
    assert infeasible.returncode == 2
    assert infeasible.stderr.startswith("infeasible:")


def test_a_closed_stdout_exits_1_without_an_input_error():
    # The read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_python("-m", "sphenergy.cli", "table", "--format", "json", stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


IMPORT_PROBE = """
import contextlib, io, json, sys
from sphenergy import cli
WATCHED = ("scipy", "numpy.ma", "dataclasses")
used = []
for name in ("generate", "load_code", "verify_strip"):
    def wrapped(*a, _f=getattr(cli, name), **k):
        used.append(_f.__name__)
        return _f(*a, **k)
    setattr(cli, name, wrapped)
seen = [[[m for m in WATCHED if m in sys.modules], []]]
for argv in (["bound", "-n", "5", "-M", "11", "-s", "auto-ez"],
             ["bound", "-n", "5", "-M", "11", "-s", "0.1328", "--format", "json"],
             ["strip", "-n", "8", "-M", "240", "-s", "0.5", "--format", "json"],
             ["table"],
             ["testfn", "-n", "5", "-s", "0.1328", "--jmax", "8"],
             ["verify", "--generate", "simplex:4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append([[m for m in WATCHED if m in sys.modules], sorted(set(used))])
    used.clear()
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def import_probe():
    """Per command: the watched modules loaded so far, the codes functions it called."""
    return json.loads(run_probe(IMPORT_PROBE))


def test_cli_bound_strip_table_never_import_scipy(import_probe):
    # importing scipy costs about as much as the rest of a CLI call
    assert [mods for mods, _ in import_probe if "scipy" in mods] == []


def test_cli_calls_never_import_numpy_ma_and_only_verify_loads_codes(import_probe):
    # numpy.ma (which np.unique imports) and dataclasses cost a call 10-40 ms;
    # of the commands, only verify reads a code
    assert [mods for mods, _ in import_probe] == [[]] * 7
    assert [used for _, used in import_probe] == [[]] * 6 + [["generate", "verify_strip"]]
