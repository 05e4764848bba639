"""Certificates against stored golden output.

``tests/data`` holds the JSON that ``bound``, ``strip`` and ``table`` printed
for the four anchor classes before the coefficient kernels moved to plain
floats, and that ``verify`` on the icosahedron and ``testfn`` at (5, s_ez)
printed before the unused Jacobi evaluator was removed.  Ints, strings,
bools and nulls must match exactly; floats within 1e-12 * max(1, |old|, |new|).

``refusals.json`` pins which classes ``strip`` certifies and which it
refuses: ``uub``'s node-residual gate decides borderline classes by
roundoff, so a change of arithmetic shows there first.  It holds what
``refusal_entry`` returned for every class of ``REFUSAL_CLASSES`` before the
quadrature kept its node table.  A change that moves classes on purpose
rewrites it, in its committed format, with

    PYTHONPATH=src python tests/test_golden.py --write-refusals

Each certified value there is also checked against ``oracles.exact_uub``,
exact rational arithmetic on the certificate's own floats.
"""

import json
import math
import os
import re
import sys
from fractions import Fraction

import pytest

from oracles import exact_uub
from sphenergy.bounds import strip, uub
from sphenergy.cli import main
from sphenergy.errors import CertificationError, NumericsError
from sphenergy.levenshtein import dgs_number, interval_for
from sphenergy.potentials import parse_potential

DATA = os.path.join(os.path.dirname(__file__), "data")

ANCHORS = [
    ("5", "11", "auto-ez"),
    ("8", "240", "0.5"),
    ("10", "554", "0.5"),
    ("24", "196560", "0.5"),
]
CASES = [
    (f"{cmd}_n{n}_M{M}.json", [cmd, "-n", n, "-M", M, "-s", s, "--format", "json"])
    for cmd in ("bound", "strip")
    for n, M, s in ANCHORS
] + [
    ("table.json", ["table", "--format", "json"]),
    ("verify_icosahedron.json", ["verify", "--generate", "icosahedron", "--format", "json"]),
    ("testfn_n5_auto-ez_j8.json",
     ["testfn", "-n", "5", "-s", "auto-ez", "--jmax", "8", "--format", "json"]),
]


def mismatches(old, new, path="$"):
    """Paths at which new differs from old beyond the golden tolerance."""
    if isinstance(old, float) and isinstance(new, float):
        tol = 1e-12 * max(1.0, abs(old), abs(new))
        return [] if math.isclose(old, new, rel_tol=0.0, abs_tol=tol) else [f"{path}: {old!r} -> {new!r}"]
    if type(old) is not type(new):
        return [f"{path}: {type(old).__name__} -> {type(new).__name__}"]
    if isinstance(old, dict):
        if list(old) != list(new):
            return [f"{path}: keys {list(old)} -> {list(new)}"]
        return [m for key in old for m in mismatches(old[key], new[key], f"{path}.{key}")]
    if isinstance(old, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        return [m for i, (a, b) in enumerate(zip(old, new)) for m in mismatches(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def test_mismatches_applies_the_tolerance():
    assert mismatches({"a": [1, 2.0, True]}, {"a": [1, 2.0 + 1e-12, True]}) == []
    assert mismatches({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-11]})
    assert mismatches({"a": 1}, {"a": 1.0})
    assert mismatches({"a": True}, {"a": False})


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(capsys, name, argv):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert main(argv) == 0
    assert mismatches(golden, json.loads(capsys.readouterr().out)) == []


# Each class sits at the midpoint of I_m with M = D(n, m); m = 1..20 reaches
# the band m = 14..19 where uub refuses.
REFUSAL_CLASSES = [
    (n, m, kernel) for n in (3, 5, 8, 24) for m in range(1, 21) for kernel in ("newton", "gauss:2")
]


def refusal_entry(n, m, kernel):
    """The strip's two ends, or the refusing gate's message up to its first number."""
    iv = interval_for(n, m)
    try:
        es = strip(n, dgs_number(n, m), 0.5 * (iv.lo + iv.hi), parse_potential(kernel, n))
    except (CertificationError, NumericsError) as exc:
        return {"refused": f"{type(exc).__name__}: {re.split(r'[-+]?[.]?[0-9]', str(exc))[0].rstrip()}"}
    return {"uub": es.uub, "ulb": es.ulb}


def refusal_table():
    return {f"{n} {m} {kernel}": refusal_entry(n, m, kernel) for n, m, kernel in REFUSAL_CLASSES}


def test_certified_and_refused_classes_match_golden():
    with open(os.path.join(DATA, "refusals.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    got = refusal_table()
    assert list(got) == list(golden)
    assert mismatches(golden, got) == []


def test_pinned_certified_classes_agree_with_exact_arithmetic():
    # Measured: uub is further than 1e-14 relative from exact arithmetic on
    # its own floats at 39 of these classes, up to -4.6e-11 at "3 20 gauss:2".
    with open(os.path.join(DATA, "refusals.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    for n, m, kernel in REFUSAL_CLASSES:
        if "uub" in golden[f"{n} {m} {kernel}"]:
            iv = interval_for(n, m)
            cert = uub(n, dgs_number(n, m), 0.5 * (iv.lo + iv.hi), parse_potential(kernel, n))
            _, value, _ = exact_uub(cert)
            assert abs(float((Fraction(cert.uub_value) - value) / value)) <= 1e-10, (n, m, kernel)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-refusals"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write-refusals")
    with open(os.path.join(DATA, "refusals.json"), "w", encoding="utf-8") as fh:
        json.dump(refusal_table(), fh, indent=1)
        fh.write("\n")
