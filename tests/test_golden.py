"""Certificates against stored golden output.

``tests/data`` holds the JSON that ``bound``, ``strip`` and ``table`` printed
for the four anchor classes before the coefficient kernels moved to plain
floats, and that ``verify`` on the icosahedron and ``testfn`` at (5, s_ez)
printed before the unused Jacobi evaluator was removed.  Ints, strings,
bools and nulls must match exactly; floats within 1e-12 * max(1, |old|, |new|).

A certified bound is pinned by its exact value instead: the exact value of
the bound on the certificate's own floats (``oracles.exact_uub`` and
``oracles.exact_ulb``), to 30 significant digits.  The computed bound must
lie within ``EXACT_TOL`` of it, relative, and no further from it than the
stored float, unless it lies within ``EXACT_FLOOR`` of it: below that, two
evaluations of one bound differ by rounding alone and are not ranked.  So
a change that makes a bound more accurate passes, and one that makes it
less accurate fails.  The golden documents keep the command's keys, so
their exact values live in ``exact_bounds.json``, keyed by document and
by the path that ``mismatches`` prints.

``refusals.json`` pins which classes ``strip`` certifies and which it
refuses: ``uub``'s node-residual gate decides borderline classes by
roundoff, so a change of arithmetic shows there first.  A certified class
stores ``uub`` and ``ulb`` with their exact values beside them, as
``uub_exact`` and ``ulb_exact``; a refused one stores its gate's words.
A change that moves classes on purpose rewrites it, in its committed
format, and rewrites ``exact_bounds.json`` too, with

    PYTHONPATH=src python tests/test_golden.py --write-refusals

A change that must leave every output as it was is checked with

    PYTHONPATH=src python tests/test_golden.py --fingerprint > after.txt

run once on each tree: the two files must not ``diff``.  One line per case
gives ``strip`` on every class-sweep class of seeds 1-3, on every
``REFUSAL_CLASSES`` class and on every ``LARGE_N_CLASSES`` class, then
stdout, stderr and the exit code of every command in ``CASES``, then
``verify_strip`` on every code-check code of seeds 1-3 under its own
kernel and on every ``FINGERPRINT_CODES`` code under newton: the
separation, energy, moments, ulb and uub, and the verdict's flags, or the
refusal.  The last line is a sha256 of the lines
above it.  To compare with another tree, run this file with ``PYTHONPATH``
set to that tree's ``src``.
"""

import hashlib
import io
import json
import math
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import decimal_string, exact_ulb, exact_uub
from sphenergy.bounds import strip
from sphenergy.cli import main
from sphenergy.codes import SphericalCode, generate, verify_strip
from sphenergy.errors import CertificationError, NumericsError
from sphenergy.levenshtein import dgs_number, interval_for, lev_value
from sphenergy.potentials import parse_potential

DATA = os.path.join(os.path.dirname(__file__), "data")
EXACT_BOUNDS = "exact_bounds.json"

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


# EXACT_TOL is the agreement with exact arithmetic that the pinned classes
# were held to before their exact values were stored.  EXACT_FLOOR lies
# above the largest error of a reported bound that is further from exact
# than the other form of the same class: 5.4e-14 over the pinned classes.
EXACT_TOL = 1e-10
EXACT_FLOOR = 1e-13


def exact_mismatches(stored, got, exact, path):
    """The pinned-bound rule for one float: within ``EXACT_TOL`` of its exact
    value, and no further from it than the stored float or ``EXACT_FLOOR``."""
    e = Fraction(Decimal(exact))
    err = abs(Fraction(got) - e) / abs(e)
    if err > EXACT_TOL:
        return [f"{path}: {got!r} is {float(err):.2e} from exact {exact}"]
    if err > max(Fraction(EXACT_FLOOR), abs(Fraction(stored) - e) / abs(e)):
        return [f"{path}: {got!r} is further from exact {exact} than the stored {stored!r}"]
    return []


def mismatches(old, new, path="$", exact=None):
    """Paths at which new differs from old beyond the golden tolerance; a
    float whose path is a key of ``exact`` is held to ``exact_mismatches``."""
    exact = exact or {}
    if isinstance(old, float) and isinstance(new, float):
        if path in exact:
            return exact_mismatches(old, new, exact[path], path)
        tol = 1e-12 * max(1.0, abs(old), abs(new))
        return [] if math.isclose(old, new, rel_tol=0.0, abs_tol=tol) else [f"{path}: {old!r} -> {new!r}"]
    if type(old) is not type(new):
        return [f"{path}: {type(old).__name__} -> {type(new).__name__}"]
    if isinstance(old, dict):
        if list(old) != list(new):
            return [f"{path}: keys {list(old)} -> {list(new)}"]
        return [m for key in old for m in mismatches(old[key], new[key], f"{path}.{key}", exact)]
    if isinstance(old, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        return [m for i, (a, b) in enumerate(zip(old, new)) for m in mismatches(a, b, f"{path}[{i}]", exact)]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def test_mismatches_applies_the_tolerance():
    assert mismatches({"a": [1, 2.0, True]}, {"a": [1, 2.0 + 1e-12, True]}) == []
    assert mismatches({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-11]})
    assert mismatches({"a": 1}, {"a": 1.0})
    assert mismatches({"a": True}, {"a": False})
    # A pinned float may move toward its exact value, or anywhere within the
    # floor of it, but not further away, and never beyond EXACT_TOL.
    exact = {"$.b": decimal_string(Fraction(3))}
    assert mismatches({"b": 3.0 + 1e-11}, {"b": 3.0 - 1e-12}, exact=exact) == []
    assert mismatches({"b": 3.0}, {"b": 3.0 + 1e-13}, exact=exact) == []
    assert mismatches({"b": 3.0 + 1e-12}, {"b": 3.0 + 2e-12}, exact=exact)
    assert mismatches({"b": 3.0 + 1e-12}, {"b": 3.0 - 2e-12}, exact=exact)
    assert mismatches({"b": 3.0 + 1e-9}, {"b": 3.0 + 1e-9}, exact=exact)


def load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def exact_strings(es):
    """Exact values of a strip's two ends on its own floats, as 30-digit
    strings: for uub, M (f_0 M - f(1)) with f built exactly from the nodes
    and the kernel's values there, the bound that f gives."""
    cert = es.uub_cert
    return {
        "uub": decimal_string(exact_uub(cert)[1]),
        "ulb": decimal_string(exact_ulb(cert.M, es.ulb_rule, cert.potential)),
    }


def golden_exact_table():
    """Exact values of the bounds that the golden documents store, keyed by
    document and path: each ``bounds`` value of a certificate, and each
    ``uub_*`` and ``ulb_*`` value of the table."""
    out = {}
    for name, _ in CASES:
        doc = load(name)
        if "bounds" in doc:
            args = doc["inputs"]
            pot = parse_potential(args["potential"], args["n"])
            ex = exact_strings(strip(args["n"], args["M"], args["s"], pot))
            out[name] = {f"$.bounds.{key}": ex[key[:3]] for key, v in doc["bounds"].items() if isinstance(v, float)}
        elif "rows" in doc:
            out[name] = {}
            for i, row in enumerate(doc["rows"]):
                pot = parse_potential(doc["potential"], row["n"])
                for end in ("lo", "hi"):
                    ex = exact_strings(strip(row["n"], row[f"M_{end}"], 0.5, pot))
                    out[name].update({f"$.rows[{i}].{key}_{end}": ex[key] for key in ("uub", "ulb")})
    return out


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(capsys, name, argv):
    golden = load(name)
    assert main(argv) == 0
    exact = load(EXACT_BOUNDS).get(name)
    assert mismatches(golden, json.loads(capsys.readouterr().out), exact=exact) == []


# Each class sits at the midpoint of I_m with M = D(n, m); m = 1..20 reaches
# the band m = 14..19 where uub refuses.
REFUSAL_CLASSES = [
    (n, m, kernel) for n in (3, 5, 8, 24) for m in range(1, 21) for kernel in ("newton", "gauss:2")
]


def refusal_entry(n, m, kernel, exact=False):
    """The strip's two ends, each followed by its exact value when ``exact``
    is set, or the refusing gate's message up to its first number."""
    iv = interval_for(n, m)
    try:
        es = strip(n, dgs_number(n, m), 0.5 * (iv.lo + iv.hi), parse_potential(kernel, n))
    except (CertificationError, NumericsError) as exc:
        return {"refused": f"{type(exc).__name__}: {re.split(r'[-+]?[.]?[0-9]', str(exc))[0].rstrip()}"}
    if not exact:
        return {"uub": es.uub, "ulb": es.ulb}
    ex = exact_strings(es)
    return {"uub": es.uub, "uub_exact": ex["uub"], "ulb": es.ulb, "ulb_exact": ex["ulb"]}


def refusal_table(exact=False):
    return {f"{n} {m} {kernel}": refusal_entry(n, m, kernel, exact) for n, m, kernel in REFUSAL_CLASSES}


def test_certified_and_refused_classes_match_golden():
    golden = load("refusals.json")
    got = refusal_table()
    assert list(got) == list(golden)
    exact = {f"$.{cls}.{key[:3]}": entry.pop(key)
             for cls, entry in golden.items() for key in list(entry) if key.endswith("_exact")}
    assert mismatches(golden, got, exact=exact) == []


def test_pinned_certified_classes_agree_with_exact_arithmetic():
    # The stored exact values are what the oracles give on today's floats.
    golden = load("refusals.json")
    for (cls, entry), (n, m, kernel) in zip(golden.items(), REFUSAL_CLASSES, strict=True):
        if "uub" in entry:
            got = refusal_entry(n, m, kernel, exact=True)
            assert [got.get(key) for key in ("uub_exact", "ulb_exact")] == [entry["uub_exact"], entry["ulb_exact"]], cls
    assert load(EXACT_BOUNDS) == golden_exact_table()


def leaves(doc, path="$"):
    """(path, value) of every leaf of ``doc``, with paths as ``mismatches`` prints them."""
    if isinstance(doc, dict):
        return [leaf for key, v in doc.items() for leaf in leaves(v, f"{path}.{key}")]
    if isinstance(doc, list):
        return [leaf for i, v in enumerate(doc) for leaf in leaves(v, f"{path}[{i}]")]
    return [(path, doc)]


def test_every_pinned_bound_has_its_exact_value():
    # A regeneration that drops an exact value, or a sidecar path that its
    # document lacks, fails here.
    def digits(text):
        return len(Decimal(text).as_tuple().digits)

    for cls, entry in load("refusals.json").items():
        if "refused" not in entry:
            assert list(entry) == ["uub", "uub_exact", "ulb", "ulb_exact"], cls
            assert digits(entry["uub_exact"]) >= 30 and digits(entry["ulb_exact"]) >= 30, cls
    sidecar = load(EXACT_BOUNDS)
    pinned = re.compile(r"[$][.](bounds[.]\w+|rows\[\d+\][.]u[lu]b_(lo|hi))")
    for name, _ in CASES:
        paths = {p for p, v in leaves(load(name)) if isinstance(v, float) and pinned.fullmatch(p)}
        texts = sidecar.pop(name, {})
        assert set(texts) == paths, name
        assert all(digits(text) >= 30 for text in texts.values()), name
    assert sidecar == {}


# Classes at the midpoint of I_m with M = floor(L_m(n, s)), that ``--fingerprint``
# runs after the refusal classes: at these n the kernels' values at the nodes
# run from 0 in binary64 (newton at n = 3000) up to about 1e33.
LARGE_N_CLASSES = [
    (n, m, kernel) for n in (100, 200, 400, 1000, 3000) for m in range(1, 13)
    for kernel in ("newton", "gauss:1", "riesz:1")
]


# Named codes that ``--fingerprint`` verifies under newton, after the code-check set.
FINGERPRINT_CODES = [("cross_polytope", 5), ("cross_polytope", 24), ("icosahedron", None), ("simplex", 7),
                     ("hexagon", None)]


def fingerprint_lines():
    """The lines that ``--fingerprint`` prints, without the closing sha256."""
    sys.path.insert(0, os.path.join(os.path.dirname(DATA), os.pardir, "bench"))
    import gen

    classes = [(c.n, c.M, c.s, c.kernel) for seed in (1, 2, 3) for c in gen.sweep_classes(seed)]
    for n, m, kernel in REFUSAL_CLASSES:
        iv = interval_for(n, m)
        classes.append((n, dgs_number(n, m), 0.5 * (iv.lo + iv.hi), kernel))
    for n, m, kernel in LARGE_N_CLASSES:
        iv = interval_for(n, m)
        s = 0.5 * (iv.lo + iv.hi)
        classes.append((n, math.floor(lev_value(n, iv, s)), s, kernel))
    for n, M, s, kernel in classes:
        try:
            es = strip(n, M, s, parse_potential(kernel, n))
            verdict = f"{es.ulb!r} {es.uub!r} {es.sharp!r}"
        except (CertificationError, NumericsError) as exc:
            verdict = f"{type(exc).__name__}: {exc}"
        yield f"strip {n} {M!r} {s!r} {kernel}: {verdict}"
    for _, argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        yield f"{' '.join(argv)}: exit {code} stdout {out.getvalue()!r} stderr {err.getvalue()!r}"
    codes = [(c.name, SphericalCode(c.points), c.kernel) for seed in (1, 2, 3) for c in gen.check_codes(seed)]
    codes += [(f"{kind}:{n}" if n else kind, generate(kind, n), "newton") for kind, n in FINGERPRINT_CODES]
    for name, code, kernel in codes:
        try:
            v = verify_strip(code, parse_potential(kernel, code.dim))
            verdict = (f"{v.separation!r} {v.energy!r} {v.moments.tolist()!r} {v.strip.ulb!r} {v.strip.uub!r} "
                       f"{v.inside!r} {v.attains_uub!r} {v.attains_ulb!r} {v.nodes_cover_products!r} {v.strip.sharp!r}")
        except (CertificationError, NumericsError, ValueError) as exc:
            verdict = f"{type(exc).__name__}: {exc}"
        yield f"verify {name} {kernel}: {verdict}"


def write_refusals():
    for name, table in (("refusals.json", refusal_table(exact=True)), (EXACT_BOUNDS, golden_exact_table())):
        with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")


def fingerprint():
    digest = hashlib.sha256()
    for line in fingerprint_lines():
        print(line)
        digest.update(line.encode("utf-8") + b"\n")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    modes = {"--write-refusals": write_refusals, "--fingerprint": fingerprint}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write-refusals | --fingerprint")
    modes[sys.argv[1]]()
