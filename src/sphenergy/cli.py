"""Command-line front end.

Subcommands: bound, strip, verify, table, testfn.  The potential flag is
``-h`` (so ``--help`` prints usage); text output rounds to 6 significant
digits while JSON output carries full double precision and is
byte-for-byte reproducible for identical flags (no timestamps).

Exit codes: 0 success, 2 the class (n, M, s) is infeasible, 3 a
certification check failed or the class lies beyond the last supported
interval I_64, 4 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bounds import BoundCertificate, EnergyStrip, strip, test_functions, ulb, uub
from .codes import ez_separation, generate, load_code, verify_strip
from .errors import (
    CertificationError,
    InfeasibleClassError,
    InfiniteEnergyError,
    NumericsError,
)
from .orthopoly import GegenPoly
from .potentials import parse_potential

__all__ = [
    "build_parser",
    "main",
    "console_main",
    "table_rows",
    "certificate_to_dict",
    "strip_to_dict",
    "recheck_certificate",
    "KISSING_RANGES",
]

# Known ranges for the kissing numbers (best lower and upper bounds for
# 2 <= n <= 10); the endpoints feed the default rows of `table`.
KISSING_RANGES = {
    2: (6, 6),
    3: (12, 12),
    4: (24, 24),
    5: (40, 44),
    6: (72, 78),
    7: (126, 134),
    8: (240, 240),
    9: (306, 363),
    10: (500, 554),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that to exit code 4
    # instead, which is reserved for input errors.
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _add_common(sp, with_M: bool = True, with_s: bool = True):
    sp.add_argument("--help", action="help", help="show this help message and exit")
    sp.add_argument("-n", "--dim", type=int, required=True, help="dimension of the ambient space")
    if with_M:
        sp.add_argument("-M", "--points", type=int, required=True, help="number of points (integer >= 2)")
    if with_s:
        sp.add_argument("-s", "--separation", required=True,
                        help="maximal inner product, or 'auto-ez' for the (2n+1)-point separation")
    sp.add_argument("-h", "--potential", default="newton",
                    help="kernel: newton | riesz:a | gauss:a | log (default newton)")
    sp.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sphenergy", add_help=False,
                description="Universal energy bounds for spherical codes.")
    p.add_argument("--help", action="help", help="show this help message and exit")
    p.add_argument("--version", action="version", version=f"sphenergy {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    b = sub.add_parser("bound", add_help=False, help="upper bound for (n, M, s)")
    _add_common(b)

    st = sub.add_parser("strip", add_help=False, help="energy strip [ulb, uub] for (n, M, s)")
    _add_common(st)

    v = sub.add_parser("verify", add_help=False, help="check a concrete code against its strip")
    v.add_argument("--help", action="help", help="show this help message and exit")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--code", help="path of a code file (one point per line)")
    src.add_argument("--generate", help="named code, e.g. simplex:4, icosahedron")
    v.add_argument("-h", "--potential", default="newton",
                   help="kernel: newton | riesz:a | gauss:a | log (default newton)")
    v.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    t = sub.add_parser("table", add_help=False, help="kissing-range energy table at s = 1/2")
    t.add_argument("--help", action="help", help="show this help message and exit")
    t.add_argument("--nmin", type=int, default=2)
    t.add_argument("--nmax", type=int, default=10)
    t.add_argument("-h", "--potential", default="newton",
                   help="kernel: newton | riesz:a | gauss:a | log (default newton)")
    t.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    tf = sub.add_parser("testfn", add_help=False, help="test functions R_j at (n, s)")
    _add_common(tf, with_M=False)
    tf.add_argument("--jmax", type=int, required=True, help="largest index j to report")

    return p


def _parse_separation(raw: str, n: int) -> float:
    if raw == "auto-ez":
        return ez_separation(n)
    try:
        s = float(raw)
    except ValueError:
        raise ValueError(f"bad separation {raw!r}") from None
    return s


def certificate_to_dict(cert: BoundCertificate) -> dict:
    quad = cert.quad
    return {
        "meta": {"tool": "sphenergy", "version": __version__, "schema": 1},
        "inputs": {
            "n": cert.dim,
            "M": cert.M,
            "s": cert.s,
            "potential": cert.potential.label,
        },
        "quadrature": {
            "m": quad.m,
            "k": quad.interval.k,
            "eps": quad.interval.eps,
            "interval": [quad.interval.lo, quad.interval.hi],
            "tie_with": quad.interval.tie_with,
            "L": quad.N,
            "nodes": quad.nodes.tolist(),
            "weights": quad.weights.tolist(),
            "residual": quad.residual,
        },
        "interpolant": {
            "nodes": list(cert.lev.multiset),
            "gegenbauer": cert.interpolant.coeffs.tolist(),
        },
        "lambda": {
            "value": cert.lam,
            "argmax": cert.lam_argmax,
            "degenerate": cert.degenerate,
        },
        "coefficients": {
            "f": cert.f.coeffs.tolist(),
            "levenshtein": cert.lev.gegen.coeffs.tolist(),
        },
        "feasibility": {
            "max_interior_coeff": cert.feasibility.max_interior_coeff,
            "min_gap": cert.feasibility.min_gap,
            "grid_size": cert.feasibility.grid_size,
            "passed": cert.feasibility.passed,
        },
        "bounds": {
            "uub": cert.uub_value,
            "uub_quadrature_form": cert.quadrature_form,
        },
    }


def strip_to_dict(es: EnergyStrip) -> dict:
    doc = certificate_to_dict(es.uub_cert)
    doc["bounds"]["ulb"] = es.ulb
    doc["bounds"]["sharp"] = es.sharp
    doc["ulb_quadrature"] = {
        "m": es.ulb_rule.m,
        "r": es.ulb_rule.s,
        "L": es.ulb_rule.N,
        "nodes": es.ulb_rule.nodes.tolist(),
        "weights": es.ulb_rule.weights.tolist(),
        "residual": es.ulb_rule.residual,
    }
    return doc


def recheck_certificate(doc: dict) -> dict:
    """Re-verify a stored certificate from its own numbers.

    Rebuilds the bound polynomial from the stored coefficients, re-runs the
    coefficient and grid feasibility checks against a freshly parsed
    kernel, recomputes both bound forms, and replays the quadrature
    exactness test.  Returns a report with an overall ``ok`` flag; nothing
    in the pipeline is trusted except the JSON itself.
    """
    from .bounds import COEFF_TOL, DEFAULT_GRID, GAP_TOL, _feasibility_grid
    from .orthopoly import gegenbauer_table

    n = int(doc["inputs"]["n"])
    M = float(doc["inputs"]["M"])
    pot = parse_potential(doc["inputs"]["potential"], n)
    f = GegenPoly(n, np.array(doc["coefficients"]["f"]))
    s = float(doc["inputs"]["s"])
    nodes = np.array(doc["quadrature"]["nodes"])
    weights = np.array(doc["quadrature"]["weights"])
    L = float(doc["quadrature"]["L"])
    m = int(doc["quadrature"]["m"])

    max_interior = float(np.max(f.coeffs[1 : m + 1]))
    grid = _feasibility_grid(s, nodes, DEFAULT_GRID)
    min_gap = float(np.min(f(grid) - pot(grid)))
    value = M * (float(f.coeffs[0]) * M - f.at_one())
    quad_form = M * (M / L - 1.0) * f.at_one() + M * M * float(np.dot(weights, pot(nodes)))
    table = gegenbauer_table(n, m, nodes)
    target = np.full(m + 1, -1.0 / L)
    target[0] += 1.0
    residual = float(np.max(np.abs(table @ weights - target)))
    stored = float(doc["bounds"]["uub"])
    report = {
        "max_interior_coeff": max_interior,
        "min_gap": min_gap,
        "bound_recomputed": value,
        "bound_stored": stored,
        "forms_agree": abs(value - quad_form) <= 1e-10 * max(1.0, abs(value)),
        "matches_stored": abs(value - stored) <= 1e-10 * max(1.0, abs(stored)),
        "quadrature_residual": residual,
    }
    report["ok"] = bool(
        max_interior <= COEFF_TOL
        and min_gap >= -GAP_TOL
        and report["forms_agree"]
        and report["matches_stored"]
        and residual <= 1e-8
    )
    return report


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))


def _print_cert_text(cert: BoundCertificate) -> None:
    quad = cert.quad
    print(f"n = {cert.dim}  M = {_fmt(cert.M)}  s = {_fmt(cert.s)}  potential = {cert.potential.label}")
    tie = f" (tie with m = {quad.interval.tie_with})" if quad.interval.tie_with else ""
    print(f"interval: m = {quad.m} (k = {quad.interval.k}, eps = {quad.interval.eps}){tie}")
    print(f"L_m(n, s) = {_fmt(quad.N)}")
    print(f"nodes   = [{', '.join(_fmt(x) for x in quad.nodes)}]")
    print(f"weights = [{', '.join(_fmt(x) for x in quad.weights)}]")
    degen = "  [degenerate]" if cert.degenerate else f"  (argmax i = {cert.lam_argmax})"
    print(f"lambda = {_fmt(cert.lam)}{degen}")
    feas = cert.feasibility
    print(
        f"feasibility: max f_i (i >= 1) = {feas.max_interior_coeff:.3e}, "
        f"min f - h = {feas.min_gap:.3e} on {feas.grid_size} points"
    )
    print(f"uub = {_fmt(cert.uub_value)}")


def cmd_bound(args) -> int:
    n = args.dim
    pot = parse_potential(args.potential, n)
    s = _parse_separation(args.separation, n)
    if args.points < 2:
        raise ValueError(f"M must be at least 2, got {args.points}")
    cert = uub(n, args.points, s, pot)
    if args.format == "json":
        _emit_json(certificate_to_dict(cert))
    else:
        _print_cert_text(cert)
    return 0


def cmd_strip(args) -> int:
    n = args.dim
    pot = parse_potential(args.potential, n)
    s = _parse_separation(args.separation, n)
    if args.points < 2:
        raise ValueError(f"M must be at least 2, got {args.points}")
    es = strip(n, args.points, s, pot)
    if args.format == "json":
        _emit_json(strip_to_dict(es))
    else:
        _print_cert_text(es.uub_cert)
        print(f"ulb = {_fmt(es.ulb)}  (r = {_fmt(es.ulb_rule.s)}, m = {es.ulb_rule.m})")
        print(f"strip = [{_fmt(es.ulb)}, {_fmt(es.uub)}]" + ("  [sharp]" if es.sharp else ""))
    return 0


def _parse_generate(spec: str):
    name, sep, arg = spec.partition(":")
    if not sep:
        return generate(name)
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"bad code dimension {arg!r}") from None
    return generate(name, n)


def cmd_verify(args) -> int:
    code = load_code(args.code) if args.code else _parse_generate(args.generate)
    pot = parse_potential(args.potential, code.dim)
    verdict = verify_strip(code, pot)
    es = verdict.strip
    if args.format == "json":
        doc = strip_to_dict(es)
        doc["verify"] = {
            "M": verdict.size,
            "separation": verdict.separation,
            "energy": verdict.energy,
            "inside": verdict.inside,
            "attains_uub": verdict.attains_uub,
            "attains_ulb": verdict.attains_ulb,
            "nodes_cover_products": verdict.nodes_cover_products,
            "moments": verdict.moments.tolist(),
        }
        _emit_json(doc)
    else:
        print(f"n = {verdict.dim}  M = {verdict.size}  s(C) = {_fmt(verdict.separation)}  "
              f"potential = {pot.label}")
        print(f"energy = {_fmt(verdict.energy)}")
        print(f"strip  = [{_fmt(es.ulb)}, {_fmt(es.uub)}]" + ("  [sharp]" if es.sharp else ""))
        marks = []
        if verdict.attains_ulb:
            marks.append("attains ulb")
        if verdict.attains_uub:
            marks.append("attains uub")
        if verdict.nodes_cover_products:
            marks.append("inner products on quadrature nodes")
        status = "inside strip" if verdict.inside else "OUTSIDE STRIP"
        print(f"verdict: {status}" + (f" ({'; '.join(marks)})" if marks else ""))
    if not verdict.inside:
        raise CertificationError("code energy falls outside its certified strip")
    return 0


def _table_row(n: int, potential_spec: str) -> dict:
    pot = parse_potential(potential_spec, n)
    m_lo, m_hi = KISSING_RANGES.get(n, (n + 1, n + 1))
    cert_lo = uub(n, m_lo, 0.5, pot)
    ulb_lo = ulb(n, m_lo, pot)[0]
    if m_hi == m_lo:
        cert_hi, ulb_hi = cert_lo, ulb_lo
    else:
        cert_hi = uub(n, m_hi, 0.5, pot)
        ulb_hi = ulb(n, m_hi, pot)[0]
    return {
        "n": n,
        "M_lo": m_lo,
        "M_hi": m_hi,
        "m": cert_lo.quad.m,
        "L": cert_lo.quad.N,
        "ulb_lo": ulb_lo,
        "ulb_hi": ulb_hi,
        "uub_lo": cert_lo.uub_value,
        "uub_hi": cert_hi.uub_value,
    }


def table_rows(nmin: int = 2, nmax: int = 10, potential_spec: str = "newton") -> list[dict]:
    """Energy table across the kissing ranges at s = 1/2, one row per n."""
    if nmin < 2 or nmax < nmin:
        raise ValueError(f"bad dimension range {nmin}..{nmax}")
    return [_table_row(n, potential_spec) for n in range(nmin, nmax + 1) if n in KISSING_RANGES]


def cmd_table(args) -> int:
    rows = table_rows(args.nmin, args.nmax, args.potential)
    if args.format == "json":
        _emit_json({"meta": {"tool": "sphenergy", "version": __version__, "schema": 1},
                    "potential": args.potential, "rows": rows})
        return 0
    def span(lo, hi):
        return _fmt(lo) if lo == hi else f"{_fmt(lo)}..{_fmt(hi)}"
    print(f"{'n':>3} {'M':>10} {'m':>3} {'L_m(n,1/2)':>12} {'ulb':>18} {'uub':>18}")
    for r in rows:
        mm = str(r["M_lo"]) if r["M_lo"] == r["M_hi"] else f"{r['M_lo']}..{r['M_hi']}"
        print(f"{r['n']:>3} {mm:>10} {r['m']:>3} {_fmt(r['L']):>12} "
              f"{span(r['ulb_lo'], r['ulb_hi']):>18} {span(r['uub_lo'], r['uub_hi']):>18}")
    return 0


def cmd_testfn(args) -> int:
    n = args.dim
    if args.jmax < 1:
        raise ValueError(f"--jmax must be at least 1, got {args.jmax}")
    s = _parse_separation(args.separation, n)
    report = test_functions(n, s, args.jmax)
    if args.format == "json":
        _emit_json({
            "meta": {"tool": "sphenergy", "version": __version__, "schema": 1},
            "inputs": {"n": n, "s": report.s, "jmax": args.jmax},
            "m": report.m,
            "threshold": report.threshold,
            "values": [[j, v] for j, v in report.values],
            "optimal_in_range": report.optimal_in_range,
            "first_negative": report.first_negative,
        })
        return 0
    print(f"n = {n}  s = {_fmt(report.s)}  m = {report.m}  sign test from j = {report.threshold}")
    for j, v in report.values:
        print(f"R_{j} = {_fmt(v)}")
    if report.optimal_in_range:
        print(f"verdict: optimal in range (R_j >= 0 for {report.threshold} <= j <= {args.jmax})")
    else:
        print(f"verdict: not settled (R_{report.first_negative} < 0)")
    return 0


_DISPATCH = {
    "bound": cmd_bound,
    "strip": cmd_strip,
    "verify": cmd_verify,
    "table": cmd_table,
    "testfn": cmd_testfn,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        return _DISPATCH[args.command](args)
    except InfeasibleClassError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (CertificationError, NumericsError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, InfiniteEnergyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
