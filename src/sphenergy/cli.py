"""Command-line front end.

Subcommands: bound, strip, verify, table, testfn.  The potential flag is
``-h`` (so ``--help`` prints usage), taken by all but testfn; text output
rounds to 6 significant digits while JSON output carries full double
precision and is byte-for-byte reproducible for identical flags (no
timestamps).

Exit codes: 0 success, 1 stdout was closed before the output was written
(the reader of a pipe exited first), 2 the class (n, M, s) is infeasible,
3 a certification check failed or the class lies beyond the last
supported interval I_m, m = ``MAX_INTERVAL``, 4 bad input (including a
``table`` range outside 2..10).
The certificate's JSON form and ``recheck_certificate`` live in ``bounds``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bounds import (
    DOC_META,
    BoundCertificate,
    certificate_to_dict,
    recheck_certificate,  # noqa: F401 - bench/workloads.py reads cli.recheck_certificate
    strip,
    strip_to_dict,
    test_functions,
    uub,
)
from .codes import generate, load_code, verify_strip
from .errors import CertificationError, InfeasibleClassError, NumericsError
from .levenshtein import ez_separation
from .potentials import parse_potential

__all__ = [
    "build_parser",
    "main",
    "console_main",
    "table_rows",
    "KISSING_RANGES",
]

# Known ranges for the kissing numbers (best lower and upper bounds for
# 2 <= n <= 10); `table` covers exactly these n, one row per range.
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
    # -h selects the kernel, so help is --help only.  argparse exits with
    # status 2 on bad flags; route that to exit code 4 instead, which is
    # reserved for input errors.
    def __init__(self, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this help message and exit")

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _add_format(sp, run):
    # The flag every subcommand takes, and the function that runs it.
    sp.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    sp.set_defaults(run=run)


def _add_shared(sp, run):
    # The flags of every subcommand that evaluates a kernel, that is, all but testfn.
    sp.add_argument("-h", "--potential", default="newton",
                    help="kernel: newton | riesz:a | gauss:a | log (default newton)")
    _add_format(sp, run)


def _add_class(sp, run, with_M: bool = True):
    # Without M the command is testfn, whose R_j depend on (n, s) alone: no -h.
    sp.add_argument("-n", "--dim", type=int, required=True, help="dimension of the ambient space")
    if with_M:
        sp.add_argument("-M", "--points", type=int, required=True, help="number of points (integer >= 2)")
    sp.add_argument("-s", "--separation", required=True,
                    help="maximal inner product, or 'auto-ez' for the (2n+1)-point separation")
    (_add_shared if with_M else _add_format)(sp, run)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sphenergy", description="Universal energy bounds for spherical codes.")
    p.add_argument("--version", action="version", version=f"sphenergy {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    _add_class(sub.add_parser("bound", help="upper bound for (n, M, s)"), cmd_bound)
    _add_class(sub.add_parser("strip", help="energy strip [ulb, uub] for (n, M, s)"), cmd_strip)

    v = sub.add_parser("verify", help="check a concrete code against its strip")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--code", help="path of a code file (one point per line)")
    src.add_argument("--generate", help="named code, e.g. simplex:4, icosahedron")
    _add_shared(v, cmd_verify)

    t = sub.add_parser("table", help="kissing-range energy table at s = 1/2")
    t.add_argument("--nmin", type=int, default=2)
    t.add_argument("--nmax", type=int, default=10)
    _add_shared(t, cmd_table)

    tf = sub.add_parser("testfn", help="test functions R_j at (n, s)")
    _add_class(tf, cmd_testfn, with_M=False)
    tf.add_argument("--jmax", type=int, required=True, help="largest index j to report")

    return p


def _parse_separation(raw: str, n: int) -> float:
    if raw == "auto-ez":
        return ez_separation(n)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"bad separation {raw!r}") from None


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
    m_lo, m_hi = KISSING_RANGES[n]
    lo = strip(n, m_lo, 0.5, pot)
    hi = lo if m_hi == m_lo else strip(n, m_hi, 0.5, pot)
    return {
        "n": n,
        "M_lo": m_lo,
        "M_hi": m_hi,
        "m": lo.uub_cert.quad.m,
        "L": lo.uub_cert.quad.N,
        "ulb_lo": lo.ulb,
        "ulb_hi": hi.ulb,
        "uub_lo": lo.uub,
        "uub_hi": hi.uub,
    }


def table_rows(nmin: int = 2, nmax: int = 10, potential_spec: str = "newton") -> list[dict]:
    """Energy table across the kissing ranges at s = 1/2, one row per n."""
    lo, hi = min(KISSING_RANGES), max(KISSING_RANGES)
    if not lo <= nmin <= nmax <= hi:
        raise ValueError(f"bad dimension range {nmin}..{nmax}: the table covers n = {lo}..{hi}")
    return [_table_row(n, potential_spec) for n in range(nmin, nmax + 1)]


def cmd_table(args) -> int:
    rows = table_rows(args.nmin, args.nmax, args.potential)
    if args.format == "json":
        label = parse_potential(args.potential, args.nmin).label
        _emit_json({"meta": DOC_META, "potential": label, "rows": rows})
        return 0
    def span(lo, hi):
        return _fmt(lo) if lo == hi else f"{_fmt(lo)}..{_fmt(hi)}"
    print(f"{'n':>3} {'M':>10} {'m':>3} {'L_m(n,1/2)':>12} {'ulb':>18} {'uub':>18}")
    for r in rows:
        print(f"{r['n']:>3} {span(r['M_lo'], r['M_hi']):>10} {r['m']:>3} {_fmt(r['L']):>12} "
              f"{span(r['ulb_lo'], r['ulb_hi']):>18} {span(r['uub_lo'], r['uub_hi']):>18}")
    return 0


def cmd_testfn(args) -> int:
    n = args.dim
    s = _parse_separation(args.separation, n)
    report = test_functions(n, s, args.jmax)
    if args.format == "json":
        _emit_json({
            "meta": DOC_META,
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
    elif report.first_negative is None:
        print(f"verdict: not settled (the sign test starts above --jmax {args.jmax})")
    else:
        print(f"verdict: not settled (R_{report.first_negative} < 0)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away; point stdout at devnull so that the
        # interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InfeasibleClassError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (CertificationError, NumericsError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
