"""Universal upper and lower bounds on the energy of spherical codes.

Given a dimension n, a cardinality M and a separation s, the upper bound
comes from the polynomial

    f(t) = -lambda * f_m(t) + g_T(t),

where f_m is the monic Levenshtein node polynomial at (n, s), g_T is the
Hermite interpolant of the potential h on the node multiset T (the
quadrature's ``multiset``, in its order), and lambda
is the smallest multiplier that drives every Gegenbauer coefficient f_i,
i >= 1, to be nonpositive.  Feasibility demands f >= h on [-1, s]
(automatic for absolutely monotone h, checked on a dense grid) and
f_i <= 0 for i >= 1 (checked coefficientwise); then

    E_h(C) <= M (f_0 M - f(1)) = M (M / L_m(n,s) - 1) f(1)
              + M^2 sum_i rho_i h(alpha_i)

for every code C of M points with separation at most s.  ``uub`` reports
the right-hand (quadrature) form, which does not multiply the rounding
error of f_0 by M^2, and checks it against the left-hand (value) form.
The lower bound evaluates the quadrature at the separation r solving
L(n, r) = M; when M = L_m(n, s) the two bounds collapse and the
certificate is sharp.

``uub`` runs its gates from the cheapest up, so a refused class stops
before the costlier work.  Every tolerance gate is a row (gate, value,
allowed), and ``errors._require`` raises CertificationError at the first
row whose value is not at most its limit, NaN included.  A kernel gate's
limit is its tolerance times the certificate's one scale, max(|f_0|,
max |h| on the nodes): 2^k h is absolutely monotone whenever h is, and
every value the gates read is linear in h, so 2^k h gets the same
verdict.  In order:

1. the quadrature's rows (``levenshtein._node_rows``: k + eps nodes,
   the first -1 when eps = 1 and not below -1 when eps = 0, every gap
   positive, the last s; ``levenshtein._rule_rows``: the count of
   weights <= 0 against 0, exactness against ``EXACTNESS_TOL``), and the
   node polynomial's sign row (``levenshtein._sign_row``: the count of
   its Gegenbauer coefficients <= 0 against 0); none depends on h;
2. the node residual row, |f - h| / max(1, |h|) at each node against
   ``NODE_TOL``, read from the quadrature's own node table;
3. the scale, which must be a normal float (a kernel that underflows at
   the nodes leaves no relative limit to state);
4. on one feasibility grid and one table of P_j there: the node
   polynomial's maximum against ``POSITIVITY_TOL`` * max(1, max |f_m|),
   its own scale; the largest f_i, i >= 1, against ``COEFF_TOL`` * scale;
   the largest h - f against ``GAP_TOL`` * scale;
5. the difference of the two bound forms against ``FORMS_TOL`` * |uub|.

``strip`` adds the row of ulb against uub + ``INVERSION_TOL`` * |uub|.  A
class refused before the grid gates never builds the grid table.

``certificate_to_dict``/``strip_to_dict`` write a certificate as JSON, and
``recheck_certificate`` builds the same rows, and those of a strip's lower
side, from the stored numbers and returns them as its report.  ``bounds``
reads the shape of a rule on I_m only through ``levenshtein._node_rows``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import CertificationError, InfeasibleClassError, _failing, _require
from .levenshtein import QuadratureRule, _node_rows, _rule_rows, _sign_row, levenshtein_poly, quadrature, solve_cardinality
from .orthopoly import GegenPoly, _check_degree, _newton_to_gegen, gegenbauer_table
from .potentials import Potential, parse_potential

__all__ = [
    "LambdaChoice",
    "FeasibilityReport",
    "BoundCertificate",
    "EnergyStrip",
    "TestFunctionReport",
    "hermite_interpolant",
    "lambda_star",
    "uub",
    "ulb",
    "strip",
    "test_functions",
    "certificate_to_dict",
    "strip_to_dict",
    "recheck_certificate",
]

# Grid tolerance for f - h >= 0 and coefficient tolerance for f_i <= 0, both
# relative to the certificate's scale; the largest value of the node
# polynomial on the grid, over its scale max(1, max |f_m|), that counts as <= 0.
GAP_TOL = 1e-9
COEFF_TOL = 1e-12
POSITIVITY_TOL = 1e-10
DEFAULT_GRID = 2048
# Chebyshev points on [-1, 1] in ascending order, read-only: every
# feasibility grid is this one array mapped onto [-1, s].
_GRID_COSINES = np.cos(np.linspace(0.0, math.pi, DEFAULT_GRID))[::-1].copy()
_GRID_COSINES.setflags(write=False)
# Relative tolerances for f = h at the nodes and for the two bound forms.
NODE_TOL = 1e-10
FORMS_TOL = 1e-10
# Relative slack between M and L_m(n, s) computed in floating point: within
# it the class is sharp (M = L), beyond it on the high side infeasible.
# L >= D(n, 1) = 2, so the slack SHARP_TOL * L needs no floor.
SHARP_TOL = 1e-9
# ``strip``'s slack for ulb above uub, relative to |uub|, and the absolute
# slack below 0 of a negative R_j in ``test_functions``.
INVERSION_TOL = 1e-9
SIGN_TOL = 1e-9


def hermite_interpolant(n: int, pot: Potential, nodes) -> GegenPoly:
    """Hermite interpolant of the potential on a node multiset.

    Node multiplicity is at most 2 because the kernel supplies h' only: a
    doubled node matches h' there, and its two copies must be adjacent.
    The nodes are taken in the order given, h and h' read for the whole
    list, one array call each; a value of either that is not finite in
    binary64 raises CertificationError.  Newton's divided differences
    supply the coefficients, and the Newton form is resynthesized directly
    over the Gegenbauer basis.  Both run on plain floats: the table is kept
    as one column, overwritten top-down, whose head is the next Newton
    coefficient.  The table meets every pair of positions once, so it
    refuses the first equal pair that is not a pair of neighbours.
    """
    z = [float(t) for t in nodes]
    if not z:
        raise ValueError("node multiset must be nonempty")
    if not all(-1.0 <= t < 1.0 for t in z):
        raise ValueError("interpolation nodes must lie in [-1, 1)")
    d = len(z)
    _check_degree(d - 1)
    za = np.array(z)
    with np.errstate(over="ignore", invalid="ignore"):
        h, dh = pot(za), pot.deriv(za)
    bad = ~(np.isfinite(h) & np.isfinite(dh))
    if bad.any():
        raise CertificationError(f"kernel {pot.label} is not finite in binary64 at the node {z[int(bad.argmax())]!r}")
    col, slope = h.tolist(), dh.tolist()
    newton = [col[0]]
    for j in range(1, d):
        for i in range(d - j):
            if z[i + j] != z[i]:
                col[i] = (col[i + 1] - col[i]) / (z[i + j] - z[i])
            elif j == 1:
                col[i] = slope[i]
            else:
                raise ValueError("node multiplicity above 2 is not supported" if z.count(z[i]) > 2
                                 else "the two copies of a doubled node must be adjacent")
        newton.append(col[0])
    return _newton_to_gegen(n, z, newton)


class LambdaChoice(NamedTuple):
    value: float
    argmax: int
    degenerate: bool


def lambda_star(g: GegenPoly, lev: GegenPoly) -> LambdaChoice:
    """Smallest multiplier making every interior coefficient of f nonpositive.

    lambda = max over every stored index i >= 1 of g of g_i / l_i, where
    l_i > 0 are the Gegenbauer coefficients of the node polynomial: a
    coefficient of g is read however small it is, so that 2^k g gets 2^k
    lambda.  Ties resolve to the smallest index.  A constant interpolant,
    or one whose interior coefficients are all nonpositive already, yields
    the degenerate choice lambda = 0 (f = g_T is feasible on its own).
    """
    lcoef, size = lev.coeffs, g.coeffs.size
    if g.dim != lev.dim:
        raise ValueError("interpolant and node polynomial live in different dimensions")
    if size > lcoef.size:
        raise ValueError(f"interpolant degree {size - 1} exceeds node polynomial degree {lcoef.size - 1}")
    if size == 1:
        return LambdaChoice(0.0, 0, True)
    ratios = g.coeffs[1:] / lcoef[1:size]
    arg = int(ratios.argmax()) + 1
    lam = float(ratios[arg - 1])
    if lam <= 0.0:
        return LambdaChoice(0.0, arg, True)
    return LambdaChoice(lam, arg, False)


class FeasibilityReport(NamedTuple):
    """Outcome of the two feasibility checks on the bound polynomial."""

    max_interior_coeff: float
    min_gap: float
    grid_size: int
    passed: bool


class BoundCertificate(NamedTuple):
    """Everything needed to restate and recheck an upper-bound computation."""

    dim: int
    M: float
    s: float
    potential: Potential
    quad: QuadratureRule
    lev: GegenPoly
    interpolant: GegenPoly
    lam: float
    lam_argmax: int
    degenerate: bool
    f: GegenPoly
    uub_value: float
    value_form: float
    feasibility: FeasibilityReport


def _feasibility_grid(s: float, nodes: np.ndarray) -> np.ndarray:
    # Chebyshev-distributed points cluster near both ends of [-1, s], where
    # the gap f - h is smallest; the quadrature nodes (gap exactly zero)
    # are appended explicitly.  Both runs ascend, so a stable sort merges
    # them; dropping exact repeats then gives what np.unique gives, without
    # the numpy.ma import that np.unique makes.
    pts = np.concatenate([0.5 * (s - 1.0) + 0.5 * (s + 1.0) * _GRID_COSINES, nodes])
    pts.sort(kind="stable")
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def _node_residual(
    f: GegenPoly, table: np.ndarray, pot: Potential, nodes: np.ndarray
) -> tuple[tuple, np.ndarray]:
    # The row of max |f - h| / max(1, |h|) over the nodes, and h there.
    # table[j] = P_j(nodes) for j up to at least deg f, C-contiguous, so
    # f.coeffs @ table[:len] is f(nodes) as GegenPoly.__call__ computes it.
    h_vals = pot(nodes)
    f_vals = f.coeffs @ table[: f.coeffs.size]
    res = float((abs(f_vals - h_vals) / np.maximum(1.0, abs(h_vals))).max())
    return ("interpolation residual", res, NODE_TOL), h_vals


def _inversion_row(ulb_value: float, uub_value: float) -> tuple:
    return ("strip is inverted: ulb", ulb_value, uub_value + INVERSION_TOL * abs(uub_value))


def _gates(f: GegenPoly, lev: GegenPoly, pot: Potential, M: float, L: float, s: float,
           nodes: np.ndarray, weights: np.ndarray, h_vals: np.ndarray):
    """The gates after the node residual, cheapest first, as rows (gate,
    value, allowed), with the feasibility report and the bound's quadrature
    form, which is reported, and value form.  A scale that is not a normal
    float raises before the grid table is built.  The table of P_j on the
    grid is C-contiguous, so p.coeffs @ table is p(grid) as GegenPoly
    computes it."""
    scale = max(abs(float(f.coeffs[0])), float(abs(h_vals).max()))
    if not scale >= sys.float_info.min:
        raise CertificationError(f"kernel {pot.label} underflows at the nodes: scale {scale!r} is not a normal float")
    grid = _feasibility_grid(s, nodes)
    table = gegenbauer_table(f.dim, max(f.coeffs.size, lev.coeffs.size) - 1, grid)
    lev_vals = lev.coeffs @ table[: lev.coeffs.size]
    max_interior = float(f.coeffs[1:].max(initial=-math.inf))
    min_gap = float((f.coeffs @ table[: f.coeffs.size] - pot(grid)).min())
    f_one = f.at_one()
    value_form = M * (float(f.coeffs[0]) * M - f_one)
    value = M * (M / L - 1.0) * f_one + M * M * float(np.dot(weights, h_vals))
    rows = [
        ("node polynomial is positive on [-1, s]: max", float(lev_vals.max()),
         POSITIVITY_TOL * max(1.0, float(abs(lev_vals).max()))),
        ("feasibility failed: max interior coefficient", max_interior, COEFF_TOL * scale),
        ("feasibility failed: max h - f on the grid", -min_gap, GAP_TOL * scale),
        ("bound forms disagree by", abs(value - value_form), FORMS_TOL * abs(value)),
    ]
    feas = FeasibilityReport(max_interior, min_gap, grid.size, not _failing(rows[1:3]))
    return rows, feas, value, value_form


def uub(n: int, M: float, s: float, pot: Potential) -> BoundCertificate:
    """Universal upper bound on E_h for M points with separation at most s.

    Requires M <= L_m(n, s), up to the relative slack ``SHARP_TOL`` that
    also decides sharpness in ``strip``.
    """
    M = float(M)
    if not 2.0 <= M < math.inf:
        raise ValueError(f"cardinality must be finite and at least 2, got {M!r}")
    quad = quadrature(n, s)
    L = quad.N
    if M > L + SHARP_TOL * L:
        raise InfeasibleClassError(
            f"no code class: M = {M!r} exceeds L_{quad.m}({n}, {s:g}) = {L!r}"
        )
    lev = levenshtein_poly(quad)
    g = hermite_interpolant(n, pot, quad.multiset)
    lam, arg, degenerate = lambda_star(g, lev)
    coeffs = np.zeros(quad.m + 1)
    coeffs[: g.coeffs.size] = g.coeffs
    coeffs -= lam * lev.coeffs
    f = GegenPoly(n, coeffs)

    residual, h_vals = _node_residual(f, quad.table, pot, quad.nodes)
    _require([residual])
    rows, feas, value, value_form = _gates(f, lev, pot, M, L, quad.s, quad.nodes, quad.weights, h_vals)
    _require(rows)
    return BoundCertificate(
        dim=n,
        M=M,
        s=float(quad.s),
        potential=pot,
        quad=quad,
        lev=lev,
        interpolant=g,
        lam=lam,
        lam_argmax=arg,
        degenerate=degenerate,
        f=f,
        uub_value=value,
        value_form=value_form,
        feasibility=feas,
    )


def ulb(n: int, M: float, pot: Potential) -> tuple[float, QuadratureRule]:
    """Universal lower bound on E_h over all codes of M points in S^{n-1}.

    Solves L(n, r) = M and evaluates M^2 sum_i rho_i h(alpha_i) at the
    resulting quadrature; a sum that is not finite in binary64 raises
    CertificationError.
    """
    r, rule = solve_cardinality(n, M)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(M) ** 2 * float(np.dot(rule.weights, pot(rule.nodes)))
    if not math.isfinite(value):
        raise CertificationError(f"kernel {pot.label} gives the lower bound {value!r}, not finite in binary64")
    return value, rule


class EnergyStrip(NamedTuple):
    """The interval [ulb, uub] of possible energies for the class (n, M, s)."""

    ulb: float
    uub: float
    sharp: bool
    ulb_rule: QuadratureRule
    uub_cert: BoundCertificate


def strip(n: int, M: float, s: float, pot: Potential) -> EnergyStrip:
    """Two-sided energy strip; ``sharp`` flags M = L_m(n, s) within ``SHARP_TOL``, and
    ulb above uub by more than ``INVERSION_TOL`` * |uub| raises CertificationError."""
    cert = uub(n, M, s, pot)
    low, rule = ulb(n, M, pot)
    _require([_inversion_row(low, cert.uub_value)])
    sharp = abs(cert.quad.N - float(M)) <= SHARP_TOL * cert.quad.N
    return EnergyStrip(low, cert.uub_value, sharp, rule, cert)


DOC_META = {"tool": "sphenergy", "version": __version__, "schema": 2}


def certificate_to_dict(cert: BoundCertificate) -> dict:
    """Lossless JSON form of an upper-bound certificate."""
    quad = cert.quad
    return {
        "meta": dict(DOC_META),
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
            "nodes": list(quad.multiset),
            "gegenbauer": cert.interpolant.coeffs.tolist(),
        },
        "lambda": {
            "value": cert.lam,
            "argmax": cert.lam_argmax,
            "degenerate": cert.degenerate,
        },
        "coefficients": {
            "f": cert.f.coeffs.tolist(),
            "levenshtein": cert.lev.coeffs.tolist(),
        },
        "feasibility": cert.feasibility._asdict(),
        "bounds": {
            "uub": cert.uub_value,
            "uub_value_form": cert.value_form,
        },
    }


def strip_to_dict(es: EnergyStrip) -> dict:
    """``certificate_to_dict`` of the upper bound, plus the lower bound and its rule."""
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


def _stored_rule(n: int, doc: dict, name: str, degree: int, s: float):
    """Nodes, weights and the table of P_j, j up to max(m, degree), of the
    rule doc[name], and its rows: ``_node_rows`` on the stored m and the
    separation s the rule is built at, then ``quadrature``'s own rows.  A
    rule with fewer or more weights than nodes, or an upper rule without
    nodes, raises ValueError naming it."""
    m = int(doc[name]["m"])
    nodes, weights = (np.array(doc[name][key], dtype=float) for key in ("nodes", "weights"))
    # The upper rule's nodes give the node residual and the scale of the
    # gates; a lower rule with none sums to 0 and fails its count row.
    if nodes.shape != weights.shape or (name == "quadrature" and not nodes.size):
        raise ValueError(f"{name} stores {nodes.size} nodes and {weights.size} weights")
    table = gegenbauer_table(n, max(m, degree), nodes)
    rows = _node_rows(nodes, m, s) + _rule_rows(table[: m + 1], weights, float(doc[name]["L"]))
    return nodes, weights, table, rows


def recheck_certificate(doc: dict) -> dict:
    """Re-run the gates of ``uub`` and ``quadrature``, through the same code,
    on the numbers a ``certificate_to_dict`` document stores, and return
    them as ``gates``, the rows (gate, value, allowed), with ``ok``, the
    verdict of every row.  The stored rule's node rows are read at the
    stored s, and the stored bound adds its distance from the recomputed
    one.  A ``strip_to_dict`` document adds the rows of its lower side: the
    same rule rows on the stored lower rule at its stored r, prefixed
    "lower ", the stored ulb against M^2 sum_i rho_i h(alpha_i) on that
    rule, its L against M within ``SHARP_TOL``, and ``strip``'s inversion
    row.  A stored f whose scale is not a normal float raises
    CertificationError, as ``uub`` does."""
    inputs = doc["inputs"]
    n, M, s = int(inputs["n"]), float(inputs["M"]), float(inputs["s"])
    pot = parse_potential(inputs["potential"], n)
    f = GegenPoly(n, doc["coefficients"]["f"])
    lev = GegenPoly(n, doc["coefficients"]["levenshtein"])
    nodes, weights, table, rows = _stored_rule(n, doc, "quadrature", f.coeffs.size - 1, s)
    residual, h_vals = _node_residual(f, table, pot, nodes)
    gates, _, value, _ = _gates(f, lev, pot, M, float(doc["quadrature"]["L"]), s, nodes, weights, h_vals)
    stored = float(doc["bounds"]["uub"])
    rows += [_sign_row(lev), residual, *gates, ("stored bound disagrees by", abs(value - stored), FORMS_TOL * abs(value))]
    if "ulb_quadrature" in doc:
        low = doc["ulb_quadrature"]
        low_nodes, low_weights, _, low_rows = _stored_rule(n, doc, "ulb_quadrature", 0, float(low["r"]))
        low_value = M * M * float(np.dot(low_weights, pot(low_nodes)))
        stored_low = float(doc["bounds"]["ulb"])
        rows += [(f"lower {gate}", v, allowed) for gate, v, allowed in low_rows]
        rows += [
            ("stored lower bound disagrees by", abs(low_value - stored_low), FORMS_TOL * abs(low_value)),
            ("lower quadrature's L differs from M by", abs(float(low["L"]) - M), SHARP_TOL * M),
            _inversion_row(stored_low, stored),
        ]
    return {"gates": rows, "ok": not _failing(rows)}


class TestFunctionReport(NamedTuple):
    """Values R_j = 1/N + sum_i rho_i P_j(alpha_i) and the sign verdict.

    R_j vanishes for 1 <= j <= m by exactness.  Nonnegativity of every
    R_j with j >= 2k + eps certifies that no higher interval index can
    improve the bound at this separation; the verdict covers the computed
    range only, and a range that ends below ``threshold`` settles nothing.
    """

    dim: int
    s: float
    m: int
    threshold: int
    values: tuple[tuple[int, float], ...]
    optimal_in_range: bool
    first_negative: int | None


def test_functions(n: int, s: float, j_max: int) -> TestFunctionReport:
    """R_1, ..., R_{j_max} at (n, s); an R_j below -``SIGN_TOL`` counts as negative."""
    if not isinstance(j_max, (int, np.integer)) or j_max < 1:
        raise ValueError(f"j_max must be a positive integer, got {j_max!r}")
    rule = quadrature(n, s)
    table = gegenbauer_table(n, int(j_max), rule.nodes)
    sums = table @ rule.weights + 1.0 / rule.N
    threshold = rule.m + 1  # 2k + eps
    values = tuple((j, float(sums[j])) for j in range(1, int(j_max) + 1))
    bad = [j for j, v in values if j >= threshold and v < -SIGN_TOL]
    return TestFunctionReport(
        dim=int(n),
        s=float(rule.s),
        m=rule.m,
        threshold=threshold,
        values=values,
        optimal_in_range=not bad and j_max >= threshold,
        first_negative=bad[0] if bad else None,
    )
