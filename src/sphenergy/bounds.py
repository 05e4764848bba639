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
before the costlier work:

1. the quadrature's weights and exactness, and the node polynomial's
   Gegenbauer coefficients (all positive);
2. the node residual, f = h at the nodes, read from the quadrature's own
   node table;
3. the two grid gates, on one feasibility grid and one table of P_j
   there: the node polynomial <= 0 on [-1, s] (up to ``POSITIVITY_TOL``
   of its scale), then f_i <= 0 for i >= 1 and f >= h;
4. agreement of the two bound forms.

A class refused before the grid gates never builds the grid table.

``certificate_to_dict``/``strip_to_dict`` write a certificate as JSON, and
``recheck_certificate`` re-runs the gates of ``uub`` on the stored numbers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import CertificationError, InfeasibleClassError
from .levenshtein import (
    EXACTNESS_TOL,
    QuadratureRule,
    exactness_residual,
    levenshtein_poly,
    quadrature,
    solve_cardinality,
)
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

# Grid tolerance for f - h >= 0 and coefficient tolerance for f_i <= 0; the
# largest value of the node polynomial on the grid, over its scale
# max(1, max |f_m|), that counts as <= 0.
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
SHARP_TOL = 1e-9
# ``strip``'s slack for ulb above uub, relative to max(1, |uub|), and the
# absolute slack below 0 of a negative R_j in ``test_functions``.
INVERSION_TOL = 1e-9
SIGN_TOL = 1e-9


def _sharp_slack(L: float) -> float:
    return SHARP_TOL * max(1.0, L)


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
    if max(z) >= 1.0 or min(z) < -1.0:
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

    lambda = max over 1 <= i <= deg(g) of g_i / l_i, where l_i > 0 are the
    Gegenbauer coefficients of the node polynomial.  Ties resolve to the
    smallest index.  A constant interpolant, or one whose interior
    coefficients are all nonpositive already, yields the degenerate choice
    lambda = 0 (f = g_T is feasible on its own).
    """
    lcoef = lev.coeffs
    if g.dim != lev.dim:
        raise ValueError("interpolant and node polynomial live in different dimensions")
    dg = g.degree
    if dg > lcoef.size - 1:
        raise ValueError(f"interpolant degree {dg} exceeds node polynomial degree {lcoef.size - 1}")
    if dg < 1:
        return LambdaChoice(0.0, 0, True)
    ratios = g.coeffs[1 : dg + 1] / lcoef[1 : dg + 1]
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
) -> tuple[float, np.ndarray]:
    # table[j] = P_j(nodes) for j up to at least deg f, C-contiguous, so
    # f.coeffs @ table[:len] is f(nodes) as GegenPoly.__call__ computes it.
    h_vals = pot(nodes)
    f_vals = f.coeffs @ table[: f.coeffs.size]
    res = float((abs(f_vals - h_vals) / np.maximum(1.0, abs(h_vals))).max())
    return res, h_vals


def _grid_table(n: int, s: float, nodes: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    # The feasibility grid and P_0..P_degree on it, C-contiguous, so
    # p.coeffs @ table is p(grid) as GegenPoly.__call__ computes it.
    grid = _feasibility_grid(s, nodes)
    return grid, gegenbauer_table(n, degree, grid)


def _check_feasibility(f: GegenPoly, pot: Potential, grid: np.ndarray, table: np.ndarray) -> FeasibilityReport:
    # Every f_i with i >= 1; a constant f has none, and passes.
    max_interior = float(f.coeffs[1:].max(initial=-math.inf))
    min_gap = float((f.coeffs @ table - pot(grid)).min())
    passed = max_interior <= COEFF_TOL and min_gap >= -GAP_TOL
    return FeasibilityReport(max_interior, min_gap, grid.size, passed)


def _bound_forms(f: GegenPoly, M: float, L: float, weights, h_vals) -> tuple[float, float]:
    # The quadrature form, which is the bound reported, and the value form.
    f_one = f.at_one()
    value_form = M * (float(f.coeffs[0]) * M - f_one)
    quad_form = M * (M / L - 1.0) * f_one + M * M * float(np.dot(weights, h_vals))
    return quad_form, value_form


def _agree(value: float, other: float) -> bool:
    return abs(value - other) <= FORMS_TOL * max(1.0, abs(value))


def uub(n: int, M: float, s: float, pot: Potential) -> BoundCertificate:
    """Universal upper bound on E_h for M points with separation at most s.

    Requires M <= L_m(n, s), up to the relative slack ``SHARP_TOL`` that
    also decides sharpness in ``strip``.
    """
    M = float(M)
    if not M >= 2.0:
        raise ValueError(f"cardinality must be at least 2, got {M!r}")
    quad = quadrature(n, s)
    L = quad.N
    if M > L + _sharp_slack(L):
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

    node_res, h_vals = _node_residual(f, quad.table, pot, quad.nodes)
    if node_res > NODE_TOL:
        raise CertificationError(f"interpolation residual {node_res:.3e} at the nodes")

    grid, table = _grid_table(n, quad.s, quad.nodes, quad.m)
    lev_vals = lev.coeffs @ table
    lev_max = float(lev_vals.max())
    # Below POSITIVITY_TOL the scale max(1, max |lev|) cannot change the verdict.
    if lev_max > POSITIVITY_TOL and lev_max > POSITIVITY_TOL * max(1.0, float(abs(lev_vals).max())):
        raise CertificationError(f"node polynomial is positive on [-1, s]: max {lev_max:.3e}")
    feas = _check_feasibility(f, pot, grid, table)
    if not feas.passed:
        raise CertificationError(
            f"feasibility failed: max interior coefficient {feas.max_interior_coeff:.3e}, "
            f"min gap {feas.min_gap:.3e} on {feas.grid_size} points"
        )

    value, value_form = _bound_forms(f, M, L, quad.weights, h_vals)
    if not _agree(value, value_form):
        raise CertificationError(
            f"bound forms disagree: {value!r} vs {value_form!r}"
        )
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
    ulb above uub by more than ``INVERSION_TOL`` * max(1, |uub|) raises CertificationError."""
    cert = uub(n, M, s, pot)
    low, rule = ulb(n, M, pot)
    if low > cert.uub_value + INVERSION_TOL * max(1.0, abs(cert.uub_value)):
        raise CertificationError(
            f"strip is inverted: ulb {low!r} exceeds uub {cert.uub_value!r}"
        )
    sharp = abs(cert.quad.N - float(M)) <= _sharp_slack(cert.quad.N)
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


def recheck_certificate(doc: dict) -> dict:
    """Re-run the gates of ``uub`` and ``quadrature``, through the same code,
    on the numbers a ``certificate_to_dict`` document stores; ``ok`` is the verdict."""
    inputs, rule = doc["inputs"], doc["quadrature"]
    n, M, s = int(inputs["n"]), float(inputs["M"]), float(inputs["s"])
    m, L = int(rule["m"]), float(rule["L"])
    nodes, weights = np.array(rule["nodes"], dtype=float), np.array(rule["weights"], dtype=float)
    pot = parse_potential(inputs["potential"], n)
    f = GegenPoly(n, doc["coefficients"]["f"])
    table = gegenbauer_table(n, max(m, f.coeffs.size - 1), nodes)
    node_res, h_vals = _node_residual(f, table, pot, nodes)
    feas = _check_feasibility(f, pot, *_grid_table(n, s, nodes, f.coeffs.size - 1))
    value, value_form = _bound_forms(f, M, L, weights, h_vals)
    residual = exactness_residual(table[: m + 1], weights, L)
    stored = float(doc["bounds"]["uub"])
    report = {
        "node_residual": node_res,
        "max_interior_coeff": feas.max_interior_coeff,
        "min_gap": feas.min_gap,
        "grid_size": feas.grid_size,
        "bound_recomputed": value,
        "bound_stored": stored,
        "forms_agree": _agree(value, value_form),
        "matches_stored": _agree(value, stored),
        "quadrature_residual": residual,
    }
    report["ok"] = bool(node_res <= NODE_TOL and feas.passed and residual <= EXACTNESS_TOL
                        and report["forms_agree"] and report["matches_stored"])
    return report


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
    threshold = 2 * rule.interval.k + rule.interval.eps
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
