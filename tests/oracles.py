"""Reference routes that tests check library results against.

Each one computes, by a slower or independent road, a quantity the library
computes itself; the library never calls them.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi

from sphenergy.bounds import POSITIVITY_TOL, _feasibility_grid, hermite_interpolant, lambda_star
from sphenergy.levenshtein import ez_separation
from sphenergy.orthopoly import (
    GegenPoly,
    _monic_recurrence,
    eval_gegenbauer,
    gegenbauer_table,
    gegenbauer_terms,
)


def _gauss_jacobi_estimate(n, f, i, order):
    x, w = roots_jacobi(order, (n - 3) / 2.0, (n - 3) / 2.0)
    pvals = eval_gegenbauer(n, i, x)
    num = float(np.sum(w * np.asarray(f(x), dtype=float) * pvals))
    den = float(np.sum(w * pvals * pvals))
    return num / den


def gegen_coefficient_integral(n, f, i):
    """Coefficient of P_i^{(n)} in the expansion of f, by weighted quadrature.

    Integrates f * P_i^{(n)} against (1 - t^2)^{(n-3)/2} on [-1, 1] and divides
    by the same integral of [P_i^{(n)}]^2, using Gauss-Jacobi rules at two
    orders as a convergence check.  f must accept ndarray arguments.
    """
    coarse = _gauss_jacobi_estimate(n, f, i, 128)
    fine = _gauss_jacobi_estimate(n, f, i, 192)
    assert abs(fine - coarse) <= 1e-10 * max(1.0, abs(fine)), (coarse, fine)
    return fine


class DerivativeReport(NamedTuple):
    grid_size: int
    max_rel_dev: float


def derivative_check(pot, grid):
    """Compare a kernel's analytic first derivative with central finite
    differences on a grid in [-1, 1)."""
    t = np.asarray(grid, dtype=float)
    step = 1e-5 * np.maximum(1.0, np.abs(t))
    step = np.minimum(step, 0.25 * (1.0 - t))
    approx = (pot(t + step) - pot(t - step)) / (2.0 * step)
    exact = np.asarray(pot.deriv(t), dtype=float)
    dev = np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))
    return DerivativeReport(t.size, float(np.max(dev)))


# Inner products of the 11-point dimension-5 code of Ermolaeva and Zinoviev
# beyond its separation, as printed in the source tables, with the pair
# multiplicities (over ordered pairs) attached by the construction.
EZ_N5_COSINES = (-0.22793, -0.553428, -0.89904)
_EZ_N5_MULTIPLICITIES = (70, 20, 10, 10)  # for (s, a, b, c)


def ez_energy_n5(pot):
    """Energy of the 11-point dimension-5 code, from its inner-product
    distribution (the separation is recomputed from its cubic; the other
    three cosines are the printed fixture values)."""
    cosines = (ez_separation(5),) + EZ_N5_COSINES
    return float(sum(mult * pot(t) for mult, t in zip(_EZ_N5_MULTIPLICITIES, cosines)))


def spare_node_bound(cert):
    """Interpolant g and bound M (f_0 M - f(1)) of ``cert``'s class with the
    spare simple node added to the interpolation multiset: -1 for odd m
    (eps = 0), a doubling of s for even m (eps = 1).  The extra node adds a
    multiple of the node polynomial to g, which lambda absorbs, so the bound
    is ``cert.uub_value`` up to rounding.
    """
    spare = -1.0 if cert.quad.interval.eps == 0 else cert.s
    g = hermite_interpolant(cert.dim, cert.potential, [*cert.lev.multiset, spare])
    lam = lambda_star(g, cert.lev).value
    f = GegenPoly(cert.dim, g.coeffs - lam * cert.lev.gegen.coeffs)
    return g, cert.M * (float(f.coeffs[0]) * cert.M - f.at_one())


def lp_upper(cert):
    """Polynomial f and value of the degree-m upper linear program on
    ``cert``'s own feasibility grid: minimize M (M f_0 - f(1)) over
    f = sum_{i <= m} f_i P_i with f >= h on the grid, f_i <= 0 for i >= 1
    and f_0 free, solved by HiGHS.  ``cert.f`` is one feasible point, so
    the value is at most ``cert.uub_value`` up to the gates' tolerances.
    """
    from scipy.optimize import linprog

    n, M, m = cert.dim, cert.M, cert.quad.m
    grid = _feasibility_grid(cert.s, cert.quad.nodes)
    table = gegenbauer_table(n, m, grid)
    # M f_0 - f(1), scaled by M after the solve: with the cost M times larger,
    # HiGHS stops on numerical difficulties at M = 196560.
    cost = np.full(m + 1, -1.0)
    cost[0] = M - 1.0
    res = linprog(
        cost,
        A_ub=-table.T,
        b_ub=-cert.potential(grid),
        bounds=[(None, None)] + [(None, 0.0)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return GegenPoly(n, res.x), M * float(res.fun)


def node_sign_on_linspace(lev):
    """Whether the node polynomial stays <= 0 on 257 equispaced points of
    [-1, s], up to ``POSITIVITY_TOL`` * max(1, max |value|): the same bound
    that ``uub`` applies on its Chebyshev feasibility grid."""
    vals = lev.gegen(np.linspace(-1.0, lev.s, 257))
    return float(np.max(vals)) <= POSITIVITY_TOL * max(1.0, float(np.max(np.abs(vals))))


def gegenbauer_terms_inline(n, i_max, t):
    """P_1 .. P_{i_max} at t by the three-term recurrence, with the ratios
    a_i and b_i computed in each step and no buffer reuse."""
    terms, prev, cur = [t], 1.0, t
    for i in range(1, i_max):
        a, b = (2 * i + n - 2) / (i + n - 2), i / (i + n - 2)
        prev, cur = cur, a * (t * cur) - b * prev
        terms.append(cur)
    return terms


def mul_linear_inline(n, coeffs, root):
    """Coefficients of (t - root) * f with the linearization factors computed
    from the integers in each step."""
    out = [0.0] * (len(coeffs) + 1)
    for i, ci in enumerate(coeffs):
        if ci == 0.0:
            continue
        if i == 0:
            out[1] += ci
        else:
            d = 2 * i + n - 2
            out[i + 1] += ci * (i + n - 2) / d
            out[i - 1] += ci * i / d
        out[i] -= ci * root
    return out


def jacobi_zeros_diag(p, i, fixed=None):
    """Eigenvalues of the Jacobi matrix of P_i^{(a,b)} (shifted to have
    ``fixed`` as an eigenvalue when given), built with np.diag and fancy
    indexing; i >= 1."""
    alpha, beta, _ = _monic_recurrence(p.a, p.b, i)
    c = 0.0
    if fixed is not None:
        al, be = alpha.tolist(), beta.tolist()
        c = fixed - al[0]
        for j in range(1, i):
            c = fixed - al[j] - be[j - 1] / c
    T = np.diag(alpha)
    T[-1, -1] += c
    j = np.arange(i - 1)
    T[j, j + 1] = T[j + 1, j] = np.sqrt(beta)
    return np.linalg.eigvalsh(T)


def lev_value_inline(n, interval, s):
    """L_m(n, s) with the binomial factor and the constant term computed from
    k and eps at every call, without the zero-denominator check."""
    k, eps = interval.k, interval.eps
    p = [1.0, *gegenbauer_terms(n, k + eps, s)]
    pk = p[k]
    if eps == 0:
        pk_prev = p[k - 1]
        denom = (1.0 - s) * pk
        ratio = (pk_prev - pk) / denom
        return math.comb(k + n - 3, k - 1) * ((2 * k + n - 3) / (n - 1) - ratio)
    pk_next = p[k + 1]
    denom = (1.0 - s) * (pk + pk_next)
    ratio = (1.0 + s) * (pk - pk_next) / denom
    return math.comb(k + n - 2, k) * ((2 * k + n - 1) / (n - 1) - ratio)
