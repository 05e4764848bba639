"""Reference routes that tests check library results against.

Each one computes, by a slower or independent road, a quantity the library
computes itself; the library never calls them.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi

from sphenergy.bounds import hermite_interpolant, lambda_star
from sphenergy.orthopoly import GegenPoly, eval_gegenbauer


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
    order: int
    grid_size: int
    max_rel_dev: float


def derivative_check(pot, order, grid):
    """Compare a kernel's analytic derivative of order 1 or 2 with central
    finite differences on a grid in [-1, 1)."""
    t = np.asarray(grid, dtype=float)
    step = 1e-5 * np.maximum(1.0, np.abs(t))
    step = np.minimum(step, 0.25 * (1.0 - t))
    up, dn = pot(t + step), pot(t - step)
    if order == 1:
        approx = (up - dn) / (2.0 * step)
        exact = np.asarray(pot.deriv(t), dtype=float)
    else:
        approx = (up - 2.0 * pot(t) + dn) / step**2
        exact = np.asarray(pot.deriv_p(t, 2), dtype=float)
    dev = np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))
    return DerivativeReport(order, t.size, float(np.max(dev)))


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
