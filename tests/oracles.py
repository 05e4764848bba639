"""Reference routes that tests check library results against.

Each one computes, by a slower or independent road, a quantity the library
computes itself; the library never calls them.
"""

import decimal
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi

from sphenergy.bounds import POSITIVITY_TOL, _feasibility_grid, hermite_interpolant, lambda_star
from sphenergy.levenshtein import ez_separation
from sphenergy.orthopoly import (
    GegenPoly,
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
    z = list(cert.quad.multiset)
    z.insert(z.index(spare) if spare in z else len(z), spare)  # beside its copy
    g = hermite_interpolant(cert.dim, cert.potential, z)
    lam = lambda_star(g, cert.lev).value
    f = GegenPoly(cert.dim, g.coeffs - lam * cert.lev.coeffs)
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


def exact_uub(cert):
    """f and the two bound forms of ``cert``'s class in exact rational
    arithmetic, on the certificate's own floats as exact dyadic rationals:
    the node multiset in the quadrature's order, h and h' there as
    ``pot(array)`` and ``pot.deriv(array)`` give them, L, the quadrature
    weights and h at the nodes.  Divided differences, the linearization
    recurrence of ``orthopoly._mul_linear`` with integer factors for both g
    and the node polynomial l, lambda = max g_i / l_i over 1..deg g (0 when
    that is not positive), f = g - lambda l, then M (f_0 M - f(1)) and
    M (M / L - 1) f(1) + M^2 sum_i rho_i h(alpha_i).  Returns the
    coefficients of f and the two forms, as Fractions.
    """
    n, M, pot = cert.dim, Fraction(cert.M), cert.potential
    z = cert.quad.multiset
    zq = [Fraction(t) for t in z]
    col = [Fraction(v) for v in pot(np.array(z)).tolist()]
    slope = [Fraction(v) for v in pot.deriv(np.array(z)).tolist()]
    newton = [col[0]]
    for j in range(1, len(z)):
        for i in range(len(z) - j):
            col[i] = slope[i] if z[i + j] == z[i] else (col[i + 1] - col[i]) / (zq[i + j] - zq[i])
        newton.append(col[0])

    def mul_linear(c, root):
        out = [Fraction(0)] * (len(c) + 1)
        out[1] += c[0]
        for i in range(1, len(c)):
            out[i + 1] += c[i] * Fraction(i + n - 2, 2 * i + n - 2)
            out[i - 1] += c[i] * Fraction(i, 2 * i + n - 2)
        for i, ci in enumerate(c):
            out[i] -= ci * root
        return out

    g = [newton[-1]]
    for j in range(len(newton) - 2, -1, -1):
        g = mul_linear(g, zq[j])
        g[0] += newton[j]
    lev = [Fraction(1)]
    for root in zq:
        lev = mul_linear(lev, root)
    deg = max((i for i, gi in enumerate(g) if gi), default=0)
    lam = max([Fraction(0)] + [g[i] / lev[i] for i in range(1, deg + 1)])
    f = [gi - lam * li for gi, li in zip(g + [Fraction(0)] * (len(lev) - len(g)), lev)]
    f_one = sum(f)
    h_nodes = pot(cert.quad.nodes).tolist()
    quad_sum = sum(Fraction(w) * Fraction(v) for w, v in zip(cert.quad.weights.tolist(), h_nodes))
    return f, M * (f[0] * M - f_one), M * (M / Fraction(cert.quad.N) - 1) * f_one + M * M * quad_sum


def exact_ulb(M, rule, pot):
    """M^2 sum_i rho_i h(alpha_i) in exact rational arithmetic on the rule's
    own floats: its weights, and h at its nodes as ``pot(array)`` gives it."""
    h_nodes = pot(rule.nodes).tolist()
    return Fraction(M) ** 2 * sum(Fraction(w) * Fraction(v) for w, v in zip(rule.weights.tolist(), h_nodes))


def decimal_string(q, digits=30):
    """The Fraction q rounded to ``digits`` significant digits, as a decimal
    string in scientific notation (trailing zeros kept)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return f"{decimal.Decimal(q.numerator) / q.denominator:.{digits - 1}e}"


def node_sign_on_linspace(lev, s):
    """Whether the node polynomial ``lev`` stays <= 0 on 257 equispaced points
    of [-1, s], up to ``POSITIVITY_TOL`` * max(1, max |value|): the same
    bound that ``uub`` applies on its Chebyshev feasibility grid."""
    vals = lev(np.linspace(-1.0, s, 257))
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


def jacobi_recurrence(a, b, i):
    """alpha_0..alpha_{i-1} and beta_1..beta_{i-1} of the monic Jacobi
    recurrence from their closed forms, as arrays over j = 0 .. i - 1."""
    j = np.arange(i, dtype=float)
    s = 2 * j + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (b * b - a * a) / (s * (s + 2))
        beta = 4 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1) * (s - 1))
    alpha[0] = (b - a) / (a + b + 2)
    if i > 1:  # (1 + a + b) cancelled, as it vanishes for a + b = -1
        beta[1] = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    return alpha, beta[1:]


def jacobi_zeros_diag(p, i, fixed=None):
    """Eigenvalues of the Jacobi matrix of P_i^{(a,b)} (shifted to have
    ``fixed`` as an eigenvalue when given), built with np.diag and fancy
    indexing from ``jacobi_recurrence``; i >= 1."""
    alpha, beta = jacobi_recurrence(p.a, p.b, i)
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
