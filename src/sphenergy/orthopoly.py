"""Gegenbauer and Jacobi polynomial machinery.

Every polynomial that the bound pipeline manipulates is stored by its
coefficients in the Gegenbauer basis {P_i^{(n)}} attached to the sphere
S^{n-1}, normalized so that P_i^{(n)}(1) = 1.  Products with linear
factors are expanded with the three-term linearization

    t * P_i = ((i + n - 2) * P_{i+1} + i * P_{i-1}) / (2i + n - 2),

so coefficient arithmetic never leaves the basis; the monomial basis is
not used anywhere.  Derivatives shift the dimension by two:

    d/dt P_i^{(n)} = i (i + n - 2) / (n - 1) * P_{i-1}^{(n+2)}.

Coefficient arithmetic (products of linear factors, divided differences,
Newton-to-Gegenbauer resynthesis) runs on Python lists of floats: at most
MAX_DEGREE + 1 coefficients, where a loop over numpy scalars costs more in
dispatch than in arithmetic.  The coefficients become an ndarray once, when
a ``GegenPoly`` is built.  Evaluation on grids and on blocks of inner
products runs on ndarrays, through the one recurrence ``gegenbauer_terms``,
P_{i+1} = a_i (t P_i) - b_i P_{i-1}.  For an ndarray argument a step is
four in-place passes, and P_j goes into row j % R of a table of R rows:
``gegenbauer_table`` passes its own table of i_max + 1 rows, which it
keeps; streamed alone, the terms take turns in a ring of R = 3 rows, so a
yielded array is overwritten three steps later and a caller that keeps
terms must copy them.  A table at a handful of points (the quadrature
nodes) is cheaper on plain floats, one point at a time, which rounds
exactly like the ndarray path.

The three-term relation is tabulated once per dimension (``_three_term``):
its integer factors as floats, and the ratios a_i, b_i derived from them.
Each entry is the correctly rounded value of the same integer expression,
so every result is bitwise what inline arithmetic gives.

Zeros of Jacobi polynomials P_i^{(a,b)} supply the interval endpoints
and quadrature nodes.  They are the eigenvalues of the symmetric
tridiagonal Jacobi matrix built from the monic three-term recurrence
(Golub and Welsch, Math. Comp. 23, 1969), computed by one dense
symmetric eigensolve.  The matrix is built once per pair (a, b) and
degree, and kept read-only (``_jacobi_matrix``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "GegenPoly",
    "JacobiParams",
    "eval_gegenbauer",
    "gegenbauer_table",
    "gegenbauer_terms",
    "jacobi_zeros",
    "greatest_zero",
    "product_to_gegen",
]

# The one degree limit of the package: double precision keeps the
# recurrences accurate in this range, and the three-term table here, and
# ``levenshtein.MAX_INTERVAL``, are sized from it.
MAX_DEGREE = 64


def _check_dim(n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def _check_degree(i) -> int:
    if not isinstance(i, (int, np.integer)) or i < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {i!r}")
    if i > MAX_DEGREE:
        raise ValueError(f"degree {i} exceeds the supported maximum {MAX_DEGREE}")
    return int(i)


@lru_cache(maxsize=None)
def _three_term(n: int) -> tuple[tuple[float, ...], ...]:
    """The three-term relation t P_i = (u_i P_{i+1} + w_i P_{i-1}) / d_i of dimension n.

    u_i = i + n - 2, w_i = i and d_i = 2i + n - 2 as floats for i = 0 .. MAX_DEGREE,
    and the ratios (a_i, b_i) = (d_i / u_i, w_i / u_i) of ``gegenbauer_terms`` for
    i = 1 .. MAX_DEGREE - 1.  Small integers convert exactly, so every float
    quotient here, and ``ci * u_i / d_i`` in ``_mul_linear``, rounds as with the ints.
    """
    i = range(MAX_DEGREE + 1)
    ups, downs, ds = (tuple(float(j + n - 2) for j in i), tuple(map(float, i)),
                      tuple(float(2 * j + n - 2) for j in i))
    return ups, downs, ds, tuple((ds[j] / ups[j], downs[j] / ups[j]) for j in range(1, MAX_DEGREE))


def gegenbauer_terms(n: int, i_max: int, t, rows=None):
    """Yield P_1^{(n)}(t), ..., P_{i_max}^{(n)}(t) by the forward recurrence

        P_{i+1} = a_i * (t * P_i) - b_i * P_{i-1},
        a_i = (2i + n - 2) / (i + n - 2),  b_i = i / (i + n - 2).

    P_0 = 1 is left to the caller.  t may be a float, which keeps the whole
    recurrence in plain Python floats, or an ndarray; both paths round the
    same operations in the same order, so they agree bitwise.  P_1 is t
    itself.  For an ndarray each later step makes four in-place passes and
    writes P_j, j >= 2, into rows[j % len(rows)]: ``rows`` is the caller's
    array of shape (i_max + 1, *t.shape), whose rows the caller keeps, or,
    when it is not given, a ring of three rows of t's shape, so the array
    yielded as P_j is overwritten while P_{j+3} is computed and a caller
    that keeps a term past the next two steps must copy it.  t is never
    written.  i_max is at most ``MAX_DEGREE``.
    """
    if i_max < 1:
        return
    if i_max > MAX_DEGREE:  # cheaper than the full guard on this hot path
        _check_degree(i_max)
    ratios = _three_term(n)[-1][: i_max - 1]
    yield t
    if not isinstance(t, np.ndarray):
        prev, cur = 1.0, t
        for a, b in ratios:
            prev, cur = cur, a * (t * cur) - b * prev
            yield cur
        return
    # Step i writes t * P_i, then P_{i+1}, into rows[(i + 1) % len(rows)], which
    # in a ring of three held P_{i-2}, and b_i * P_{i-1} into one spare buffer.
    if rows is None:
        rows = np.empty((3, *t.shape))
    spare = np.empty_like(t, dtype=float)
    prev, cur = 1.0, t
    for i, (a, b) in enumerate(ratios, 1):
        new = rows[(i + 1) % len(rows), ...]  # a view, also for 0-d t
        np.multiply(t, cur, out=new)
        new *= a
        new -= np.multiply(b, prev, out=spare)
        prev, cur = cur, new
        yield new


def gegenbauer_table(n: int, i_max: int, t) -> np.ndarray:
    """Stack P_0^{(n)}(t), ..., P_{i_max}^{(n)}(t) along a new leading axis.

    t may be a scalar or any ndarray; the result has shape (i_max + 1, *t.shape)
    and is C-contiguous.  The recurrence writes each term straight into its row.
    """
    n = _check_dim(n)
    i_max = _check_degree(i_max)
    t = np.asarray(t, dtype=float)
    out = np.empty((i_max + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if i_max:
        out[1] = t
    for _ in gegenbauer_terms(n, i_max, t, out):
        pass
    return out


def eval_gegenbauer(n: int, i: int, t):
    """P_i^{(n)}(t), normalized so P_i^{(n)}(1) = 1: row i of
    ``gegenbauer_table(n, i, t)``, a float for a scalar t."""
    row = gegenbauer_table(n, i, t)[-1]
    return float(row) if row.ndim == 0 else row


class JacobiParams(NamedTuple("JacobiParams", [("a", float), ("b", float)])):
    """Exponent pair (a, b) of a Jacobi weight (1-t)^a (1+t)^b."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not (a > -1.0 and b > -1.0):
            raise ValueError(f"Jacobi exponents must exceed -1, got {(a, b)}")
        return super().__new__(cls, a, b)


@lru_cache(maxsize=None)
def _jacobi_matrix(a: float, b: float, i: int) -> tuple[np.ndarray, tuple[float, ...], tuple[float, ...]]:
    """The i x i Jacobi matrix of P_i^{(a,b)}, read-only, with the
    alpha_0..alpha_{i-1} and beta_1..beta_{i-1} of its monic recurrence.

    pi_{j+1}(t) = (t - alpha_j) pi_j(t) - beta_j pi_{j-1}(t), where pi_j is
    P_j^{(a,b)} divided by its (positive) leading coefficient.  The matrix
    has the alphas on its diagonal and sqrt(beta) on both off-diagonals; i >= 1.
    """
    s = [2 * j + a + b for j in range(i)]
    alpha = tuple((b - a) / (a + b + 2) if j == 0 else (b * b - a * a) / (s[j] * (s[j] + 2)) for j in range(i))
    # beta_1 is written with (1 + a + b) cancelled, which vanishes for a + b = -1.
    beta = tuple(4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b)) if j == 1 else
                 4 * j * (j + a) * (j + b) * (j + a + b) / (s[j] * s[j] * (s[j] + 1) * (s[j] - 1)) for j in range(1, i))
    off = np.sqrt(beta)
    T = np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)
    T.setflags(write=False)
    return T, alpha, beta


def jacobi_zeros(p: JacobiParams, i: int, fixed: float | None = None) -> np.ndarray:
    """All zeros of P_i^{(a,b)} in increasing order, as Jacobi-matrix eigenvalues.

    With ``fixed`` given, the last diagonal entry of the Jacobi matrix is
    shifted by c = pi_i(fixed) / pi_{i-1}(fixed), so the result is the zeros
    of pi_i - c pi_{i-1}, one of which is ``fixed`` (the Gauss-Radau
    modification; Golub, SIAM Rev. 15, 1973).  The ratio recurrence for c
    needs pi_j(fixed) != 0 for j < i, which holds above the greatest zero
    of P_{i-1}^{(a,b)}.
    """
    i = _check_degree(i)
    if i == 0:
        return np.empty(0)
    T, alpha, beta = _jacobi_matrix(p.a, p.b, i)
    if fixed is not None:
        c = fixed - alpha[0]
        for j in range(1, i):
            c = fixed - alpha[j] - beta[j - 1] / c
        T = T.copy()
        T[-1, -1] += c
    return np.linalg.eigvalsh(T)


def greatest_zero(p: JacobiParams, i: int) -> float:
    """Greatest zero of P_i^{(a,b)}; by convention -1 for i = 0."""
    i = _check_degree(i)
    if i == 0:
        return -1.0
    return float(jacobi_zeros(p, i)[-1])


class GegenPoly(NamedTuple("GegenPoly", [("dim", int), ("coeffs", np.ndarray)])):
    """A polynomial held as coefficients over {P_i^{(n)}}, index = degree.

    ``coeffs`` is a read-only copy of the coefficients given.  Trailing zero
    coefficients are allowed, and every stored coefficient counts: no size
    of coefficient is small enough to drop.
    """

    __slots__ = ()

    def __new__(cls, dim: int, coeffs):
        _check_dim(dim)
        c = np.array(coeffs, dtype=float, ndmin=1)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        _check_degree(c.size - 1)
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        return super().__new__(cls, dim, c)

    def __call__(self, t):
        table = gegenbauer_table(self.dim, self.coeffs.size - 1, t)
        out = (self.coeffs @ table.reshape(self.coeffs.size, -1)).reshape(table.shape[1:])
        return out if np.ndim(out) else float(out)

    def deriv(self, t):
        # d/dt P_i^{(n)} = i (i + n - 2) / (n - 1) * P_{i-1}^{(n+2)}.
        n, c = self.dim, self.coeffs
        i = np.arange(1, c.size)
        shifted = c[1:] * (i * (i + n - 2)) / (n - 1)
        return GegenPoly(n + 2, shifted if shifted.size else [0.0])(t)

    def at_one(self) -> float:
        # P_i^{(n)}(1) = 1 for every i.
        return float(self.coeffs.sum())


def _mul_linear(n: int, coeffs: list[float], root: float) -> list[float]:
    """Coefficients of (t - root) * f, staying in the Gegenbauer basis.

    Plain floats in and out; at most MAX_DEGREE + 1 coefficients in.  Each
    output collects, in this order, the up term of i - 1, -root * c_i and
    the down term of i + 1; i = 0 has no down term and an up factor of
    exactly 1, which n = 2 (2i + n - 2 = 0) needs spelled out.
    """
    out = [0.0] * (len(coeffs) + 1)
    ups, downs, ds, _ = _three_term(n)
    for i, ci in enumerate(coeffs):
        if i == 0:
            out[1] += ci
        else:
            d = ds[i]
            out[i + 1] += ci * ups[i] / d
            out[i - 1] += ci * downs[i] / d
        out[i] -= ci * root
    return out


def _newton_to_gegen(n: int, z: list[float], newton: list[float]) -> GegenPoly:
    """The Newton form sum_j newton[j] prod_{i < j} (t - z[i]) over the
    Gegenbauer basis, by nested multiplication from the last coefficient
    down.  Plain floats in; z needs at least len(newton) - 1 entries."""
    coeffs = [newton[-1]]
    for j in range(len(newton) - 2, -1, -1):
        coeffs = _mul_linear(n, coeffs, z[j])
        coeffs[0] += newton[j]
    return GegenPoly(n, coeffs)


def product_to_gegen(n: int, roots) -> GegenPoly:
    """Expand the monic polynomial prod (t - r) over the Gegenbauer basis,
    multiplying the factors in the order given."""
    n = _check_dim(n)
    roots = [float(r) for r in roots]
    _check_degree(len(roots))
    return _newton_to_gegen(n, roots[::-1], [0.0] * len(roots) + [1.0])
