"""Levenshtein intervals, bound values, node polynomials, and 1/N quadrature.

For each dimension n the half-open range [-1, 1) splits into closed
intervals I_m = [hi_{m-1}, hi_m], m = 1, 2, ..., where hi_0 = -1 and, for
m = 2k - 1 + eps, hi_m is the greatest zero of the node polynomial's
Jacobi polynomial Q_k = P_k^{((n-1)/2, eps + (n-3)/2)}: the separation at
which the Gauss-Radau shift below vanishes.  A separation s picks the
interval index m, the maximal-cardinality value L_m(n, s), and a quadrature

    f_0 = f(1) / L_m(n, s) + sum_i rho_i f(alpha_i)

exact for polynomials of degree at most m.  The nodes alpha_i are the roots
of (t + 1)^eps (Q_k(t) Q_{k-1}(s) - Q_k(s) Q_{k-1}(t)), with Q_{k-1} from
the same Jacobi pair; the largest node is s itself.

What depends on the interval alone is built once per (n, m) and cached:
the right end hi_m, one eigensolve that I_m and I_{m+1} share, and
L_m(n, .) with its binomial factor and constant term, which ``lev_value``,
``quadrature`` and the root search of ``solve_cardinality`` all call.  The
factors are the same expressions, so every value is bitwise what inline
arithmetic gives.

The lower bound's rule depends on (n, M) alone: ``solve_cardinality``
keeps its (r, rule) for the last 8 classes (n, M) in an LRU memo
(``_Memo``), whose one size is that literal.  A hit returns the same
objects, and first requires the rows ``quadrature`` required of the rule
(``_quadrature_rows``), rebuilt at the current tolerances, so it refuses
exactly when a miss would.  An exception is never memoized.  The rule's
``nodes``, ``weights`` and ``table`` are read-only.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CertificationError, NumericsError, _require
from .orthopoly import (
    MAX_DEGREE,
    GegenPoly,
    JacobiParams,
    _check_dim,
    gegenbauer_terms,
    greatest_zero,
    jacobi_zeros,
    product_to_gegen,
)

__all__ = [
    "IntervalIndex",
    "QuadratureRule",
    "find_interval",
    "interval_for",
    "lev_value",
    "lev_poly_roots",
    "levenshtein_poly",
    "quadrature",
    "exactness_residual",
    "solve_cardinality",
    "illinois_root",
    "ez_separation",
    "dgs_number",
]

# The certificate on I_m is a polynomial of degree m: the interval cap is the degree cap.
MAX_INTERVAL = MAX_DEGREE

# Absolute slack used when deciding that s sits exactly on a shared
# endpoint of two consecutive intervals.
TIE_TOL = 1e-12

# Snap of the smallest node to -1.  At the left end of an odd interval the
# exact smallest node is -1, but the endpoint itself is an eigenvalue with
# an absolute error of a few u (up to 2e-15 against a 50-digit reference),
# and the smallest node moves with s at a rate of up to ~300 there: for
# n <= 24, m <= 64 it lands within 6e-13 of -1.  1e-11 leaves a margin of 15.
NODE_SNAP = 1e-11

EXACTNESS_TOL = 1e-8

# Width of the final bracket around the root r of L(n, r) = M.
CARDINALITY_TOL = 1e-13

# Largest accepted distance from the largest eigenvalue node to s.
LARGEST_NODE_TOL = 1e-8


class IntervalIndex(NamedTuple):
    """Interval I_m containing a separation, with m = 2k - 1 + eps."""

    m: int
    k: int
    eps: int
    lo: float
    hi: float
    tie_with: int | None = None


def _node_params(n: int, eps: int) -> JacobiParams:
    """Exponents of Q_i = P_i^{((n-1)/2, eps + (n-3)/2)}."""
    return JacobiParams((n - 1) / 2.0, eps + (n - 3) / 2.0)


@lru_cache(maxsize=None)
def _right_end(n: int, m: int) -> float:
    """Right end of I_m: the greatest zero of Q_k, m = 2k - 1 + eps; -1 at m = 0."""
    return greatest_zero(_node_params(n, (m + 1) % 2), (m + 1) // 2)


def _interval(n: int, m: int, tie_with: int | None = None) -> IntervalIndex:
    return IntervalIndex(m, (m + 1) // 2, (m + 1) % 2, _right_end(n, m - 1), _right_end(n, m), tie_with)


def interval_for(n: int, m: int) -> IntervalIndex:
    """The interval I_m by index rather than by membership."""
    n = _check_dim(n)
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_INTERVAL:
        raise ValueError(f"interval index must be in 1..{MAX_INTERVAL}, got {m!r}")
    return _interval(n, int(m))


def find_interval(n: int, s: float) -> IntervalIndex:
    """Locate the interval I_m containing s.

    m is the least index with s <= hi_m + ``TIE_TOL``, found by bisection
    over the right ends hi_m (``_right_end``), which strictly increase in m,
    so a cold lookup solves about log2(MAX_INTERVAL) of them, whatever m is.
    At a shared endpoint of I_m and I_{m+1} the smaller index wins and the
    tie is recorded in ``tie_with``; by continuity both choices give the
    same maximal cardinality.  A valid s above I_MAX_INTERVAL raises
    CertificationError: the input is fine, the supported range is not.
    """
    n = _check_dim(n)
    s = float(s)
    if not -1.0 <= s < 1.0:
        raise ValueError(f"separation must lie in [-1, 1), got {s!r}")
    m = bisect_left(range(1, MAX_INTERVAL + 1), s, key=lambda j: _right_end(n, j) + TIE_TOL) + 1
    if m > MAX_INTERVAL:
        last = _interval(n, MAX_INTERVAL)
        raise CertificationError(f"separation {s!r} lies beyond I_{MAX_INTERVAL} = [{last.lo!r}, {last.hi!r}], "
                                 f"the last supported interval for n = {n}")
    return _interval(n, m, m + 1 if abs(s - _right_end(n, m)) <= TIE_TOL else None)


@lru_cache(maxsize=None)
def _lev_function(n: int, m: int):
    """L_m(n, .) as a function of a float s, for a checked n; k, eps and the factors are fixed once."""
    k, eps = (m + 1) // 2, (m + 1) % 2
    if eps == 0:
        binom, const = math.comb(k + n - 3, k - 1), (2 * k + n - 3) / (n - 1)
    else:
        binom, const = math.comb(k + n - 2, k), (2 * k + n - 1) / (n - 1)

    def lev(s: float) -> float:
        p = [1.0, *gegenbauer_terms(n, k + eps, s)]
        if eps == 0:
            num, denom = p[k - 1] - p[k], (1.0 - s) * p[k]
        else:
            num, denom = (1.0 + s) * (p[k] - p[k + 1]), (1.0 - s) * (p[k] + p[k + 1])
        if denom == 0.0:
            raise NumericsError(f"degenerate denominator in L_{m}({n}, {s})")
        return binom * (const - num / denom)

    return lev


def lev_value(n: int, interval: IntervalIndex, s: float) -> float:
    """The maximal-cardinality value L_m(n, s) on the given interval."""
    return _lev_function(_check_dim(n), interval.m)(float(s))


def dgs_number(n: int, m: int) -> float:
    """Maximal cardinality of an m-distance design bound at interval ends.

    These are the classical closed forms D(n, 2k-1) = 2 C(n+k-2, n-1) and
    D(n, 2k) = C(n+k-1, n-1) + C(n+k-2, n-1); L_m(n, .) climbs from
    D(n, m) to D(n, m+1) across I_m.
    """
    n = _check_dim(n)
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"index must be a positive integer, got {m!r}")
    k = (m + 1) // 2
    if m % 2 == 1:
        return 2.0 * math.comb(n + k - 2, n - 1)
    return float(math.comb(n + k - 1, n - 1) + math.comb(n + k - 2, n - 1))


def _count_row(nodes: np.ndarray, m: int) -> tuple:
    # k + eps = m // 2 + 1 nodes for m = 2k - 1 + eps.
    return ("quadrature node count differs from k + eps by", abs(nodes.size - m // 2 - 1), 0)


def _node_rows(nodes: np.ndarray, m: int, s: float) -> list:
    """The node list of a 1/N rule on I_m at separation s as rows (gate,
    value, allowed): k + eps nodes, the first -1 when eps = 1 and not below
    -1 when eps = 0, every gap positive, and the last s.  An empty list
    reads inf at both ends."""
    first, last = (float(nodes[0]), float(nodes[-1])) if nodes.size else (math.inf, math.inf)
    return [
        _count_row(nodes, m),
        ("quadrature's first node differs from -1 by", abs(first + 1.0), 0.0) if m % 2 == 0
        else ("quadrature's first node lies below -1 by", -1.0 - first, 0.0),
        ("nonpositive quadrature node gaps", int(np.count_nonzero(nodes[1:] <= nodes[:-1])), 0),
        ("quadrature's largest node differs from s by", abs(last - s), 0.0),
    ]


def _sign_row(poly: GegenPoly) -> tuple:
    """The node polynomial's row: the count of its Gegenbauer coefficients <= 0, against 0."""
    return ("nonpositive node polynomial coefficients", int(np.count_nonzero(poly.coeffs <= 0.0)), 0)


def lev_poly_roots(n: int, interval: IntervalIndex, s: float) -> np.ndarray:
    """Distinct quadrature nodes alpha_0 < ... < alpha_{k-1+eps} = s.

    With pi_i the monic Q_i, the k roots of Q_k(t) Q_{k-1}(s) -
    Q_k(s) Q_{k-1}(t) are the zeros of pi_k - c pi_{k-1} with
    c = pi_k(s) / pi_{k-1}(s): the eigenvalues of the Jacobi matrix of Q_k
    modified to have s as an eigenvalue.  On I_m, s lies above every zero of
    Q_{k-1}, as that shift requires.  The largest eigenvalue must lie within
    ``LARGEST_NODE_TOL`` of s, or NumericsError is raised, and becomes s;
    for eps = 1, -1 is prepended.  The list must then pass its rows
    (``_node_rows``), so a zero below -1 or out of order raises
    CertificationError.
    """
    n = _check_dim(n)
    s = float(s)
    k, eps = interval.k, interval.eps
    roots = jacobi_zeros(_node_params(n, eps), k, fixed=s)
    if abs(roots[0] + 1.0) <= NODE_SNAP:
        roots[0] = -1.0
    if abs(roots[-1] - s) > LARGEST_NODE_TOL:
        raise NumericsError(
            f"largest node {roots[-1]} does not match separation {s} (n={n}, m={interval.m})"
        )
    roots[-1] = s
    out = np.concatenate(([-1.0], roots)) if eps == 1 else roots
    _require(_node_rows(out, interval.m, s))
    return out


class QuadratureRule(NamedTuple):
    """1/N quadrature: f_0 = f(1)/N + sum rho_i f(alpha_i), exact to degree m.

    ``nodes`` and ``weights`` are read-only, as memoized rules are shared.
    ``table`` is the read-only, C-contiguous (m + 1) x q array with
    table[j, i] = P_j^{(n)}(alpha_i), the one the weights were solved and
    checked with; a polynomial f of degree m takes the values
    ``f.coeffs @ table`` at the nodes.
    """

    dim: int
    interval: IntervalIndex
    s: float
    N: float
    nodes: np.ndarray
    weights: np.ndarray
    table: np.ndarray

    @property
    def m(self) -> int:
        return self.interval.m

    @property
    def multiset(self) -> tuple[float, ...]:
        """The Hermite nodes with repetition, in the order that every Newton
        form reads them: -1 once when it is a node (eps = 1), every interior
        node twice, s once; m entries in all."""
        eps, nodes = self.interval.eps, self.nodes.tolist()
        return (*nodes[:eps], *(t for t in nodes[eps:-1] for _ in range(2)), nodes[-1])


def levenshtein_poly(rule: QuadratureRule) -> GegenPoly:
    """The monic node polynomial prod_{t_j in rule.multiset} (t - t_j) over
    the Gegenbauer basis, certified to have every coefficient positive.

    Before the multiset is read, the rule must pass the count row of
    ``_node_rows``: k + eps nodes, which is m entries in the multiset.  The
    expansion must then pass its sign row (``_sign_row``).  That it is <= 0
    on [-1, s] is checked by ``bounds.uub``, on the grid it checks f >= h
    on.
    """
    _require([_count_row(rule.nodes, rule.m)])
    poly = product_to_gegen(rule.dim, rule.multiset)
    _require([_sign_row(poly)])
    return poly


def quadrature(n: int, s: float) -> QuadratureRule:
    """Nodes and weights of the 1/N quadrature at separation s.

    The weights solve the square system sum_i rho_i P_j(alpha_i) =
    delta_{j0} - 1/N for j = 0 .. k-1+eps; the rows of ``_rule_rows``
    then require every weight positive and exactness up to degree m.
    """
    n = _check_dim(n)
    s = float(s)
    interval = find_interval(n, s)
    roots = lev_poly_roots(n, interval, s)
    N = _lev_function(n, interval.m)(s)
    q = roots.size  # = k + eps
    # P_j(alpha_i) on plain floats, one node at a time, which rounds like
    # gegenbauer_table.  The table is stored in C order as gegenbauer_table
    # returns it: on the transposed view, ``table @ weights`` takes another
    # BLAS path and rounds differently.
    table = np.array([[1.0, *gegenbauer_terms(n, interval.m, a)] for a in roots.tolist()]).T.copy()
    table.setflags(write=False)
    # delta_j0 - 1/N for j = 0 .. q - 1; ``exactness_residual`` checks every
    # j up to m.
    target = np.full(q, -1.0 / N)
    target[0] += 1.0
    weights = np.linalg.solve(table[:q], target)
    _require(_rule_rows(table, weights, N))
    roots.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(n, interval, s, N, roots, weights, table)


def _rule_rows(table: np.ndarray, weights: np.ndarray, N: float) -> list:
    """The gates of a 1/N rule with table[j] = P_j(nodes), j = 0..m, as rows:
    the count of weights <= 0 against 0, then exactness to degree m against
    ``EXACTNESS_TOL``."""
    return [
        ("nonpositive quadrature weights", int((weights <= 0.0).sum()), 0),
        ("quadrature exactness residual", exactness_residual(table, weights, N), EXACTNESS_TOL),
    ]


def exactness_residual(table: np.ndarray, weights: np.ndarray, N: float) -> float:
    """max_j |sum_i rho_i P_j(alpha_i) - (delta_j0 - 1/N)|, table[j] = P_j(nodes)."""
    target = np.full(table.shape[0], -1.0 / N)
    target[0] += 1.0
    return float(abs(table @ weights - target).max())


def illinois_root(f, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """A zero of f in [lo, hi], given flo = f(lo) and fhi = f(hi) of opposite signs.

    Regula falsi with the Illinois modification: when the same end of the
    bracket is replaced twice in a row, the function value kept at the other
    end is halved, which makes that end move too.  A secant point is kept at
    least tol / 2 from both ends, so an end that already sits on the zero
    closes the bracket in one more step; one that is not strictly inside
    the bracket is replaced by the midpoint.  Stops once the bracket is
    narrower than ``tol`` (or cannot shrink) and returns its midpoint, or
    returns a point where f is exactly zero.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    kept = 0  # -1: the last step replaced hi, +1: it replaced lo
    while hi - lo > tol:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        else:
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


def ez_separation(n: int) -> float:
    """Separation of the (2n + 1)-point construction: the unique root in
    (0, 1/n) of n (n-2)^2 X^3 - n^2 X^2 - n X + 1."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {n!r}")
    c3, c2, c1, c0 = n * (n - 2) ** 2, -(n * n), -n, 1.0

    def f(x: float) -> float:
        return ((c3 * x + c2) * x + c1) * x + c0

    # f(0) = 1 > 0 and f(1/n) = (n - 2)^2 / n^2 - 1 < 0; tol 0 runs the
    # bracket down to adjacent floats.
    return illinois_root(f, 0.0, 1.0 / n, f(0.0), f(1.0 / n), 0.0)


@lru_cache(maxsize=None)
def _dgs_table(n: int) -> tuple[float, ...]:
    """D(n, 1), ..., D(n, MAX_INTERVAL + 1), increasing in m."""
    return tuple(dgs_number(n, m) for m in range(1, MAX_INTERVAL + 2))


class _Memo:
    """The objects one builder returned for the last ``size`` keys, the least
    recently used evicted first.  ``get(key, build)`` returns (object, hit)
    and calls ``build()`` on a miss; a build that raises stores nothing.
    A lock guards the entries but not the build, so two threads that miss
    one key both build it, and the last store stays."""

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build):
        entries = self._entries
        with self._lock:
            value = entries.get(key)  # built objects are never None
            if value is not None:
                entries.move_to_end(key)
                return value, True
        value = build()
        with self._lock:
            entries[key] = value
            entries.move_to_end(key)
            if len(entries) > self.size:
                entries.popitem(last=False)
        return value, False

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()


def _quadrature_rows(rule: QuadratureRule) -> list:
    """The rows ``quadrature`` required of the rule: ``_node_rows`` at its
    separation, then ``_rule_rows``."""
    return _node_rows(rule.nodes, rule.m, rule.s) + _rule_rows(rule.table, rule.weights, rule.N)


# (r, rule) of ``solve_cardinality`` for the last 8 classes (n, M).
_LOWER_RULES = _Memo(8)


def solve_cardinality(n: int, M: float) -> tuple[float, QuadratureRule]:
    """Invert L(n, .) at cardinality M and return the quadrature there.

    L_m(n, .) climbs from D(n, m) to D(n, m + 1) across I_m (``dgs_number``),
    so M picks the interval, those two values bracket L - M at its ends, and
    ``illinois_root`` runs inside it until the bracket is narrower than
    ``CARDINALITY_TOL``.  The result is memoized per (n, M); a hit returns
    the same objects once the rule passes the rows ``quadrature`` required
    of it (``_quadrature_rows``), rebuilt at the current tolerances.
    """
    n = _check_dim(n)
    M = float(M)
    if not 2.0 <= M < math.inf:
        raise ValueError(f"cardinality must be finite and at least 2, got {M!r}")
    (r, rule), hit = _LOWER_RULES.get((n, M), lambda: _invert_cardinality(n, M))
    if hit:
        _require(_quadrature_rows(rule))
    return r, rule


def _invert_cardinality(n: int, M: float) -> tuple[float, QuadratureRule]:
    D = _dgs_table(n)  # D[m] = D(n, m + 1)
    m = bisect_left(D, M, 1)  # the least m >= 1 with M <= D(n, m + 1)
    if m > MAX_INTERVAL:
        raise CertificationError(
            f"cardinality {M} needs intervals beyond index {MAX_INTERVAL}; "
            f"I_{MAX_INTERVAL} reaches D({n}, {MAX_INTERVAL + 1}) = {D[-1]:g}"
        )
    interval, lev = interval_for(n, m), _lev_function(n, m)
    r = illinois_root(
        lambda t: lev(t) - M, interval.lo, interval.hi, D[m - 1] - M, D[m] - M, CARDINALITY_TOL
    )
    return r, quadrature(n, r)
