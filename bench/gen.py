"""Seeded inputs for the three benchmark workloads.

Everything here is derived from the seed alone.  Interval endpoints and
L_m(n, s) come from scipy's Jacobi routines, not from sphenergy, so the
inputs (and their fingerprint) stay the same when the library changes.
Expected outputs that can be known without the library, such as the energy
of a code from its exact integer inner products, are computed here too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, roots_jacobi

SWEEP_DIMS = (3, 4, 5, 8, 10, 24)
SWEEP_MAX_M = 20
KERNEL_KINDS = ("newton", "riesz", "gauss", "log")
CODE_DIM = 24
# Up to M = 592 the codes layer's largest array, the moments table of
# 11 M^2 doubles, stays below glibc's 32 MB mmap threshold, so repeated
# verifications reuse heap pages instead of faulting in fresh ones; with
# M >= 1024 page-fault time made run-to-run spreads of 10-25%.
CODE_SIZES = tuple(range(256, 600, 16))
CLI_DIMS = (3, 4, 5, 8, 10, 24)
CLI_MAX_M = 10


def _greatest_jacobi_zero(k: int, a: float, b: float) -> float:
    return -1.0 if k == 0 else float(np.max(roots_jacobi(k, a, b)[0]))


def interval_endpoints(n: int, m: int) -> tuple[float, float]:
    """I_m for dimension n, as defined in sphenergy.levenshtein."""
    k = (m + 1) // 2
    inner = ((n - 1) / 2.0, (n - 3) / 2.0)
    outer = ((n - 1) / 2.0, (n - 1) / 2.0)
    if m % 2 == 1:
        return _greatest_jacobi_zero(k - 1, *outer), _greatest_jacobi_zero(k, *inner)
    return _greatest_jacobi_zero(k, *inner), _greatest_jacobi_zero(k, *outer)


def _gegen(n: int, i: int, t: float) -> float:
    a = (n - 3) / 2.0
    return float(eval_jacobi(i, a, a, t) / eval_jacobi(i, a, a, 1.0))


def lev_bound(n: int, m: int, s: float) -> float:
    """L_m(n, s), the maximal cardinality on I_m."""
    k, eps = (m + 1) // 2, (m + 1) % 2
    pk = _gegen(n, k, s)
    if eps == 0:
        ratio = (_gegen(n, k - 1, s) - pk) / ((1.0 - s) * pk)
        return math.comb(k + n - 3, k - 1) * ((2 * k + n - 3) / (n - 1) - ratio)
    pn = _gegen(n, k + 1, s)
    ratio = (1.0 + s) * (pk - pn) / ((1.0 - s) * (pk + pn))
    return math.comb(k + n - 2, k) * ((2 * k + n - 1) / (n - 1) - ratio)


def ez_separation(n: int) -> float:
    """Root in (0, 1/n) of n (n-2)^2 X^3 - n^2 X^2 - n X + 1."""
    roots = np.roots([n * (n - 2) ** 2, -(n * n), -n, 1.0])
    return float(min(r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1.0 / n))


def _kernel(rng, kind: str) -> str:
    if kind in ("riesz", "gauss"):
        return f"{kind}:{rng.uniform(0.5, 4.0):.4f}"
    return kind


def _stratified(rng, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal slices of [0, 1), shuffled."""
    return rng.permutation((np.arange(count) + rng.uniform(size=count)) / count)


@dataclass(frozen=True)
class StripClass:
    """One class (n, M, s, kernel) of the class sweep, with its interval index
    (0 for the anchor classes, which carry their own expectations)."""

    n: int
    M: int
    s: float
    kernel: str
    m: int
    expect: tuple = ()


def sweep_classes(seed: int) -> list[StripClass]:
    """One class in every (n, m, kernel) cell, plus the anchor classes.

    Within each (n, m) cell the four kernels share a Latin-hypercube sample
    of the position of s inside I_m and of M in [2, floor(L_m(n, s))], so
    that two seeds differ in the classes but not in the mix of interval
    indices, dimensions and cardinalities.
    """
    rng = np.random.default_rng(seed)
    out = []
    for n in SWEEP_DIMS:
        for m in range(1, SWEEP_MAX_M + 1):
            lo, hi = interval_endpoints(n, m)
            u_s = _stratified(rng, len(KERNEL_KINDS))
            u_M = _stratified(rng, len(KERNEL_KINDS))
            for kind, us, uM in zip(KERNEL_KINDS, u_s, u_M):
                s = lo + (hi - lo) * (0.05 + 0.9 * us)
                top = math.floor(lev_bound(n, m, s) * (1.0 - 1e-9))
                M = 2 + int(uM * (top - 1))
                out.append(StripClass(n, M, float(s), _kernel(rng, kind), m))
    out += [
        StripClass(5, 11, ez_separation(5), "newton", 0, (("uub", 41.906), ("ulb", 37.484))),
        StripClass(8, 240, 0.5, "newton", 0, (("sharp", True),)),
        StripClass(10, 554, 0.5, "newton", 0, ()),
        StripClass(24, 196560, 0.5, "newton", 0, (("sharp", True),)),
    ]
    return out


def sweep_largest_cardinalities() -> list[tuple[int, int]]:
    """(n, M) with the largest M a sweep class of dimension n can draw, whatever the seed."""
    out = []
    for n in SWEEP_DIMS:
        lo, hi = interval_endpoints(n, SWEEP_MAX_M)
        out.append((n, math.floor(lev_bound(n, SWEEP_MAX_M, lo + 0.95 * (hi - lo)))))
    return out


@dataclass(frozen=True)
class Code:
    """A rotated code Z Q / scale with Z integer, so its inner products are
    known exactly: ``pair_counts`` maps each numerator of <x, y> * scale^2
    to its count over ordered pairs of distinct points."""

    name: str
    points: np.ndarray
    kernel: str
    pair_counts: tuple[tuple[int, int], ...]
    scale2: int
    sharp: bool


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _pair_counts(z: np.ndarray) -> tuple[tuple[int, int], ...]:
    gram = z @ z.T
    np.fill_diagonal(gram, np.iinfo(np.int64).min)
    vals, counts = np.unique(gram, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals[1:], counts[1:]))


def _quad_family(rng, count: int) -> list[tuple[int, ...]]:
    """``count`` 4-subsets of the 24 coordinates, pairwise meeting in at most 2."""
    chosen, used = [], set()
    while len(chosen) < count:
        q = tuple(sorted(int(i) for i in rng.choice(CODE_DIM, 4, replace=False)))
        triples = set(itertools.combinations(q, 3))
        if not triples & used:
            chosen.append(q)
            used |= triples
    return chosen


def half_code(rng, size: int) -> np.ndarray:
    """Integer rows (entries 0, +-1) of a separation-1/2 code in R^24."""
    signs = np.array(list(itertools.product((1, -1), repeat=4)), dtype=np.int64)
    rows = []
    for q in _quad_family(rng, size // 16):
        block = np.zeros((16, CODE_DIM), dtype=np.int64)
        block[:, q] = signs
        rows.append(block)
    return np.vstack(rows)


def e8_roots() -> np.ndarray:
    """The 240 roots of E8, doubled to integers (squared norm 8)."""
    rows = []
    for i, j in itertools.combinations(range(8), 2):
        for a, b in itertools.product((2, -2), repeat=2):
            r = [0] * 8
            r[i], r[j] = a, b
            rows.append(r)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            rows.append(list(signs))
    return np.array(rows, dtype=np.int64)


def check_codes(seed: int) -> list[Code]:
    """The code-check set: two s = 1/2 codes in R^24 per size in CODE_SIZES
    and one E8, each randomly rotated, kernels cycling through the four kinds."""
    rng = np.random.default_rng(seed)
    ints = [(f"half24-M{size}", half_code(rng, size), 4, False) for size in CODE_SIZES for _ in range(2)]
    ints.append(("e8", e8_roots(), 8, True))
    out = []
    for j, (name, z, scale2, sharp) in enumerate(ints):
        pts = (z / math.sqrt(scale2)) @ _rotation(rng, z.shape[1])
        kernel = _kernel(rng, KERNEL_KINDS[j % len(KERNEL_KINDS)])
        out.append(Code(name, pts, kernel, _pair_counts(z), scale2, sharp))
    return out


@dataclass(frozen=True)
class CliCall:
    """Arguments after ``sphenergy`` and what the call must produce."""

    args: tuple[str, ...]
    exit_code: int
    check: str


def _cli_class(rng) -> tuple[int, int, float, str, float]:
    """(n, M, s, kernel, L_m(n, s)) with m in 1..CLI_MAX_M and M <= L."""
    n = int(rng.choice(CLI_DIMS))
    m = int(rng.integers(1, CLI_MAX_M + 1))
    lo, hi = interval_endpoints(n, m)
    s = float(lo + (hi - lo) * rng.uniform(0.05, 0.95))
    L = lev_bound(n, m, s)
    M = int(rng.integers(2, math.floor(L * (1.0 - 1e-9)) + 1))
    return n, M, s, _kernel(rng, str(rng.choice(KERNEL_KINDS))), L


def cli_round(rng) -> list[CliCall]:
    """One call of each kind, in seeded order with seeded parameters."""
    calls = [CliCall(("--version",), 0, "version")]
    n, M, s, kern, _ = _cli_class(rng)
    calls.append(CliCall(("bound", "-n", str(n), "-M", str(M), "-s", repr(s), "-h", kern), 0, "uub"))
    n, M, s, kern, _ = _cli_class(rng)
    calls.append(CliCall(("bound", "-n", str(n), "-M", str(M), "-s", repr(s), "-h", kern,
                          "--format", "json"), 0, "recheck"))
    n, M, s, kern, _ = _cli_class(rng)
    calls.append(CliCall(("strip", "-n", str(n), "-M", str(M), "-s", repr(s), "-h", kern), 0, "strip"))
    kind = str(rng.choice(("simplex", "cross_polytope", "orthonormal")))
    calls.append(CliCall(("verify", "--generate", f"{kind}:{int(rng.integers(3, 9))}",
                          "-h", _kernel(rng, str(rng.choice(KERNEL_KINDS)))), 0, "inside"))
    nmin = int(rng.integers(2, 5))
    calls.append(CliCall(("table", "--nmin", str(nmin), "--nmax", str(nmin + 5)), 0, "table"))
    n, _, s, _, _ = _cli_class(rng)
    calls.append(CliCall(("testfn", "-n", str(n), "-s", repr(s), "--jmax", str(int(rng.integers(4, 16)))),
                         0, "testfn"))
    n, _, s, _, L = _cli_class(rng)
    over = math.ceil(L * (1.0 + 1e-6)) + int(rng.integers(0, 5))
    calls.append(CliCall(("bound", "-n", str(n), "-M", str(over), "-s", repr(s)), 2, "infeasible"))
    return [calls[i] for i in rng.permutation(len(calls))]


def cli_rounds(seed: int, count: int) -> list[list[CliCall]]:
    rng = np.random.default_rng(seed)
    return [cli_round(rng) for _ in range(count)]


def fingerprint(inputs) -> str:
    """sha256 over the generated inputs, so two runs can be shown to agree."""
    h = hashlib.sha256()
    for item in inputs:
        if isinstance(item, Code):
            h.update(item.points.tobytes())
            item = (item.name, item.kernel, item.pair_counts)
        elif isinstance(item, list):
            item = [c.args for c in item]
        h.update(json.dumps(item, default=repr).encode())
    return h.hexdigest()[:16]
