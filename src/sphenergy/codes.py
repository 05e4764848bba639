"""Concrete spherical codes: construction, energy, and bound verification.

A code is an M x n array of unit rows.  Energies sum the kernel over
ordered pairs of distinct points; moments sum Gegenbauer values over all
ordered pairs including the diagonal, so the positive-definiteness of the
basis makes every moment nonnegative.

No Gram matrix is stored.  Every pairwise quantity is a reduction over the
strict upper triangle of the Gram matrix, streamed in blocks of rows of
about ``_BLOCK_ELEMS`` inner products each, so memory is O(M * B) rather
than O(M^2).  Every reduction reads the row blocks from one generator
(``_gram_blocks``).  The separation, a maximum that a mirrored pair cannot
change, reads each block whole with its diagonal overwritten instead of
masking it to the upper triangle.  ``verify_strip``, ``energy`` and
``moments`` stream the Gram once (``_gram_pass``): the same GEMM gives each
block's share of the separation and is then rounded to the grid 2**-53,
sorted and grouped into distinct values and counts, which are kept while
their total stays within ``_BLOCK_ELEMS``.  h and every P_i are evaluated
once per kept value in one batch, and the blocks past that budget are
computed again and evaluated one at a time (``_batches``), so the energy is
twice a weighted sum of h and the moments are M + 2 sum P_i; designs and
sharp codes have few distinct products and are streamed once.

The grid 2**-53 is the spacing of doubles in [1/2, 1), so rounding is the
identity on |<x,y>| >= 1/2 (and on 0 and +-1) and moves any other product
by at most 2**-54 = u/2, u = 2**-53 the unit roundoff.  A computed inner
product of unit vectors in R^n already carries the a-priori error bound
gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3), and u/2 < gamma_n / 4 for every n >= 2.  What the
rounding buys is that the float noise of orthogonal pairs, products of
size ~1e-16 that differ in every pair, collapses onto a few grid points.
Node coverage counts the distinct products in a window of +-COVER_TOL
about each node.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import EnergyStrip, strip
from .errors import InfiniteEnergyError
from .levenshtein import illinois_root
from .orthopoly import _check_degree, gegenbauer_terms
from .potentials import Potential

__all__ = [
    "SphericalCode",
    "StripVerdict",
    "load_code",
    "generate",
    "energy",
    "separation",
    "moments",
    "verify_strip",
    "ez_separation",
]

# Inner products per block of the Gram's upper triangle: 2**16 doubles
# (512 KB) bound the working set of every pairwise reduction, whatever M is.
# On R^24 codes with M = 256..592 (Xeon, 2 MB L2 per core) verify_strip ran
# ~15% faster with it than with 2**18, whose blocks and recurrence arrays
# together outgrow L2.
_BLOCK_ELEMS = 2**16

# Grid the inner products are rounded to before they are grouped: 2**-53,
# the spacing of doubles in [1/2, 1), fixed by the float format.
_GRID = 2.0**-53

# Largest deviation of a row norm from 1 that a code accepts.
NORM_TOL = 1e-9

# Largest distance from an inner product to a node that counts as on it.
COVER_TOL = 1e-7

# Slack of an energy inside or on the strip, times max(1, |uub|, |ulb|), and
# the distance below 1 at which a separation means coincident points.
STRIP_TOL = 1e-9
COINCIDENT_TOL = 1e-12


class SphericalCode:
    """M unit vectors on S^{n-1}, stored as an M x n array of rows.

    Rows must have Euclidean norm within ``NORM_TOL`` of 1; use
    ``load_code`` to renormalize nearly-unit input.  Inner products are not
    stored: the module's reductions stream them in row blocks.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("points must form a 2-D array")
        if pts.shape[1] < 2:
            raise ValueError(f"dimension must be at least 2, got {pts.shape[1]}")
        if pts.shape[0] < 2:
            raise ValueError(f"a code needs at least 2 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        norms = np.linalg.norm(pts, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > NORM_TOL:
            raise ValueError(f"row norm deviates from 1 by {worst:.3e} (tolerance {NORM_TOL:g})")
        self.points = pts
        self.dim = int(pts.shape[1])
        self.size = int(pts.shape[0])


def load_code(path) -> SphericalCode:
    """Read a code from a text file: one point per line, comma or whitespace
    separated coordinates, '#' starting a comment.  Rows within NORM_TOL of
    unit length are renormalized; anything farther off is rejected.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            try:
                rows.append([float(x) for x in fields])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: cannot parse {text!r}") from None
    if not rows:
        raise ValueError(f"{path}: no points found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent lengths")
    pts = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(pts, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > NORM_TOL:
        raise ValueError(f"{path}: row norm deviates from 1 by {worst:.3e} (tolerance {NORM_TOL:g})")
    return SphericalCode(pts / norms[:, None])


def _simplex(n: int) -> np.ndarray:
    # Vertices of the regular simplex: center the standard basis of
    # R^{n+1} and express the differences in the explicit Helmert basis of
    # the hyperplane orthogonal to (1, ..., 1); no factorization needed,
    # so the output is reproducible to the last bit.
    m = n + 1
    centered = np.eye(m) - 1.0 / m
    helmert = np.zeros((n, m))
    for k in range(1, n + 1):
        helmert[k - 1, :k] = 1.0
        helmert[k - 1, k] = -float(k)
        helmert[k - 1] /= math.sqrt(k * (k + 1.0))
    coords = centered @ helmert.T
    return coords / np.linalg.norm(coords, axis=1)[:, None]


def _icosahedron() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = []
    for u in (1.0, -1.0):
        for v in (phi, -phi):
            base.extend([(0.0, u, v), (u, v, 0.0), (v, 0.0, u)])
    pts = np.array(base) / math.sqrt(1.0 + phi * phi)
    return pts


def _hexagon() -> np.ndarray:
    h = math.sqrt(3.0) / 2.0
    return np.array(
        [(1.0, 0.0), (0.5, h), (-0.5, h), (-1.0, 0.0), (-0.5, -h), (0.5, -h)]
    )


def generate(kind: str, n: int | None = None) -> SphericalCode:
    """Construct a named code: simplex(n), cross_polytope(n), orthonormal(n),
    icosahedron, or hexagon."""
    if kind in ("simplex", "cross_polytope", "orthonormal"):
        if n is None or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"{kind} needs an integer dimension n >= 2")
        n = int(n)
        if kind == "simplex":
            return SphericalCode(_simplex(n))
        if kind == "cross_polytope":
            return SphericalCode(np.vstack([np.eye(n), -np.eye(n)]))
        return SphericalCode(np.eye(n))
    if kind == "icosahedron":
        if n not in (None, 3):
            raise ValueError("icosahedron lives in dimension 3")
        return SphericalCode(_icosahedron())
    if kind == "hexagon":
        if n not in (None, 2):
            raise ValueError("hexagon lives in dimension 2")
        return SphericalCode(_hexagon())
    raise ValueError(f"unknown code kind {kind!r}")


def _row_blocks(size: int, start: int = 0):
    """Yield (i, j, width): rows i..j-1 of the Gram against its columns
    i..size-1, width = size - i, with j - i sized so the block holds about
    ``_BLOCK_ELEMS`` products (at least one row).  From start = 0 the blocks
    cover the strict upper triangle once; row size - 1 has no column past it.
    A start where a block begins yields the same blocks from there on.
    """
    i = start
    while i < size - 1:
        width = size - i
        j = min(size - 1, i + max(1, _BLOCK_ELEMS // width))
        yield i, j, width
        i = j


def _gram_blocks(points: np.ndarray, start: int = 0):
    """Yield (i, block, lower) for each row block of ``_row_blocks`` from row
    ``start``: block is the GEMM ``points[i:j] @ points[i:].T`` with its j - i
    diagonal entries (flat stride width + 1) set to -2, below any inner
    product, and lower masks the diagonal and the entries left of it, the
    transposes of pairs above it, in the block's first j - i columns.

    Every reduction reads the Gram through here, so a row block's products
    are the same floats whichever reduction reads them.
    """
    blocks = list(_row_blocks(points.shape[0], start))
    tri = np.tri(max((j - i for i, j, _ in blocks), default=0), dtype=bool)
    for i, j, width in blocks:
        block = points[i:j] @ points[i:].T
        block.ravel()[:: width + 1] = -2.0
        yield i, block, tri[: j - i, : j - i]


def _to_grid_units(x: np.ndarray) -> np.ndarray:
    """Round x in place to the nearest multiple of ``_GRID`` and return it in
    units of the grid: rint(x / _GRID).  The scaling by a power of two is
    exact; the rounding moves a value of magnitude below 1/2 by at most
    _GRID / 2, leaves every other value unchanged and keeps ascending values
    ascending."""
    x *= 1.0 / _GRID
    return np.rint(x, out=x)


def _group(block: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strict upper triangle of a block of ``_gram_blocks`` on the grid
    ``_GRID``, as its distinct values, ascending and clipped to [-1, 1], and
    their counts (see ``_runs``).  Overwrites the block.

    The entries under ``lower`` are set to +inf, so after the in-place sort
    they are the block's last b (b + 1) / 2 entries and are dropped; the clip
    touches only the ends of the sorted values.  Rounding (``_to_grid_units``)
    comes before the sort, and the block stays in grid units until only its
    distinct values are scaled back.
    """
    b = lower.shape[0]
    one = 1.0 / _GRID
    np.copyto(block[:, :b], np.inf, where=lower)
    vals = _to_grid_units(block).ravel()
    vals.sort()
    vals = vals[: vals.size - b * (b + 1) // 2]
    vals[: np.searchsorted(vals, -one, "left")] = -one
    vals[np.searchsorted(vals, one, "right") :] = one
    values, counts = _runs(vals)
    return values * _GRID, counts


def _gram_pass(points: np.ndarray) -> tuple[float, list, int]:
    """Compute each row block once: take its maximum (see ``separation``)
    and, while the budget lasts, group it (``_group``).  Returns the
    separation, the grouped blocks before the first whose distinct values
    would take their total past ``_BLOCK_ELEMS``, and the row that block
    starts at (size - 1 when every block was kept).  Past the budget only
    the maximum is taken, and ``_batches`` computes those blocks again."""
    s, kept, total, resume = -1.0, [], 0, None
    for i, block, lower in _gram_blocks(points):
        s = max(s, float(block.max()))
        if resume is None:
            group = _group(block, lower)
            total += group[0].size
            if total <= _BLOCK_ELEMS:
                kept.append(group)
            else:
                resume = i
    return min(s, 1.0), kept, points.shape[0] - 1 if resume is None else resume


def _batches(points: np.ndarray, kept: list, resume: int):
    """Yield lists of grouped blocks to evaluate together: the kept ones as
    one batch, then each block from row ``resume`` on, computed and grouped
    again, alone.  Memory stays O(M * B) whatever the number of distinct
    values."""
    if kept:
        yield kept
    for _, block, lower in _gram_blocks(points, resume):
        yield [_group(block, lower)]


def _pooled(batch: list) -> tuple[np.ndarray, np.ndarray]:
    """The values and counts of a batch as one pair of arrays."""
    if len(batch) == 1:
        return batch[0]
    values, counts = zip(*batch)
    return np.concatenate(values), np.concatenate(counts)


def _refuse_coincident(s: float) -> None:
    """Raise for a separation within ``COINCIDENT_TOL`` of 1."""
    if s >= 1.0 - COINCIDENT_TOL:
        raise InfiniteEnergyError(
            "coincident points make the energy diverge for this kernel"
        )


def _add_gegen_sums(n: int, values: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> None:
    # sums[i - 1] += sum of counts * P_i(values), i = 1..sums.size.
    for i, p in enumerate(gegenbauer_terms(n, sums.size, values)):
        sums[i] += float(counts @ p)


def _runs(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ascending ``vals`` and their counts (as floats).
    A run of equal values starts at 0 and wherever vals[k] != vals[k - 1];
    the edges mark those starts and the end of the last run."""
    edges = np.empty(vals.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(vals[1:], vals[:-1], out=edges[1:-1])
    at = np.flatnonzero(edges)
    return vals[at[:-1]], np.diff(at).astype(float)


def _moments_from_sums(size: int, sums: np.ndarray) -> np.ndarray:
    # The diagonal adds P_i(1) = 1 per point, the lower triangle mirrors the upper.
    return np.concatenate(([float(size) * size], size + 2.0 * sums))


def _nodes_cover(vals: np.ndarray, nodes: np.ndarray) -> bool:
    """Whether every value lies within COVER_TOL of a node (vals and nodes
    ascending).

    The window about nodes[k] holds the values lo[k]..hi[k] - 1; the
    windows, which may overlap, hold them all iff no value lies before,
    between or after them."""
    lo = np.searchsorted(vals, nodes - COVER_TOL, "left")
    hi = np.searchsorted(vals, nodes + COVER_TOL, "right")
    return bool(lo[0] == 0 and hi[-1] == vals.size and np.all(lo[1:] <= hi[:-1]))


def separation(code: SphericalCode) -> float:
    """Largest off-diagonal inner product, clipped to [-1, 1].

    Each row block of the Gram (``_gram_blocks``) is read whole, with no
    mask: its diagonal entries are -2, below any inner product, and the
    entries left of the diagonal are genuine pairs, the transposes of entries
    above it.  ``verify_strip``, ``energy`` and ``moments`` take the same
    maximum over the same blocks in the pass that groups them.
    """
    s = -1.0
    for _, block, _ in _gram_blocks(code.points):
        s = max(s, float(block.max()))
    return min(s, 1.0)


def energy(code: SphericalCode, pot: Potential) -> float:
    """Sum of h over ordered pairs of distinct points.

    Coincident points are refused from the separation before h is evaluated.
    h is evaluated once per distinct inner product of each batch of grouped
    blocks, weighted by its count, after the products are rounded to the
    grid 2**-53 (see ``_group`` and ``_batches``); the Gram is streamed once,
    and again only past the budget, and the result equals
    ``verify_strip(code, pot).energy`` bit for bit."""
    s, kept, resume = _gram_pass(code.points)
    if not pot.finite_at_one:
        _refuse_coincident(s)
    total = 0.0
    for batch in _batches(code.points, kept, resume):
        values, counts = _pooled(batch)
        total += float(counts @ pot(values))
    return 2.0 * total


def moments(code: SphericalCode, i_max: int) -> np.ndarray:
    """Gegenbauer moments sum_{x,y} P_i(<x,y>) for i = 0..i_max (diagonal
    included, so the zeroth moment is M^2 and all are nonnegative).

    Like ``energy``, each P_i is evaluated once per distinct inner product
    of each batch on the grid 2**-53; for i_max equal to the class's m the
    result equals ``verify_strip``'s moments bit for bit."""
    sums = np.zeros(_check_degree(i_max))
    _, kept, resume = _gram_pass(code.points)
    for batch in _batches(code.points, kept, resume):
        _add_gegen_sums(code.dim, *_pooled(batch), sums)
    return _moments_from_sums(code.size, sums)


class StripVerdict(NamedTuple):
    """A code checked against the energy strip of its own class.
    ``nodes_cover_products``: every off-diagonal inner product lies within
    ``COVER_TOL`` of a node of the class's 1/N quadrature."""

    dim: int
    size: int
    separation: float
    energy: float
    strip: EnergyStrip
    inside: bool
    attains_uub: bool
    attains_ulb: bool
    nodes_cover_products: bool
    moments: np.ndarray


def verify_strip(code: SphericalCode, pot: Potential) -> StripVerdict:
    """Compute E_h(C) and place it inside [ulb, uub] for (n, M, s(C)), with a
    slack of ``STRIP_TOL`` * max(1, |uub|, |ulb|) for ``inside`` and ``attains_*``.

    The attainment diagnostics report whether every off-diagonal inner
    product sits on a quadrature node and include the moments up to m
    (equality in the upper bound requires the moments paired with the
    negative coefficients of f to vanish).

    The Gram is streamed once (``_gram_pass``): each row block's GEMM gives
    its share of s(C), which fixes m and the nodes, and is then rounded to
    the grid 2**-53, which moves a product of magnitude below 1/2 by at most
    2**-54 and no other, sorted and grouped into distinct values and counts.
    The groups are kept while their total stays within ``_BLOCK_ELEMS``
    values; the blocks past that budget are computed and grouped again
    after ``strip`` has run.  The energy and the moments are taken over the
    kept groups as one batch and over each later block alone, weighted by
    the counts, and node coverage over each group (see ``_nodes_cover``);
    ``energy`` and ``moments`` reduce the same way, so they equal the
    verdict's fields bit for bit.  A code with a repeated point raises
    InfiniteEnergyError for a kernel infinite at t = 1 and ValueError for
    any other kernel.
    """
    s, kept, resume = _gram_pass(code.points)
    if not pot.finite_at_one:
        _refuse_coincident(s)
    if s >= 1.0:
        raise ValueError(
            "the code has coincident points (separation 1), so no energy strip applies"
        )
    es = strip(code.dim, code.size, s, pot)
    quad = es.uub_cert.quad
    half_energy, sums, covered = 0.0, np.zeros(quad.m), True
    for batch in _batches(code.points, kept, resume):
        values, counts = _pooled(batch)
        half_energy += float(counts @ pot(values))
        _add_gegen_sums(code.dim, values, counts, sums)
        covered = covered and all(_nodes_cover(v, quad.nodes) for v, _ in batch)
    e = 2.0 * half_energy
    tol = STRIP_TOL * max(1.0, abs(es.uub), abs(es.ulb))
    inside = (es.ulb - tol <= e) and (e <= es.uub + tol)
    return StripVerdict(
        dim=code.dim,
        size=code.size,
        separation=s,
        energy=e,
        strip=es,
        inside=inside,
        attains_uub=abs(e - es.uub) <= tol,
        attains_ulb=abs(e - es.ulb) <= tol,
        nodes_cover_products=covered,
        moments=_moments_from_sums(code.size, sums),
    )


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
