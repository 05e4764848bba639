"""Concrete spherical codes: construction, energy, and bound verification.

A code is an M x n array of unit rows.  Energies sum the kernel over
ordered pairs of distinct points; moments sum Gegenbauer values over all
ordered pairs including the diagonal, so the positive-definiteness of the
basis makes every moment nonnegative.

No Gram matrix is stored.  Every pairwise quantity is a reduction over the
strict upper triangle of the Gram matrix, streamed in blocks of about
B = ``_BLOCK_ELEMS`` inner products each, so memory is O(B + M) rather
than O(M^2).  The strip of rows i..j-1 against the columns i..M-1, of
width w = M - i, takes B // w rows (at least one) and is one block, unless
that is fewer than L = isqrt(B) // 4 rows (64 at the default budget): a
row wider than B // L products then gets a strip of L rows, split into
tiles of B // L columns, each a block.  So a wide row is not a one-row
block, which numpy runs as a matrix-vector product at a fraction of the
GEMM's speed per product, and every code of at most B // L rows streams
one block per strip.  Every reduction reads the blocks from one generator
(``_gram_blocks``), so a product is the same float whichever reduction
reads it, and reads each tile as the flat array of its products above the
diagonal.

``verify_strip``, ``energy`` and ``moments`` stream the Gram once
(``_gram_pass``) under a histogram budget.  The same GEMM gives each
block's share of the separation and is then rounded to the grid 2**-53,
sorted and merged into one running histogram, its distinct values in
ascending order with their counts summed, while the histogram and the
block's own hold at most ``_BLOCK_ELEMS`` values together.  Designs and
sharp codes have few distinct products, so they are streamed once and h
and every P_i are evaluated once per distinct value, whatever M is.
Otherwise the block that passes the budget keeps its own histogram, and
the blocks after it are computed again and evaluated one histogram each.
The energy is twice a weighted sum of h and the moments are M + 2 sum P_i.

Antipodal codes, closed under x -> -x as most sharp and optimal codes are
(cross polytopes, the icosahedron, E8, the 600-cell, Leech), stream a
quarter of the Gram when their key order pairs their rows
(``_antipodal_half``): sorted by one linear key, the k-th row and the
(M - 1 - k)-th are x and -x entry for entry.  The blocks are then those of
H, the first M/2 rows of that order.  A product v of x, y in H stands for
the pairs {x, y} and {-x, -y} of the code and -v for {x, -y} and {-x, y},
and the M/2 pairs {x, -x} have the products -<x, x>.  IEEE negation is
exact and commutes with every product, FMA and sum, and the grid rounding
(half to even) and the clip to [-1, 1] are odd, so the histograms of H with
doubled counts, merged with their mirror images, are those of the whole
code up to the GEMM's own rounding.  That rounding can depend on the shape
of the product (a one-row block is a matrix-vector product), so a product,
and with it the separation, can differ in its last bits from a stream of
the whole code.  Every other code, an antipodal one its key order does not
pair included, is streamed whole; no option chooses the path.

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

import itertools
import math
from typing import Iterator, NamedTuple

import numpy as np

from .bounds import EnergyStrip, strip
from .errors import InfiniteEnergyError
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
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    return np.array(base) / math.sqrt(1.0 + phi * phi)


def _hexagon() -> np.ndarray:
    h = math.sqrt(3.0) / 2.0
    return np.array(
        [(1.0, 0.0), (0.5, h), (-0.5, h), (-1.0, 0.0), (-0.5, -h), (0.5, -h)]
    )


# The named codes that live in one dimension, and their builders.
_FIXED_DIM = {"icosahedron": (3, _icosahedron), "hexagon": (2, _hexagon)}


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
    if kind in _FIXED_DIM:
        dim, build = _FIXED_DIM[kind]
        if n not in (None, dim):
            raise ValueError(f"{kind} lives in dimension {dim}")
        return SphericalCode(build())
    raise ValueError(f"unknown code kind {kind!r}")


def _key_weights(n: int) -> np.ndarray:
    """cos 1, ..., cos n, linearly independent over the rationals: cos k =
    T_k(cos 1) has degree k in cos 1, which is transcendental, so distinct
    points with rational coordinates, up to a common scale, get distinct
    keys ``points @ w`` before rounding.
    """
    return np.cos(np.arange(1.0, n + 1.0))


def _antipodal_half(points: np.ndarray) -> np.ndarray | None:
    """Row indices a of one point of each pair {x, -x} if the key order
    pairs the rows, None otherwise.

    The rows are sorted by the key ``points @ w`` (``_key_weights``), and
    the k-th is paired with the (M - 1 - k)-th: the exact key of -x is minus
    that of x, so an order of distinct keys sorts -x to the place mirroring
    x's.  The half a is returned only if points[a] == -points[b] entry for
    entry, so it is exact and depends only on the points.  Where rounding
    ties or swaps the keys of distinct points, an antipodal code may go
    unpaired; it is then streamed whole, like every other code.

    Codes of 2 or 4 points are left whole, as their half would save
    nothing: one row has no block, and two rows make a single one-row block,
    which numpy runs as a matrix-vector product whose rounding can differ
    from the GEMM's in the last bit.
    """
    size, n = points.shape
    if size % 2 or size < 6:
        return None
    order = np.argsort(points @ _key_weights(n))
    a, b = order[: size // 2], order[: size // 2 - 1 : -1]
    return a if np.array_equal(points[a], -points[b]) else None


def _row_blocks(size: int):
    """Yield (i, j, lo, hi): rows i..j-1 of the Gram against its columns
    lo..hi-1, the tiles of the strips of rows i..j-1 against columns
    i..size-1 by the rule of the module docstring.  The tiles cover the
    strict upper triangle once; row size - 1 has no column past it.  A
    strip's first tile starts at lo = i and holds its diagonal.
    """
    least = math.isqrt(_BLOCK_ELEMS) // 4
    i = 0
    while i < size - 1:
        width = size - i
        rows, tile = max(1, _BLOCK_ELEMS // width), width
        if rows < least:
            rows, tile = least, _BLOCK_ELEMS // least
        j = min(size - 1, i + rows)
        for lo in range(i, size, tile):
            yield i, j, lo, min(size, lo + tile)
        i = j


def _gram_blocks(rows: np.ndarray, start: int = 0) -> Iterator[np.ndarray]:
    """Yield, for each tile of ``_row_blocks`` from the start-th on, the flat
    array of the tile's products above the diagonal: the GEMM
    ``rows[i:j] @ rows[lo:hi].T`` whole for a tile right of the diagonal,
    its strict upper triangle for a strip's first tile (lo = i).

    Every reduction reads the Gram through here, so a tile's products are
    the same floats whichever reduction reads them.
    """
    tiles = list(_row_blocks(rows.shape[0]))[start:]
    shape = np.max([(0, 0)] + [(j - i, hi - lo) for i, j, lo, hi in tiles], axis=0)
    upper = ~np.tri(*shape, dtype=bool)
    for i, j, lo, hi in tiles:
        block = rows[i:j] @ rows[lo:hi].T
        yield block[upper[: j - i, : hi - lo]] if lo == i else block.ravel()


def _block_max(vals: np.ndarray, mirrored: bool) -> float:
    """The largest product a tile of ``_gram_blocks`` stands for: its
    maximum, or for H the largest |<x, y>|, as <x, -y> = -<x, y> is a
    product of the code too."""
    if mirrored:
        return max(float(vals.max()), -float(vals.min()))
    return float(vals.max())


def _streamed_rows(points: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray]:
    """The rows whose Gram the reductions stream, whether they are the half H
    of an antipodal code (``_antipodal_half``), and the products the blocks
    of H leave out: -<x, x> for x in H, those of the M/2 pairs {x, -x} (none
    for a code streamed whole)."""
    half = _antipodal_half(points)
    if half is None:
        return points, False, np.empty(0)
    rows = points[half]
    return rows, True, -np.einsum("ij,ij->i", rows, rows)


def _to_grid_units(x: np.ndarray) -> np.ndarray:
    """Round x in place to the nearest multiple of ``_GRID`` and return it in
    units of the grid: rint(x / _GRID).  The scaling by a power of two is
    exact; the rounding moves a value of magnitude below 1/2 by at most
    _GRID / 2, leaves every other value unchanged and keeps ascending values
    ascending."""
    x *= 1.0 / _GRID
    return np.rint(x, out=x)


def _grid_runs(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat array ``vals`` on the grid ``_GRID`` as a histogram: its
    distinct values, ascending and clipped to [-1, 1], and their counts (see
    ``_runs``).  Overwrites vals.

    Rounding (``_to_grid_units``) comes before the sort, and the values stay
    in grid units until only the distinct ones are scaled back; the clip
    touches only the ends of the sorted values."""
    one = 1.0 / _GRID
    vals = _to_grid_units(vals)
    vals.sort()
    vals[: np.searchsorted(vals, -one, "left")] = -one
    vals[np.searchsorted(vals, one, "right") :] = one
    values, at = _runs(vals)
    return values * _GRID, np.diff(at).astype(float)


def _merge(hist: tuple, other: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One histogram of two: the distinct values of both, ascending, with
    the counts of a value in both summed (``_runs``)."""
    values, counts = (np.concatenate(pair) for pair in zip(hist, other))
    order = np.argsort(values, kind="stable")
    values, at = _runs(values[order])
    return values, np.add.reduceat(counts[order], at[:-1])


def _group(vals: np.ndarray, mirrored: bool) -> tuple[np.ndarray, np.ndarray]:
    """The products of a tile of ``_gram_blocks`` as a histogram
    (``_grid_runs``).  Overwrites vals.  A tile of H (``mirrored``) gives
    each value v with count c as (v, 2 c) and (-v, 2 c).
    """
    values, counts = _grid_runs(vals)
    if not mirrored:
        return values, counts
    counts = 2.0 * counts
    return _merge((values, counts), (-values[::-1], counts[::-1]))


def _gram_pass(points: np.ndarray) -> tuple[float, Iterator[tuple]]:
    """The separation and an iterator over the histograms to evaluate, by
    the budget rule of the module docstring.

    Each tile's maximum (``_block_max``) is taken in this call.  The first
    histogram yielded is the running one, seeded with the values -<x, x> of
    an antipodal code's pairs {x, -x} (``_streamed_rows``); any later one is
    a single block's, and the blocks past the one that crossed the budget,
    which may end in the middle of a strip, are computed again from the
    next block's index as the iterator is read.
    """
    rows, mirrored, pairs = _streamed_rows(points)
    s, hists, resume = float(pairs.max(initial=-1.0)), [_grid_runs(pairs)], 0
    for k, vals in enumerate(_gram_blocks(rows), 1):
        s = max(s, _block_max(vals, mirrored))
        if len(hists) == 1:
            group = _group(vals, mirrored)
            if hists[0][0].size + group[0].size <= _BLOCK_ELEMS:
                hists[0] = _merge(hists[0], group) if hists[0][0].size else group
            else:
                hists.append(group)
            resume = k
    again = (_group(vals, mirrored) for vals in _gram_blocks(rows, resume))
    return min(s, 1.0), itertools.chain(hists, again)


def _refuse_coincident(s: float, pot: Potential) -> None:
    """Raise for a separation within ``COINCIDENT_TOL`` of 1: InfiniteEnergyError
    for a kernel infinite at t = 1, ValueError for any other kernel."""
    if s < 1.0 - COINCIDENT_TOL:
        return
    if not pot.finite_at_one:
        raise InfiniteEnergyError("coincident points make the energy diverge for this kernel")
    raise ValueError(
        f"the code has coincident points (separation within {COINCIDENT_TOL:g} of 1), "
        "so no energy strip applies"
    )


def _add_gegen_sums(n: int, values: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> None:
    # sums[i - 1] += sum of counts * P_i(values), i = 1..sums.size.
    for i, p in enumerate(gegenbauer_terms(n, sums.size, values)):
        sums[i] += float(counts @ p)


def _runs(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ascending ``vals`` and the bounds of their
    runs: the k-th value fills vals[at[k]:at[k + 1]].  A run of equal values
    starts at 0 and wherever vals[k] != vals[k - 1]; the edges mark those
    starts and the end of the last run."""
    edges = np.empty(vals.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(vals[1:], vals[:-1], out=edges[1:-1])
    at = np.flatnonzero(edges)
    return vals[at[:-1]], at


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

    The maximum of the products above the diagonal of each tile of the
    Gram (``_gram_blocks``).  An antipodal code reads the tiles of its half
    H instead: the largest |<x, y>| over distinct x, y in H, or the largest
    -<x, x> of a pair {x, -x} where that is larger (``_streamed_rows``,
    ``_block_max``).  ``verify_strip``, ``energy`` and ``moments`` take the
    same maximum over the same tiles in the pass that groups them.
    """
    rows, mirrored, pairs = _streamed_rows(code.points)
    s = float(pairs.max(initial=-1.0))
    for vals in _gram_blocks(rows):
        s = max(s, _block_max(vals, mirrored))
    return min(s, 1.0)


def energy(code: SphericalCode, pot: Potential) -> float:
    """Sum of h over ordered pairs of distinct points.

    For a kernel infinite at t = 1, coincident points raise
    InfiniteEnergyError before h is evaluated.  h is evaluated once per
    value of each histogram of ``_gram_pass``, weighted by its count, so the
    result equals ``verify_strip(code, pot).energy`` bit for bit."""
    s, hists = _gram_pass(code.points)
    if not pot.finite_at_one:
        _refuse_coincident(s, pot)
    total = 0.0
    for values, counts in hists:
        total += float(counts @ pot(values))
    return 2.0 * total


def moments(code: SphericalCode, i_max: int) -> np.ndarray:
    """Gegenbauer moments sum_{x,y} P_i(<x,y>) for i = 0..i_max (diagonal
    included, so the zeroth moment is M^2 and all are nonnegative).

    Like ``energy``, each P_i is evaluated once per value of each histogram
    of ``_gram_pass``; for i_max equal to the class's m the result equals
    ``verify_strip``'s moments bit for bit."""
    sums = np.zeros(_check_degree(i_max))
    _, hists = _gram_pass(code.points)
    for values, counts in hists:
        _add_gegen_sums(code.dim, values, counts, sums)
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
    product sits on a quadrature node (``_nodes_cover``) and include the
    moments up to m (equality in the upper bound requires the moments paired
    with the negative coefficients of f to vanish).  The Gram is streamed
    by ``_gram_pass``, whose separation fixes m and the nodes; ``energy``
    and ``moments`` reduce the same histograms the same way, so they equal
    the verdict's fields bit for bit.  A separation within
    ``COINCIDENT_TOL`` of 1, which a repeated point gives, raises
    InfiniteEnergyError for a kernel infinite at t = 1 and ValueError for
    any other kernel, before ``strip`` runs.
    """
    s, hists = _gram_pass(code.points)
    _refuse_coincident(s, pot)
    es = strip(code.dim, code.size, s, pot)
    quad = es.uub_cert.quad
    half_energy, sums, covered = 0.0, np.zeros(quad.m), True
    for values, counts in hists:
        half_energy += float(counts @ pot(values))
        _add_gegen_sums(code.dim, values, counts, sums)
        covered = covered and _nodes_cover(values, quad.nodes)
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

