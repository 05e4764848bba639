"""Code containers, named constructions, energies, and strip verification."""

import collections
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import tracemalloc

import sphenergy.codes as codes_module
from oracles import EZ_N5_COSINES, ez_energy_n5
from sphenergy.bounds import uub
from sphenergy.codes import (
    COVER_TOL,
    SphericalCode,
    StripVerdict,
    energy,
    generate,
    load_code,
    moments,
    separation,
    verify_strip,
)
from sphenergy.errors import CertificationError, InfiniteEnergyError
from sphenergy.levenshtein import ez_separation, quadrature
from sphenergy.orthopoly import gegenbauer_table
from sphenergy.potentials import make_potential, parse_potential


def random_code(rng, M, n):
    pts = rng.randn(M, n)
    return SphericalCode(pts / np.linalg.norm(pts, axis=1)[:, None])


def test_generator_separations():
    for n in (2, 3, 5, 8):
        assert separation(generate("simplex", n)) == pytest.approx(
            -1.0 / n, abs=1e-12
        )
        assert separation(generate("cross_polytope", n)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert separation(generate("orthonormal", n)) == pytest.approx(0.0, abs=1e-12)
    assert separation(generate("icosahedron")) == pytest.approx(
        1.0 / math.sqrt(5.0), abs=1e-12
    )
    assert separation(generate("hexagon")) == pytest.approx(0.5, abs=1e-12)


def test_generator_sizes_and_errors():
    assert generate("simplex", 7).size == 8
    assert generate("cross_polytope", 7).size == 14
    assert generate("orthonormal", 7).size == 7
    assert generate("icosahedron").size == 12
    assert generate("hexagon").size == 6
    with pytest.raises(ValueError):
        generate("simplex")
    with pytest.raises(ValueError):
        generate("icosahedron", n=4)
    with pytest.raises(ValueError):
        generate("dodecahedron")


def test_spherical_code_validation():
    with pytest.raises(ValueError):
        SphericalCode(np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SphericalCode(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        SphericalCode(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2-D"):
        SphericalCode(np.eye(2)[None])
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        SphericalCode(np.array([[1.0], [-1.0]]))


def test_energy_matches_double_sum_oracle():
    rng = np.random.RandomState(61)
    pot = make_potential("riesz", alpha=1.0)
    for _ in range(5):
        code = random_code(rng, 9, 4)
        direct = sum(
            float(pot(float(np.dot(code.points[i], code.points[j]))))
            for i in range(code.size)
            for j in range(code.size)
            if i != j
        )
        assert energy(code, pot) == pytest.approx(direct, rel=1e-12)


def test_energy_closed_forms():
    pot = make_potential("riesz", alpha=2.0)
    for n in (3, 6):
        assert energy(generate("orthonormal", n), pot) == pytest.approx(
            n * (n - 1) * pot(0.0), rel=1e-13
        )
    pair = SphericalCode(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert energy(pair, pot) == pytest.approx(2.0 * pot(-1.0), rel=1e-14)


def test_energy_diverges_for_coincident_points():
    dup = SphericalCode(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(InfiniteEnergyError):
        energy(dup, make_potential("newton", n=2))
    # a kernel finite at t = 1 is still summable
    val = energy(dup, make_potential("gauss", alpha=1.0))
    assert val == pytest.approx(2.0 * (1.0 + 2.0 * math.exp(-1.0)), rel=1e-12)


def test_products_past_one_are_clipped_to_one():
    # Rows may miss unit length by NORM_TOL: a repeated row of norm 1 + 1e-12
    # and its antipode have products near 1 + 2e-12 and -1 - 2e-12, which
    # group to exactly -1 (twice) and 1 (once).
    v = np.array([0.6, 0.8, 0.0]) * (1.0 + 1e-12)
    code = SphericalCode(np.array([v, v, -v]))
    _, hists = codes_module._gram_pass(code.points)
    # One histogram: nothing is streamed again.
    ((values, counts),) = list(hists)
    assert np.array_equal(values, [-1.0, 1.0]) and np.array_equal(counts, [2.0, 1.0])
    pot = make_potential("gauss", alpha=1.0)
    assert energy(code, pot) == 2.0 * float(counts @ pot(values))


def test_energy_rotation_invariance():
    rng = np.random.RandomState(67)
    pot = make_potential("log")
    for _ in range(5):
        n = int(rng.randint(3, 7))
        code = random_code(rng, 10, n)
        q, _ = np.linalg.qr(rng.randn(n, n))
        rotated = SphericalCode(code.points @ q)
        assert separation(rotated) == pytest.approx(separation(code), abs=1e-10)
        assert energy(rotated, pot) == pytest.approx(energy(code, pot), rel=1e-10)


def test_moments_reference_and_nonnegativity():
    cross4 = generate("cross_polytope", 4)
    mom = moments(cross4, 4)
    assert mom[0] == pytest.approx(64.0, abs=1e-10)
    assert mom[1:4] == pytest.approx([0.0, 0.0, 0.0], abs=1e-10)
    assert mom[4] == pytest.approx(25.6, abs=1e-10)
    rng = np.random.RandomState(71)
    for _ in range(8):
        code = random_code(rng, 12, int(rng.randint(3, 6)))
        mom = moments(code, 6)
        assert mom[0] == pytest.approx(code.size**2, rel=1e-12)
        assert np.min(mom) >= -1e-9


def test_block_streaming_matches_dense_reference(monkeypatch):
    # 50 products per block split the 37-point triangle into 21 blocks:
    # one-row blocks first, several-row blocks later, a one-row block last.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", 50)
    rng = np.random.RandomState(73)
    code = random_code(rng, 37, 10)
    own = [codes_module._group(vals, False) for vals in codes_module._gram_blocks(code.points)]
    sizes = [counts.sum() for _, counts in own]
    assert len(sizes) == 21 and sizes[0] == 36 and sizes[-1] == 1
    assert sum(sizes) == 37 * 36 // 2
    for values, counts in own:
        assert np.all(values[1:] > values[:-1]) and np.all(counts >= 1)
        assert -1.0 <= values[0] and values[-1] <= 1.0
    # The products are all distinct, so the first block's 36 values start
    # the running histogram and the second block's 35 would take it past the
    # budget: that block keeps its own histogram.  Both are computed once, in
    # the pass, and the 19 blocks after them are computed again, to the bit,
    # one histogram each.
    calls = _count_gram_blocks(monkeypatch)
    _, hists = codes_module._gram_pass(code.points)
    assert calls == {(code.size, k): 1 for k in range(21)}
    again = list(hists)
    assert calls == {(code.size, k): 1 if k < 2 else 2 for k in range(21)}
    assert len(again) == 21
    for (values, counts), (v2, c2) in zip(own, again):
        assert np.array_equal(values, v2) and np.array_equal(counts, c2)

    gram = np.clip(code.points @ code.points.T, -1.0, 1.0)
    off = gram[np.triu_indices(code.size, k=1)]
    pot = make_potential("riesz", alpha=1.0)
    assert separation(code) == pytest.approx(float(np.max(off)), abs=1e-15)
    assert energy(code, pot) == pytest.approx(2.0 * float(np.sum(pot(off))), rel=1e-13)
    dense = gegenbauer_table(code.dim, 7, gram).sum(axis=(1, 2))
    assert moments(code, 7) == pytest.approx(dense, abs=1e-12 * code.size**2)

    v = verify_strip(code, pot)
    assert v.separation == separation(code)
    assert v.energy == energy(code, pot)
    assert np.array_equal(v.moments, moments(code, v.strip.uub_cert.quad.m))

    # Each tile yields its products above the diagonal and nothing else:
    # together they number M (M - 1) / 2 and, sorted, are the sorted strict
    # upper triangles of the same tiles' GEMMs to the bit.  This code at
    # budgets 50 and 2**10, a 300-point code whose rows wider than 128
    # products take tiles at 2**10, and the half H of an antipodal code.
    wide = random_code(rng, 300, 10).points
    half, halved, _ = codes_module._streamed_rows(np.vstack([wide[:150], -wide[:150]]))
    assert halved and half.shape[0] == 150
    for budget, rows in ((50, code.points), (2**10, code.points), (2**10, wide), (50, half), (2**10, half)):
        monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", budget)
        size, tiles = rows.shape[0], list(codes_module._row_blocks(rows.shape[0]))
        streamed = np.concatenate(list(codes_module._gram_blocks(rows)))
        assert streamed.size == size * (size - 1) // 2
        dense = np.concatenate([
            (rows[i:j] @ rows[lo:hi].T)[np.arange(i, j)[:, None] < np.arange(lo, hi)]
            for i, j, lo, hi in tiles
        ])
        assert np.array_equal(np.sort(streamed).view(np.int64), np.sort(dense).view(np.int64))
        assert any(lo > i for i, _, lo, _ in tiles) == (budget == 2**10 and size > 128)


@st.composite
def windows_and_values(draw):
    # Ascending nodes from -1 or above, some less than 2 COVER_TOL apart so
    # that their windows overlap; values on and around them, at -1 and at
    # the last node s, and anywhere in [-1, 1].
    start = draw(st.one_of(st.just(-1.0), st.floats(-1.0, -0.5)))
    gaps = draw(st.lists(st.one_of(st.floats(0.05, 1.95), st.floats(2.05, 2e6)), max_size=7))
    nodes = start + COVER_TOL * np.cumsum([0.0, *gaps])
    offsets = st.one_of(
        st.sampled_from([0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 3.0, -3.0]), st.floats(-4.0, 4.0)
    )
    near = st.tuples(st.integers(0, nodes.size - 1), offsets).map(
        lambda ko: nodes[ko[0]] + ko[1] * COVER_TOL
    )
    anywhere = st.one_of(st.just(-1.0), st.just(float(nodes[-1])), st.floats(-1.0, 1.0))
    vals = draw(st.lists(st.one_of(near, near, anywhere), min_size=1, max_size=40))
    return nodes, np.array(vals)


@settings(max_examples=200, deadline=None)
@given(windows_and_values())
def test_nodes_cover_matches_the_nearest_node_distance(case):
    nodes, vals = case
    dist = np.min(np.abs(vals[:, None] - nodes[None, :]), axis=1)
    # Exactly on a window end, the rounded ends nodes -+ COVER_TOL may
    # differ from |v - alpha| <= COVER_TOL by an ulp.
    assume(np.all(np.abs(dist - COVER_TOL) > 1e-12))
    expected = bool(np.all(dist <= COVER_TOL))
    assert codes_module._nodes_cover(np.sort(vals), nodes) == expected


@st.composite
def gram_blocks(draw):
    # A flat block of products in [-1, 1], drawn either from a pool of at
    # most 6 values (forced repeats) or freely.
    pool = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        pool = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=6)))
    # -0.0 and 0.0 compare equal and so share a run; adding 0.0 makes every
    # zero +0.0, so that the bitwise comparison below is meaningful.
    return np.array(draw(st.lists(pool, min_size=1, max_size=60))) + 0.0


@settings(max_examples=200, deadline=None)
@given(gram_blocks())
def test_runs_rebuild_the_sorted_block(block):
    vals = np.sort(block)
    values, at = codes_module._runs(vals)
    counts = np.diff(at)
    assert np.all(values[1:] > values[:-1]) and at[0] == 0 and at[-1] == block.size
    assert np.all(counts > 0)
    rebuilt = np.repeat(values, counts)
    assert np.array_equal(rebuilt.view(np.int64), vals.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(gram_blocks(), gram_blocks())
def test_merge_sums_the_counts_of_shared_values(first, second):
    # Two histograms, each its block's distinct values and counts, merge into
    # the histogram of both blocks together.
    hists = [codes_module._grid_runs(block.copy()) for block in (first, second)]
    values, counts = codes_module._merge(*hists)
    expected = codes_module._grid_runs(np.concatenate((first, second)))
    assert np.array_equal(values, expected[0]) and np.array_equal(counts, expected[1])


def _e8_roots():
    # The 240 roots of E8 scaled to the sphere: the 112 (+-1, +-1, 0^6)
    # permutations and the 128 (+-1/2)^8 with an even number of minus signs.
    pairs = [
        np.eye(8)[i] * a + np.eye(8)[j] * b
        for i in range(8)
        for j in range(i + 1, 8)
        for a in (1.0, -1.0)
        for b in (1.0, -1.0)
    ]
    signs = np.array(np.meshgrid(*[[0.5, -0.5]] * 8, indexing="ij")).reshape(8, -1).T
    halves = signs[np.sum(signs < 0, axis=1) % 2 == 0]
    return np.vstack([pairs, halves]) / math.sqrt(2.0)


@pytest.mark.parametrize("block_elems", [7, 50])
def test_verify_strip_over_distinct_products_matches_the_dense_gram(monkeypatch, block_elems):
    # E8 has 4 distinct products between distinct points.  Rotated, each
    # spreads over a few neighbouring floats.  Small blocks are mostly one
    # row each, so they run from 239 products with many repeats down to a
    # few products that are all distinct.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
    rotation = np.linalg.qr(np.random.RandomState(89).randn(8, 8))[0]
    code = SphericalCode(_e8_roots() @ rotation)
    pot = make_potential("riesz", alpha=1.0)
    v = verify_strip(code, pot)
    gram = np.clip(code.points @ code.points.T, -1.0, 1.0)
    off = gram[np.triu_indices(code.size, k=1)]
    assert v.energy == pytest.approx(2.0 * float(np.sum(pot(off))), rel=1e-13)
    dense = gegenbauer_table(code.dim, v.strip.uub_cert.quad.m, gram).sum(axis=(1, 2))
    assert v.moments == pytest.approx(dense, abs=1e-12 * code.size**2)
    assert v.separation == pytest.approx(0.5, abs=1e-12)
    assert v.strip.sharp and v.inside and v.attains_uub and v.attains_ulb
    assert v.nodes_cover_products


# Around the grid's edge at 1/2, near 0 (down to subnormals) and past +-1,
# where a computed product of unit vectors can land.
grid_values = st.one_of(
    st.floats(-1.0 - 2.0**-50, 1.0 + 2.0**-50),
    st.floats(-(2.0**-40), 2.0**-40),
    st.floats(0.5 - 2.0**-40, 0.5 + 2.0**-40).flatmap(lambda v: st.sampled_from((v, -v))),
    st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0**-54, 3 * 2.0**-54, 5e-324, 0.5 - 2.0**-54)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(grid_values, min_size=1, max_size=50))
def test_the_grid_moves_only_products_below_one_half_and_by_at_most_half_a_step(vals):
    x = np.array(vals)
    units = codes_module._to_grid_units(x.copy())
    assert np.array_equal(units, np.rint(units))
    on_grid = units * 2.0**-53
    big = np.abs(x) >= 0.5
    assert np.array_equal(on_grid[big], x[big])
    assert np.all(np.abs(on_grid - x) <= 2.0**-54)
    ascending = codes_module._to_grid_units(np.sort(x))
    assert np.all(ascending[1:] >= ascending[:-1])


@st.composite
def grouped_codes(draw, max_size):
    # Random codes, and E8 and cross polytopes under a random rotation, whose
    # products repeat only up to float noise; a kernel; and a block size from
    # one-row blocks up to the module's own.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "e8", "cross_polytope")))
    if kind == "random":
        n = draw(st.integers(2, 10))
        pts = rng.standard_normal((draw(st.integers(2, max_size)), n))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    else:
        pts = _e8_roots() if kind == "e8" else generate("cross_polytope", draw(st.integers(2, 8))).points
        pts = pts @ np.linalg.qr(rng.standard_normal((pts.shape[1],) * 2))[0]
    kernel = draw(st.sampled_from(("newton", "riesz:1", "gauss:2", "log")))
    return SphericalCode(pts), kernel, draw(st.sampled_from((7, 50, codes_module._BLOCK_ELEMS)))


@settings(max_examples=60, deadline=None)
@given(grouped_codes(max_size=15))
def test_energy_and_moments_equal_the_verdict_bitwise(case):
    code, kernel, block_elems = case
    pot = parse_potential(kernel, code.dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
        try:
            v = verify_strip(code, pot)
        except CertificationError:
            reject()
        assert energy(code, pot) == v.energy
        assert np.array_equal(moments(code, v.strip.uub_cert.quad.m), v.moments)


@settings(max_examples=60, deadline=None)
@given(grouped_codes(max_size=80))
def test_grouped_reductions_match_the_dense_gram(case):
    code, kernel, block_elems = case
    pot = parse_potential(kernel, code.dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
        e, mom = energy(code, pot), moments(code, 8)
    gram = np.clip(code.points @ code.points.T, -1.0, 1.0)
    off = gram[np.triu_indices(code.size, k=1)]
    h = pot(off)
    # Relative to the sum of |h|, as the log kernel changes sign; plus what h
    # makes of the gap between the dense GEMM's products and the blocks',
    # each within gamma_n of the exact one, which near t = 1 (close random
    # points) is far more than the grid's 2**-54.
    gamma = code.dim * 2.0**-53 / (1.0 - code.dim * 2.0**-53)
    tol = 1e-13 * float(np.sum(np.abs(h))) + 2.0 * gamma * float(np.sum(np.abs(pot.deriv(off))))
    assert abs(e - 2.0 * float(np.sum(h))) <= 2.0 * tol
    dense = gegenbauer_table(code.dim, 8, gram).sum(axis=(1, 2))
    assert np.all(np.abs(mom - dense) <= 1e-13 * code.size**2)


def _late_off_node_code(k=2):
    # +-e1..+-ek and two unit vectors of the (e_k+1, e_k+2) plane at angle 2:
    # the only product off the nodes of (k + 2, 2 k + 2, 0) is cos 2, in the
    # last row.
    late = np.zeros((2, k + 2))
    late[0, k], late[1, k:] = 1.0, (math.cos(2.0), math.sin(2.0))
    return SphericalCode(np.vstack([np.eye(k + 2)[:k], -np.eye(k + 2)[:k], late]))


@pytest.mark.parametrize("block_elems", [7, 50])
def test_node_coverage_over_blocks_matches_the_dense_check(monkeypatch, block_elems):
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
    pot = make_potential("riesz", alpha=1.0)
    cases = (
        (generate("cross_polytope", 6), True),
        (_late_off_node_code(), False),
        # At 50 products per block both of its blocks are kept, and the
        # off-node product is in the second.
        (_late_off_node_code(4), False),
        (random_code(np.random.RandomState(73), 37, 10), False),
    )
    for code, covered in cases:
        v = verify_strip(code, pot)
        gram = np.clip(code.points @ code.points.T, -1.0, 1.0)
        off = gram[np.triu_indices(code.size, k=1)]
        nodes = v.strip.uub_cert.quad.nodes
        gap = float(np.max(np.min(np.abs(off[:, None] - nodes[None, :]), axis=1)))
        assert (gap <= COVER_TOL) == covered
        assert v.nodes_cover_products == covered
        if covered:
            # A code whose products all sit on the nodes attains uub.
            assert v.attains_uub


def test_constant_kernel_returning_a_scalar():
    # eval_fn returns one float for a whole array; the cross polytope's 30
    # ordered pairs then carry energy 30, the sharp value of (3, 6, 0).
    one = make_potential("custom", eval_fn=lambda t: 1.0, deriv_fn=lambda t: 0.0)
    assert one(np.zeros((2, 3))).shape == (2, 3)
    assert one.deriv(np.zeros(4)).shape == (4,)
    assert one(0.5) == 1.0
    code = generate("cross_polytope", 3)
    assert energy(code, one) == 30.0
    assert uub(3, 6, 0.0, one).uub_value == pytest.approx(30.0, rel=1e-12)
    v = verify_strip(code, one)
    assert (v.strip.ulb, v.strip.uub) == pytest.approx((30.0, 30.0), rel=1e-12)
    assert v.strip.sharp and v.attains_uub and v.attains_ulb and v.nodes_cover_products
    assert v.energy == 30.0


@pytest.mark.parametrize("block_elems", [7, 50, codes_module._BLOCK_ELEMS])
def test_separation_is_the_maximum_of_the_masked_blocks(monkeypatch, block_elems):
    # separation is the maximum of the products _gram_blocks yields, those
    # above the diagonal of each tile: exactly the maximum over the strict
    # upper triangle of the same GEMMs, masked here to the columns past each
    # row.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
    rng = np.random.RandomState(79)
    pair = random_code(rng, 2, 5)
    antipodal = SphericalCode(np.array([[0.6, 0.8], [-0.6, -0.8]]))
    repeated = random_code(rng, 30, 4)
    repeated.points[17] = repeated.points[3]
    for code in (pair, antipodal, repeated, random_code(rng, 37, 10), generate("cross_polytope", 6)):
        masked = -1.0
        for i, j, lo, hi in codes_module._row_blocks(code.size):
            block = code.points[i:j] @ code.points[lo:hi].T
            upper = np.arange(i, j)[:, None] < np.arange(lo, hi)
            masked = max(masked, float(np.max(block[upper])))
        assert separation(code) == min(masked, 1.0)
    assert separation(antipodal) == -1.0
    assert separation(repeated) == 1.0


def _d8_shell(size, jitter=0.0):
    # The first `size` of the 3136 norm-6 vectors of D8, scaled to the
    # sphere: separation 5/6.  With jitter, each coordinate moves by that
    # times a standard normal (default_rng(1)) before the rows are
    # renormalized, which leaves no two products equal.
    axis = np.arange(-2, 3, dtype=np.int8)
    grid = np.stack(np.meshgrid(*[axis] * 8, indexing="ij"), axis=-1).reshape(-1, 8)
    pts = grid[np.sum(grid.astype(int) ** 2, axis=1) == 6][:size] / math.sqrt(6.0)
    if jitter:
        pts = pts + jitter * np.random.default_rng(1).standard_normal(pts.shape)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return SphericalCode(pts)


def _count_gram_blocks(monkeypatch):
    # Count the GEMMs of each tile, keyed by the number of rows streamed (M,
    # or M/2 for the half of an antipodal code) and the tile's position in
    # _row_blocks, through the one generator that makes them.
    calls = collections.Counter()
    blocks = codes_module._gram_blocks

    def counted(rows, start=0):
        for k, vals in enumerate(blocks(rows, start), start):
            calls[rows.shape[0], k] += 1
            yield vals

    monkeypatch.setattr(codes_module, "_gram_blocks", counted)
    return calls


def _grid_values(vals):
    # The distinct values of vals on the grid 2**-53, in grid units.
    return np.unique(np.clip(np.rint(vals * 2.0**53), -(2.0**53), 2.0**53))


def _blocks_past_budget(code):
    # The rows the pass streams (one point of each pair {x, -x} for an
    # antipodal code, else all of them) and the positions in _row_blocks of
    # the tile whose distinct products, with the running histogram's, would
    # pass _BLOCK_ELEMS, and of every tile after it.  A block's distinct products
    # are its upper triangle's on the grid, with their negatives for a half,
    # and the running histogram starts from the half's distinct -<x, x>.
    half = codes_module._antipodal_half(code.points)
    rows = code.points if half is None else code.points[half]
    starts = []
    running = np.empty(0) if half is None else _grid_values(-np.einsum("ij,ij->i", rows, rows))
    for k, (i, j, lo, hi) in enumerate(codes_module._row_blocks(rows.shape[0])):
        block = rows[i:j] @ rows[lo:hi].T
        own = _grid_values(block[np.arange(i, j)[:, None] < np.arange(lo, hi)])
        if half is not None:
            own = np.union1d(own, -own)
        if starts or running.size + own.size > codes_module._BLOCK_ELEMS:
            starts.append(k)
        else:
            running = np.union1d(running, own)
    return rows.shape[0], starts


@pytest.mark.parametrize("block_elems", [7, 50, 2**16])
def test_verify_strip_computes_a_row_block_twice_only_past_the_budget(monkeypatch, block_elems):
    # A block is computed once in the pass that takes the separation and
    # merges its histogram into the running one, and once more only if it
    # lies past the block whose histogram would take the running one past
    # the budget.  Antipodal codes stream only the blocks of their half.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
    calls = _count_gram_blocks(monkeypatch)
    rotation = np.linalg.qr(np.random.RandomState(89).randn(8, 8))[0]
    cases = {
        "cross_polytope": (generate("cross_polytope", 6), "riesz:1"),
        "e8": (SphericalCode(_e8_roots() @ rotation), "riesz:1"),
        "jittered": (_d8_shell(400, jitter=1e-7), "gauss:1"),
    }
    past = {}
    for name, (code, kernel) in cases.items():
        calls.clear()
        v = verify_strip(code, parse_potential(kernel, code.dim))
        assert v.inside
        rows, past[name] = _blocks_past_budget(code)
        assert rows == (code.size if name == "jittered" else code.size // 2)
        tiles = len(list(codes_module._row_blocks(rows)))
        assert calls == {(rows, k): 2 if k in past[name][1:] else 1 for k in range(tiles)}
    # A rotated E8 keeps about 13 distinct grid values per row block and 30
    # in all, so only a budget of 7 is passed, at its first block; the
    # cross polytope's half has the values -1 and 0 only.
    assert not past["cross_polytope"]
    assert bool(past["e8"]) == (block_elems == 7)
    assert past["jittered"]


def test_a_code_whose_merged_products_fit_the_budget_is_streamed_once(monkeypatch):
    # The cross polytope in R^8 streams its half, an orthonormal basis, in 6
    # row blocks at a budget of 7.  Each block holds the one product 0, which
    # stands for 0 and -0, and the pairs {x, -x} add -1.  Counted block by
    # block, 1 + 2 + 2 + 2 + 2 values pass the budget at the fourth block;
    # merged, the code has the 2 values -1 and 0, so every block is computed
    # once.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", 7)
    calls = _count_gram_blocks(monkeypatch)
    code = generate("cross_polytope", 8)
    v = verify_strip(code, make_potential("riesz", alpha=1.0))
    assert len(list(codes_module._row_blocks(code.size // 2))) == 6
    assert calls == {(code.size // 2, k): 1 for k in range(6)}
    assert v.inside and v.attains_uub and v.nodes_cover_products
    ((values, counts),) = list(codes_module._gram_pass(code.points)[1])
    assert np.array_equal(values, [-1.0, 0.0]) and np.array_equal(counts, [8.0, 112.0])


def test_wide_rows_stream_in_tiles_of_several_rows(monkeypatch):
    # At a budget of 2**10 a strip takes at least isqrt(2**10) // 4 = 8 rows,
    # so a row wider than 128 products is split into 8 x 128 tiles.  Codes
    # of 300-400 points: whole D8 shells, the second with products all
    # distinct, and an antipodal one, 150 shell vectors and their
    # negatives, whose half of 150 rows is tiled too.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", 2**10)
    pot = make_potential("gauss", alpha=1.0)
    shell = _d8_shell(3136).points
    codes = {
        "whole": _d8_shell(400),
        "distinct": _d8_shell(400, jitter=1e-7),
        "antipodal": SphericalCode(np.vstack([shell[:150], -shell[:150]])),
    }
    for name, code in codes.items():
        rows, halved, _ = codes_module._streamed_rows(code.points)
        size = rows.shape[0]
        assert halved == (name == "antipodal") and size > 128
        tiles = list(codes_module._row_blocks(size))
        assert all(j - i >= 8 and hi - lo <= 128 for i, j, lo, hi in tiles if size - i > 128)
        # Every strict-upper pair is in exactly one tile.
        seen = np.zeros((size, size), dtype=int)
        for i, j, lo, hi in tiles:
            seen[i:j, lo:hi] += np.arange(i, j)[:, None] < np.arange(lo, hi)
        assert np.array_equal(seen, np.triu(np.ones((size, size), dtype=int), 1))

        s, hists = codes_module._gram_pass(code.points)
        hists = list(hists)
        own = [codes_module._group(vals, halved) for vals in codes_module._gram_blocks(rows)]
        assert len(own) == len(tiles)
        # Against the dense Gram: the separation, and every product.
        off = (code.points @ code.points.T)[np.triu_indices(code.size, k=1)]
        assert abs(s - float(np.max(off))) <= 4 * np.spacing(float(np.max(off)))
        streamed = np.sort(np.concatenate([np.repeat(v, c.astype(int)) for v, c in hists]))
        dense = np.sort(np.clip(np.rint(off * 2.0**53), -(2.0**53), 2.0**53)) * 2.0**-53
        assert np.max(np.abs(streamed - dense)) <= 2 * code.dim * 2.0**-53
        # Past the budget: the block that crossed it keeps its own histogram,
        # and the blocks after it are computed again from the next tile's
        # index, one histogram each.  With all products distinct the second
        # tile of the first strip crosses it.
        later = own[len(own) - len(hists) + 1 :]
        for (v, c), (v2, c2) in zip(hists[1:], later):
            assert np.array_equal(v, v2) and np.array_equal(c, c2)
        if name == "distinct":
            crossing = tiles[len(tiles) - len(hists) + 1]
            assert crossing == (0, 8, 128, 256)
        else:
            assert len(hists) == 1

        verdict = verify_strip(code, pot)
        h = pot(dense)
        assert abs(verdict.energy - 2.0 * float(np.sum(h))) <= 2e-14 * float(np.sum(np.abs(h)))
        assert separation(code) == verdict.separation == s
        assert energy(code, pot) == verdict.energy
        assert np.array_equal(moments(code, verdict.strip.uub_cert.quad.m), verdict.moments)
        assert verdict.inside


def test_leech_builder_gives_golay_words_and_minimal_vectors():
    # tools/leech.py builds Leech from the extended Golay code; its weights
    # are 0, 8, 12, 16 and 24 with multiplicities 1/759/2576/759/1.  Every
    # 97th minimal vector, scaled by sqrt(8), has norm 32 and products in
    # {0, +-8, +-16, +-32} with the others.
    spec = importlib.util.spec_from_file_location("leech", Path(__file__).parent.parent / "tools" / "leech.py")
    leech = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(leech)
    weights = collections.Counter(leech.golay_codewords().sum(axis=1).tolist())
    assert weights == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    vectors = leech.leech_minimal_vectors()
    assert vectors.shape == (196560, 24)
    part = vectors[::97]
    assert np.all(np.einsum("ij,ij->i", part, part) == 32)
    assert set(np.unique(part @ part.T).tolist()) <= {0, 8, -8, 16, -16, 32, -32}


def test_verify_strip_memory_is_linear_in_the_size():
    # Codes in R^8 that the bound pipeline certifies: 3000 points whose
    # products repeat, the same with products all distinct, so that nearly
    # every row block lies past the budget, and the full 3136-point shell,
    # which is antipodal and streams its half.  The Gram matrix alone would
    # take 8 M^2 bytes (72 MB at M = 3000); verify_strip must stay below a
    # quarter of that.
    pot = make_potential("gauss", alpha=1.0)
    cases = ((3000, 0.0, 5.0 / 6.0, 1e-15), (3000, 1e-7, 0.83333365, 1e-8), (3136, 0.0, 5.0 / 6.0, 1e-15))
    for size, jitter, s, tol in cases:
        code = _d8_shell(size, jitter)
        tracemalloc.start()
        try:
            v = verify_strip(code, pot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.separation == pytest.approx(s, abs=tol)
        assert v.inside and v.moments[0] == code.size**2
        assert peak < 8 * code.size**2 / 4


def _outcome(code, pot):
    # The verdict of verify_strip, or the type and text of what it raised.
    try:
        return verify_strip(code, pot)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def antipodal_codes(draw):
    # A random half H of 1..30 points in R^2..R^8, some with a point repeated,
    # stacked with -H and the rows shuffled; a kernel; and a block size from
    # one-row blocks up to the module's own.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = rng.standard_normal((draw(st.integers(1, 30)), draw(st.integers(2, 8))))
    half /= np.linalg.norm(half, axis=1)[:, None]
    if half.shape[0] > 1 and draw(st.booleans()):
        half[-1] = half[0]
    pts = np.vstack([half, -half])[rng.permutation(2 * half.shape[0])]
    kernel = draw(st.sampled_from(("newton", "riesz:1", "gauss:2", "log")))
    return SphericalCode(pts), kernel, draw(st.sampled_from((7, 50, codes_module._BLOCK_ELEMS)))


@settings(max_examples=80, deadline=None)
@given(antipodal_codes())
def test_antipodal_codes_stream_their_half_and_match_the_dense_gram(case):
    # Against a dense reference, the full Gram rounded to the grid, and
    # against the same code streamed whole, as any other code is.
    code, kernel, block_elems = case
    size, pot = code.size, parse_potential(kernel, code.dim)
    off = (code.points @ code.points.T)[np.triu_indices(size, k=1)]
    values, counts = np.unique(np.clip(np.rint(off * 2.0**53), -(2.0**53), 2.0**53), return_counts=True)
    values *= 2.0**-53
    dense_s = min(max(-1.0, float(np.max(off))), 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
        rows, halved, seed = codes_module._streamed_rows(code.points)
        s, hists = codes_module._gram_pass(code.points)
        hists = list(hists)
        own = [codes_module._group(vals, halved) for vals in codes_module._gram_blocks(rows)]
        verdict = _outcome(code, pot)
        if isinstance(verdict, StripVerdict):
            assert separation(code) == verdict.separation == s
            assert energy(code, pot) == verdict.energy
            assert np.array_equal(moments(code, verdict.strip.uub_cert.quad.m), verdict.moments)
        mp.setattr(codes_module, "_antipodal_half", lambda points: None)
        whole_s = separation(code)
        whole = _outcome(code, pot)
    assert halved == (size >= 6)
    assert abs(s - dense_s) <= 4 * np.spacing(abs(dense_s))
    assert sum(c.sum() for _, c in hists) == size * (size - 1) // 2
    # Each histogram ascends strictly, as node coverage needs.
    assert all(np.all(v[1:] > v[:-1]) for v, _ in hists)
    # The running histogram holds at most the budget's values, or the
    # -<x, x> it starts from if they alone pass it; every later histogram is
    # the own histogram of one of the last blocks, so only a single block's
    # own may hold more.
    assert hists[0][0].size <= max(block_elems, _grid_values(seed).size)
    later = own[len(own) - len(hists) + 1 :]
    assert len(later) == len(hists) - 1
    for (v, c), (v2, c2) in zip(hists[1:], later):
        assert np.array_equal(v, v2) and np.array_equal(c, c2)
    if isinstance(verdict, StripVerdict):
        # Relative to the sum of |h|, as the log kernel changes sign.
        h = pot(values)
        assert abs(verdict.energy - 2.0 * float(counts @ h)) <= 2e-14 * float(counts @ np.abs(h))
    # The GEMM's rounding can depend on its shape, so the two streams may
    # differ in the separation's last bits; where they agree, the class and
    # every verdict, or the refusal of a repeated pair or of the class, agree.
    if s != whole_s:
        return
    if not isinstance(verdict, StripVerdict):
        assert verdict == whole
        return
    fields = ("inside", "attains_uub", "attains_ulb", "nodes_cover_products")
    assert [getattr(verdict, f) for f in fields] == [getattr(whole, f) for f in fields]


def _moved_by_one_ulp(points):
    pts = points.copy()
    pts[0, 0] = np.nextafter(pts[0, 0], np.inf)
    return pts


def _is_half(points, half):
    # Whether the rows half and their negatives are the rows of points.
    both = np.vstack([points[half], -points[half]])
    return both.shape == points.shape and np.array_equal(
        both[np.lexsort(both.T)], points[np.lexsort(points.T)]
    )


def test_antipodal_detection_is_exact(monkeypatch):
    # Detected codes stream only the blocks of their half; every other code
    # streams the whole Gram, as before.  Counted through _gram_blocks.
    calls = _count_gram_blocks(monkeypatch)
    gauss = make_potential("gauss", alpha=1.0)
    rotation = np.linalg.qr(np.random.RandomState(89).randn(8, 8))[0]
    rng = np.random.RandomState(79)
    repeated = random_code(rng, 30, 4)
    repeated.points[17] = repeated.points[3]
    v = np.array([0.6, 0.8, 0.0]) * (1.0 + 1e-12)
    detected = (
        generate("cross_polytope", 6),
        SphericalCode(_e8_roots()),
        SphericalCode(_e8_roots() @ rotation),
        generate("icosahedron"),
        generate("hexagon"),
    )
    others = (
        SphericalCode(_moved_by_one_ulp(_e8_roots() @ rotation)),
        SphericalCode(_moved_by_one_ulp(generate("cross_polytope", 6).points)),
        SphericalCode(_e8_roots()[1:]),
        random_code(rng, 37, 10),
        random_code(rng, 12, 4),
        random_code(rng, 2, 5),
        repeated,
        generate("simplex", 5),
        generate("orthonormal", 4),
        _late_off_node_code(),
        _late_off_node_code(4),
        _d8_shell(400),
        _d8_shell(400, jitter=1e-7),
        SphericalCode(np.array([v, v, -v])),
    )
    for code in detected + others:
        calls.clear()
        energy(code, gauss)
        half = codes_module._antipodal_half(code.points)
        rows = {rows for rows, _ in calls}
        if any(code is d for d in detected):
            assert rows == {code.size // 2} and _is_half(code.points, half)
        else:
            assert rows == {code.size} and half is None
        assert len(calls) == len(list(codes_module._row_blocks(rows.pop())))


def test_tied_keys_stream_the_code_whole(monkeypatch):
    # With weights 1..2 the unrotated E8 ties keys of distinct points, the key
    # order pairs the wrong rows, and the code is streamed whole: the verdict
    # of its half, up to the rounding of the moments' longer sums.
    e8 = SphericalCode(_e8_roots())
    newton = make_potential("newton", n=8)
    half = verify_strip(e8, newton)
    monkeypatch.setattr(codes_module, "_key_weights", lambda n: np.linspace(1.0, 2.0, n))
    assert codes_module._antipodal_half(e8.points) is None
    whole = verify_strip(e8, newton)
    fields = ("separation", "energy", "inside", "attains_uub", "attains_ulb", "nodes_cover_products")
    assert [getattr(whole, f) for f in fields] == [getattr(half, f) for f in fields]
    assert np.max(np.abs(whole.moments - half.moments)) <= 1e-12 * e8.size**2


def test_key_weights_are_cosines_of_the_integers():
    for n in (2, 5, 6, 1000):
        w = codes_module._key_weights(n)
        assert w.size == n
        assert w == pytest.approx([math.cos(k) for k in range(1, n + 1)], rel=0.0, abs=4e-16)


def test_energy_refuses_coincident_points_before_calling_the_kernel(monkeypatch):
    # The repeated pair (3, 17) lies in the fourth of the one-row blocks, so
    # a reduction that refused block by block would call h on three blocks
    # first.
    monkeypatch.setattr(codes_module, "_BLOCK_ELEMS", 50)
    code = random_code(np.random.RandomState(79), 30, 4)
    code.points[17] = code.points[3]
    newton = make_potential("newton", n=4)
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return newton.eval_fn(t)

    with pytest.raises(InfiniteEnergyError, match="coincident points"):
        energy(code, newton._replace(eval_fn=counted))
    assert calls == []
    assert energy(code, make_potential("gauss", alpha=1.0)) == pytest.approx(405.00722556110196, rel=1e-13)


@st.composite
def repeated_point_codes(draw):
    # A random code of 2..30 points in R^2..R^8 whose last point repeats an
    # earlier one, whole or stacked with its negatives (a half of 3 or more
    # points is streamed as one), the rows shuffled; a kernel; and a block
    # size from one-row blocks up to the module's own.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_normal((draw(st.integers(2, 30)), draw(st.integers(2, 8))))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[-1] = pts[draw(st.integers(0, pts.shape[0] - 2))]
    if draw(st.booleans()):
        pts = np.vstack([pts, -pts])
    kernel = draw(st.sampled_from(("newton", "riesz:1", "gauss:2", "log")))
    code = SphericalCode(pts[rng.permutation(pts.shape[0])])
    return code, kernel, draw(st.sampled_from((7, 50, codes_module._BLOCK_ELEMS)))


@settings(max_examples=100, deadline=None)
@given(repeated_point_codes())
def test_a_repeated_point_is_refused_as_coincident_for_every_kernel(case):
    # Whether the computed <x, x> of the repeated point rounds to 1 or just
    # below it, the code is refused as coincident before strip runs, which
    # would otherwise place a separation of 1 - 2**-52 beyond I_64.
    code, kernel, block_elems = case
    pot = parse_potential(kernel, code.dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes_module, "_BLOCK_ELEMS", block_elems)
        with pytest.raises(ValueError) as refusal:
            verify_strip(code, pot)
    if pot.finite_at_one:
        assert type(refusal.value) is ValueError
        assert str(refusal.value).startswith("the code has coincident points")
    else:
        assert type(refusal.value) is InfiniteEnergyError
        assert str(refusal.value).startswith("coincident points make the energy diverge")


def test_load_code_good_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(
        "# planar square\n"
        "1, 0\n"
        "0 1\n"
        "\n"
        "-1, 0  # opposite corner\n"
        "0,-1\n"
    )
    code = load_code(path)
    assert code.size == 4
    assert code.dim == 2
    assert separation(code) == pytest.approx(0.0, abs=1e-12)


def test_load_code_skips_a_utf8_byte_order_mark(tmp_path):
    # as spreadsheet "CSV UTF-8" exports begin
    path = tmp_path / "bom.txt"
    path.write_bytes("1 0 0\n0 1 0\n".encode("utf-8-sig"))
    assert load_code(path).points.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def test_load_code_renormalizes_near_unit_rows(tmp_path):
    path = tmp_path / "near.txt"
    eps = 1e-10
    path.write_text(f"{1 + eps} 0\n0 {1 - eps}\n")
    code = load_code(path)
    assert np.linalg.norm(code.points, axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)


def test_load_code_rejects_bad_files(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0\n0 1 0\n")
    with pytest.raises(ValueError, match="inconsistent"):
        load_code(ragged)

    short = tmp_path / "short.txt"
    short.write_text("0.5 0\n0 1\n")
    with pytest.raises(ValueError, match="norm"):
        load_code(short)

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("1 0\nzero one\n")
    with pytest.raises(ValueError, match="line 2"):
        load_code(garbled)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no points"):
        load_code(empty)

    column = tmp_path / "column.txt"
    column.write_text("1\n-1\n")
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        load_code(column)


def test_verify_strip_sharp_configurations():
    v = verify_strip(generate("simplex", 4), make_potential("newton", n=4))
    assert v.inside and v.attains_uub and v.attains_ulb
    assert v.nodes_cover_products
    assert v.strip.sharp

    v = verify_strip(generate("cross_polytope", 5), make_potential("log"))
    assert v.inside and v.attains_uub and v.attains_ulb
    assert v.nodes_cover_products


def test_verify_strip_orthonormal_attains_uub():
    v = verify_strip(generate("orthonormal", 6), make_potential("riesz", alpha=2.0))
    assert v.energy == pytest.approx(15.0, rel=1e-12)
    assert v.attains_uub
    assert v.inside


def test_verify_strip_icosahedron_attains_ulb():
    # the separation 1/sqrt(5) sits exactly on an interval endpoint, where
    # M = 12 equals the quadrature cardinality and the strip collapses
    v = verify_strip(generate("icosahedron"), make_potential("newton", n=3))
    assert v.inside
    assert v.attains_ulb and v.attains_uub
    assert v.energy == pytest.approx(98.33050611525762, rel=1e-10)
    assert v.nodes_cover_products
    assert v.strip.sharp


def test_moments_and_verify_strip_leave_the_points_unchanged():
    code = random_code(np.random.RandomState(83), 16, 6)
    before = code.points.copy()
    code.points.flags.writeable = False  # any write into the points would raise
    moments(code, 9)
    verify_strip(code, make_potential("newton", n=6))
    assert np.array_equal(code.points, before)


def test_verify_strip_random_code_inside():
    rng = np.random.RandomState(79)
    code = random_code(rng, 7, 3)
    v = verify_strip(code, make_potential("riesz", alpha=1.0))
    assert v.inside
    assert v.strip.ulb <= v.energy <= v.strip.uub
    assert not v.attains_uub


def test_ez_separation_value_and_cubic():
    s = ez_separation(5)
    assert s == pytest.approx(0.13285354259858992, abs=1e-12)
    n = 5
    residual = n * (n - 2) ** 2 * s**3 - n * n * s**2 - n * s + 1.0
    assert abs(residual) < 1e-12
    for n in range(3, 9):
        s = ez_separation(n)
        assert 0.0 < s < 1.0 / n
        residual = n * (n - 2) ** 2 * s**3 - n * n * s**2 - n * s + 1.0
        assert abs(residual) < 1e-12
    with pytest.raises(ValueError):
        ez_separation(2)


def test_ez_separation_is_the_root_of_the_cubic():
    for n in range(3, 25):
        roots = np.roots([n * (n - 2) ** 2, -(n * n), -n, 1.0])
        inside = [r.real for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0 / n]
        assert len(inside) == 1
        assert ez_separation(n) == pytest.approx(inside[0], rel=1e-13, abs=1e-15)


def test_ez_energy_reference_values():
    assert ez_energy_n5(make_potential("newton", n=5)) == pytest.approx(
        39.02259526040485, rel=1e-10
    )
    ones = make_potential(
        "custom",
        eval_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        deriv_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    assert ez_energy_n5(ones) == pytest.approx(110.0, abs=1e-12)
    assert ez_energy_n5(make_potential("riesz", alpha=3.0)) == pytest.approx(
        ez_energy_n5(make_potential("newton", n=5)), rel=1e-13
    )


def test_ez_cosines_are_admissible():
    assert all(-1.0 <= t < 0.0 for t in EZ_N5_COSINES)
    assert len(EZ_N5_COSINES) == 3
