"""Interval classification, Levenshtein function, node polynomial, quadrature."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphenergy
from oracles import lev_value_inline
from sphenergy.bounds import SHARP_TOL
from sphenergy.errors import CertificationError, NumericsError
from sphenergy.levenshtein import (
    _lev_function,
    dgs_number,
    exactness_residual,
    find_interval,
    interval_for,
    lev_poly_roots,
    lev_value,
    levenshtein_poly,
    quadrature,
    solve_cardinality,
)


def test_find_interval_reference_points():
    assert find_interval(4, 0.5).m == 5
    assert find_interval(5, 0.13285).m == 3
    # s = 0 is the shared endpoint of I_2 and I_3: the smaller index wins
    iv = find_interval(5, 0.0)
    assert (iv.m, iv.tie_with) == (2, 3)


def test_find_interval_ties_at_one_half():
    # 1/2 is an exact interval endpoint for n = 2 and n = 8
    iv2 = find_interval(2, 0.5)
    assert (iv2.m, iv2.tie_with) == (4, 5)
    iv8 = find_interval(8, 0.5)
    assert (iv8.m, iv8.tie_with) == (6, 7)
    # ... but an interior point for n = 5 (right endpoint is 0.50778...)
    iv5 = find_interval(5, 0.5)
    assert (iv5.m, iv5.tie_with) == (5, None)
    assert iv5.hi == pytest.approx(0.5077876295583149, abs=1e-12)


def test_find_interval_covers_line():
    for n in (3, 7):
        last_hi = -1.0
        for m in range(1, 12):
            iv = interval_for(n, m)
            assert iv.lo == pytest.approx(last_hi, abs=1e-12)
            assert iv.lo < iv.hi
            last_hi = iv.hi


def test_find_interval_rejects_bad_separation():
    with pytest.raises(ValueError):
        find_interval(4, 1.0)
    with pytest.raises(ValueError):
        find_interval(4, -1.5)


def test_find_interval_beyond_the_last_interval():
    # a valid separation that no supported interval holds is not an input error
    hi = interval_for(5, 64).hi
    with pytest.raises(CertificationError, match=r"beyond I_64 = \[.*\], the last supported"):
        find_interval(5, 0.9895)
    assert find_interval(5, hi).m == 64


EIGENSOLVE_PROBE = """
import json, numpy.linalg
calls = 0
eigvalsh = numpy.linalg.eigvalsh
def counted(*args, **kwargs):
    global calls
    calls += 1
    return eigvalsh(*args, **kwargs)
numpy.linalg.eigvalsh = counted
from sphenergy.levenshtein import find_interval, interval_for
out = []
for n, s in ((5, 0.92), (24, 0.93)):
    before = calls
    m = find_interval(n, s).m
    cold = calls - before
    interval_for(n, m)
    find_interval(n, s)
    out.append([m, cold, calls - before - cold])
print(json.dumps(out))
"""


def test_a_cold_lookup_in_i_m_makes_m_eigensolves():
    # The right end of I_m is one eigensolve, shared with I_{m+1} as its left
    # end and cached: the walk to I_m solves hi_1 .. hi_m once each.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphenergy.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", EIGENSOLVE_PROBE], env=env, capture_output=True, text=True)
    out.check_returncode()
    assert json.loads(out.stdout) == [[21, 21, 0], [63, 63, 0]]


def test_lev_value_reference_points():
    assert lev_value(4, interval_for(4, 5), 0.5) == pytest.approx(26.0, abs=1e-10)
    for n in (3, 5, 8):
        assert lev_value(n, interval_for(n, 2), 0.0) == pytest.approx(2 * n, abs=1e-10)
    s_star = 0.13285354259858992
    assert lev_value(5, interval_for(5, 3), s_star) == pytest.approx(13.3014, abs=1e-3)


def test_lev_value_at_the_shared_half_endpoint():
    # both interval formulas give the kissing value 240 for n = 8
    assert lev_value(8, interval_for(8, 6), 0.5) == pytest.approx(240.0, abs=1e-8)
    assert lev_value(8, interval_for(8, 7), 0.5) == pytest.approx(240.0, abs=1e-8)


def test_lev_function_monotone_and_continuous():
    for n in (3, 4, 6):
        prev = 0.0
        for s in np.linspace(-0.6, 0.7, 260):
            iv = find_interval(n, float(s))
            val = lev_value(n, iv, float(s))
            assert val > prev
            prev = val
        # adjacent closed forms agree at the junction
        for m in range(1, 8):
            iv, nxt = interval_for(n, m), interval_for(n, m + 1)
            a = lev_value(n, iv, iv.hi)
            b = lev_value(n, nxt, iv.hi)
            assert b == pytest.approx(a, rel=1e-9)


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 24), st.integers(1, 64), st.booleans())
def test_per_interval_lev_function_is_lev_value_bitwise(n, m, at_hi):
    # Odd and even m cover both eps; each end of I_m in turn.
    iv = interval_for(n, m)
    s = iv.hi if at_hi else iv.lo
    want = lev_value_inline(n, iv, s).hex()
    assert _lev_function(n, m)(s).hex() == want
    assert lev_value(n, iv, s).hex() == want
    # M = D(n, m) is L at an end of the interval solve_cardinality picks, where
    # the bracket value there is exactly 0 and the root search returns that end.
    M = dgs_number(n, m)
    r, rule = solve_cardinality(n, M)
    assert r in (rule.interval.lo, rule.interval.hi)
    assert abs(rule.N - M) <= SHARP_TOL * max(1.0, M)


def test_lev_endpoints_are_dgs_numbers():
    for n in (3, 4, 5, 8):
        for m in range(1, 8):
            iv = interval_for(n, m)
            assert lev_value(n, iv, iv.hi) == pytest.approx(
                dgs_number(n, m + 1), rel=1e-8
            )
            if m > 1:
                assert lev_value(n, iv, iv.lo) == pytest.approx(
                    dgs_number(n, m), rel=1e-8
                )


def test_lev_poly_roots_even_reference():
    for n in (3, 5, 8):
        roots = lev_poly_roots(n, interval_for(n, 2), 0.0)
        assert np.allclose(roots, [-1.0, 0.0], atol=1e-13)


def test_lev_poly_roots_ez_reference():
    s_star = 0.13285354259858992
    roots = lev_poly_roots(5, interval_for(5, 3), s_star)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.68069, abs=1e-4)
    assert roots[-1] == s_star  # snapped exactly


def test_lev_poly_roots_ordered_and_topped_by_s():
    rng = np.random.RandomState(31)
    for _ in range(30):
        n = int(rng.randint(3, 9))
        s = float(rng.uniform(-0.2, 0.65))
        iv = find_interval(n, s)
        roots = lev_poly_roots(n, iv, s)
        assert len(roots) == iv.k + iv.eps
        assert all(x < y for x, y in zip(roots, roots[1:]))
        assert roots[-1] == s
        if iv.eps == 1:
            assert roots[0] == -1.0


def test_levenshtein_poly_invariants():
    for n, s in [(4, 0.5), (5, 0.13285354259858992), (6, 0.3), (3, 0.45)]:
        rule = quadrature(n, s)
        lp = levenshtein_poly(rule)
        assert len(rule.multiset) == rule.m == lp.degree
        assert all(c > 0 for c in lp.coeffs)
        grid = np.linspace(-1.0, s, 400)
        assert np.max(lp(grid)) <= 1e-9 * max(1.0, abs(lp.at_one()))


def test_levenshtein_poly_antipodal_case():
    # s = 1/sqrt(5), n = 3 sits on the shared endpoint of I_4 and I_5; the
    # odd-side construction pushes its lowest interior node onto -1 exactly,
    # recovering the icosahedron inner-product set {-1, -1/sqrt(5), 1/sqrt(5)}.
    # quadrature takes the tie's smaller index, so I_5's nodes go in by hand.
    s = 1 / math.sqrt(5)
    assert find_interval(3, s).tie_with == 5
    iv = interval_for(3, 5)
    rule = quadrature(3, s)._replace(interval=iv, nodes=lev_poly_roots(3, iv, s))
    assert sorted(rule.multiset) == pytest.approx([-1.0, -1.0, -s, -s, s], abs=1e-12)
    assert rule.multiset.count(-1.0) == 2
    assert (levenshtein_poly(rule).coeffs > 0.0).all()
    assert lev_value(3, iv, s) == pytest.approx(12.0, abs=1e-9)


@pytest.mark.parametrize("call, error, words", [
    (lambda: interval_for(3, 65), ValueError, "interval index must be in 1..64, got 65"),
    (lambda: dgs_number(3, 0), ValueError, "index must be a positive integer, got 0"),
    (lambda: levenshtein_poly(quadrature(3, 0.5)._replace(nodes=quadrature(3, 0.5).nodes[:-1])),
     NumericsError, "node multiset has 3 entries, expected m = 5"),
], ids=["interval-index", "dgs-index", "multiset-length"])
def test_index_and_multiset_refusals(call, error, words):
    with pytest.raises(error, match=words):
        call()


def test_quadrature_orthonormal_case_is_exact():
    for n in (3, 5, 8, 10):
        rule = quadrature(n, 0.0)
        assert np.allclose(rule.nodes, [-1.0, 0.0], atol=1e-12)
        assert np.allclose(rule.weights, [1 / (2 * n), (n - 1) / n], atol=1e-12)
        assert rule.N == pytest.approx(2 * n, abs=1e-10)
    # N rho_i is the cross polytope's distance distribution: 1 antipode, 6 orthogonal
    rule = quadrature(4, 0.0)
    assert rule.weights * rule.N == pytest.approx([1.0, 6.0], abs=1e-9)


def test_quadrature_partition_of_unity_and_exactness():
    rng = np.random.RandomState(37)
    for _ in range(25):
        n = int(rng.randint(3, 9))
        s = float(rng.uniform(-0.2, 0.7))
        rule = quadrature(n, s)
        assert 1.0 / rule.N + sum(rule.weights) == pytest.approx(1.0, abs=1e-11)
        assert all(w > 0 for w in rule.weights)
        assert rule.residual < 1e-9
        assert rule.residual == exactness_residual(rule.table, rule.weights, rule.N)
        target = np.full(rule.m + 1, -1.0 / rule.N)
        target[0] += 1.0
        assert rule.residual == float(abs(rule.table @ rule.weights - target).max())


def test_quadrature_ez_residual():
    rule = quadrature(5, 0.13285354259858992)
    assert rule.residual < 1e-10
    assert rule.m == 3


def test_quadrature_rejects_bad_separation():
    with pytest.raises(ValueError):
        quadrature(4, 1.0)


def test_solve_cardinality_reference_points():
    for n in (3, 5, 8):
        r, rule = solve_cardinality(n, 2 * n)
        assert r == pytest.approx(0.0, abs=1e-12)
        assert rule.N == pytest.approx(2 * n, abs=1e-8)
        r, _ = solve_cardinality(n, n + 1)
        assert r == pytest.approx(-1.0 / n, abs=1e-12)


def test_solve_cardinality_two_points():
    # M = 2 = D(n, 1) is the left end of I_1, where the root search stops at
    # once: the rule is bitwise the quadrature at s = -1.
    for n in range(2, 25):
        r, rule = solve_cardinality(n, 2)
        ref = quadrature(n, -1.0)
        assert r == -1.0
        assert rule.N == ref.N
        assert np.array_equal(rule.nodes, ref.nodes)
        assert np.array_equal(rule.weights, ref.weights)
        assert rule.N == pytest.approx(2.0, abs=1e-12)


def test_solve_cardinality_round_trip():
    rng = np.random.RandomState(41)
    for _ in range(20):
        n = int(rng.randint(3, 9))
        M = float(rng.uniform(2.5, 400.0))
        r, rule = solve_cardinality(n, M)
        assert lev_value(n, rule.interval, r) == pytest.approx(M, rel=1e-9)


def test_solve_cardinality_inverts_lev_on_every_sweep_interval():
    # For each interval I_1..I_20 of the benchmark dimensions: a cardinality
    # inside (D(n, m), D(n, m + 1)), just above D(n, m) and at D(n, m + 1).
    for n in (3, 4, 5, 8, 10, 24):
        for m in range(1, 21):
            lo, hi = dgs_number(n, m), dgs_number(n, m + 1)
            for M in (0.5 * (lo + hi), lo + 1e-3 * (hi - lo), hi):
                r, rule = solve_cardinality(n, M)
                assert lev_value(n, rule.interval, r) == pytest.approx(M, rel=1e-9)


def test_solve_cardinality_rejects_small_m():
    with pytest.raises(ValueError):
        solve_cardinality(4, 1.5)


def test_lev_poly_roots_left_endpoints_stay_in_range():
    # At the left end of an odd interval the smallest node is exactly -1;
    # at the left end of an even one it lies strictly above the prepended -1.
    for n in range(2, 25):
        for m in range(1, 65):
            iv = interval_for(n, m)
            roots = lev_poly_roots(n, iv, iv.lo)
            assert roots[0] == -1.0
            assert roots[-1] == iv.lo
            if m > 1 and iv.eps == 1:
                assert roots[1] > -1.0
    # a lone node just above -1 is s itself, not snapped to -1
    assert lev_poly_roots(4, interval_for(4, 1), -1.0 + 1e-12)[0] == -1.0 + 1e-12


def test_solve_cardinality_inside_the_last_intervals():
    # L(3, .) passes 1000 inside I_61, close to the top of the supported range
    r, rule = solve_cardinality(3, 1000)
    assert rule.m == 61
    iv = interval_for(3, 61)
    assert iv.lo <= r <= iv.hi
    assert lev_value(3, rule.interval, r) == pytest.approx(1000.0, rel=1e-9)


def test_solve_cardinality_beyond_the_last_interval():
    for n in (3, 8):
        M = dgs_number(n, 65) * 1.001
        with pytest.raises(CertificationError, match="needs intervals beyond index 64"):
            solve_cardinality(n, M)
