"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criterion 2 checks the reference energy table for the kissing ranges in
dimensions 2..10 (Newton kernel, s = 1/2).  Cell strings are matched to
within one unit in the last printed digit; a trailing '.' marks a value
truncated to its integer part.  Four upper-bound cells in dimensions 6 and
7 do not come from the direct construction at s = 1/2: they are reproduced
by composing the slack prefactor at s = 1/2 with the bound polynomial
assembled at the inversion separation r solving L(n, r) = M (for M = 72
the inversion is additionally pinned to the degree-6 interval formulas
below their own interval, which produces one negative weight).  For those
cells the test checks both the reproduction and the certified direct
values, which are larger.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import eval_jacobi

from oracles import ez_energy_n5, gegen_coefficient_integral, lp_upper, spare_node_bound
from sphenergy.bounds import (
    COEFF_TOL,
    GAP_TOL,
    hermite_interpolant,
    strip,
    test_functions as lp_test_functions,
    ulb,
    uub,
)
from sphenergy.cli import main
from sphenergy.codes import (
    SphericalCode,
    energy,
    generate,
    moments,
)
from sphenergy.levenshtein import (
    ez_separation,
    find_interval,
    interval_for,
    lev_poly_roots,
    lev_value,
    quadrature,
    solve_cardinality,
)
from sphenergy.orthopoly import (
    JacobiParams,
    eval_gegenbauer,
    gegenbauer_table,
    jacobi_zeros,
    product_to_gegen,
)
from sphenergy.potentials import make_potential, parse_potential


@pytest.fixture
def announce(capsys):
    def _announce(num: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {label}")

    return _announce


def criterion(num, label):
    def decorate(fn):
        def wrapper(announce):
            try:
                fn()
            except BaseException:
                announce(num, label, False)
                raise
            announce(num, label, True)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return decorate


@criterion(1, "11-point example in dimension 5 (Newton kernel)")
def test_criterion_1_ez_chain():
    n, M = 5, 11
    pot = make_potential("newton", n=n)
    s = ez_separation(n)
    assert s == pytest.approx(0.13285, abs=1e-5)

    iv = find_interval(n, s)
    roots = lev_poly_roots(n, iv, s)
    assert roots[0] == pytest.approx(-0.68069, abs=1e-4)

    cert = uub(n, M, s, pot)
    grid = np.linspace(-1.0, 1.0, 257)
    mono = np.polyfit(grid, cert.interpolant(grid), cert.interpolant.degree)
    assert mono == pytest.approx([0.23835, 0.46931, 0.37128], abs=1e-4)

    assert cert.lam == pytest.approx(0.661, abs=5e-3)
    assert cert.lam_argmax == 1
    assert cert.quad.N == pytest.approx(13.3014, abs=1e-3)
    assert cert.uub_value == pytest.approx(41.906, abs=1e-2)
    assert ulb(n, M, pot)[0] == pytest.approx(37.484, abs=1e-2)
    assert ez_energy_n5(pot) == pytest.approx(39.0225, abs=5e-3)


def cell_matches(value: float, cell: str) -> bool:
    text = cell.rstrip(".")
    _, dot, frac = text.partition(".")
    unit = 10.0 ** -len(frac) if dot else 1.0
    return abs(value - float(text)) <= unit * (1.0 + 1e-9)


def composed_upper(n: int, M: int, pot) -> float:
    # bound polynomial built at the separation r that makes the class
    # tight (L(n, r) = M), then combined with the slack prefactor at 1/2
    r, _ = solve_cardinality(n, M)
    cert = uub(n, M, r, pot)
    L_half = lev_value(n, find_interval(n, 0.5), 0.5)
    return M * (M / L_half - 1.0) * cert.f.at_one() + ulb(n, M, pot)[0]


def forced_composed_upper(n: int, M: int, m: int, pot) -> float:
    # same composition, but with the inversion pinned to interval m even
    # though M lies below it; the interval formulas extend analytically
    # and yield a quadrature with one negative weight
    iv = interval_for(n, m)
    r = brentq(lambda t: lev_value(n, iv, t) - M, iv.lo - 0.2, iv.lo)
    k, eps = iv.k, iv.eps
    a, b = (n - 1) / 2.0, eps + (n - 3) / 2.0

    def node_eq(t):
        return eval_jacobi(k, a, b, t) * eval_jacobi(k - 1, a, b, r) - eval_jacobi(
            k, a, b, r
        ) * eval_jacobi(k - 1, a, b, t)

    zeros_k = jacobi_zeros(JacobiParams(a, b), k)
    brackets = [(-1.0, zeros_k[0])] + list(zip(zeros_k, zeros_k[1:]))
    roots = [
        brentq(node_eq, lo, hi) for lo, hi in brackets if node_eq(lo) * node_eq(hi) <= 0
    ]
    nodes = np.asarray(([-1.0] if eps == 1 else []) + roots)
    assert nodes.size == k + eps
    table = gegenbauer_table(n, k - 1 + eps, nodes)
    rhs = np.full(k + eps, -1.0 / M)
    rhs[0] += 1.0
    weights = np.linalg.solve(table, rhs)
    assert np.min(weights) < 0.0  # outside the interval positivity is lost

    multiset = [-1.0] if eps == 1 else []
    for x in nodes[eps:-1]:
        multiset += [float(x), float(x)]
    multiset.append(float(nodes[-1]))
    g = hermite_interpolant(n, pot, multiset)
    lev = product_to_gegen(n, multiset)
    lam = max(g.coeffs[i] / lev.coeffs[i] for i in range(1, g.degree + 1))
    f_one = g.at_one() - lam * lev.at_one()
    L_half = lev_value(n, find_interval(n, 0.5), 0.5)
    lower = M * M * float(np.dot(weights, pot(nodes)))
    return M * (M / L_half - 1.0) * f_one + lower


TABLE_ROWS = [
    dict(n=2, Ms=(6,), L="6", ulb=("-10.75...",), uub=("-10.75...",)),
    dict(n=3, Ms=(12,), L="13.2", ulb=("98.3",), uub=("101.3",)),
    dict(n=4, Ms=(24,), L="26", ulb=("333",), uub=("344",)),
    dict(n=5, Ms=(40, 44), L="48", ulb=("765.", "947."), uub=("840.", "989.")),
    dict(
        n=6,
        Ms=(72, 78),
        L="84.",
        ulb=("2116.", "2530."),
        uub=("2218.", "2594."),
        composed={72: "forced", 78: "natural"},
    ),
    dict(
        n=7,
        Ms=(126, 134),
        L="142.",
        ulb=("5552.", "6376."),
        uub=("5793.", "6514."),
        composed={126: "natural", 134: "natural"},
    ),
    dict(n=8, Ms=(240,), L="240", ulb=("17721.",), uub=("17721.",)),
    # the energy columns' upper endpoints correspond to a 364-point class;
    # 363 points reproduce neither energy cell
    dict(
        n=9, Ms=(306, 364), L="384.", ulb=("23149.", "34231."), uub=("27443.", "35616.")
    ),
    dict(
        n=10,
        Ms=(500, 554),
        L="605",
        ulb=("53059.", "67004."),
        uub=("61467.", "71606."),
    ),
]

CERTIFIED_DIRECT = {
    (6, 72): 2325.121458,
    (6, 78): 2646.764310,
    (7, 126): 5992.096939,
    (7, 134): 6614.334937,
}


@criterion(2, "kissing-range energy table, dimensions 2..10 (Newton, s = 1/2)")
def test_criterion_2_reference_table():
    for row in TABLE_ROWS:
        n = row["n"]
        pot = make_potential("newton", n=n)
        L = lev_value(n, find_interval(n, 0.5), 0.5)
        assert cell_matches(L, row["L"]), (n, "L", L, row["L"])
        composed = row.get("composed", {})
        for M, ulb_cell, uub_cell in zip(row["Ms"], row["ulb"], row["uub"]):
            lo = ulb(n, M, pot)[0]
            assert cell_matches(lo, ulb_cell), (n, M, "ulb", lo, ulb_cell)
            direct = uub(n, M, 0.5, pot).uub_value
            mode = composed.get(M)
            if mode is None:
                assert cell_matches(direct, uub_cell), (n, M, "uub", direct, uub_cell)
            else:
                assert direct == pytest.approx(CERTIFIED_DIRECT[(n, M)], abs=1e-4)
                hi = (
                    composed_upper(n, M, pot)
                    if mode == "natural"
                    else forced_composed_upper(n, M, 6, pot)
                )
                assert cell_matches(hi, uub_cell), (n, M, "uub", hi, uub_cell)
                assert direct > hi  # the certified bound is the larger one


NAMED_KERNELS = ["newton", "riesz:1", "gauss:1", "log"]


@criterion(3, "orthonormal-basis exactness for n = 3..10, all named kernels")
def test_criterion_3_orthonormal_exactness():
    for n in range(3, 11):
        rule = quadrature(n, 0.0)
        assert rule.nodes == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert rule.weights == pytest.approx([1 / (2 * n), (n - 1) / n], abs=1e-12)
        code = generate("orthonormal", n)
        for spec in NAMED_KERNELS:
            pot = parse_potential(spec, n)
            cert = uub(n, n, 0.0, pot)
            exact = n * (n - 1) * float(pot(0.0))
            assert cert.uub_value == pytest.approx(exact, rel=1e-10)
            assert energy(code, pot) == pytest.approx(exact, rel=1e-10)


@criterion(4, "strip collapse at sharp configurations")
def test_criterion_4_sharp_collapse():
    for n in range(3, 9):
        pot = make_potential("newton", n=n)
        for kind, M, s in [
            ("simplex", n + 1, -1.0 / n),
            ("cross_polytope", 2 * n, 0.0),
        ]:
            es = strip(n, M, s, pot)
            assert abs(es.uub - es.ulb) < 1e-8 * abs(es.uub)
            e = energy(generate(kind, n), pot)
            assert es.ulb - 1e-8 * abs(e) <= e <= es.uub + 1e-8 * abs(e)
    pot3 = make_potential("newton", n=3)
    ico = energy(generate("icosahedron"), pot3)
    assert ico == pytest.approx(ulb(3, 12, pot3)[0], rel=1e-3)


def sweep_classes():
    for n in (3, 4, 5, 8):
        for s in np.linspace(-0.3, 0.64, 13):
            s = float(s)
            L = lev_value(n, find_interval(n, s), s)
            M = max(2, math.floor(L))
            yield n, M, s


@criterion(5, "feasibility certificates over a 200-class sweep")
def test_criterion_5_certificate_sweep():
    count = 0
    for n, M, s in sweep_classes():
        for spec in NAMED_KERNELS:
            cert = uub(n, M, s, parse_potential(spec, n))
            assert cert.feasibility.max_interior_coeff <= 1e-12
            assert cert.feasibility.min_gap >= -1e-9
            assert cert.feasibility.grid_size >= 2048
            assert cert.quad.residual < 1e-9
            assert np.min(cert.quad.weights) > 0.0
            count += 1
    assert count >= 200


@criterion(6, "structural property suites")
def test_criterion_6_properties():
    # vanishing test functions across the sweep
    for n, _, s in sweep_classes():
        rep = lp_test_functions(n, s, 12)
        assert rep.m <= 12
        vals = dict(rep.values)
        for j in range(1, rep.m + 1):
            assert abs(vals[j]) < 1e-9

    # extra interpolation node leaves the bound unchanged
    for idx, (n, M, s) in enumerate(sweep_classes()):
        if idx % 7:
            continue
        pot = make_potential("newton", n=n)
        base = uub(n, M, s, pot)
        _, refined = spare_node_bound(base)
        assert refined == pytest.approx(base.uub_value, rel=1e-9)

    # the certificate is a feasible point of the degree-m upper LP: clipping
    # its f_i (at most COEFF_TOL) to 0 and raising f_0 by GAP_TOL + m COEFF_TOL
    # makes it feasible at a cost of at most M^2 (GAP_TOL + m COEFF_TOL), and
    # HiGHS's dual tolerance, 1e-7 per cost coefficient, adds at most
    # M 1e-7 (|f|_1 + |f_lp|_1)
    for idx, (n, M, s) in enumerate(sweep_classes()):
        if idx % 7:
            continue
        for spec in NAMED_KERNELS:
            cert = uub(n, M, s, parse_potential(spec, n))
            f_lp, value = lp_upper(cert)
            l1 = float(abs(cert.f.coeffs).sum() + abs(f_lp.coeffs).sum())
            tol = M * M * (GAP_TOL + cert.quad.m * COEFF_TOL) + M * 1e-7 * l1
            assert value <= cert.uub_value + tol

    # energy is rotation invariant
    rng = np.random.RandomState(83)
    pot = make_potential("riesz", alpha=1.0)
    for _ in range(5):
        nd = int(rng.randint(3, 6))
        pts = rng.randn(9, nd)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        code = SphericalCode(pts)
        q, _ = np.linalg.qr(rng.randn(nd, nd))
        rotated = SphericalCode(pts @ q)
        assert energy(rotated, pot) == pytest.approx(energy(code, pot), rel=1e-10)
        assert np.min(moments(code, 8)) >= -1e-9

    # recurrence and orthogonality oracles
    for _ in range(60):
        nd = int(rng.randint(3, 10))
        i = int(rng.randint(1, 14))
        t = float(rng.uniform(-1.0, 1.0))
        lhs = (i + nd - 2) * eval_gegenbauer(nd, i + 1, t)
        rhs = (2 * i + nd - 2) * t * eval_gegenbauer(nd, i, t) - i * eval_gegenbauer(
            nd, i - 1, t
        )
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))
    for i in range(4):
        for j in range(4):
            val = gegen_coefficient_integral(
                4, lambda t: eval_gegenbauer(4, j, t), i
            )
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


@criterion(7, "infeasible class exits with code 2")
def test_criterion_7_infeasible_exit():
    assert main(["bound", "-n", "4", "-M", "27", "-s", "0.5"]) == 2
