"""Oracle tests for Gegenbauer evaluation, Jacobi zeros, and basis arithmetic."""

import math

import numpy as np
import pytest
import scipy.special as sps
from numpy.polynomial.chebyshev import poly2cheb
from numpy.polynomial.polynomial import polyfromroots

from oracles import (
    gegen_coefficient_integral,
    gegenbauer_terms_inline,
    jacobi_recurrence,
    jacobi_zeros_diag,
    mul_linear_inline,
)
from sphenergy.bounds import _GRID_COSINES, hermite_interpolant
from sphenergy.codes import generate, moments
from sphenergy.orthopoly import (
    MAX_DEGREE,
    GegenPoly,
    JacobiParams,
    _jacobi_matrix,
    _mul_linear,
    _three_term,
    eval_gegenbauer,
    gegenbauer_table,
    gegenbauer_terms,
    greatest_zero,
    jacobi_zeros,
    product_to_gegen,
)
from sphenergy.potentials import make_potential


def basis_poly(n, i):
    """P_i^{(n)} as a GegenPoly: the unit coefficient vector e_i."""
    coeffs = np.zeros(i + 1)
    coeffs[i] = 1.0
    return GegenPoly(n, coeffs)


def scipy_gegenbauer(n, i, t):
    # P_i^{(n)} is the Jacobi ((n-3)/2, (n-3)/2) polynomial normalized at 1
    a = (n - 3) / 2.0
    return sps.eval_jacobi(i, a, a, t) / sps.eval_jacobi(i, a, a, 1.0)


def test_gegenbauer_constants_and_linear():
    assert eval_gegenbauer(7, 0, 0.4) == 1.0
    assert eval_gegenbauer(3, 1, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_gegenbauer_degree_two_closed_form():
    # (n-1) P_2 = n t^2 - 1
    assert eval_gegenbauer(5, 2, 0.5) == pytest.approx(0.0625, abs=1e-15)
    rng = np.random.RandomState(11)
    for _ in range(25):
        n = rng.randint(2, 12)
        t = rng.uniform(-1, 1)
        assert eval_gegenbauer(n, 2, t) == pytest.approx(
            (n * t * t - 1) / (n - 1), rel=1e-13, abs=1e-13
        )


def test_gegenbauer_normalized_at_one():
    assert eval_gegenbauer(4, 9, 1.0) == pytest.approx(1.0, abs=1e-15)
    for n in (2, 3, 5, 10, 24):
        for i in range(41):
            assert eval_gegenbauer(n, i, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_gegenbauer_matches_scipy():
    rng = np.random.RandomState(7)
    for _ in range(60):
        n = rng.randint(2, 14)
        i = rng.randint(0, 24)
        t = rng.uniform(-1, 1)
        assert eval_gegenbauer(n, i, t) == pytest.approx(
            scipy_gegenbauer(n, i, t), rel=1e-11, abs=1e-12
        )


def test_gegenbauer_recurrence_identity():
    # (i+n-2) P_{i+1} - (2i+n-2) t P_i + i P_{i-1} = 0
    rng = np.random.RandomState(3)
    for _ in range(120):
        n = rng.randint(2, 16)
        i = rng.randint(1, 30)
        t = rng.uniform(-1, 1)
        lhs = (
            (i + n - 2) * eval_gegenbauer(n, i + 1, t)
            - (2 * i + n - 2) * t * eval_gegenbauer(n, i, t)
            + i * eval_gegenbauer(n, i - 1, t)
        )
        assert abs(lhs) < 1e-12


def test_gegenbauer_table_stacks_evaluations():
    t = np.linspace(-1, 1, 17)
    tab = gegenbauer_table(5, 6, t)
    assert tab.shape == (7, 17)
    for i in range(7):
        for j, x in enumerate(t):
            assert tab[i, j] == pytest.approx(eval_gegenbauer(5, i, x), abs=1e-13)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_gegenbauer_table_rows_are_the_plain_float_recurrence_bitwise():
    # The rows, filled in place for 0-d, 1-d and 2-d t, equal, point by
    # point, the recurrence on a Python float, the path quadrature takes.
    rng = np.random.RandomState(31)
    for n in (2, 3, 5, 24):
        for shape in ((), (7,), (3, 7)):
            t = rng.uniform(-1, 1, size=shape)
            for i_max in (0, 1, 2, 20):
                tab = gegenbauer_table(n, i_max, t)
                assert tab.shape == (i_max + 1, *shape) and tab.flags.c_contiguous
                for j, x in enumerate(np.ravel(t).tolist()):
                    floats = [1.0, *gegenbauer_terms(n, i_max, x)]
                    assert all(type(p) is float for p in floats)
                    assert bits(tab.reshape(i_max + 1, -1)[:, j]) == bits(floats)
                    assert type(eval_gegenbauer(n, i_max, x)) is float


def test_streamed_terms_are_the_table_rows_and_last_two_more_steps():
    # Without rows, the terms take turns in a ring of three rows: each
    # yielded P_j equals row j of the table bitwise, for 0-d, 1-d and 2-d t,
    # and is still intact after P_{j+1} and P_{j+2} are yielded.
    rng = np.random.RandomState(37)
    for n in (2, 3, 5, 24):
        for shape in ((), (7,), (3, 7)):
            t = rng.uniform(-1, 1, size=shape)
            for i_max in (1, 2, 3, 4, 20, MAX_DEGREE):
                table = gegenbauer_table(n, i_max, t)
                kept = []
                for j, p in enumerate(gegenbauer_terms(n, i_max, t), 1):
                    assert p.shape == shape
                    kept.append((j, p, p.copy()))
                    for i, term, copy in kept[-3:]:
                        assert bits(term) == bits(copy) == bits(table[i])
                assert len(kept) == i_max


@pytest.mark.parametrize("n", range(2, 25))
def test_cached_dimension_constants_round_like_inline_arithmetic(n):
    for t in (0.3, -0.77, 1.0, np.linspace(-1.0, 1.0, 9)):
        terms = [np.copy(p) for p in gegenbauer_terms(n, MAX_DEGREE, t)]
        assert bits(terms) == bits(gegenbauer_terms_inline(n, MAX_DEGREE, t))
    rng = np.random.default_rng(n)
    for size in (1, 2, 7, MAX_DEGREE + 1):
        coeffs = rng.standard_normal(size)
        # The inline form skips zero coefficients; adding their terms changes no bit.
        coeffs[rng.random(size) < 0.2] = 0.0
        coeffs = coeffs.tolist()
        for root in (-1.0, 0.0, float(rng.uniform(-1.0, 1.0))):
            assert bits(_mul_linear(n, coeffs, root)) == bits(mul_linear_inline(n, coeffs, root))


@pytest.mark.parametrize("n", (2, 3, 5, 8, 24))
def test_jacobi_matrix_from_its_diagonals_matches_the_oracle_construction(n):
    for p in (JacobiParams((n - 1) / 2.0, (n - 3) / 2.0), JacobiParams((n - 1) / 2.0, (n - 1) / 2.0)):
        for i in (1, 2, 3, 7, 33, MAX_DEGREE):
            # The Gauss-Radau shift needs fixed above every zero of P_{i-1}.
            fixed = 0.5 * (greatest_zero(p, i - 1) + 1.0)
            assert bits(jacobi_zeros(p, i)) == bits(jacobi_zeros_diag(p, i))
            assert bits(jacobi_zeros(p, i, fixed)) == bits(jacobi_zeros_diag(p, i, fixed))


def test_recurrence_leaves_its_argument_unchanged():
    for t in (np.array(0.3), np.linspace(-1, 1, 9), np.linspace(-1, 1, 12).reshape(3, 4)):
        before = t.copy()
        t.flags.writeable = False  # any write into t would raise
        for i_max in (0, 1, 2, 12, 20):
            gegenbauer_table(6, i_max, t)
            eval_gegenbauer(6, i_max, t)
            basis_poly(6, i_max).deriv(t)
            GegenPoly(6, np.arange(1.0, i_max + 2.0))(t)
            for _ in gegenbauer_terms(6, i_max, t):
                pass
        assert np.array_equal(t, before)


def test_cached_recurrence_and_cosine_arrays_are_read_only():
    for n in (2, 3, 5, 24):
        for p in (JacobiParams((n - 1) / 2.0, (n - 3) / 2.0), JacobiParams((n - 1) / 2.0, (n - 1) / 2.0)):
            for i in (1, 2, 32):
                T, alpha, beta = _jacobi_matrix(p.a, p.b, i)
                assert not T.flags.writeable and T.shape == (i, i)
                assert np.array_equal(T, T.T) and not np.triu(T, 2).any()
                ref_alpha, ref_beta = jacobi_recurrence(p.a, p.b, i)
                assert bits(alpha) == bits(ref_alpha) and bits(beta) == bits(ref_beta)
                assert bits(np.diag(T)) == bits(ref_alpha)
                assert bits(np.diag(T, 1)) == bits(np.sqrt(ref_beta))
    assert not _GRID_COSINES.flags.writeable


def test_three_term_ratios_are_the_integer_quotients():
    for n in range(2, 25):
        ups, downs, ds, ratios = _three_term(n)
        ints = [(i + n - 2, i, 2 * i + n - 2) for i in range(MAX_DEGREE + 1)]
        assert list(zip(ups, downs, ds)) == ints
        quotients = [((2 * i + n - 2) / (i + n - 2), i / (i + n - 2)) for i in range(1, MAX_DEGREE)]
        assert bits(ratios) == bits(quotients)


def test_gegenbauer_derivative_by_dimension_shift_matches_jacobi_route():
    # d/dt P_i^{(n)} = P_i^{(a,a)}'(t) / P_i^{(a,a)}(1), a = (n - 3) / 2, and
    # d/dt P_i^{(a,a)} = (i + 2a + 1) / 2 * P_{i-1}^{(a+1,a+1)}
    t = np.linspace(-1, 1, 41)

    def jacobi_route(a, i):
        deriv = 0.5 * (i + 2 * a + 1) * sps.eval_jacobi(i - 1, a + 1, a + 1, t)
        return deriv / sps.eval_jacobi(i, a, a, 1.0)

    for n in (2, 3, 5, 8, 24):
        a = (n - 3) / 2.0
        coeffs = np.zeros(65)
        for i in (1, 2, 7, 30, 64):
            ref = jacobi_route(a, i)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(basis_poly(n, i).deriv(t) - ref)) <= 1e-13 * scale
            coeffs[i] = 1.0 / i
        ref = sum(c * jacobi_route(a, i) for i, c in enumerate(coeffs) if c)
        got = GegenPoly(n, coeffs).deriv(t)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert GegenPoly(4, [3.0]).deriv(0.2) == 0.0
    assert basis_poly(4, 0).deriv(0.2) == 0.0


def test_gegenbauer_derivative_against_finite_differences():
    rng = np.random.RandomState(5)
    h = 1e-6
    for _ in range(40):
        n = rng.randint(2, 10)
        i = rng.randint(1, 15)
        t = rng.uniform(-0.95, 0.95)
        fd = (eval_gegenbauer(n, i, t + h) - eval_gegenbauer(n, i, t - h)) / (2 * h)
        assert basis_poly(n, i).deriv(t) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_gegenbauer_bad_arguments():
    with pytest.raises(ValueError):
        eval_gegenbauer(1, 2, 0.0)
    with pytest.raises(ValueError):
        eval_gegenbauer(4, -1, 0.0)


def test_jacobi_invalid_params():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.5)


def test_jacobi_zeros_match_scipy():
    for a, b, i in [(1.5, 0.5, 3), (2.0, 1.0, 5), (2.5, 2.5, 4), (1.0, 0.0, 7)]:
        ours = jacobi_zeros(JacobiParams(a, b), i)
        ref = sps.roots_jacobi(i, a, b)[0]
        assert np.allclose(ours, np.sort(ref), atol=1e-12)


def test_greatest_zero_conventions_and_closed_forms():
    assert greatest_zero(JacobiParams(2.0, 2.0), 0) == -1.0
    assert jacobi_zeros(JacobiParams(2.0, 2.0), 0).shape == (0,)
    # degree-1 zero is (b-a)/(a+b+2)
    assert greatest_zero(JacobiParams(1.5, 0.5), 1) == pytest.approx(-0.25, abs=1e-13)
    assert greatest_zero(JacobiParams(1.0, 0.0), 1) == pytest.approx(-1 / 3, abs=1e-13)


def test_greatest_zero_interlacing_chain():
    # t_{k-1}^{1,1} < t_k^{1,0} < t_k^{1,1} for several dimensions
    for n in (3, 4, 5, 8):
        p10 = JacobiParams((n - 1) / 2.0, (n - 3) / 2.0)
        p11 = JacobiParams((n - 1) / 2.0, (n - 1) / 2.0)
        for k in range(1, 7):
            a = greatest_zero(p11, k - 1)
            b = greatest_zero(p10, k)
            c = greatest_zero(p11, k)
            assert a < b < c


def test_gegen_poly_eval_and_degree():
    poly = GegenPoly(5, (0.5, -1.0, 0.25))
    assert poly.coeffs.size == 3
    assert poly.at_one() == pytest.approx(-0.25)
    assert poly(1.0) == pytest.approx(sum(poly.coeffs), abs=1e-13)
    # Every stored coefficient is kept, however small.
    tiny = GegenPoly(5, (1.0, 2.0, 0.0, 1e-18))
    assert tiny.coeffs.tolist() == [1.0, 2.0, 0.0, 1e-18]


def test_gegen_poly_call_matches_tensordot_bitwise():
    # __call__ contracts the coefficients with the table as one matrix
    # product; it must round exactly as the tensordot over axis 0 did.
    rng = np.random.RandomState(37)
    shapes = [(), (1,), (6,), (257,), (2060,), (3, 4), (1, 1)]
    for K in range(1, 66):
        coeffs = rng.uniform(-1.0, 1.0, K)
        poly = GegenPoly(7, coeffs)
        for shape in shapes:
            t = rng.uniform(-1.0, 1.0, shape)
            want = np.tensordot(poly.coeffs, gegenbauer_table(7, K - 1, t), axes=(0, 0))
            got = poly(t)
            if shape == ():
                assert isinstance(got, float) and got == float(want)
            else:
                assert got.shape == shape and np.array_equal(got, want)


def test_gegen_poly_keeps_a_read_only_copy_of_finite_1d_coefficients():
    src = np.array([0.5, -1.0, 0.25])
    poly = GegenPoly(5, src)
    src[0] = 7.0
    assert poly.coeffs.tolist() == [0.5, -1.0, 0.25]
    assert not poly.coeffs.flags.writeable
    with pytest.raises(ValueError):
        poly.coeffs[0] = 1.0
    assert GegenPoly(5, 2.5).coeffs.tolist() == [2.5]
    assert GegenPoly(5, np.float64(2.5)).coeffs.shape == (1,)
    for bad in ([1.0, math.nan], [math.inf], [[1.0, 2.0]], [], np.empty(0)):
        with pytest.raises(ValueError):
            GegenPoly(5, bad)


def test_product_to_gegen_known_expansion():
    # t(t+1) = (1/n) P_0 + P_1 + ((n-1)/n) P_2
    for n in (3, 4, 5, 6, 9):
        poly = product_to_gegen(n, [-1.0, 0.0])
        assert np.allclose(poly.coeffs, [1 / n, 1.0, (n - 1) / n], atol=1e-13)


def test_product_to_gegen_empty_is_one():
    poly = product_to_gegen(4, [])
    assert poly.coeffs.size == 1
    assert poly.coeffs[0] == 1.0


def test_product_to_gegen_dimension_two_is_chebyshev():
    # P_i^{(2)} = T_i, and 2i + n - 2 vanishes at i = 0 for n = 2
    rng = np.random.RandomState(37)
    for d in (1, 2, 5, 12, 20):
        roots = rng.uniform(-1, 1, size=d)
        ref = poly2cheb(polyfromroots(roots))
        assert np.allclose(product_to_gegen(2, roots).coeffs, ref, rtol=0, atol=1e-13)


def test_product_to_gegen_pointwise():
    rng = np.random.RandomState(23)
    for _ in range(10):
        n = rng.randint(2, 9)
        roots = rng.uniform(-1, 0.9, size=4)
        poly = product_to_gegen(n, roots)
        ts = rng.uniform(-1, 1, size=64)
        direct = np.prod(ts[:, None] - roots[None, :], axis=1)
        assert np.allclose(poly(ts), direct, rtol=1e-11, atol=1e-11)


def test_product_to_gegen_matches_integral_oracle():
    rng = np.random.RandomState(29)
    roots = rng.uniform(-1, 0.8, size=4)
    poly = product_to_gegen(5, roots)

    def f(t):
        return np.prod(np.atleast_1d(t)[:, None] - roots[None, :], axis=1)

    for i, ci in enumerate(poly.coeffs):
        assert gegen_coefficient_integral(5, f, i) == pytest.approx(
            ci, rel=1e-10, abs=1e-10
        )


def test_coefficient_integral_orthonormality():
    for n in (3, 6):
        for i in range(5):
            for j in range(5):
                val = gegen_coefficient_integral(n, lambda t: eval_gegenbauer(n, i, t), j)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_coefficient_integral_linear_term():
    val = gegen_coefficient_integral(6, lambda t: t * (t + 1.0), 1)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda d: list(gegenbauer_terms(3, d, 0.5)), id="gegenbauer_terms"),
        pytest.param(lambda d: gegenbauer_table(3, d, np.linspace(-1.0, 1.0, 5)), id="gegenbauer_table"),
        pytest.param(lambda d: eval_gegenbauer(4, d, 0.5), id="eval_gegenbauer"),
        pytest.param(lambda d: jacobi_zeros(JacobiParams(1.0, 0.0), d), id="jacobi_zeros"),
        pytest.param(lambda d: GegenPoly(3, np.ones(d + 1)), id="GegenPoly"),
        pytest.param(lambda d: product_to_gegen(4, np.linspace(-1.0, 0.5, d)), id="product_to_gegen"),
        # d + 1 distinct nodes give an interpolant of degree d.
        pytest.param(
            lambda d: hermite_interpolant(4, make_potential("newton", n=4), np.linspace(-1.0, 0.9, d + 1)),
            id="hermite_interpolant",
        ),
        pytest.param(lambda d: moments(generate("icosahedron"), d), id="moments"),
    ],
)
def test_every_degree_guard_shares_one_cap_and_one_text(build):
    # MAX_DEGREE is the one degree limit, and _check_degree its one refusal.
    build(MAX_DEGREE)
    with pytest.raises(ValueError) as refusal:
        build(MAX_DEGREE + 1)
    assert str(refusal.value) == f"degree {MAX_DEGREE + 1} exceeds the supported maximum {MAX_DEGREE}"
