"""Kernel construction, derivatives, absolute monotonicity, parsing."""

import math

import numpy as np
import pytest

from sphenergy.potentials import derivative_check, make_potential, parse_potential


def test_newton_closed_form():
    pot = make_potential("newton", n=5)
    # (2 - 2t)^(-(n-2)/2) at t = 0
    assert pot(0.0) == pytest.approx(2.0 ** (-1.5), abs=1e-15)
    assert not pot.finite_at_one


def test_newton_plane_case_is_log():
    pot = make_potential("newton", n=2)
    for t in (-0.9, -0.3, 0.0, 0.4):
        assert pot(t) == pytest.approx(-0.5 * math.log(2.0 - 2.0 * t), abs=1e-14)


def test_riesz_and_log_closed_forms():
    riesz1 = make_potential("riesz", alpha=1.0)
    assert riesz1(-1.0) == pytest.approx(0.5, abs=1e-15)
    logp = make_potential("log")
    assert logp(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)
    assert logp(-1.0) == pytest.approx(-math.log(4.0), abs=1e-15)


def test_gauss_closed_form():
    pot = make_potential("gauss", alpha=2.0)
    for t in (-1.0, 0.0, 0.7):
        assert pot(t) == pytest.approx(math.exp(-2.0 * (1.0 - t)), abs=1e-15)
    assert pot.finite_at_one


def test_riesz_matches_newton():
    newton = make_potential("newton", n=7)
    riesz = make_potential("riesz", alpha=5.0)
    for t in np.linspace(-1.0, 0.9, 60):
        assert riesz(t) == pytest.approx(newton(t), rel=1e-13)


def test_derivative_check_passes_for_named_kernels():
    grid = np.linspace(-1.0, 0.9, 200)
    for pot in (
        make_potential("newton", n=4),
        make_potential("riesz", alpha=3.0),
        make_potential("log"),
        make_potential("gauss", alpha=1.0),
    ):
        for order, tol in ((1, 1e-6), (2, 1e-4)):
            rep = derivative_check(pot, order, grid)
            assert rep.order == order
            assert rep.grid_size == len(grid)
            assert rep.max_rel_dev < tol


def test_derivative_check_constant_kernel():
    pot = make_potential("custom", eval_fn=lambda t: 1.0, deriv_fn=lambda t: 0.0)
    rep = derivative_check(pot, 1, np.linspace(-1.0, 0.9, 50))
    assert rep.max_rel_dev == 0.0


def test_absolute_monotonicity():
    grid = np.linspace(-1.0, 0.9, 300)
    for pot in (
        make_potential("newton", n=5),
        make_potential("riesz", alpha=2.5),
        make_potential("gauss", alpha=1.7),
    ):
        for p in range(5):
            assert np.all(pot.deriv_p(grid, p) >= 0.0)
    # log kernel is absolutely monotone from the first derivative on
    logp = make_potential("log")
    for p in range(1, 5):
        assert np.all(logp.deriv_p(grid, p) > 0.0)


def test_kernels_nondecreasing():
    grid = np.linspace(-1.0, 0.97, 1024)
    for pot in (
        make_potential("newton", n=3),
        make_potential("riesz", alpha=0.5),
        make_potential("log"),
        make_potential("gauss", alpha=4.0),
    ):
        vals = pot(grid)
        assert np.all(np.diff(vals) >= 0.0)


def test_parse_potential():
    assert parse_potential("newton", 5)(0.0) == pytest.approx(2.0 ** (-1.5))
    assert parse_potential("riesz:1", 5)(-1.0) == pytest.approx(0.5)
    assert parse_potential("gauss:2.5", 4)(1.0) == pytest.approx(1.0)
    assert parse_potential("log", 3)(0.0) == pytest.approx(-math.log(2.0))


def test_parse_potential_rejects_garbage():
    for text in ("riesz", "riesz:", "riesz:-1", "gauss:zero", "coulomb", "newton:3"):
        with pytest.raises(ValueError):
            parse_potential(text, 5)


def test_make_potential_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_potential("newton")
    with pytest.raises(ValueError):
        make_potential("riesz", alpha=0.0)
    with pytest.raises(ValueError):
        make_potential("gauss", alpha=-1.0)
    with pytest.raises(ValueError):
        make_potential("custom", eval_fn=lambda t: t)
    with pytest.raises(ValueError):
        make_potential("unknown")


def test_kernel_labels_round_trip():
    # A stored label is parsed back when a certificate is rechecked.
    for kind in ("riesz", "gauss"):
        for alpha in (1.2345678, 2.718281828, 0.1234567, 1 / 3, 1e-7, 123456789.0):
            pot = make_potential(kind, alpha=alpha)
            assert pot.label == f"{kind}:{alpha!r}"
            assert parse_potential(pot.label, 5).params == (alpha,)
        # six significant digits stay as they were wherever they are exact
        for text in ("1", "2.5", "0.5", "3.9999", "1e-05"):
            assert make_potential(kind, alpha=float(text)).label == f"{kind}:{text}"
            assert parse_potential(f"{kind}:{text}", 5).label == f"{kind}:{text}"
        rng = np.random.default_rng(0)
        for alpha in rng.uniform(0.5, 4.0, 200):
            text = f"{alpha:.4f}"
            assert parse_potential(f"{kind}:{text}", 5).label == f"{kind}:{float(text):g}"
