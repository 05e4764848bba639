"""Kernel construction, h and h', absolute monotonicity, parsing."""

import math

import mpmath
import numpy as np
import pytest

from oracles import derivative_check
from sphenergy.potentials import make_potential, parse_potential


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
        rep = derivative_check(pot, grid)
        assert rep.grid_size == len(grid)
        assert rep.max_rel_dev < 1e-6


def test_derivative_check_constant_kernel():
    pot = make_potential("custom", eval_fn=lambda t: 1.0, deriv_fn=lambda t: 0.0)
    rep = derivative_check(pot, np.linspace(-1.0, 0.9, 50))
    assert rep.max_rel_dev == 0.0


def closed_form(spec, n):
    """The named kernel h as an mpmath function, written out independently
    of sphenergy.potentials."""
    name, _, arg = spec.partition(":")
    if name == "newton":
        name, arg = ("log", "0.5") if n == 2 else ("riesz", str(n - 2))
    if name == "riesz":
        return lambda t: (2 - 2 * t) ** (-mpmath.mpf(arg) / 2)
    if name == "gauss":
        return lambda t: mpmath.exp(-mpmath.mpf(arg) * (1 - t))
    return lambda t: -mpmath.mpf(arg or 1) * mpmath.log(2 - 2 * t)


def test_absolute_monotonicity():
    # h and h' match the closed form's Taylor coefficients at 30 digits, and
    # the derivatives of orders 0..4 are nonnegative: orders 1..4 for the
    # log kernels, which are negative near t = -1.
    grid = np.linspace(-1.0, 0.9, 40)
    for spec, n, first in (
        ("newton", 2, 1),
        ("newton", 5, 0),
        ("riesz:2.5", 5, 0),
        ("gauss:1.7", 5, 0),
        ("log", 5, 1),
    ):
        pot, h = parse_potential(spec, n), closed_form(spec, n)
        vals, ders = pot(grid), pot.deriv(grid)
        with mpmath.workdps(30):
            for i, t in enumerate(grid):
                c = mpmath.taylor(h, mpmath.mpf(float(t)), 4)
                assert [vals[i], pot(float(t))] == pytest.approx([float(c[0])] * 2, rel=1e-13)
                assert [ders[i], pot.deriv(float(t))] == pytest.approx([float(c[1])] * 2, rel=1e-13)
                assert all(ck >= 0 for ck in c[first:]), (spec, n, t)


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
    assert repr(parse_potential("riesz:1", 5)) == "Potential(label='riesz:1', finite_at_one=False)"
    assert repr(parse_potential("gauss:2.5", 4)) == "Potential(label='gauss:2.5', finite_at_one=True)"


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
    for kind in ("riesz", "gauss"):
        with pytest.raises(ValueError, match=f"{kind} kernel needs a finite alpha > 0, got inf"):
            make_potential(kind, alpha=math.inf)
        with pytest.raises(ValueError):
            make_potential(kind, alpha=math.nan)
    with pytest.raises(ValueError):
        make_potential("custom", eval_fn=lambda t: t)
    with pytest.raises(ValueError):
        make_potential("unknown")


def test_kernel_labels_round_trip():
    # A stored label is parsed back when a certificate is rechecked, and the
    # kernel it names gives the same h to the bit (on t <= 1/2, where no
    # alpha here overflows h).
    grid = np.linspace(-1.0, 0.5, 40)
    for kind in ("riesz", "gauss"):
        for alpha in (1.2345678, 2.718281828, 0.1234567, 1 / 3, 1e-7, 123456789.0):
            pot = make_potential(kind, alpha=alpha)
            assert pot.label == f"{kind}:{alpha!r}"
            assert np.array_equal(parse_potential(pot.label, 5)(grid), pot(grid))
        # six significant digits stay as they were wherever they are exact
        for text in ("1", "2.5", "0.5", "3.9999", "1e-05"):
            assert make_potential(kind, alpha=float(text)).label == f"{kind}:{text}"
            assert parse_potential(f"{kind}:{text}", 5).label == f"{kind}:{text}"
        rng = np.random.default_rng(0)
        for alpha in rng.uniform(0.5, 4.0, 200):
            text = f"{alpha:.4f}"
            assert parse_potential(f"{kind}:{text}", 5).label == f"{kind}:{float(text):g}"


def test_a_scalar_gets_the_bits_of_its_entry_in_an_array():
    # h and h' of a scalar equal, bit for bit, the same t's entry in an array
    # of them: Python's float power differs from numpy's loop in the last bit
    # for about 5% of t under the Newton and Riesz kernels.
    t = np.random.default_rng(23).uniform(-1.0, 0.99, 400)
    custom = make_potential(
        "custom", eval_fn=lambda x: 1.0 / (1.5 - x) ** 0.7, deriv_fn=lambda x: 0.7 / (1.5 - x) ** 1.7
    )
    kernels = [parse_potential(spec, n) for spec, n in
               (("newton", 3), ("newton", 5), ("newton", 24), ("riesz:2.5", 5), ("gauss:1.7", 5), ("log", 5))]
    for pot in kernels + [custom]:
        for fn in (pot, pot.deriv):
            entries = fn(t)
            assert [fn(float(x)) for x in t] == entries.tolist(), pot.label
            assert [fn(x) for x in t] == entries.tolist(), pot.label
            assert np.array_equal(fn(t.reshape(20, 20)), entries.reshape(20, 20))
