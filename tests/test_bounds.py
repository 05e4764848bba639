"""Hermite interpolation, the lambda choice, and the two-sided energy bounds.

Interpolant coefficients are cross-checked against numpy.polyfit on dense
samples, and bound values against independently derived closed forms for
configurations whose energies are known exactly.
"""

import itertools
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sphenergy.bounds
import sphenergy.cli
import sphenergy.levenshtein
from oracles import exact_uub, ez_energy_n5, lp_upper, node_sign_on_linspace, spare_node_bound
from sphenergy.bounds import (
    _GRID_COSINES,
    _feasibility_grid,
    certificate_to_dict,
    hermite_interpolant,
    lambda_star,
    recheck_certificate,
    strip,
    strip_to_dict,
    ulb,
    uub,
)
from sphenergy.bounds import test_functions as lp_test_functions
from sphenergy.errors import CertificationError, InfeasibleClassError, NumericsError, _failing
from sphenergy.levenshtein import (
    dgs_number,
    find_interval,
    interval_for,
    lev_poly_roots,
    lev_value,
    levenshtein_poly,
    quadrature,
)
from sphenergy.orthopoly import GegenPoly, _newton_to_gegen, gegenbauer_table
from sphenergy.potentials import make_potential, parse_potential

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import gen  # noqa: E402

S_EZ = 0.13285354259858992
SWEEP_SEED_1 = gen.sweep_classes(1)


def monomial_coeffs(n, poly):
    """Recover monomial coefficients of a GegenPoly by dense sampling."""
    grid = np.linspace(-1.0, 1.0, 257)
    return np.polyfit(grid, poly(grid), poly.coeffs.size - 1)[::-1]


def test_hermite_two_simple_nodes_is_the_secant():
    pot = make_potential("newton", n=5)
    g = hermite_interpolant(5, pot, (-1.0, 0.0))
    # secant line through (-1, h(-1)) and (0, h(0)): g = h(0) + (h(0)-h(-1)) t
    assert g.coeffs.size == 2
    assert g.coeffs[0] == pytest.approx(pot(0.0), abs=1e-14)
    assert g.coeffs[1] == pytest.approx(pot(0.0) - pot(-1.0), abs=1e-14)


def test_hermite_matches_polyfit_oracle():
    pot = make_potential("newton", n=5)
    g = hermite_interpolant(5, pot, quadrature(5, S_EZ).multiset)
    mono = monomial_coeffs(5, g)
    assert mono == pytest.approx([0.37128, 0.46931, 0.23835], abs=1e-4)


def test_hermite_interpolation_conditions():
    rng = np.random.RandomState(53)
    for _ in range(20):
        n = int(rng.randint(3, 9))
        s = float(rng.uniform(-0.2, 0.6))
        pot = make_potential("riesz", alpha=float(rng.uniform(0.5, 4.0)))
        multiset = quadrature(n, s).multiset
        g = hermite_interpolant(n, pot, multiset)
        seen = set()
        for t in multiset:
            assert g(t) == pytest.approx(pot(t), rel=1e-9)
            if t in seen:
                assert g.deriv(t) == pytest.approx(pot.deriv(t), rel=1e-7)
            seen.add(t)


def newton_form(n, pot, z):
    """The Hermite interpolant of ``pot`` on the node list z, built in z's
    order: divided differences with h and h' read from the node array."""
    col, slope = pot(np.array(z)).tolist(), pot.deriv(np.array(z)).tolist()
    newton = [col[0]]
    for j in range(1, len(z)):
        for i in range(len(z) - j):
            col[i] = slope[i] if z[i + j] == z[i] else (col[i + 1] - col[i]) / (z[i + j] - z[i])
        newton.append(col[0])
    return _newton_to_gegen(n, list(z), newton)


def test_hermite_reads_each_slope_from_the_node_array():
    # At a doubled node the divided difference is h' there, the entry of
    # pot.deriv on the node array to the bit, as an exact recheck reads it.
    # The table is rebuilt here in the quadrature's order.
    rng = np.random.RandomState(59)
    for spec in ("newton", "riesz:2.5", "gauss:1.7", "log"):
        for _ in range(10):
            n, s = int(rng.randint(3, 25)), float(rng.uniform(-0.2, 0.6))
            pot = parse_potential(spec, n)
            z = quadrature(n, s).multiset
            g = hermite_interpolant(n, pot, z)
            assert np.array_equal(g.coeffs, newton_form(n, pot, z).coeffs), (spec, n, s)


def test_hermite_interpolates_in_the_order_given():
    # Copies adjacent, order otherwise free: the Newton form is built on the
    # nodes as given, bit for bit.  Copies apart are refused.
    rng = np.random.RandomState(61)
    for spec in ("newton", "riesz:2.5", "gauss:1.7", "log"):
        for _ in range(10):
            n, s = int(rng.randint(3, 25)), float(rng.uniform(-0.2, 0.6))
            pot = parse_potential(spec, n)
            z = quadrature(n, s).multiset
            runs = [list(group) for _, group in itertools.groupby(z)]
            z = [t for i in rng.permutation(len(runs)) for t in runs[i]]
            g = hermite_interpolant(n, pot, z)
            assert np.array_equal(g.coeffs, newton_form(n, pot, z).coeffs), (spec, n, s)
    pot = make_potential("newton", n=4)
    for z in ((0.0, 0.5, 0.0), (-0.5, 0.0, 0.5, -0.5, 0.5)):
        with pytest.raises(ValueError, match="must be adjacent"):
            hermite_interpolant(4, pot, z)


def test_hermite_rejects_high_multiplicity():
    pot = make_potential("log")
    for z in ((0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0)):
        with pytest.raises(ValueError, match="multiplicity above 2"):
            hermite_interpolant(4, pot, z)


def test_hermite_rejects_degrees_beyond_the_maximum():
    pot = make_potential("newton", n=4)
    hermite_interpolant(4, pot, np.linspace(-1.0, 0.9, 65))
    for size in (66, 67, 80):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            hermite_interpolant(4, pot, np.linspace(-1.0, 0.9, size))


def test_lambda_star_linear_case():
    # T = {-1, 0}: ell_1 = 1 in the Gegenbauer expansion of t(t+1), so the
    # only candidate ratio is g_1 itself
    pot = make_potential("newton", n=5)
    rule = quadrature(5, 0.0)
    g = hermite_interpolant(5, pot, rule.multiset)
    choice = lambda_star(g, levenshtein_poly(rule))
    assert choice.argmax == 1
    assert not choice.degenerate
    assert choice.value == pytest.approx(pot(0.0) - pot(-1.0), abs=1e-13)


def test_lambda_star_ez_case():
    pot = make_potential("newton", n=5)
    rule = quadrature(5, S_EZ)
    g = hermite_interpolant(5, pot, rule.multiset)
    choice = lambda_star(g, levenshtein_poly(rule))
    assert choice.argmax == 1
    assert choice.value == pytest.approx(0.661, abs=5e-3)


def test_lambda_star_degenerate_for_constant_kernel():
    pot = make_potential("custom", eval_fn=lambda t: 1.0, deriv_fn=lambda t: 0.0)
    rule = quadrature(5, 0.0)
    g = hermite_interpolant(5, pot, rule.multiset)
    choice = lambda_star(g, levenshtein_poly(rule))
    assert choice.degenerate
    assert choice.value == 0.0


def test_lambda_star_with_nonpositive_ratios_is_degenerate():
    # Every ratio g_i / l_i is negative; the largest is at i = 2.
    assert lambda_star(GegenPoly(3, [1, -0.5, -0.25]), GegenPoly(3, [1, 1, 1, 1])) == (0.0, 2, True)


NEWTON3 = make_potential("newton", n=3)


@pytest.mark.parametrize("call, words", [
    (lambda: hermite_interpolant(3, NEWTON3, []), "node multiset must be nonempty"),
    (lambda: hermite_interpolant(3, NEWTON3, [1.0]), "nodes must lie in"),
    (lambda: hermite_interpolant(3, NEWTON3, [math.nan, 0.5]), "nodes must lie in"),
    (lambda: lambda_star(GegenPoly(3, [1, 1]), GegenPoly(4, [1, 1])), "different dimensions"),
    (lambda: lambda_star(GegenPoly(3, [1, 1, 1, 1]), GegenPoly(3, [1, 1])),
     "interpolant degree 3 exceeds node polynomial degree 1"),
], ids=["hermite-empty", "hermite-at-one", "hermite-nan", "lambda-dimensions", "lambda-degree"])
def test_interpolation_refuses_bad_input(call, words):
    with pytest.raises(ValueError, match=words):
        call()


def test_ulb_refuses_a_sum_beyond_binary64():
    # At M = 20 the nodes reach past 1/2, where (2 - 2t)^-5000 overflows.
    with pytest.raises(CertificationError, match="riesz:10000 gives the lower bound inf"):
        ulb(3, 20, parse_potential("riesz:10000", 3))


def test_uub_reference_value():
    cert = uub(5, 11, S_EZ, make_potential("newton", n=5))
    assert cert.uub_value == pytest.approx(41.90201357470821, rel=1e-10)
    assert cert.feasibility.passed
    assert cert.lam == pytest.approx(0.6600366207016131, rel=1e-9)


def test_uub_orthonormal_sections_are_exact():
    # s = 0, M = 2n: two antipodal points on each axis, energy known in
    # closed form, and the bound collapses onto it
    for n in (3, 6, 10):
        for pot in (make_potential("newton", n=n), make_potential("gauss", alpha=1.0)):
            cert = uub(n, 2 * n, 0.0, pot)
            exact = 2 * n * (pot(-1.0) + (2 * n - 2) * pot(0.0))
            assert cert.uub_value == pytest.approx(exact, rel=1e-10)


def test_uub_kissing_reference_values():
    cert4 = uub(4, 24, 0.5, make_potential("newton", n=4))
    assert cert4.uub_value == pytest.approx(344.8946, abs=5e-4)
    cert8 = uub(8, 240, 0.5, make_potential("newton", n=8))
    assert cert8.uub_value == pytest.approx(17721.5278, abs=5e-3)


def test_uub_forms_agree():
    rng = np.random.RandomState(59)
    for _ in range(15):
        n = int(rng.randint(3, 9))
        s = float(rng.uniform(-0.2, 0.6))
        iv = find_interval(n, s)
        L = lev_value(n, iv, s)
        M = int(L) if L >= 3 else 2
        cert = uub(n, M, s, make_potential("riesz", alpha=1.0))
        assert cert.value_form == pytest.approx(cert.uub_value, rel=1e-10)


def test_uub_polynomial_touches_kernel_at_nodes():
    cert = uub(5, 11, S_EZ, make_potential("newton", n=5))
    pot = cert.potential
    for t in cert.quad.multiset:
        assert cert.f(t) == pytest.approx(pot(t), rel=1e-9)
    # and majorizes it everywhere else on [-1, s]
    grid = np.linspace(-1.0, S_EZ, 1500)
    assert np.min(cert.f(grid) - pot(grid)) >= -1e-9


def test_uub_interior_coefficients_nonpositive():
    cert = uub(6, 72, 0.5, make_potential("newton", n=6))
    tail = cert.f.coeffs[1:]
    assert np.max(tail) <= 1e-12
    assert cert.feasibility.max_interior_coeff <= 1e-12


def test_uub_infeasible_class():
    with pytest.raises(InfeasibleClassError):
        uub(4, 27, 0.5, make_potential("newton", n=4))


@pytest.mark.parametrize("M", [math.inf, math.nan])
@pytest.mark.parametrize("run", [lambda M: uub(3, M, 0.5, NEWTON3), lambda M: ulb(3, M, NEWTON3)], ids=["uub", "ulb"])
def test_a_cardinality_that_is_not_finite_is_an_input_error(run, M):
    # An M that is not finite is neither an infeasible class nor a
    # certification failure, so the refusal is a plain ValueError, not its
    # subclass InfeasibleClassError.
    with pytest.raises(ValueError, match=r"^cardinality must be finite and at least 2, got ") as refusal:
        run(M)
    assert type(refusal.value) is ValueError


def test_uub_degenerate_constant_kernel():
    pot = make_potential(
        "custom",
        eval_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        deriv_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        label="one",
    )
    cert = uub(5, 11, S_EZ, pot)
    assert cert.degenerate
    assert cert.lam == 0.0
    assert cert.uub_value == pytest.approx(110.0, abs=1e-9)


def test_uub_extra_node_changes_nothing():
    for n, M, s in [(5, 11, S_EZ), (4, 24, 0.5), (3, 12, 0.5)]:
        pot = make_potential("newton", n=n)
        base = uub(n, M, s, pot)
        refined, value = spare_node_bound(base)
        assert value == pytest.approx(base.uub_value, rel=1e-9)
        # the spare node raises the interpolation degree by one but the
        # bound value is untouched
        m = base.quad.m
        assert base.interpolant.coeffs.size == m
        assert refined.coeffs.size == m + 1


def test_ulb_reference_values():
    assert ulb(5, 11, make_potential("newton", n=5))[0] == pytest.approx(
        37.48408516240197, rel=1e-10
    )
    assert ulb(4, 24, make_potential("newton", n=4))[0] == pytest.approx(
        333.0, abs=1e-9
    )


def test_ulb_simplex_closed_form():
    for n in (3, 5, 8):
        pot = make_potential("riesz", alpha=2.0)
        val, rule = ulb(n, n + 1, pot)
        assert val == pytest.approx(n * (n + 1) * pot(-1.0 / n), rel=1e-10)
        assert rule.nodes == pytest.approx([-1.0 / n], abs=1e-12)


def test_strip_collapses_on_sharp_configurations():
    pot3 = make_potential("newton", n=3)
    es = strip(3, 4, -1.0 / 3.0, pot3)
    assert es.sharp
    assert es.ulb == pytest.approx(es.uub, rel=1e-10)
    assert es.ulb == pytest.approx(7.348469228349534, rel=1e-9)

    es = strip(3, 6, 0.0, pot3)
    assert es.sharp
    assert es.ulb == pytest.approx(19.9705627485, abs=1e-8)


def test_strip_reference_interval():
    es = strip(5, 11, S_EZ, make_potential("newton", n=5))
    assert not es.sharp
    assert es.ulb == pytest.approx(37.484, abs=1e-3)
    assert es.uub == pytest.approx(41.902, abs=1e-3)
    assert es.ulb < es.uub


def test_strip_requires_m_at_most_lev():
    with pytest.raises(InfeasibleClassError):
        strip(4, 27, 0.5, make_potential("newton", n=4))


def test_one_relative_slack_decides_sharp_and_infeasible():
    # L_m(24, 1/2) = 196560; the slack is 1e-9 * L, about 2e-4 here
    pot = make_potential("newton", n=24)
    assert strip(24, 196560 * (1 + 1e-12), 0.5, pot).sharp
    assert strip(24, 196560 * (1 + 9e-10), 0.5, pot).sharp
    over = 196560 * (1 + 1.1e-9)
    with pytest.raises(InfeasibleClassError, match=f"M = {over!r} exceeds"):
        strip(24, over, 0.5, pot)


def test_test_functions_vanish_through_m():
    for n, s in [(5, 0.0), (4, 0.5), (6, 0.3)]:
        rep = lp_test_functions(n, s, 12)
        vals = dict(rep.values)
        for j in range(1, rep.m + 1):
            assert abs(vals[j]) < 1e-9
        assert rep.threshold == 2 * (rep.m // 2 + rep.m % 2) + (1 - rep.m % 2)


def test_test_functions_orthonormal_case():
    rep = lp_test_functions(5, 0.0, 6)
    assert rep.m == 2
    vals = dict(rep.values)
    assert abs(vals[3]) < 1e-12  # vanishes one past m here
    assert vals[4] == pytest.approx(0.3, abs=1e-10)
    assert rep.optimal_in_range


@pytest.mark.parametrize("n, M, s", [(3, 12, 1 / math.sqrt(5)), (8, 240, 0.5)])
def test_lp_oracle_equals_uub_at_sharp_classes(n, M, s):
    # the icosahedron and E8 attain the bound, so no feasible polynomial of
    # the degree-m program can do better
    for spec in ("newton", "riesz:1", "gauss:1", "log"):
        cert = uub(n, M, s, parse_potential(spec, n))
        _, value = lp_upper(cert)
        assert value == pytest.approx(cert.uub_value, rel=1e-12, abs=0.0), spec


# The flagship, the icosahedron, and the kissing table's classes at both ends
# of each range (E8 among them), Newton kernel.
EXACT_ANCHORS = [(5, 11, S_EZ), (3, 12, 1 / math.sqrt(5))] + [
    (n, M, 0.5)
    for n, M in [(2, 6), (3, 12), (4, 24), (5, 40), (5, 44), (6, 72), (6, 78), (7, 126),
                 (7, 134), (8, 240), (9, 306), (9, 364), (10, 500), (10, 554)]
]


def rel_dev(value, exact):
    return abs(float((Fraction(value) - exact) / exact))


@pytest.mark.parametrize("n, M, s", EXACT_ANCHORS)
def test_uub_agrees_with_exact_arithmetic_at_the_anchors(n, M, s):
    # Measured: within 6e-16 relative on every anchor, for f and both forms.
    cert = uub(n, M, s, make_potential("newton", n=n))
    f, value_form, quad_form = exact_uub(cert)
    assert rel_dev(cert.uub_value, quad_form) <= 1e-14
    assert rel_dev(cert.value_form, value_form) <= 1e-14
    scale = max(abs(c) for c in f)
    assert max(abs(Fraction(a) - b) for a, b in zip(cert.f.coeffs.tolist(), f, strict=True)) <= 1e-14 * scale


def test_uub_is_not_the_degree_m_lp_optimum():
    # The UUB is one feasible point of the degree-m program, not its optimum:
    # at (5, 11, s_ez) the LP beats it by 6.4e-4 relative.  Raising f_0 by the
    # LP polynomial's largest shortfall below h on a dense grid keeps the gap,
    # so it is not an artifact of the LP seeing the grid only.
    cert = uub(5, 11, S_EZ, make_potential("newton", n=5))
    f, value = lp_upper(cert)
    t = np.linspace(-1.0, cert.s, 400_000)
    shift = max(0.0, float((cert.potential(t) - f(t)).max()))
    shifted = value + cert.M * (cert.M - 1.0) * shift
    assert shifted < cert.uub_value - 5e-4 * abs(cert.uub_value)


def test_uub_grows_with_lambda_when_class_is_slack():
    # with M strictly below the quadrature cardinality the prefactor
    # M(M/L - 1) is negative, so any admissible lambda larger than the
    # optimum can only raise the bound
    n, s = 5, S_EZ
    pot = make_potential("newton", n=n)
    cert = uub(n, 11, s, pot)
    L = cert.quad.N
    M = 11.0
    lev1 = cert.lev.at_one()
    g1 = cert.interpolant.at_one()
    base = M * (M / L - 1.0) * (g1 - cert.lam * lev1)
    for bump in (0.05, 0.2, 1.0):
        lam = cert.lam + bump
        worse = M * (M / L - 1.0) * (g1 - lam * lev1)
        assert worse > base


def test_moment_identity_on_quadrature():
    # the rule integrates every Gegenbauer polynomial up to its degree of
    # exactness consistently with 1/N + sum rho_i P_j(alpha_i) = delta_j0 / ...
    rule = quadrature(5, S_EZ)
    table = gegenbauer_table(5, 3, np.asarray(rule.nodes))
    for j in range(1, 4):
        val = 1.0 / rule.N + float(np.dot(rule.weights, table[j]))
        assert abs(val) < 1e-10


def gate_rows(report):
    """A recheck report's rows by gate: {gate: (value, allowed)}."""
    rows = {gate: (value, allowed) for gate, value, allowed in report["gates"]}
    assert len(rows) == len(report["gates"])
    return rows


def test_recheck_reports_the_gate_values_uub_computed(monkeypatch):
    # recheck runs the gate code that uub, quadrature and strip ran, so an
    # untampered document's rows are the pipeline's rows bit for bit, at the
    # default grid the certificate records, and a stored bound lies 0.0 from
    # the recomputed one.  A strip builds its lower rule after the upper
    # bound's last row, so the rows after it but the inversion row are the
    # lower rule's.  ``levenshtein_poly`` restates the count row that
    # ``lev_poly_roots`` required, with the same value.
    seen = []
    for module in (sphenergy.bounds, sphenergy.levenshtein):
        monkeypatch.setattr(module, "_require", lambda rows, real=module._require: seen.extend(rows) or real(rows))
    for n, M, s, kernel in [
        (5, 11, S_EZ, "newton"),
        (5, 11, 0.2, "riesz:1.2345678"),
        (8, 240, 0.5, "gauss:2.718281828"),
        (24, 196560, 0.5, "newton"),
    ]:
        pot = parse_potential(kernel, n)
        for run, to_dict in ((uub, certificate_to_dict), (strip, strip_to_dict)):
            seen.clear()
            doc = to_dict(run(n, M, s, pot))
            expected, lower = {}, ""
            for gate, value, allowed in seen:
                name = gate if gate.startswith("strip is inverted") else lower + gate
                assert expected.setdefault(name, (value, allowed)) == (value, allowed)
                lower = "lower " if gate == "bound forms disagree by" else lower
            report = recheck_certificate(doc)
            assert set(report) == {"gates", "ok"}
            assert report["ok"] is True
            got = gate_rows(report)
            assert {gate: got[gate] for gate in expected} == expected
            assert got["stored bound disagrees by"][0] == 0.0
            if run is strip:
                assert "lower quadrature exactness residual" in expected
                assert got["stored lower bound disagrees by"][0] == 0.0
    for name in ("certificate_to_dict", "strip_to_dict", "recheck_certificate"):
        assert getattr(sphenergy.cli, name) is globals()[name]


def test_recheck_refuses_a_positive_coefficient_above_degree_m():
    # uub writes m + 1 coefficients, but every f_i with i >= 1 must be <= 0;
    # 1e-11 moves f by too little for any other gate to notice
    gate = "feasibility failed: max interior coefficient"
    for n, M, s in [(5, 11, S_EZ), (8, 240, 0.5)]:
        doc = certificate_to_dict(uub(n, M, s, make_potential("newton", n=n)))
        doc["coefficients"]["f"].append(1e-11)
        report = recheck_certificate(doc)
        assert gate_rows(report)[gate][0] == 1e-11
        assert [row[0] for row in _failing(report["gates"])] == [gate]
        assert report["ok"] is False
    # a constant f has no interior coefficient, so it passes that gate
    doc["coefficients"]["f"] = doc["coefficients"]["f"][:1]
    value, allowed = gate_rows(recheck_certificate(doc))[gate]
    assert value <= allowed


def ez_strip_with_lower_rule(nodes, m):
    """The strip document of (5, 11, s_ez) under newton with its lower rule
    replaced by the one on two ``nodes`` that is exact to degree 1 at
    N = 11, stored with index m, and the ulb restated on it."""
    pot = make_potential("newton", n=5)
    doc = strip_to_dict(strip(5, 11, S_EZ, pot))
    nodes = np.array(nodes)
    weights = np.linalg.solve(gegenbauer_table(5, 1, nodes), [1.0 - 1.0 / 11, -1.0 / 11])
    doc["ulb_quadrature"].update(m=m, L=11.0, nodes=nodes.tolist(), weights=weights.tolist())
    doc["bounds"]["ulb"] = 121.0 * float(np.dot(weights, pot(nodes)))
    return doc


def e8_strip_restated_at_m_1():
    doc = strip_to_dict(strip(8, 240, 0.5, make_potential("newton", n=8)))
    doc["ulb_quadrature"]["m"] = 1
    return doc


def ez_strip_with_an_empty_lower_rule():
    doc = ez_strip_with_lower_rule([-0.375, 0.3], 2)
    doc["ulb_quadrature"].update(nodes=[], weights=[])
    return doc


_COUNT, _FIRST = "lower quadrature node count differs from k + eps by", "lower quadrature's first node differs from -1 by"
_LAST = "lower quadrature's largest node differs from s by"


@pytest.mark.parametrize("make, gates", [
    (lambda: ez_strip_with_lower_rule([-0.48555489, 0.2469994], 1), [_COUNT, _LAST]),
    (lambda: ez_strip_with_lower_rule([-0.375, 0.3], 2), [_FIRST, _LAST]),
    (e8_strip_restated_at_m_1, [_COUNT]),
    (ez_strip_with_an_empty_lower_rule,
     [_COUNT, _FIRST, _LAST, "lower quadrature exactness residual", "stored lower bound disagrees by"]),
], ids=["ez-m1", "ez-m2", "e8-m1", "empty"])
def test_recheck_refuses_a_lower_rule_of_another_shape(make, gates):
    # Each rule but the empty one is positive and exact to its stored m,
    # with L = M, and the stored ulb is its sum, below uub: only the node
    # rows (k + eps nodes for m = 2k - 1 + eps, the first -1 when eps = 1,
    # the last the stored r) tell it from the Levenshtein rule.  The two
    # (5, 11) fakes do not end at r, and they put ulb above the energy of
    # the EZ code of 11 points in R^5, so they are false lower bounds.
    doc = make()
    if doc["inputs"]["n"] == 5:
        assert doc["bounds"]["ulb"] > ez_energy_n5(make_potential("newton", n=5)) + 2.0
    report = recheck_certificate(doc)
    assert report["ok"] is False
    assert [row[0] for row in _failing(report["gates"])] == gates


def _drop_last_weight(rule):
    rule["weights"].pop()


def _empty(rule):
    rule.update(nodes=[], weights=[])


def _negative_lev_0(doc):
    doc["coefficients"]["levenshtein"][0] = -1e-300


def _raise_r(doc):
    doc["ulb_quadrature"]["r"] += 1e-3


def _lower_s(doc):
    doc["inputs"]["s"] -= 1e-3


@pytest.mark.parametrize("edit, gate", [
    (_negative_lev_0, "nonpositive node polynomial coefficients"),
    (_raise_r, "lower quadrature's largest node differs from s by"),
    (_lower_s, "quadrature's largest node differs from s by"),
])
def test_recheck_refuses_a_stored_rule_or_node_polynomial_that_does_not_match_its_class(edit, gate):
    # Each edit moves no value that another row reads by enough to notice:
    # a node polynomial with one nonpositive coefficient, a lower rule
    # stored with another r, an upper rule stored with another s.  Only the
    # sign row and the rows that tie a rule's last node to its separation
    # tell them apart.  The document is the (8, 240, 0.5) strip under newton.
    doc = strip_to_dict(strip(8, 240, 0.5, make_potential("newton", n=8)))
    edit(doc)
    report = recheck_certificate(doc)
    assert [row[0] for row in _failing(report["gates"])] == [gate]
    assert report["ok"] is False


@pytest.mark.parametrize("name, edit", [
    ("quadrature", _drop_last_weight),
    ("ulb_quadrature", _drop_last_weight),
    ("quadrature", _empty),
], ids=["upper-weight", "lower-weight", "upper-empty"])
def test_recheck_names_a_stored_rule_whose_nodes_and_weights_do_not_pair(name, edit):
    # A stored rule with one weight fewer than its nodes, or an upper rule
    # without nodes, is refused with an input error that names the rule,
    # before any array arithmetic could fail on the shapes.  The document is
    # what `sphenergy strip -n 8 -M 240 -s 0.5 --format json` prints.
    doc = strip_to_dict(strip(8, 240, 0.5, make_potential("newton", n=8)))
    assert recheck_certificate(doc)["ok"] is True
    edit(doc[name])
    with pytest.raises(ValueError, match=rf"^{name} stores \d+ nodes and \d+ weights$"):
        recheck_certificate(doc)


@st.composite
def grid_classes(draw):
    n = draw(st.integers(2, 24))
    iv = interval_for(n, draw(st.integers(1, 20)))
    s = draw(st.one_of(st.just(iv.lo), st.just(iv.hi), st.floats(iv.lo, iv.hi)))
    return n, iv, s


@settings(max_examples=300, deadline=None)
@given(grid_classes())
def test_feasibility_grid_is_np_unique_bitwise(case):
    # At the ends of I_m, -1 and s are nodes and can coincide with the grid's
    # own ends; np.unique imports numpy.ma, which the grid must not.
    n, iv, s = case
    nodes = lev_poly_roots(n, iv, s)
    grid = 0.5 * (s - 1.0) + 0.5 * (s + 1.0) * _GRID_COSINES
    ours, ref = _feasibility_grid(s, nodes), np.unique(np.concatenate([grid, nodes]))
    assert ours.dtype == ref.dtype and ours.view(np.int64).tolist() == ref.view(np.int64).tolist()


@st.composite
def node_table_classes(draw):
    n = draw(st.integers(2, 24))
    iv = interval_for(n, draw(st.one_of(st.integers(1, 20), st.sampled_from([32, 48, 64]))))
    s = draw(st.one_of(st.just(iv.lo), st.just(iv.hi), st.floats(iv.lo, iv.hi)))
    return n, s


@settings(max_examples=200, deadline=None)
@given(node_table_classes())
def test_quadrature_table_serves_every_evaluation_at_the_nodes_bitwise(case):
    # uub's node gate reads f(nodes) as f.coeffs @ quad.table.
    n, s = case
    try:
        quad = quadrature(n, s)
    except (CertificationError, NumericsError):
        assume(False)
    table = quad.table
    assert table.flags.c_contiguous and not table.flags.writeable
    assert table.view(np.int64).tolist() == gegenbauer_table(n, quad.m, quad.nodes).view(np.int64).tolist()
    polys = []
    try:  # either may refuse the class
        polys.append(levenshtein_poly(quad))
        polys.append(uub(n, quad.N, quad.s, make_potential("newton", n=n)).f)
    except (CertificationError, NumericsError):
        pass
    for f in polys:
        assert f.coeffs.size == quad.m + 1
        assert (f.coeffs @ table).view(np.int64).tolist() == f(quad.nodes).view(np.int64).tolist()


@st.composite
def certify_probe_classes(draw):
    n = draw(st.integers(2, 24))
    iv = interval_for(n, draw(st.integers(1, 64)))
    s = draw(st.one_of(st.just(iv.lo), st.just(iv.hi), st.floats(iv.lo, iv.hi)))
    return n, iv.m, s, draw(st.sampled_from(["newton", "gauss:2"]))


@settings(max_examples=300, deadline=None)
@given(certify_probe_classes())
def test_certified_classes_pass_the_equispaced_node_sign_check(case):
    # uub checks the node polynomial's sign on its Chebyshev grid; a class it
    # certifies must pass the same bound on 257 equispaced points, and its
    # min_gap must be f(grid) - h(grid) as GegenPoly evaluates f, bitwise.
    n, m, s, kernel = case
    pot = parse_potential(kernel, n)
    try:
        cert = uub(n, dgs_number(n, m), s, pot)
    except (CertificationError, NumericsError, InfeasibleClassError):
        return
    assert node_sign_on_linspace(cert.lev, cert.s)
    grid = _feasibility_grid(cert.s, cert.quad.nodes)
    assert cert.feasibility.min_gap == float(np.min(cert.f(grid) - pot(grid)))


def test_a_class_refused_at_the_node_residual_builds_no_grid(monkeypatch):
    calls = []
    real = sphenergy.bounds._feasibility_grid
    monkeypatch.setattr(sphenergy.bounds, "_feasibility_grid", lambda *a: calls.append(a) or real(*a))
    # The midpoint of I_30 at n = 24 refuses at the node residual (1.7e-2),
    # and still does when the Newton forms take the nodes in Leja order.
    iv = interval_for(24, 30)
    with pytest.raises(CertificationError, match="interpolation residual"):
        uub(24, dgs_number(24, 30), 0.5 * (iv.lo + iv.hi), make_potential("newton", n=24))
    assert calls == []
    uub(5, 11, S_EZ, make_potential("newton", n=5))
    assert len(calls) == 1


# (module, tolerance made stricter, n, M, s, exception, words of the refusal).
# With the tolerance at -1.0 no computed margin can pass its gate; the weight
# gate needs no edit, as the midpoint of I_64 at n = 24 has a negative weight.
_GATES = [
    (sphenergy.bounds, "NODE_TOL", 5, 11, S_EZ, CertificationError, "interpolation residual"),
    (sphenergy.bounds, "COEFF_TOL", 5, 11, S_EZ, CertificationError, "feasibility failed: max interior coefficient"),
    (sphenergy.bounds, "POSITIVITY_TOL", 5, 11, S_EZ, CertificationError, "node polynomial is positive on [-1, s]"),
    (sphenergy.bounds, "GAP_TOL", 5, 11, S_EZ, CertificationError, "feasibility failed"),
    (sphenergy.bounds, "FORMS_TOL", 5, 11, S_EZ, CertificationError, "bound forms disagree"),
    (sphenergy.bounds, "INVERSION_TOL", 5, 11, S_EZ, CertificationError, "strip is inverted"),
    (sphenergy.levenshtein, "EXACTNESS_TOL", 5, 11, S_EZ, CertificationError, "quadrature exactness residual"),
    (sphenergy.levenshtein, "LARGEST_NODE_TOL", 5, 11, S_EZ, NumericsError, "does not match separation"),
    (None, None, 24, dgs_number(24, 64), 0.9311822325014847, CertificationError, "nonpositive quadrature weight"),
    (None, None, 3, 2, 0.99, CertificationError, "nonpositive node polynomial coefficients"),
]


def test_the_coefficient_gate_refuses_a_perturbed_root_set():
    # The gate tripped directly, whatever class refuses there: the nodes of
    # the midpoint of I_3 at n = 5 pass, and the same nodes moved up by 0.5
    # give two nonpositive coefficients.
    iv = interval_for(5, 3)
    rule = quadrature(5, 0.5 * (iv.lo + iv.hi))
    assert (levenshtein_poly(rule).coeffs > 0.0).all()
    with pytest.raises(CertificationError, match="nonpositive node polynomial coefficients 2.000e[+]00 exceeds") as refusal:
        levenshtein_poly(rule._replace(nodes=rule.nodes + 0.5))
    assert "\n" not in str(refusal.value)


# A gate with no tolerance is named by the last word of its refusal.
@pytest.mark.parametrize("module, tol, n, M, s, error, words", _GATES,
                         ids=[g[1] or g[6].split()[-1] for g in _GATES])
def test_every_gate_refuses_once_its_tolerance_is_stricter(monkeypatch, module, tol, n, M, s, error, words):
    if tol is not None:
        monkeypatch.setattr(module, tol, -1.0)
    with pytest.raises(error) as refusal:
        strip(n, M, s, make_potential("newton", n=n))
    assert words in str(refusal.value)
    assert "\n" not in str(refusal.value)
    if error is CertificationError and tol is not None:
        # A tolerance gate is a row: its refusal names the gate, its value and its limit.
        number = r"[-+]?\d\.\d{3}e[-+]\d{2}"
        assert re.fullmatch(rf"{re.escape(words)}.* {number} exceeds the allowed {number}", str(refusal.value))



def scaled_kernel(pot, k):
    # 2^k h: the product with a power of two is exact in binary64, and 2^k h
    # is absolutely monotone whenever h is.
    c = 2.0 ** k
    return pot._replace(eval_fn=lambda t: c * pot.eval_fn(t), deriv_fn=lambda t: c * pot.deriv_fn(t))


def strip_outcome(n, M, s, pot):
    """(ulb, uub, sharp) of a certified strip, or the refusing gate's words
    up to the first number."""
    try:
        es = strip(n, M, s, pot)
    except (CertificationError, NumericsError) as exc:
        return f"{type(exc).__name__}: {re.split(r'[-+]?[.]?[0-9]', str(exc))[0].rstrip()}"
    return es.ulb, es.uub, es.sharp


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SWEEP_SEED_1), st.integers(-200, 200))
def test_strip_of_two_to_the_k_times_h_is_two_to_the_k_times_the_strip(cls, k):
    # Every gate but the node residual scales with the certificate, so the
    # verdict, the refusing gate and every bit of a certified strip carry
    # over.  The residual's per-node max(1, |h|) is not covariant; a class
    # on which the two kernels part there shows nothing about the others.
    pot = parse_potential(cls.kernel, cls.n)
    base, other = (strip_outcome(cls.n, cls.M, cls.s, p) for p in (pot, scaled_kernel(pot, k)))
    residual = "CertificationError: interpolation residual"
    assume((base == residual) == (other == residual))
    if isinstance(base, str):
        assert other == base
    else:
        ulb_value, uub_value, sharp = base
        assert other == (ulb_value * 2.0 ** k, uub_value * 2.0 ** k, sharp)


def test_a_kernel_that_underflows_at_every_node_is_refused():
    # Newton's h = (2 - 2t)^(-(n - 2)/2) is 0 in binary64 at the one node
    # s = -1/2 of I_1 at n = 3000, so every gate's limit would be 0.
    with pytest.raises(CertificationError, match="newton underflows at the nodes: scale 0.0"):
        strip(3000, 2, -0.5, make_potential("newton", n=3000))


@st.composite
def separation_steps(draw):
    n = draw(st.sampled_from([3, 5, 8, 24]))
    lo, hi = interval_for(n, 2).lo, interval_for(n, 9).hi
    s1, s2 = sorted(draw(st.floats(lo, hi)) for _ in range(2))
    top = lev_value(n, find_interval(n, s1), s1)
    M = 2.0 + draw(st.floats(0.0, 1.0)) * (top - 2.0)
    return n, M, s1, s2, draw(st.sampled_from(["newton", "gauss:2", "gauss:1000", "riesz:1", "riesz:3.5"]))


@settings(max_examples=200, deadline=None)
@given(separation_steps())
def test_uub_is_positive_and_nondecreasing_in_s_with_m_fixed(case):
    # A code with separation at most s1 has it at most s2 too, and every
    # kernel here is positive.  gauss:1000 is far below scale 1 at most
    # nodes, where a gate with an absolute limit passes negative bounds.
    # Equal up to the bound forms' tolerance counts.
    n, M, s1, s2, kernel = case
    pot = parse_potential(kernel, n)
    try:
        low, high = (uub(n, M, s, pot).uub_value for s in (s1, s2))
    except (CertificationError, NumericsError):
        assume(False)
    assert 0.0 < low <= high + sphenergy.bounds.FORMS_TOL * high
