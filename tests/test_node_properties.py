"""Property tests of the eigenvalue nodes against scipy's Jacobi routines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphenergy.levenshtein import interval_for, lev_poly_roots
from sphenergy.orthopoly import JacobiParams, jacobi_zeros

sps = pytest.importorskip("scipy.special")

# |Q_k(t) Q_{k-1}(s) - Q_k(s) Q_{k-1}(t)| at a node, over the scale
# |Q_{k-1}(s)| Q_k(1) + |Q_k(s)| Q_{k-1}(1) (Q_i peaks at t = 1 on [-1, 1]);
# a grid over n <= 24, m <= 64 including both interval ends reaches 3e-13.
NODE_RESIDUAL = 1e-11
# Slack on the interlacing with the zeros of Q_k (equality at the ends of I_m).
INTERLACE_SLACK = 1e-12


@st.composite
def classes(draw):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, 64))
    iv = interval_for(n, m)
    s = draw(st.one_of(st.just(iv.lo), st.just(iv.hi), st.floats(iv.lo, iv.hi)))
    return n, iv, s


@settings(max_examples=300, deadline=None)
@given(classes())
def test_nodes_zero_the_node_polynomial_and_interlace(case):
    n, iv, s = case
    roots = lev_poly_roots(n, iv, s)
    assert roots.size == iv.k + iv.eps
    assert roots[0] >= -1.0 and roots[-1] == s
    assert np.all(np.diff(roots) > 0)
    k, a, b = iv.k, (n - 1) / 2.0, iv.eps + (n - 3) / 2.0
    t = roots[iv.eps:]
    qk_s, qk1_s = sps.eval_jacobi(k, a, b, s), sps.eval_jacobi(k - 1, a, b, s)
    phi = sps.eval_jacobi(k, a, b, t) * qk1_s - qk_s * sps.eval_jacobi(k - 1, a, b, t)
    scale = abs(qk1_s) * sps.eval_jacobi(k, a, b, 1.0) + abs(qk_s) * sps.eval_jacobi(k - 1, a, b, 1.0)
    assert np.max(np.abs(phi)) <= NODE_RESIDUAL * scale
    w = np.concatenate(([-1.0], np.sort(sps.roots_jacobi(k, a, b)[0])))
    assert np.all(t >= w[:-1] - INTERLACE_SLACK)
    assert np.all(t <= w[1:] + INTERLACE_SLACK)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 24), st.integers(1, 32), st.sampled_from([(1, 0), (1, 1), (0, 0)]))
def test_jacobi_zeros_match_scipy_up_to_degree_32(n, i, shift):
    a, b = shift[0] + (n - 3) / 2.0, shift[1] + (n - 3) / 2.0
    ours = jacobi_zeros(JacobiParams(a, b), i)
    ref = np.sort(sps.roots_jacobi(i, a, b)[0])
    assert np.allclose(ours, ref, rtol=0.0, atol=1e-13)
