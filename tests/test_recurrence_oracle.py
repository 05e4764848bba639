"""The Gegenbauer recurrence against mpmath's hypergeometric form at 30 digits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphenergy.orthopoly import MAX_DEGREE, gegenbauer_terms

mpmath = pytest.importorskip("mpmath")

# |P_i(t) - oracle| <= RECURRENCE_ULPS * i * eps on [-1, 1], where |P_i| <= 1.
# Over 55936 (n, i, t) with n = 2..24, i = 1..64 and t at +-1, 0, +-(1 - 1e-6)
# and uniform in [-1, 1], the recurrence stayed within 1.71 i eps.
RECURRENCE_ULPS = 4.0
EPS = np.finfo(float).eps


def oracle(n, i, t):
    """P_i^{(n)}(t) = 2F1(-i, i + n - 2; (n - 1)/2; (1 - t)/2), to 30 digits."""
    with mpmath.workdps(30):
        x = (1 - mpmath.mpf(t)) / 2
        return mpmath.hyp2f1(-i, i + n - 2, mpmath.mpf(n - 1) / 2, x, zeroprec=400)


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 24),
    st.integers(1, MAX_DEGREE),
    st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), unit), min_size=1, max_size=4),
)
def test_gegenbauer_terms_match_the_mpmath_oracle(n, i_max, ts):
    t = np.array(ts)
    array_terms = [p.copy() for p in gegenbauer_terms(n, i_max, t)]
    for k, x in enumerate(ts):
        scalar_terms = list(gegenbauer_terms(n, i_max, x))
        for i in range(1, i_max + 1):
            ref = oracle(n, i, x)
            tol = RECURRENCE_ULPS * i * EPS
            assert abs(scalar_terms[i - 1] - ref) <= tol, (n, i, x)
            assert abs(array_terms[i - 1][k] - ref) <= tol, (n, i, x)
