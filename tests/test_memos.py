"""The kernel-free rules kept across calls: the upper rule and its node
polynomial per (n, s) in ``bounds``, the lower rule per (n, M) in
``levenshtein.solve_cardinality``.

A hit returns the objects a miss built, after requiring their rows at the
current tolerances, so every verdict and refusal is the one a cold call
gives.
"""

import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import sphenergy.bounds
import sphenergy.levenshtein
from sphenergy.bounds import strip, strip_to_dict, ulb, uub
from sphenergy.bounds import test_functions as lp_test_functions
from sphenergy.cli import table_rows
from sphenergy.codes import SphericalCode, verify_strip
from sphenergy.errors import CertificationError, NumericsError
from sphenergy.potentials import make_potential, parse_potential

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import gen  # noqa: E402

S_EZ = 0.13285354259858992
MEMOS = (sphenergy.bounds._UPPER_RULES, sphenergy.levenshtein._LOWER_RULES)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def verdict_bits(v):
    """Every field of a StripVerdict, floats as their bits and the strip as its JSON document."""
    return (v.dim, v.size, v.separation.hex(), v.energy.hex(), json.dumps(strip_to_dict(v.strip)), v.inside,
            v.attains_uub, v.attains_ulb, v.nodes_cover_products, v.moments.tobytes())


def test_a_memo_hit_gives_the_verdict_of_a_miss_on_every_code_check_code():
    codes = [(SphericalCode(c.points), parse_potential(c.kernel, c.points.shape[1])) for c in gen.check_codes(1)]
    for code, pot in codes:
        first = verify_strip(code, pot)
        warm = verify_strip(code, pot)
        assert warm.strip.uub_cert.quad is first.strip.uub_cert.quad
        assert warm.strip.uub_cert.lev is first.strip.uub_cert.lev
        assert warm.strip.ulb_rule is first.strip.ulb_rule
        clear_memos()
        cold = verify_strip(code, pot)
        assert cold.strip.uub_cert.quad is not warm.strip.uub_cert.quad
        assert cold.strip.ulb_rule is not warm.strip.ulb_rule
        assert verdict_bits(warm) == verdict_bits(cold)


def test_a_negative_zero_separation_gets_its_own_rule():
    pot = make_potential("newton", n=4)
    clear_memos()
    positive = json.dumps(strip_to_dict(strip(4, 5, 0.0, pot)))
    after_positive = json.dumps(strip_to_dict(strip(4, 5, -0.0, pot)))
    clear_memos()
    cold = json.dumps(strip_to_dict(strip(4, 5, -0.0, pot)))
    assert after_positive == cold != positive
    doc = json.loads(cold)
    assert math.copysign(1.0, doc["inputs"]["s"]) == math.copysign(1.0, doc["quadrature"]["nodes"][-1]) == -1.0


def test_rule_nodes_and_weights_are_read_only():
    es = strip(5, 11, S_EZ, make_potential("newton", n=5))
    for rule in (es.uub_cert.quad, es.ulb_rule):
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_a_stricter_row_tolerance_refuses_on_a_warm_memo(monkeypatch):
    pot = make_potential("newton", n=5)
    cert = uub(5, 11, S_EZ, pot)
    _, rule = ulb(5, 11, pot)
    assert uub(5, 11, S_EZ, pot).quad is cert.quad and ulb(5, 11, pot)[1] is rule
    monkeypatch.setattr(sphenergy.levenshtein, "EXACTNESS_TOL", -1.0)
    for call in (lambda: uub(5, 11, S_EZ, pot), lambda: ulb(5, 11, pot), lambda: strip(5, 11, S_EZ, pot),
                 lambda: lp_test_functions(5, S_EZ, 8)):
        with pytest.raises(CertificationError, match="quadrature exactness residual"):
            call()


def test_a_refusal_is_never_memoized(monkeypatch):
    # The eigensolve's own check raises before anything is stored, so it
    # raises again on the next call, and once it passes the rule is built.
    pot = make_potential("newton", n=5)
    clear_memos()
    monkeypatch.setattr(sphenergy.levenshtein, "LARGEST_NODE_TOL", -1.0)
    for _ in range(2):
        with pytest.raises(NumericsError, match="does not match separation"):
            strip(5, 11, S_EZ, pot)
        with pytest.raises(NumericsError, match="does not match separation"):
            ulb(5, 11, pot)
    assert [len(memo) for memo in MEMOS] == [0, 0]
    monkeypatch.undo()
    strip(5, 11, S_EZ, pot)
    assert [len(memo) for memo in MEMOS] == [1, 1]


def test_the_table_builds_one_upper_rule_per_dimension(monkeypatch):
    calls, real = [], sphenergy.bounds.quadrature
    monkeypatch.setattr(sphenergy.bounds, "quadrature", lambda n, s: calls.append((n, s)) or real(n, s))
    clear_memos()
    rows = table_rows(2, 10)
    assert [row["n"] for row in rows] == list(range(2, 11))
    assert calls == [(n, 0.5) for n in range(2, 11)]


def test_each_memo_holds_at_most_its_one_size_after_a_sweep():
    for c in gen.sweep_classes(1):
        try:
            strip(c.n, c.M, c.s, parse_potential(c.kernel, c.n))
        except (CertificationError, NumericsError):
            pass
        assert all(len(memo) <= memo.size == 8 for memo in MEMOS)
    assert [len(memo) for memo in MEMOS] == [8, 8]


def test_threads_sharing_a_memo_get_what_their_keys_built():
    # Four threads on two cores, switching every microsecond, cycle 12 keys
    # through an 8-entry memo, so keys are evicted between other threads'
    # lookups of them.
    memo = sphenergy.levenshtein._Memo(8)

    def hammer(start):
        keys = [(start + 7 * i) % 12 for i in range(20000)]
        return all(memo.get(key, lambda: ("built", key))[0] == ("built", key) for key in keys)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            assert all(future.result(timeout=60) for future in [pool.submit(hammer, start) for start in range(4)])
    finally:
        sys.setswitchinterval(interval)
    assert len(memo) == memo.size
