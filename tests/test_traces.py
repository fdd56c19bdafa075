"""Relative traces tr(p/q): two evaluation methods, scaling, monotonicity."""

from __future__ import annotations

import numpy as np
import pytest

from momentkit import (
    GramForm,
    TraceMethod,
    is_infinite,
    nuclear_tower,
    trace,
    trace_restriction_check,
    trace_scaling_check,
    trace_value,
)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank))
    return GramForm(dim=n, gram=a @ a.T)


def test_trace_diag_example():
    p = GramForm(dim=2, gram=np.diag([1.0, 4.0]))
    q = GramForm(dim=2, gram=np.eye(2))
    rep = trace(p, q)
    assert rep.value == pytest.approx(5.0, abs=1e-12)
    rep_op = trace(p, q, method=TraceMethod.OPERATOR_TRACE)
    assert rep_op.value == pytest.approx(5.0, abs=1e-12)


def test_trace_infinite_on_kernel_leak():
    p = GramForm(dim=2, gram=np.eye(2))
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    assert is_infinite(trace_value(p, q))


def test_trace_zero_p_on_q_kernel_is_finite():
    # ker(q) inside ker(p): the quotient trace ignores the null direction
    p = GramForm(dim=2, gram=np.diag([2.0, 0.0]))
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    assert trace_value(p, q) == pytest.approx(2.0, abs=1e-10)


def test_trace_scaling_example():
    p = GramForm(dim=2, gram=np.diag([1.0, 4.0]))
    q = GramForm(dim=2, gram=np.eye(2))
    assert trace_scaling_check(p, q, eps=2.0, delta=0.5)
    # the scaled trace itself: tr(2p / 0.5 q) = (2/0.5)^2 * 5 = 80
    sp = GramForm(dim=2, gram=4.0 * np.diag([1.0, 4.0]))
    sq = GramForm(dim=2, gram=0.25 * np.eye(2))
    assert trace_value(sp, sq) == pytest.approx(80.0, rel=1e-10)


def test_trace_basis_independence():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        p = random_psd(rng, n)
        q = random_psd(rng, n)
        t1 = trace(p, q, method=TraceMethod.ORTHONORMAL_SUM).value
        t2 = trace(p, q, method=TraceMethod.OPERATOR_TRACE).value
        assert t1 == pytest.approx(t2, rel=1e-10)


def test_trace_restriction_monotone():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_psd(rng, 5)
        q = random_psd(rng, 5)
        sub = [rng.standard_normal(5) for _ in range(3)]
        assert trace_restriction_check(p, q, sub)


def test_nuclear_tower_consecutive_traces():
    tower = nuclear_tower(dim=3, levels=4)
    vals = tower.consecutive_traces()
    # q_k = diag(n^{2k}): tr(q_k/q_{k+1}) = sum 1/n^2 = 49/36 for dim 3
    for v in vals:
        assert v == pytest.approx(49.0 / 36.0, rel=1e-12)


def test_trace_report_jsonable_infinite():
    p = GramForm(dim=2, gram=np.eye(2))
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    rep = trace(p, q)
    data = rep.to_jsonable()
    assert data["value"] == "infinite"
    assert not rep.finite
