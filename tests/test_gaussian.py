"""Gaussian measures on seminormed spaces: reproducible sampling, exact
second moments, tail lower bounds, Chebyshev mass, and the quantitative
dual-ball lemma."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from momentkit import (
    DiscreteMeasure,
    DualFunctional,
    GaussianMeasure,
    GramForm,
    McConfig,
    chebyshev_outside_ball,
    fundamental_lemma_check,
    is_infinite,
    second_moment_check,
    tail_lower_bound_check,
)
from momentkit.errors import (
    KernelNotContained,
    NotInScope,
    SingularForm,
)
from momentkit.gaussian import sample


def test_sampling_reproducible_and_stream_invariant():
    q = GramForm(dim=3, gram=np.diag([1.0, 2.0, 3.0]))
    gamma = GaussianMeasure.from_form(q)
    a = sample(gamma, McConfig(seed=42, samples=1000, streams=1))
    b = sample(gamma, McConfig(seed=42, samples=1000, streams=1))
    assert np.array_equal(a, b)
    # same seed, different stream split: same values, fixed merge order
    c = sample(gamma, McConfig(seed=42, samples=1000, streams=4))
    assert c.shape == a.shape
    d = sample(gamma, McConfig(seed=42, samples=1000, streams=4))
    assert np.array_equal(c, d)


def test_sampling_law_kolmogorov_smirnov():
    """One-dimensional marginal of the sampled law matches N(0, 1/q-scale)."""
    q = GramForm(dim=1, gram=np.array([[4.0]]))
    gamma = GaussianMeasure.from_form(q)
    v = sample(gamma, McConfig(seed=0, samples=100_000)).ravel()
    # q(v) = 2|v| standard: whitened direction has q = 1 -> sd = 1/2
    stat, pvalue = stats.kstest(v, "norm", args=(0.0, 0.5))
    assert pvalue > 1e-3


def test_singular_form_needs_quotient_flag():
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    with pytest.raises(SingularForm):
        GaussianMeasure.from_form(q)
    gamma = GaussianMeasure.from_form(q, quotient=True)
    assert gamma.rank == 1


def test_second_moment_exact_value_one():
    rng = np.random.default_rng(5)
    q_mat = rng.standard_normal((4, 4))
    q = GramForm(dim=4, gram=q_mat @ q_mat.T + 0.5 * np.eye(4))
    gamma = GaussianMeasure.from_form(q)
    w = rng.standard_normal(4)
    rep = second_moment_check(gamma, w, McConfig(seed=1, samples=200_000))
    assert rep.bound == 1.0
    assert rep.certified
    assert abs(rep.estimate - 1.0) <= 4.0 * rep.stderr


def test_tail_lower_bound_boundary_value():
    q = GramForm(dim=2, gram=np.eye(2))
    gamma = GaussianMeasure.from_form(q)
    l = DualFunctional(dim=2, coeffs=np.array([1.0, 0.0]))  # q'(l) = 1
    rep = tail_lower_bound_check(gamma, l)
    assert rep.exact == pytest.approx(0.317310508, abs=1e-9)
    assert rep.exact >= 1.0 / 7.0
    assert rep.ok


def test_tail_lower_bound_matches_scipy_normal_tail():
    """exact = erfc(x / sqrt 2) agrees with 2 * norm.sf(x), x = 1/q'(l), to
    4 ulp over the whole range in scope: q'(l) >= 1 puts x in (0, 1]."""
    gamma = GaussianMeasure.from_form(GramForm(dim=1, gram=np.eye(1)))
    for x in np.linspace(0.0, 1.0, 20_001)[1:]:
        l = DualFunctional(dim=1, coeffs=np.array([1.0 / x]))
        rep = tail_lower_bound_check(gamma, l)
        want = 2.0 * stats.norm.sf(1.0 / rep.dual_norm_value)
        assert abs(rep.exact - want) <= 4 * np.spacing(want), x


def test_tail_report_encodes_infinite_dual_norm():
    """A functional off range(q) has dual norm INFINITE (reachable on the
    quotient measure); the report carries it as the string "infinite"."""
    gamma = GaussianMeasure.from_form(GramForm(dim=2, gram=np.diag([1.0, 0.0])), quotient=True)
    rep = tail_lower_bound_check(gamma, DualFunctional(dim=2, coeffs=np.array([0.0, 1.0])))
    assert is_infinite(rep.dual_norm_value)
    assert rep.exact == 1.0 and rep.ok

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    data = json.loads(json.dumps(rep.to_jsonable()), parse_constant=reject)
    assert data["dual_norm"] == "infinite"


def test_tail_lower_bound_monotone_in_dual_norm():
    q = GramForm(dim=1, gram=np.eye(1))
    gamma = GaussianMeasure.from_form(q)
    exacts = []
    for c in (1.0, 2.0, 5.0):
        l = DualFunctional(dim=1, coeffs=np.array([c]))
        rep = tail_lower_bound_check(gamma, l)
        assert rep.ok
        exacts.append(rep.exact)
    assert exacts == sorted(exacts)


def test_tail_lower_bound_out_of_scope_below_one():
    q = GramForm(dim=1, gram=np.eye(1))
    gamma = GaussianMeasure.from_form(q)
    with pytest.raises(NotInScope):
        tail_lower_bound_check(gamma, DualFunctional(dim=1, coeffs=np.array([0.5])))


def test_chebyshev_outside_ball():
    q = GramForm(dim=2, gram=np.eye(2))
    gamma = GaussianMeasure.from_form(q)
    p = GramForm(dim=2, gram=np.eye(2))
    rep = chebyshev_outside_ball(gamma, p, delta=3.0, cfg=McConfig(seed=2, samples=100_000))
    assert rep.bound == pytest.approx(2.0 / 9.0)
    # true mass P(chi2_2 > 9) = exp(-4.5)
    assert rep.mc == pytest.approx(np.exp(-4.5), abs=5e-3)
    assert rep.certified


def test_chebyshev_requires_kernel_containment():
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    gamma = GaussianMeasure.from_form(q, quotient=True)
    p = GramForm(dim=2, gram=np.eye(2))
    with pytest.raises(KernelNotContained):
        chebyshev_outside_ball(gamma, p, delta=1.0, cfg=McConfig(seed=0, samples=10))


def test_fundamental_lemma_spec_example():
    """mu = half delta_{0.5} + half delta_3 on functionals over R^1 with
    p = q = |.|, delta = 0.1: sup over the delta-ball is 0.04625."""
    mu = DiscreteMeasure(
        dim=1, atoms=np.array([[0.5], [3.0]]), weights=np.array([0.5, 0.5])
    )
    p = GramForm(dim=1, gram=np.eye(1))
    q = GramForm(dim=1, gram=np.eye(1))
    rep = fundamental_lemma_check(mu, p, q, epsilon=0.05, delta=0.1)
    assert rep.sup_quadratic == pytest.approx(0.04625, abs=1e-12)
    assert rep.hypothesis_certified
    # only the atom at 0.5 lies in the unit dual ball of q
    assert rep.mass_in_unit_dual_ball == pytest.approx(0.5)
    assert rep.conclusion_ok


def test_fundamental_lemma_uncertified_branch():
    mu = DiscreteMeasure(
        dim=1, atoms=np.array([[0.5], [3.0]]), weights=np.array([0.5, 0.5])
    )
    p = GramForm(dim=1, gram=np.eye(1))
    q = GramForm(dim=1, gram=np.eye(1))
    rep = fundamental_lemma_check(mu, p, q, epsilon=0.01, delta=0.1)
    assert not rep.hypothesis_certified
    assert rep.conclusion_ok is None


def test_fundamental_lemma_mass_bound_random():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 25:
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        p = GramForm(dim=n, gram=a @ a.T + 0.3 * np.eye(n))
        b = rng.standard_normal((n, n))
        q = GramForm(dim=n, gram=b @ b.T + 0.3 * np.eye(n))
        k = int(rng.integers(1, 6))
        atoms = rng.uniform(-1.5, 1.5, size=(k, n))
        w = rng.uniform(0.2, 1.0, k)
        mu = DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())
        delta = float(rng.uniform(0.2, 1.0))
        # pick epsilon at the certificate threshold so the hypothesis holds
        probe = fundamental_lemma_check(mu, p, q, epsilon=np.inf, delta=delta)
        eps = probe.sup_quadratic * 1.01 + 1e-12
        rep = fundamental_lemma_check(mu, p, q, epsilon=eps, delta=delta)
        assert rep.hypothesis_certified
        assert rep.conclusion_ok
        assert rep.mass_in_unit_dual_ball >= rep.bound - 1e-12
        checked += 1
