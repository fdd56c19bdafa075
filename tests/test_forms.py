"""Hilbertian seminorm core: evaluation, kernels, duals, orthonormalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import (
    DualFunctional,
    GramForm,
    INFINITE,
    dual_norm,
    evaluate,
    gram_schmidt,
    is_infinite,
    kernel_basis,
    simultaneous_diagonalize,
    whitening_system,
)
from momentkit import forms
from momentkit.errors import NotPSD, ZeroNormDirection
from momentkit.forms import _in_unit_dual_ball, is_continuous, kernel_contained, restrict_gram


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank))
    return GramForm(dim=n, gram=a @ a.T)


def test_evaluate_euclidean():
    p = GramForm(dim=2, gram=np.eye(2))
    assert evaluate(p, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_evaluate_diag():
    p = GramForm(dim=2, gram=np.diag([1.0, 4.0]))
    assert evaluate(p, [1.0, 1.0]) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_evaluate_clamps_round_off_and_raises_below_the_tolerance():
    """Forms that pass GramForm's PSD rule yet go slightly negative: values
    down to -PSD_TOL * max(1, lambda_max v'v) read 0, lower ones raise."""
    clamped = GramForm(dim=2, gram=np.diag([1e-14, -9e-12]))
    assert evaluate(clamped, [0.0, 1.0]) == 0.0
    assert evaluate(clamped, [1.0, 1.0]) == 0.0
    assert evaluate(clamped, [1.0, 0.0]) == pytest.approx(1e-7, rel=1e-12)
    breaking = GramForm(dim=2, gram=np.diag([1e-14, -9.9e-11]))
    assert evaluate(breaking, [0.0, 1.0]) == 0.0
    with pytest.raises(NotPSD, match="below clamping tolerance"):
        evaluate(breaking, [0.0, 2.0])


def test_not_psd_rejected():
    with pytest.raises(NotPSD):
        GramForm(dim=2, gram=np.diag([1.0, -1.0]))


def test_kernel_basis_rank_one_form():
    p = GramForm(dim=2, gram=np.ones((2, 2)))
    basis = kernel_basis(p)
    assert len(basis) == 1
    k = basis[0]
    assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-12)
    # spans (1, -1)/sqrt(2) up to sign
    assert abs(abs(k @ np.array([1.0, -1.0]) / np.sqrt(2))) == pytest.approx(
        1.0, abs=1e-12
    )
    assert evaluate(p, k) == pytest.approx(0.0, abs=1e-8)


def test_dual_norm_diagonal():
    q = GramForm(dim=2, gram=np.diag([4.0, 1.0]))
    l = DualFunctional(dim=2, coeffs=np.array([1.0, 0.0]))
    assert dual_norm(q, l) == pytest.approx(0.5, abs=1e-12)


def test_dual_norm_infinite_off_kernel():
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    l = DualFunctional(dim=2, coeffs=np.array([0.0, 1.0]))
    assert is_infinite(dual_norm(q, l))
    assert not is_continuous(q, l)
    # vanishing on the kernel -> finite again
    l2 = DualFunctional(dim=2, coeffs=np.array([2.0, 0.0]))
    assert dual_norm(q, l2) == pytest.approx(2.0, abs=1e-12)


def test_kernel_test_does_not_overflow():
    """The kernel tolerance scales with |coeffs|; taken on coeffs scaled by
    a power of two it cannot overflow to inf, so a huge functional off
    ker(q)^perp stays discontinuous and outside the unit dual ball."""
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    for big in (1e150, 1e200, 1e308):
        coeffs = np.array([big, big])
        l = DualFunctional(dim=2, coeffs=coeffs)
        assert not is_continuous(q, l)
        assert is_infinite(dual_norm(q, l))
        assert not _in_unit_dual_ball(q, coeffs[None, :])[0]
    huge = DualFunctional(dim=2, coeffs=np.array([1e200, 0.0]))
    assert dual_norm(q, huge) == 1e200
    assert not _in_unit_dual_ball(q, huge.coeffs[None, :])[0]


def test_dual_norm_is_supremum():
    rng = np.random.default_rng(1)
    q = random_psd(rng, 5)
    l = DualFunctional(dim=5, coeffs=rng.standard_normal(5))
    nrm = dual_norm(q, l)
    for _ in range(200):
        v = rng.standard_normal(5)
        assert abs(l(v)) <= nrm * evaluate(q, v) * (1 + 1e-9) + 1e-12


def test_gram_schmidt_diagonal_example():
    q = GramForm(dim=2, gram=np.diag([1.0, 4.0]))
    sys = gram_schmidt(q, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    mat = sys.matrix
    assert np.allclose(mat[:, 0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(mat[:, 1], [0.0, 0.5], atol=1e-12)
    assert sys.gram_error() < 1e-12
    assert sys.complete


def test_gram_schmidt_drops_null_directions():
    q = GramForm(dim=2, gram=np.ones((2, 2)))
    sys = gram_schmidt(
        q, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    )
    # second vector coincides with the first modulo ker(q)
    assert len(sys) == 1
    assert sys.dropped == (1,)


def test_whitening_system_is_complete_orthonormal():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        q = random_psd(rng, n)
        sys = whitening_system(q)
        assert len(sys) == q.rank == n
        assert sys.gram_error() < 1e-9


def test_simultaneous_diagonalize_props():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_psd(rng, 4)
        q = random_psd(rng, 4)
        sys = simultaneous_diagonalize(p, q)
        assert sys.gram_error() < 1e-8
        mat = sys.matrix
        cross = mat.T @ p.gram @ mat
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-8 * max(1.0, p.lambda_max)
        # members ordered by decreasing p-norm
        d = np.diag(cross)
        assert all(d[i] >= d[i + 1] - 1e-10 for i in range(len(d) - 1))


def test_simultaneous_diagonalize_deterministic():
    rng = np.random.default_rng(4)
    p = random_psd(rng, 5)
    q = random_psd(rng, 5)
    m1 = simultaneous_diagonalize(p, q).matrix
    m2 = simultaneous_diagonalize(p, q).matrix
    assert np.array_equal(m1, m2)


def test_kernel_contained():
    p = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    q = GramForm(dim=2, gram=np.diag([0.0, 1.0]))
    assert kernel_contained(p, GramForm(dim=2, gram=np.eye(2)))
    assert not kernel_contained(p, q)


def test_restrict_gram_principal_block():
    rng = np.random.default_rng(5)
    p = random_psd(rng, 4)
    basis = [np.eye(4)[0], np.eye(4)[2]]
    r = restrict_gram(p, basis)
    assert r.dim == 2
    assert r.gram[0, 0] == pytest.approx(p.gram[0, 0])
    assert r.gram[1, 1] == pytest.approx(p.gram[2, 2])


def test_zero_norm_direction_error():
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    from momentkit.gaussian import GaussianMeasure, McConfig, second_moment_check

    gamma = GaussianMeasure.from_form(q, quotient=True)
    with pytest.raises(ZeroNormDirection):
        second_moment_check(gamma, np.array([0.0, 1.0]), McConfig(seed=0, samples=10))


@st.composite
def psd_and_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.floats(-2, 2, allow_nan=False)
    a = np.array(
        draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    )
    v = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    return GramForm(dim=n, gram=a @ a.T), v, w


@settings(max_examples=60, deadline=None)
@given(psd_and_vectors())
def test_seminorm_triangle_and_homogeneity(data):
    p, v, w = data
    pv, pw, pvw = evaluate(p, v), evaluate(p, w), evaluate(p, v + w)
    assert pvw <= pv + pw + 1e-8 * (1 + pv + pw)
    assert evaluate(p, 3.0 * v) == pytest.approx(3.0 * pv, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(psd_and_vectors())
def test_cauchy_schwarz_and_parallelogram(data):
    p, v, w = data
    pv, pw = evaluate(p, v), evaluate(p, w)
    assert abs(p.inner(v, w)) <= pv * pw * (1 + 1e-8) + 1e-8
    lhs = evaluate(p, v + w) ** 2 + evaluate(p, v - w) ** 2
    rhs = 2 * (pv**2 + pw**2)
    assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-7)


def _inside_by_dual_norm(q, row):
    nd = dual_norm(q, DualFunctional(dim=q.dim, coeffs=row))
    return not is_infinite(nd) and nd <= 1.0 + 1e-9


def test_in_unit_dual_ball_matches_dual_norm():
    """Row by row the same verdict as dual_norm <= 1 + 1e-9 (INFINITE outside),
    on full-rank and rank-deficient forms, with rows at dual norm 1 +- 1e-6
    and kernel components 1e-6 (relative) below and above the tolerance."""
    rng = np.random.default_rng(11)
    checked = 0
    for n, rank in [(3, 3), (4, 2), (5, 4), (5, 1)]:
        for _ in range(5):
            q = random_psd(rng, n, rank)
            _, vr, _, vk = q._split
            rows = [rng.standard_normal(n) * rng.uniform(0.1, 3.0) for _ in range(20)]
            planted = []  # (row, expected verdict)
            r = vr @ rng.standard_normal(vr.shape[1])
            r = r / dual_norm(q, DualFunctional(dim=n, coeffs=r))
            planted += [(r * (1.0 - 1e-6), True), (r * (1.0 + 1e-6), False)]
            if vk.shape[1]:
                half = 0.5 * r
                tol = 1e-8 * max(1.0, float(np.linalg.norm(half)))
                for c, inside in [(1.0 - 1e-6, True), (1.0 + 1e-6, False)]:
                    planted.append((half + c * tol * vk[:, 0], inside))
            points = np.array(rows + [row for row, _ in planted])
            got = forms._in_unit_dual_ball(q, points)
            assert got.tolist() == [_inside_by_dual_norm(q, row) for row in points]
            assert got[len(rows):].tolist() == [inside for _, inside in planted]
            checked += len(points)
    assert checked > 400


def test_in_unit_dual_ball_verdict_does_not_depend_on_the_stack():
    """Rows planted on the 1 + 1e-9 dual-norm boundary and on the kernel
    tolerance, stacked with random rows: the stacked verdict on each row
    equals the verdict on that row alone and dual_norm's verdict."""
    rng = np.random.default_rng(23)
    checked = 0
    for n, rank in [(2, 2), (3, 3), (4, 2), (5, 5), (6, 4), (7, 7), (8, 5)]:
        for _ in range(6):
            q = random_psd(rng, n, rank)
            _, vr, _, vk = q._split
            rows = []
            for _ in range(60):
                r = vr @ rng.standard_normal(vr.shape[1])
                r = r / dual_norm(q, DualFunctional(dim=n, coeffs=r))
                rows.append(r * (1.0 + 1e-9))
                if vk.shape[1]:
                    half = 0.5 * r
                    tol = 1e-8 * max(1.0, float(np.linalg.norm(half)))
                    rows.append(half + tol * vk[:, int(rng.integers(vk.shape[1]))])
            rows += [rng.standard_normal(n) for _ in range(20)]
            points = np.array(rows)[rng.permutation(len(rows))]
            stacked = forms._in_unit_dual_ball(q, points).tolist()
            alone = [bool(forms._in_unit_dual_ball(q, row[None])[0]) for row in points]
            assert stacked == alone
            assert stacked == [_inside_by_dual_norm(q, row) for row in points]
            checked += len(points)
    assert checked > 4000
