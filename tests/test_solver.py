"""Atomic measure recovery: Hankel quadrature and flat-extension extraction.

The univariate solver is checked against the orthogonal-polynomial
recurrence on a loop-built Hankel matrix with SVD ranks, the route it
replaced, as an independent reference."""

from __future__ import annotations

import numpy as np
import pytest

from momentkit import (
    DiscreteMeasure,
    from_measure,
    solve_multivariate,
    solve_univariate,
)
from momentkit.errors import InvalidInput, NotPSD, RankNotFlat
from momentkit.moments import moment_matrix, monomials_up_to

_RANK_TOL = 1e-9


def _svd_rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _RANK_TOL * max(s[0], 1e-300)))


def _hankel(moments: np.ndarray, size: int) -> np.ndarray:
    return np.array([[moments[i + j] for j in range(size)] for i in range(size)])


def _reference_univariate(moments):
    """(sorted atoms, their weights, rank profile) by the three-term
    recurrence of the monic orthogonal polynomials under <x^i, x^j> =
    m_{i+j}, with the solver's error rules."""
    moments = np.asarray(moments, dtype=float)
    d = (len(moments) - 1) // 2
    h_d = _hankel(moments, d + 1)
    w_eig = np.linalg.eigvalsh(h_d)
    if w_eig[0] < -_RANK_TOL * max(w_eig[-1], 1.0):
        raise NotPSD(f"Hankel matrix has eigenvalue {w_eig[0]}")
    r = _svd_rank(h_d)
    profile = (_svd_rank(_hankel(moments, d)), r)
    if r == d + 1 and len(moments) < 2 * d + 2:
        raise RankNotFlat("full rank without m_{2d+1}")
    if r <= d and _svd_rank(_hankel(moments, r)) != r:
        raise RankNotFlat("not flat")

    def inner(u, v):
        return sum(ui * vj * moments[i + j] for i, ui in enumerate(u) for j, vj in enumerate(v))

    def shift(u):  # multiply by x
        return np.concatenate(([0.0], u))

    polys, alphas, betas = [np.array([1.0])], [], []
    for k in range(r):
        pk = polys[k]
        nk = inner(pk, pk)
        alphas.append(inner(shift(pk), pk) / nk)
        nxt = shift(pk) - alphas[-1] * np.concatenate((pk, [0.0]))
        if k >= 1:
            betas.append(nk / inner(polys[k - 1], polys[k - 1]))
            nxt = nxt - betas[-1] * np.concatenate((polys[k - 1], [0.0, 0.0]))
        polys.append(nxt)
    off = np.sqrt(np.maximum(betas, 0.0))
    vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0, :] ** 2
    order = np.argsort(vals)
    return vals[order], weights[order] / weights.sum(), profile


def _outcome(solve, moments):
    """(atoms, weights, rank profile), or the type of the error raised."""
    try:
        return solve(moments)
    except (NotPSD, RankNotFlat) as err:
        return type(err)


def _solved(moments):
    res = solve_univariate(moments)
    return res.measure.atoms.ravel(), res.measure.weights, res.rank_profile


def test_univariate_two_point():
    res = solve_univariate([1.0, 0.0, 1.0, 0.0, 1.0])
    atoms = sorted(res.measure.atoms.ravel().tolist())
    assert atoms == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert res.measure.weights == pytest.approx([0.5, 0.5], abs=1e-10)
    assert res.residual < 1e-10


def test_univariate_three_point():
    res = solve_univariate([1.0, 0.0, 1.0, 0.0, 3.0, 0.0])
    atoms = sorted(res.measure.atoms.ravel().tolist())
    s3 = np.sqrt(3.0)
    assert atoms == pytest.approx([-s3, 0.0, s3], abs=1e-10)
    order = np.argsort(res.measure.atoms.ravel())
    w = res.measure.weights[order]
    assert w == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-10)
    assert res.residual < 1e-10


def test_univariate_single_atom():
    c = 1.7
    res = solve_univariate([1.0, c, c**2, c**3, c**4])
    assert res.measure.atoms.ravel() == pytest.approx([c], abs=1e-10)
    assert res.measure.weights == pytest.approx([1.0], abs=1e-10)


def test_univariate_not_psd():
    with pytest.raises(NotPSD):
        solve_univariate([1.0, 0.0, -1.0])


def test_univariate_rank_not_flat():
    # full-rank Hankel with no m_{2d+1}: Gaussian moments 1,0,1,0,3 need
    # the odd continuation to build the order-3 Jacobi matrix
    with pytest.raises(RankNotFlat):
        solve_univariate([1.0, 0.0, 1.0, 0.0, 3.0])


def test_univariate_gaussian_quadrature_moments():
    """Moments of N(0,1) to degree 6 with the odd continuation recover the
    3-point Gauss-Hermite rule."""
    res = solve_univariate([1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0])
    atoms = sorted(res.measure.atoms.ravel().tolist())
    assert len(atoms) == 4
    assert res.residual < 1e-8


def test_multivariate_two_atom_fixture():
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
    )
    L = from_measure(nu, 4)
    res = solve_multivariate(L, 2)
    assert res.measure.atoms.shape == (2, 2)
    got = sorted(map(tuple, res.measure.atoms.tolist()))
    want = sorted(map(tuple, nu.atoms.tolist()))
    assert np.allclose(got, want, atol=1e-8)
    assert res.residual < 1e-8
    assert res.rank_profile == (2, 2)


def test_multivariate_single_origin_atom():
    nu = DiscreteMeasure(dim=2, atoms=np.zeros((1, 2)), weights=np.array([1.0]))
    res = solve_multivariate(from_measure(nu, 4), 2)
    assert res.measure.atoms == pytest.approx(np.zeros((1, 2)), abs=1e-9)
    assert res.measure.weights == pytest.approx([1.0])


def test_multivariate_product_measure():
    """Four product atoms need order 3: rank M_1 = 3 < rank M_2 = 4, so the
    order-2 truncation is reported non-flat rather than guessed."""
    pts = np.array([[sx, sy] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
    nu = DiscreteMeasure(dim=2, atoms=pts, weights=np.full(4, 0.25))
    with pytest.raises(RankNotFlat):
        solve_multivariate(from_measure(nu, 4), 2)
    res = solve_multivariate(from_measure(nu, 6), 3)
    assert res.measure.atoms.shape == (4, 2)
    got = sorted(map(tuple, np.round(res.measure.atoms, 8).tolist()))
    want = sorted(map(tuple, pts.tolist()))
    assert np.allclose(got, want, atol=1e-8)
    assert res.measure.weights == pytest.approx(np.full(4, 0.25), abs=1e-8)


def test_multivariate_seed_independent():
    nu = DiscreteMeasure(
        dim=3,
        atoms=np.array([[0.5, -0.2, 1.0], [1.5, 0.3, -0.7], [-0.9, 1.1, 0.4]]),
        weights=np.array([0.3, 0.4, 0.3]),
    )
    L = from_measure(nu, 4)
    r1 = solve_multivariate(L, 2, seed=0)
    r2 = solve_multivariate(L, 2, seed=12345)
    assert np.allclose(r1.measure.atoms, r2.measure.atoms, atol=1e-7)
    assert np.allclose(r1.measure.weights, r2.measure.weights, atol=1e-7)


def test_round_trip_random_measures():
    rng = np.random.default_rng(20)
    done = 0
    while done < 15:
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        atoms = rng.uniform(-1.5, 1.5, size=(k, n))
        # enforce pairwise separation >= 0.1
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if np.linalg.norm(atoms[i] - atoms[j]) < 0.1:
                    ok = False
        if not ok:
            continue
        w = rng.uniform(0.1, 1.0, k)
        nu = DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())
        d = 3 if k > 3 else 2
        L = from_measure(nu, 2 * d)
        try:
            res = solve_multivariate(L, d)
        except RankNotFlat:
            continue  # truncation genuinely not flat at this degree
        back = from_measure(res.measure, 2 * d)
        for alpha in monomials_up_to(n, 2 * d):
            assert back.moment(alpha) == pytest.approx(
                L.moment(alpha), abs=1e-8
            )
        done += 1


def test_solver_result_serialization():
    res = solve_univariate([1.0, 0.0, 1.0, 0.0, 1.0])
    data = res.to_jsonable()
    assert set(data) == {"atoms", "weights", "residual", "rank_profile"}
    assert len(data["atoms"]) == 2


def test_univariate_matches_recurrence_reference():
    """1-5 atoms at least 0.1 apart, with and without m_{2d+1}, and tables
    with one moment perturbed: the same atoms and weights within 1e-10 as
    the recurrence, the same rank profile, or the same error type."""
    rng = np.random.default_rng(24)
    seen = {"solved": 0, NotPSD: 0, RankNotFlat: 0}
    for trial in range(300):
        k = int(rng.integers(1, 6))
        atoms = np.sort(rng.uniform(-1.5, 1.5, k))
        if k > 1 and np.diff(atoms).min() < 0.1:
            continue
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        d = int(rng.integers(max(k - 1, 1), k + 2))
        count = 2 * d + 1 + int(rng.integers(0, 2))  # with or without m_{2d+1}
        moments = w @ atoms[:, None] ** np.arange(count)
        moments[0] = 1.0
        if trial % 3 == 2:
            moments[int(rng.integers(1, count))] += rng.normal(0.0, 0.5)
        want = _outcome(_reference_univariate, moments)
        got = _outcome(_solved, moments)
        if isinstance(want, type):
            assert got is want
            seen[want] += 1
            continue
        assert not isinstance(got, type)
        assert got[2] == want[2]
        assert np.abs(got[0] - want[0]).max() <= 1e-10
        assert np.abs(got[1] - want[1]).max() <= 1e-10
        seen["solved"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "moments",
    [[1.0, np.nan, 1.0], [1.0, 0.0, np.inf], [0.0, 0.0, 0.0], [2.0, 0.0, 2.0, 0.0, 2.0]],
    ids=["nan", "inf", "zero_mass", "unnormalized"],
)
def test_univariate_rejects_invalid_tables(moments):
    """The table is a MomentFunctional: finite, with m_0 = 1."""
    with pytest.raises(InvalidInput):
        solve_univariate(moments)


def _multivariate_cases():
    """(functional, order) for the multivariate cases of this file."""
    two = DiscreteMeasure(dim=2, atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]), weights=np.array([0.5, 0.5]))
    origin = DiscreteMeasure(dim=2, atoms=np.zeros((1, 2)), weights=np.array([1.0]))
    pts = np.array([[sx, sy] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
    product = DiscreteMeasure(dim=2, atoms=pts, weights=np.full(4, 0.25))
    three = DiscreteMeasure(
        dim=3,
        atoms=np.array([[0.5, -0.2, 1.0], [1.5, 0.3, -0.7], [-0.9, 1.1, 0.4]]),
        weights=np.array([0.3, 0.4, 0.3]),
    )
    return [
        (from_measure(two, 4), 2),
        (from_measure(origin, 4), 2),
        (from_measure(product, 4), 2),
        (from_measure(product, 6), 3),
        (from_measure(three, 4), 2),
    ]


@pytest.mark.parametrize("case", range(5))
def test_multivariate_rank_profile_matches_svd_count(case):
    """The eigenvalue rank rule on M_d and its leading M_{d-1} block gives
    the SVD count of separately built moment matrices."""
    L, d = _multivariate_cases()[case]
    want = (_svd_rank(moment_matrix(L, d - 1)), _svd_rank(moment_matrix(L, d)))
    if want[0] != want[1]:
        with pytest.raises(RankNotFlat, match=f"= {want[1]} != .* = {want[0]}"):
            solve_multivariate(L, d)
    else:
        assert solve_multivariate(L, d).rank_profile == want
