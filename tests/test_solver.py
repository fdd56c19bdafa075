"""Atomic measure recovery: Hankel quadrature and flat-extension extraction.

Each solver is checked against an independent reference route: the
univariate one against the orthogonal-polynomial recurrence on a loop-built
Hankel matrix with SVD ranks, the multivariate one against least-squares
multiplication matrices, a real Schur form of their random combination and
Vandermonde weights (non-negative least squares when a least-squares weight
is negative).  Both references take the solvers' decisions on the table
equilibrated by a loop-built t_i = L(x_i^2e)^(1/2e): the univariate one its
residual gate, the multivariate one its PSD gate and ranks."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import nnls

import momentkit
from momentkit import (
    AlgebraElement,
    DiscreteMeasure,
    MomentFunctional,
    from_measure,
    solve_multivariate,
    solve_univariate,
)
from momentkit.errors import IllConditioned, InvalidInput, MomentkitError, NotPSD, RankNotFlat
from momentkit.moments import localizing_matrix, moment_matrix, monomials_up_to
from momentkit.solver import _equilibrated
from momentkit.symalg import _monomial_values, _slice_index

_RANK_TOL = 1e-9
_RESIDUAL_TOL = 1e-7


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
    m_{i+j}, with the solver's error rules: IllConditioned when the measure
    misses some m_n / t^n by more than _RESIDUAL_TOL, t = m_2e^(1/2e)."""
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
    weights = vecs[0, :] ** 2 / (vecs[0, :] ** 2).sum()
    e = (len(moments) - 1) // 2
    t = moments[2 * e] ** (1 / (2 * e)) if moments[2 * e] > 0 else 1.0
    for n, m_n in enumerate(moments):
        if abs(sum(w * a**n for a, w in zip(vals, weights)) - m_n) / t**n > _RESIDUAL_TOL:
            raise IllConditioned(f"the measure misses m_{n}")
    order = np.argsort(vals)
    return vals[order], weights[order], profile


def _outcome(solve, moments):
    """(atoms, weights, rank profile), or the type of the error raised."""
    try:
        return solve(moments)
    except (NotPSD, RankNotFlat, IllConditioned) as err:
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
    the recurrence, the same rank profile, or the same error type.  Two
    perturbed tables are flat but have no representing measure: the
    measure of their flat part misses the perturbed moment."""
    rng = np.random.default_rng(24)
    seen = {"solved": 0, NotPSD: 0, RankNotFlat: 0, IllConditioned: 0}
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
    assert seen.pop(IllConditioned) == 2 and min(seen.values()) >= 10, seen


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


def _eig_rank(w: np.ndarray) -> int:
    return int(np.count_nonzero(w > _RANK_TOL * max(w.max(initial=0.0), 1e-300)))


def _reference_multivariate(L, d, seed=0):
    """(sorted atoms, their weights, rank profile) by the Schur route, with
    the solver's error rules: the PSD gate and the ranks on M_d scaled by
    the loop-built t^alpha, then least-squares multiplication matrices on
    the flat factor of M_d, the real Schur vectors of their seeded random
    combination, and Vandermonde least-squares weights (NNLS when one is
    negative)."""
    m_d = moment_matrix(L, d)
    start = np.cumsum([0] + [len(_slice_index(L.dim, k).monomials) for k in range(d + 1)])
    e = L.max_degree // 2
    t = []
    for i in range(L.dim):
        top = L.moment(tuple(2 * e if j == i else 0 for j in range(L.dim)))
        t.append(top ** (1 / (2 * e)) if top > 0 else 1.0)
    basis = monomials_up_to(L.dim, d)
    t_alpha = np.array([np.prod([ti**ai for ti, ai in zip(t, a)]) for a in basis])
    scaled = m_d / np.outer(t_alpha, t_alpha)
    w = np.linalg.eigvalsh(scaled)
    if w[0] < -_RANK_TOL * max(w[-1], 1.0):
        raise NotPSD(f"moment matrix has eigenvalue {w[0]}")
    r = _eig_rank(w)
    profile = (_eig_rank(np.linalg.eigvalsh(scaled[: start[d], : start[d]])), r)
    if profile[0] != r:
        raise RankNotFlat("not flat")
    w, v = np.linalg.eigh(m_d)
    feat = v[:, len(w) - r :] * np.sqrt(w[len(w) - r :])
    shift = np.vstack([start[k + 1] + _slice_index(L.dim, k + 1).times for k in range(d)])
    a = feat[: start[d]]
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > 1e10:
        raise IllConditioned("basis extraction")
    mult = [np.linalg.lstsq(a, feat[shift[:, i]], rcond=None)[0] for i in range(L.dim)]
    c = np.random.default_rng(seed).standard_normal(L.dim)
    _, q = scipy.linalg.schur(sum(ci * x for ci, x in zip(c, mult)), output="real")
    atoms = np.column_stack([np.diag(q.T @ x @ q) for x in mult])
    vand = _monomial_values(atoms, 2 * d).T
    targets = L.values[: len(vand)]
    weights = np.linalg.lstsq(vand, targets, rcond=None)[0]
    if np.any(weights < -1e-8):
        weights = nnls(vand, targets)[0]
    order = np.lexsort(atoms.T[::-1])
    return atoms[order], weights[order] / weights.sum(), profile


def _multivariate_outcome(solve, L, d):
    """(atoms, weights, rank profile), or the type of the error raised."""
    try:
        res = solve(L, d)
    except (NotPSD, RankNotFlat, IllConditioned) as err:
        return type(err)
    if isinstance(res, tuple):
        return res
    return res.measure.atoms, res.measure.weights, res.rank_profile


def _spiked(dim, d):
    """The point mass at the origin with L(x_1^{2d}) raised to 1e12: M_d is
    diagonal with entries 1 and 1e12 and its rank profile is (1, 2), so the
    table is not flat, though a rank rule relative to the raw table's
    largest eigenvalue sees rank 1 at both orders."""
    values = np.zeros(len(monomials_up_to(dim, 2 * d)))
    values[0] = 1.0
    values[monomials_up_to(dim, 2 * d).index((2 * d,) + (0,) * (dim - 1))] = 1e12
    return MomentFunctional(dim=dim, max_degree=2 * d, values=values)


def test_multivariate_matches_schur_reference():
    """1-12 atoms at least 0.3 apart in dims 1-4 at orders 2-4, every third
    table with one moment perturbed, plus the spiked tables, which are not
    flat: the same atoms and weights within 1e-10 as the Schur route, the
    same rank profile, or the same error type."""
    rng = np.random.default_rng(25)
    cases = [(_spiked(dim, d), d) for dim in range(1, 5) for d in range(2, 5)]
    for L, d in cases:
        with pytest.raises(RankNotFlat):
            solve_multivariate(L, d)
    while len(cases) < 300:
        dim, d, k = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 13))
        atoms = rng.uniform(-1.5, 1.5, (k, dim))
        gaps = np.linalg.norm(atoms[:, None] - atoms[None], axis=-1) + np.eye(k)
        if gaps.min() < 0.3:
            continue
        w = rng.uniform(0.1, 1.0, k)
        L = from_measure(DiscreteMeasure(dim=dim, atoms=atoms, weights=w / w.sum()), 2 * d)
        if len(cases) % 3 == 2:
            values = L.values.copy()
            values[int(rng.integers(1, len(values)))] += rng.normal(0.0, 0.5)
            L = MomentFunctional(dim=dim, max_degree=2 * d, values=values)
        cases.append((L, d))
    seen = {"solved": 0, NotPSD: 0, RankNotFlat: 0}
    for L, d in cases:
        want = _multivariate_outcome(_reference_multivariate, L, d)
        got = _multivariate_outcome(solve_multivariate, L, d)
        if isinstance(want, type):
            assert got is want
            seen[want] += 1
            continue
        assert not isinstance(got, type), got
        assert got[2] == want[2]
        assert np.abs(got[0] - want[0]).max() <= 1e-10
        assert np.abs(got[1] - want[1]).max() <= 1e-10
        seen["solved"] += 1
    assert min(seen.values()) >= 10, seen


def _by_rounded_atoms(atoms, weights):
    """Atoms and weights in the lexicographic order of the atoms rounded to
    8 digits: ties in a shared coordinate are rounding-level apart, so the
    solvers' exact lexsort may order such atoms either way."""
    order = np.lexsort(np.round(atoms, 8).T[::-1])
    return atoms[order], weights[order]


def test_multivariate_separates_atoms_sharing_a_coordinate():
    """Atoms that share a coordinate give a multiplication matrix with a
    repeated eigenvalue; the random combination still separates them, for
    every seed, as the Schur route does."""
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[-0.5, 1.0], [0.5, -1.0], [0.5, 1.0]]),
        weights=np.array([0.2, 0.3, 0.5]),
    )
    L = from_measure(nu, 4)
    for seed in range(5):
        res = solve_multivariate(L, 2, seed=seed)
        got = _by_rounded_atoms(res.measure.atoms, res.measure.weights)
        for want in ((nu.atoms, nu.weights), _reference_multivariate(L, 2, seed=seed)[:2]):
            want = _by_rounded_atoms(*want)
            assert np.abs(got[0] - want[0]).max() <= 1e-10
            assert np.abs(got[1] - want[1]).max() <= 1e-10
        assert res.residual <= 1e-12


def _separated(rng, k, dim, sep):
    """k atoms drawn from U(-1.5, 1.5)^dim until they are at least sep apart."""
    while True:
        atoms = rng.uniform(-1.5, 1.5, (k, dim))
        gaps = np.linalg.norm(atoms[:, None] - atoms[None], axis=-1) + np.eye(k)
        if gaps.min() >= sep:
            return atoms


def test_scale_sweep_never_returns_a_wrong_atom_count():
    """400 seeded measures of 1-6 atoms at least 0.3 apart in the plane,
    weights from U(0.1, 1), case i scaled by (1e-3, 1e-2, 1, 1e2, 1e3)[i % 5]
    and, for odd i // 5, its second axis by 1e3 more: at order 3 every case
    gives its atoms or a typed error, never a wrong atom count."""
    rng = np.random.default_rng(17)
    solved = 0
    for i in range(400):
        k = int(rng.integers(1, 7))
        atoms = _separated(rng, k, 2, 0.3)
        w = rng.uniform(0.1, 1.0, k)
        scale = (1e-3, 1e-2, 1.0, 1e2, 1e3)[i % 5] * np.array([1.0, 1e3 if i // 5 % 2 else 1.0])
        nu = DiscreteMeasure(dim=2, atoms=atoms * scale, weights=w / w.sum())
        try:
            res = solve_multivariate(from_measure(nu, 6), 3)
        except MomentkitError:
            continue
        assert len(res.measure.weights) == k, (i, res.measure.atoms)
        order = np.lexsort(atoms.T[::-1])
        assert np.abs(res.measure.atoms / scale - atoms[order]).max() <= 1e-8
        solved += 1
    assert solved >= 390


def test_diagonal_scaling_maps_the_atoms():
    """The scaling relation: x -> Dx with D diagonal, entries of either sign
    and of size 1e-3 to 1e3, maps the recovered atoms by D and keeps the
    weights, or gives the same error type."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        dim, k = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        atoms = _separated(rng, k, dim, 0.3)
        w = rng.uniform(0.1, 1.0, k)
        d = 1
        while len(monomials_up_to(dim, d - 1)) < k:
            d += 1
        diag = rng.choice([-1.0, 1.0], dim) * 10 ** rng.uniform(-3, 3, dim)
        got, want = (
            _multivariate_outcome(solve_multivariate, from_measure(nu, 2 * d), d)
            for nu in (DiscreteMeasure(dim, atoms * diag, w / w.sum()),
                       DiscreteMeasure(dim, atoms, w / w.sum()))
        )
        if isinstance(want, type):
            assert got is want
            continue
        assert not isinstance(got, type) and len(got[1]) == len(want[1]), got
        mapped = _by_rounded_atoms(got[0] / diag, got[1])
        assert np.abs(mapped[0] - want[0]).max() <= 1e-8
        assert np.abs(mapped[1] - want[1]).max() <= 1e-8


def test_near_flat_tables_without_a_measure_raise():
    """Tables that pass the PSD gate and the rank rule but that no measure
    matches: four atoms at order 3 with L(x_0) moved by 1e-8, whose
    flat-part measure misses the table by about 3e-5, and the two-point
    table with m_5 moved to 1e-3.  No measure is returned."""
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[0.25, 0.25], [1.25, 1.25], [-1.35, -0.35], [-1.4, -0.4]]),
        weights=np.array([0.35, 0.3, 0.25, 0.1]),
    )
    values = from_measure(nu, 6).values.copy()
    values[monomials_up_to(2, 6).index((1, 0))] += 1e-8
    with pytest.raises(IllConditioned):
        solve_multivariate(MomentFunctional(dim=2, max_degree=6, values=values), 3)
    with pytest.raises(IllConditioned):
        solve_univariate([1.0, 0.0, 1.0, 0.0, 1.0, 1e-3])


def test_equilibrated_overflow_is_not_psd():
    """m_1 = 1e300 with m_2 = 1e-300 scales m_1 past the float range: no
    PSD table does that."""
    with pytest.raises(NotPSD):
        solve_univariate([1.0, 1e300, 1e-300])


def test_orders_below_range_raise_invalid_input():
    """A negative order has no moment or localizing matrix, and a flat
    extraction needs an order of at least 1 (M_{d-1} must exist)."""
    L = _multivariate_cases()[0][0]
    with pytest.raises(InvalidInput):
        moment_matrix(L, -1)
    with pytest.raises(InvalidInput):
        localizing_matrix(L, AlgebraElement.variable(0, 2, 1), -1)
    for d in (-1, 0):
        with pytest.raises(InvalidInput):
            solve_multivariate(L, d)
    assert moment_matrix(L, 0).shape == (1, 1)


def test_solvers_and_demo_run_without_scipy():
    """With every scipy import made to fail, both solvers and the atom
    recovery demo run, and no scipy module is loaded."""
    script = (
        "import importlib.abc, runpy, sys\n"
        "class NoScipy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import numpy as np\n"
        "from momentkit import DiscreteMeasure, from_measure, solve_multivariate, solve_univariate\n"
        "uni = solve_univariate([1.0, 0.0, 1.0, 0.0, 3.0, 0.0])\n"
        "nu = DiscreteMeasure(dim=2, atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]), weights=np.full(2, 0.5))\n"
        "multi = solve_multivariate(from_measure(nu, 4), 2)\n"
        "runpy.run_path(sys.argv[1], run_name='__main__')\n"
        "print(len(uni.measure.weights), len(multi.measure.weights), "
        "[m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    demo = Path(__file__).resolve().parents[1] / "demos" / "07_atom_recovery.py"
    src = str(Path(momentkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "3 2 []"
    assert any(line.startswith("d=3 recovers 4 atoms") for line in lines)


def test_a_subnormal_top_moment_does_not_scale():
    """(delta_{-s} + delta_s) / 2 at seeded scales: while m_4 = s^4 is a
    normal float the table solves to +-s with weights 1/2; from s = 1e-77
    on, where s^4 is subnormal and has lost its digits, t = 1 and the
    table solves to the single atom 0 within the residual tolerance (at
    s = 1e-80 a subnormal t read NotPSD)."""
    rng = np.random.default_rng(44)
    normal = np.concatenate([[-75.0], rng.uniform(-75.0, 0.0, 12)])
    subnormal = np.concatenate([[-77.0, -80.0, -160.0], rng.uniform(-160.0, -77.0, 12)])
    for e in normal:
        s = 10.0**e
        res = solve_univariate([1.0, 0.0, s * s, 0.0, s**4])
        assert np.abs(res.measure.atoms.ravel() / s - [-1.0, 1.0]).max() <= 1e-12, e
        assert np.abs(res.measure.weights - 0.5).max() <= 1e-12, e
    for e in subnormal:
        s = 10.0**e
        res = solve_univariate([1.0, 0.0, s * s, 0.0, s**4])
        assert res.measure.atoms.tolist() == [[0.0]] and res.measure.weights.tolist() == [1.0]
        assert res.residual <= _RESIDUAL_TOL, e


def _planted_operators(rng, seed, dim, k, tie):
    """Commuting symmetric X_i = Q diag(atom coordinates i) Q' of k atoms,
    Q random orthogonal, and unit = Q sqrt(w): with ``tie`` atom 1 lies at
    Euclidean distance 1 from atom 0 while their projections on the
    solver's first combination for ``seed`` differ by 1e-10."""
    mix = np.random.default_rng(seed).standard_normal(dim)
    atoms = rng.uniform(-1.0, 1.0, (k, dim))
    if tie:
        away = np.linalg.svd(mix[None])[2][-1]  # a unit vector orthogonal to mix
        atoms[1] = atoms[0] + away + mix * (1e-10 / (mix @ mix))
    w = rng.uniform(0.1, 1.0, k)
    w /= w.sum()
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    ops = [q @ np.diag(atoms[:, i]) @ q.T for i in range(dim)]
    order = np.lexsort(atoms.T[::-1])
    return ops, q @ np.sqrt(w), atoms[order], w[order]


def test_near_tied_projections_are_separated_by_the_next_combination():
    """Two atoms far apart whose projections on the seeded combination
    differ by 1e-10 share a nearly degenerate eigenspace of sum mix_i X_i;
    re-diagonalizing it with the generator's next combination gives their
    atoms and weights as accurately as untied atoms (the one-combination
    route's weights were off by 1e-8 to 5e-7 on these cases)."""
    from momentkit.solver import _spectral_measure

    rng = np.random.default_rng(45)
    for seed in range(12):
        dim = (2, 3)[seed % 2]
        for tie in (False, True):
            ops, unit, atoms, w = _planted_operators(rng, seed, dim, 5, tie)
            got_atoms, got_w = _spectral_measure(ops, np.random.default_rng(seed), unit)
            assert np.abs(got_atoms - atoms).max() <= 1e-12, (seed, tie)
            assert np.abs(got_w - w).max() <= 1e-12, (seed, tie)


def test_multivariate_recovers_a_planted_tie():
    """End to end at order 3: atom 1 placed at distance 1 from atom 0 with
    an equilibrated projection on the solver's first combination 1e-10
    above atom 0's.  The measure comes back with its atoms and weights
    within 1e-8, as untied measures do."""
    rng = np.random.default_rng(46)
    mix = np.random.default_rng(0).standard_normal(2)
    for _ in range(12):
        atoms = _separated(rng, 4, 2, 0.5)
        w = rng.uniform(0.1, 1.0, 4)
        for _ in range(20):  # t depends on atom 1 through the top moments
            t, _ = _equilibrated(from_measure(DiscreteMeasure(2, atoms, w / w.sum()), 6))
            u = mix / t  # the projection, on unscaled atoms
            away = np.array([-u[1], u[0]]) / np.linalg.norm(u)
            atoms[1] = atoms[0] + away + u * (1e-10 / (u @ u))
        nu = DiscreteMeasure(2, atoms, w / w.sum())
        t, _ = _equilibrated(from_measure(nu, 6))
        assert abs((atoms[1] - atoms[0]) / t @ mix) <= 1e-9
        assert np.linalg.norm(atoms[1] - atoms[0]) >= 0.99
        res = solve_multivariate(from_measure(nu, 6), 3)
        order = np.lexsort(atoms.T[::-1])
        assert np.abs(res.measure.atoms - atoms[order]).max() <= 1e-8
        assert np.abs(res.measure.weights - nu.weights[order]).max() <= 1e-8
