"""Finite atomic measure recovery from truncated moment data.

Univariate: orthogonal-polynomial three-term recurrence from the Hankel
matrix, atoms as Jacobi-matrix eigenvalues, weights by the first eigenvector
components (Golub-Welsch).  Multivariate: rank factorization of the moment
matrix, multiplication matrices on the flat column space, joint
diagonalization through a seeded random combination and a real Schur form.

Non-flat truncations are reported as errors, never extended or guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidInput, NotPSD, RankNotFlat
from .moments import DiscreteMeasure, MomentFunctional, moment_matrix
from .symalg import _monomial_values, _slice_index, monomials_up_to

_RANK_TOL = 1e-9  # singular values below tol * sigma_max count as rank deficiency


@dataclass(frozen=True, eq=False)
class SolverResult:
    measure: DiscreteMeasure
    residual: float
    rank_profile: tuple

    def to_jsonable(self) -> dict:
        return {
            "atoms": [list(map(float, a)) for a in self.measure.atoms],
            "weights": [float(w) for w in self.measure.weights],
            "residual": float(self.residual),
            "rank_profile": [int(r) for r in self.rank_profile],
        }


def _numeric_rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _RANK_TOL * max(s[0], 1e-300)))


def _hankel(moments: np.ndarray, size: int) -> np.ndarray:
    return np.array([[moments[i + j] for j in range(size)] for i in range(size)])


def _sorted_measure(atoms: np.ndarray, weights: np.ndarray) -> DiscreteMeasure:
    """Clamp tiny negative weights, renormalize, sort atoms lexicographically
    so that runs with different seeds produce identical output order."""
    weights = np.where(weights < 0, np.maximum(weights, 0.0), weights)
    weights = weights / weights.sum()
    order = np.lexsort(tuple(atoms[:, i] for i in reversed(range(atoms.shape[1]))))
    return DiscreteMeasure(dim=atoms.shape[1], atoms=atoms[order], weights=weights[order])


def solve_univariate(moments) -> SolverResult:
    """Moments m_0..m_{2d} (optionally followed by m_{2d+1}, which the full
    rank r = d+1 case needs); m_0 = 1."""
    moments = np.asarray(moments, dtype=float)
    if len(moments) < 3:
        raise InvalidInput("need at least m_0, m_1, m_2")
    d = (len(moments) - 1) // 2
    h_d = _hankel(moments, d + 1)
    w_eig = np.linalg.eigvalsh(h_d)
    if w_eig[0] < -_RANK_TOL * max(w_eig[-1], 1.0):
        raise NotPSD(f"Hankel matrix has eigenvalue {w_eig[0]}")
    rank_d = _numeric_rank(h_d)
    rank_dm1 = _numeric_rank(_hankel(moments, d)) if d >= 1 else 0
    r = rank_d
    if r == d + 1 and len(moments) < 2 * d + 2:
        raise RankNotFlat(
            f"rank {r} = full: need moment m_{2 * d + 1} to close the recurrence"
        )
    if r <= d and _numeric_rank(_hankel(moments, r)) != r:
        raise RankNotFlat(f"rank profile not flat at order {r}")

    # monic orthogonal polynomials under <x^i, x^j> = m_{i+j}
    def inner(u, v):
        total = 0.0
        for i, ui in enumerate(u):
            if ui == 0.0:
                continue
            for j, vj in enumerate(v):
                if vj:
                    total += ui * vj * moments[i + j]
        return total

    def shift(u):  # multiply by x
        return np.concatenate(([0.0], u))

    polys = [np.array([1.0])]
    alphas, betas = [], []
    for k in range(r):
        pk = polys[k]
        nk = inner(pk, pk)
        if nk <= 0:
            raise RankNotFlat(f"orthogonal polynomial {k} has nonpositive norm {nk}")
        a_k = inner(shift(pk), pk) / nk
        alphas.append(a_k)
        if k + 1 < r + 1:
            nxt = shift(pk) - a_k * np.concatenate((pk, [0.0]))
            if k >= 1:
                b_k = nk / inner(polys[k - 1], polys[k - 1])
                betas.append(b_k)
                nxt = nxt - b_k * np.concatenate((polys[k - 1], [0.0, 0.0]))
            polys.append(nxt)

    jacobi = np.diag(alphas)
    if betas:
        off = np.sqrt(np.maximum(betas, 0.0))
        jacobi += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jacobi)
    weights = moments[0] * vecs[0, :] ** 2
    measure = _sorted_measure(vals.reshape(-1, 1), weights)
    recon = measure.weights @ _monomial_values(measure.atoms, len(moments) - 1)
    residual = float(np.abs(recon - moments).max())
    return SolverResult(
        measure=measure, residual=residual, rank_profile=(rank_dm1, rank_d)
    )


def solve_multivariate(L: MomentFunctional, d: int, seed: int = 0) -> SolverResult:
    """Flat-extension extraction at order d: requires rank M_d = rank M_{d-1}."""
    m_d = moment_matrix(L, d)
    m_dm1 = moment_matrix(L, d - 1)
    w_eig = np.linalg.eigvalsh(m_d)
    if w_eig[0] < -_RANK_TOL * max(w_eig[-1], 1.0):
        raise NotPSD(f"moment matrix has eigenvalue {w_eig[0]}")
    r_d = _numeric_rank(m_d)
    r_dm1 = _numeric_rank(m_dm1)
    if r_d != r_dm1:
        raise RankNotFlat(f"rank M_{d} = {r_d} != rank M_{d - 1} = {r_dm1}")
    r = r_d

    # M_d's rows: monomials_up_to(dim, d), slice k from row start[k]; row b
    # of shift holds the rows of monomial b (degree < d) times each x_i
    start = np.cumsum([0] + [len(_slice_index(L.dim, k).monomials) for k in range(d + 1)])
    shift = np.vstack([start[k + 1] + _slice_index(L.dim, k + 1).times for k in range(d)])
    w, v = np.linalg.eigh(m_d)
    keep = w > _RANK_TOL * max(w[-1], 1e-300)
    feat = v[:, keep] * np.sqrt(w[keep])  # row per monomial, <row_a, row_b> = M[a,b]

    a = feat[: start[d], :]
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > 1e10:
        raise IllConditioned(f"basis extraction condition {s[0] / max(s[-1], 1e-300)}")
    mult = [np.linalg.lstsq(a, feat[shift[:, i]], rcond=None)[0] for i in range(L.dim)]

    rng = np.random.default_rng(seed)
    c = rng.standard_normal(L.dim)
    t = sum(ci * xi for ci, xi in zip(c, mult))
    import scipy.linalg  # deferred so that importing momentkit does not load scipy

    _, q_schur = scipy.linalg.schur(np.asarray(t), output="real")
    atoms = np.empty((r, L.dim))
    for i in range(L.dim):
        atoms[:, i] = np.diag(q_schur.T @ mult[i] @ q_schur)

    vand = _monomial_values(atoms, 2 * d).T
    targets = np.array([L.moments.get(alpha, 0.0) for alpha in monomials_up_to(L.dim, 2 * d)])
    weights, *_ = np.linalg.lstsq(vand, targets, rcond=None)
    if np.any(weights < -1e-8):
        from scipy.optimize import nnls

        weights, _ = nnls(vand, targets)
    measure = _sorted_measure(atoms, weights)
    recon = measure.weights @ _monomial_values(measure.atoms, 2 * d)
    residual = float(np.abs(recon - targets).max())
    return SolverResult(measure=measure, residual=residual, rank_profile=(r_dm1, r_d))
