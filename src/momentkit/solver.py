"""Finite atomic measure recovery from truncated moment data, numpy only.

Both solvers read the moment layer: the moment matrix M_d and the
localizing matrix are gathers of one MomentFunctional's dense table, and
each moment matrix is decomposed once, its eigenvalues giving the PSD gate
and the rank by one rank rule (_rank).  Both end in Golub-Welsch
(_spectral_measure): one eigh of a combination of symmetric multiplication
matrices on an orthonormal basis.  Univariate: the Jacobi matrix
C^-1 L(x H) C^-T with H_{r-1} = C C' (Cholesky).  Multivariate: the factor
a of M_{d-1} = a a' from M_d's eigh, whose one SVD gives the pseudo-inverse
that maps the shifted rows to every multiplication matrix, combined with
seeded random weights.

Non-flat truncations are reported as errors, never extended or guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidInput, NotPSD, RankNotFlat
from .moments import DiscreteMeasure, MomentFunctional, localizing_matrix, moment_matrix
from .symalg import AlgebraElement, _monomial_values, _slice_index

_RANK_TOL = 1e-9  # eigenvalues at or below tol * lambda_max count as rank deficiency


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


def _rank(w: np.ndarray) -> int:
    """The one rank rule: ascending eigenvalues above _RANK_TOL times the
    largest count toward the rank."""
    return int(np.count_nonzero(w > _RANK_TOL * max(w.max(initial=0.0), 1e-300)))


def _spectral_measure(ops, mix, unit: np.ndarray) -> DiscreteMeasure:
    """Golub-Welsch for commuting multiplication matrices ops (symmetric up
    to rounding) on an orthonormal basis in which unit is the monomial 1:
    with Q from the eigh of sum mix_i X_i, atom j has coordinates
    (Q' X_i Q)_jj and weight (unit . Q_j)^2.  Atoms sort lexicographically:
    one order for every seed, unless rounding splits a shared coordinate."""
    ops = [0.5 * (x + x.T) for x in ops]
    _, q = np.linalg.eigh(sum(m * x for m, x in zip(mix, ops)))
    atoms = np.column_stack([(x @ q * q).sum(axis=0) for x in ops])
    order = np.lexsort(atoms.T[::-1])
    weights = (unit @ q[:, order]) ** 2
    return DiscreteMeasure(dim=len(ops), atoms=atoms[order], weights=weights / weights.sum())


def solve_univariate(moments) -> SolverResult:
    """Moments m_0..m_{2d} (optionally followed by m_{2d+1}, which the full
    rank r = d+1 case needs); m_0 = 1."""
    if len(moments) < 3:
        raise InvalidInput("need at least m_0, m_1, m_2")
    L = MomentFunctional(dim=1, max_degree=len(moments) - 1, values=moments)
    d = L.max_degree // 2
    h_d = moment_matrix(L, d)
    w = np.linalg.eigvalsh(h_d)
    if w[0] < -_RANK_TOL * max(w[-1], 1.0):
        raise NotPSD(f"Hankel matrix has eigenvalue {w[0]}")
    r = rank_d = _rank(w)
    rank_dm1 = _rank(np.linalg.eigvalsh(h_d[:d, :d]))
    if r == d + 1 and L.max_degree < 2 * d + 1:
        raise RankNotFlat(f"rank {r} = full: need moment m_{2 * d + 1} for the Jacobi matrix")
    if r <= d and _rank(np.linalg.eigvalsh(h_d[:r, :r])) != r:
        raise RankNotFlat(f"rank profile not flat at order {r}")

    # Golub-Welsch: with H_{r-1} = C C', the orthonormal polynomials are
    # C^-1 (1, x, .., x^{r-1}) and the Jacobi matrix is C^-1 L(x H) C^-T
    c = np.linalg.cholesky(h_d[:r, :r])
    half = np.linalg.solve(c, localizing_matrix(L, AlgebraElement.variable(0, 1, 1), r - 1))
    jacobi = np.linalg.solve(c, half.T)
    measure = _spectral_measure([jacobi], [1.0], c[0])
    recon = measure.weights @ _monomial_values(measure.atoms, L.max_degree)
    residual = float(np.abs(recon - L.values).max())
    return SolverResult(measure=measure, residual=residual, rank_profile=(rank_dm1, rank_d))


def solve_multivariate(L: MomentFunctional, d: int, seed: int = 0) -> SolverResult:
    """Flat-extension extraction at order d >= 1: requires rank M_d = rank M_{d-1}."""
    if d < 1:
        raise InvalidInput(f"order d = {d}: flat extraction needs d >= 1")
    m_d = moment_matrix(L, d)
    # M_d's rows: monomials_up_to(dim, d), slice k from row start[k], so
    # M_{d-1} is its leading start[d] block
    start = np.cumsum([0] + [len(_slice_index(L.dim, k).monomials) for k in range(d + 1)])
    w, v = np.linalg.eigh(m_d)
    if w[0] < -_RANK_TOL * max(w[-1], 1.0):
        raise NotPSD(f"moment matrix has eigenvalue {w[0]}")
    r = r_d = _rank(w)
    r_dm1 = _rank(np.linalg.eigvalsh(m_d[: start[d], : start[d]]))
    if r_d != r_dm1:
        raise RankNotFlat(f"rank M_{d} = {r_d} != rank M_{d - 1} = {r_dm1}")
    top = slice(len(w) - r, None)  # the r eigenvalues the rank counts
    feat = v[:, top] * np.sqrt(w[top])  # row per monomial, <row_a, row_b> = M[a,b]

    # row b of shift holds the rows of monomial b (degree < d) times each x_i
    shift = np.vstack([start[k + 1] + _slice_index(L.dim, k + 1).times for k in range(d)])

    a = feat[: start[d], :]  # row 0 is the monomial 1
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > 1e10:
        raise IllConditioned(f"basis extraction condition {s[0] / max(s[-1], 1e-300)}")
    # a X_i = feat[shift[:, i]], and X_i = a^+ L(x_i M_{d-1}) a^+' is symmetric
    pinv = (vt.T / s) @ u.T
    c = np.random.default_rng(seed).standard_normal(L.dim)
    measure = _spectral_measure([pinv @ feat[shift[:, i]] for i in range(L.dim)], c, a[0])
    recon = measure.weights @ _monomial_values(measure.atoms, 2 * d)
    residual = float(np.abs(recon - L.values[: len(recon)]).max())
    return SolverResult(measure=measure, residual=residual, rank_profile=(r_dm1, r_d))
