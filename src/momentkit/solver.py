"""Finite atomic measure recovery from truncated moment data, numpy only.

Both solvers run one route on the table equilibrated by x_i -> x_i / t_i,
so that no decision depends on the units of x.  Each picks an order k whose
M_k = V diag(w) V' has the rank of M_d, and Golub-Welsch reads the atoms off
a^+ localizing_matrix(x_i, k) a^+' with a^+ = (V / sqrt(w))'.  Non-flat
tables raise, never extended or guessed, and so does a measure that misses
the equilibrated table by more than _RESIDUAL_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidInput, NotPSD, RankNotFlat
from .forms import _SCALE_FLOOR
from .moments import DiscreteMeasure, MomentFunctional, localizing_matrix, moment_matrix
from .symalg import AlgebraElement, _graded_exponents, _graded_slice, _monomial_values, _slice_index

_RANK_TOL = 1e-9  # eigenvalues at or below tol * lambda_max count as rank deficiency
_RESIDUAL_TOL = 1e-7  # largest |recovered - given| moment of the equilibrated table
_GAP_TOL = 1e-6  # eigenvalues of the mixed operator this close, relative, count as tied


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
    return int(np.count_nonzero(w > _RANK_TOL * max(w.max(initial=0.0), _SCALE_FLOOR)))


def _equilibrated(L: MomentFunctional):
    """(t, the table value_alpha / t^alpha) with t_i = L(x_i^2e)^(1/2e) at
    the top even degree 2e, or 1 where that moment is not positive (below
    the smallest normal float: a subnormal one has lost its digits) or the
    table has degree < 2.  A PSD table's scaled moments to degree 2e are at
    most 1 in size, so a table with one that overflows has no measure."""
    e = L.max_degree // 2
    top = L.values[_graded_slice(L.dim, 2 * e)] @ (_slice_index(L.dim, 2 * e).exponents == 2 * e)
    log_t = np.log(np.where(top >= np.finfo(float).tiny, top, 1.0)) / max(2 * e, 1)
    with np.errstate(over="ignore"):
        values = L.values / np.exp(_graded_exponents(L.dim, L.max_degree) @ log_t)
    if not np.isfinite(values).all():
        raise NotPSD("an equilibrated moment overflows")
    return np.exp(log_t), MomentFunctional(dim=L.dim, max_degree=L.max_degree, values=values)


def _spectral_measure(ops, rng, unit: np.ndarray):
    """Golub-Welsch for commuting multiplication matrices ops (symmetric up
    to rounding) on an orthonormal basis in which unit is the monomial 1:
    with Q from the eigh of sum mix_i X_i, mix drawn from rng, atom j has
    coordinates (Q' X_i Q)_jj and weight (unit . Q_j)^2, in the atoms'
    lexicographic order.  A run of eigenvalues within _GAP_TOL of each
    other (relative to the largest) may mix its eigenvectors; each such
    run's invariant subspace is diagonalized anew by the next combination
    rng draws."""
    ops = [0.5 * (x + x.T) for x in ops]
    lam, q = np.linalg.eigh(sum(m * x for m, x in zip(rng.standard_normal(len(ops)), ops)))
    gaps = np.diff(lam)
    tol = _GAP_TOL * max(-lam[0], lam[-1]) if len(lam) else 0.0  # lam ascends
    if gaps.size and gaps.min() <= tol:
        for run in np.split(np.arange(len(lam)), np.flatnonzero(gaps > tol) + 1):
            if len(run) > 1:
                basis = q[:, run]
                mixed = sum(m * x for m, x in zip(rng.standard_normal(len(ops)), ops))
                q[:, run] = basis @ np.linalg.eigh(basis.T @ mixed @ basis)[1]
    atoms = np.column_stack([(x @ q * q).sum(axis=0) for x in ops])
    order = np.lexsort(atoms.T[::-1])
    weights = (unit @ q[:, order]) ** 2
    return atoms[order], weights / weights.sum()


def _flat_measure(S: MomentFunctional, t, k: int, w, v, seed: int, profile) -> SolverResult:
    """The measure of the flat equilibrated table S from the eigh (w, v) of its
    M_k, mapped back by t: the atoms' degree-k Vandermonde matrix has full
    column rank, so a^+ S(x_i M_k) a^+' = Q' diag(atom coordinates i) Q."""
    top = slice(len(w) - _rank(w), None)  # the counted eigenpairs
    pinv = (v[:, top] / np.sqrt(w[top])).T  # row 0 of a is pinv[:, 0] * w
    ops = [pinv @ localizing_matrix(S, AlgebraElement.variable(i, S.dim, 1), k) @ pinv.T
           for i in range(S.dim)]
    atoms, weights = _spectral_measure(ops, np.random.default_rng(seed), pinv[:, 0] * w[top])
    residual = float(np.abs(weights @ _monomial_values(atoms, S.max_degree) - S.values).max())
    if residual > _RESIDUAL_TOL:
        raise IllConditioned(f"recovered measure misses the equilibrated moments by {residual}")
    return SolverResult(DiscreteMeasure(S.dim, atoms * t, weights), residual, profile)


def solve_univariate(moments) -> SolverResult:
    """Moments m_0..m_{2d} (optionally followed by m_{2d+1}, which the full
    rank r = d+1 case needs); m_0 = 1."""
    if len(moments) < 3:
        raise InvalidInput("need at least m_0, m_1, m_2")
    t, S = _equilibrated(MomentFunctional(dim=1, max_degree=len(moments) - 1, values=moments))
    d = S.max_degree // 2
    h_d = moment_matrix(S, d)
    w = np.linalg.eigvalsh(h_d)
    if w[0] < -_RANK_TOL * max(w[-1], 1.0):
        raise NotPSD(f"Hankel matrix has eigenvalue {w[0]}")
    r = _rank(w)
    profile = (_rank(np.linalg.eigvalsh(h_d[:d, :d])), r)
    if r == d + 1 and S.max_degree < 2 * d + 1:
        raise RankNotFlat(f"rank {r} = full: the multiplication matrix needs m_{2 * d + 1}")
    w, v = np.linalg.eigh(h_d[:r, :r])  # H_{r-1}, H_d itself at full rank
    if _rank(w) != r:
        raise RankNotFlat(f"rank profile not flat at order {r}")
    return _flat_measure(S, t, r - 1, w, v, 0, profile)


def solve_multivariate(L: MomentFunctional, d: int, seed: int = 0) -> SolverResult:
    """Flat-extension extraction at order d >= 1: requires rank M_d = rank M_{d-1}."""
    if d < 1:
        raise InvalidInput(f"order d = {d}: flat extraction needs d >= 1")
    t, S = _equilibrated(L)
    m_d = moment_matrix(S, d)
    w = np.linalg.eigvalsh(m_d)
    if w[0] < -_RANK_TOL * max(w[-1], 1.0):
        raise NotPSD(f"moment matrix has eigenvalue {w[0]}")
    low = _graded_slice(L.dim, d).start  # M_d's rows run over degree <= d: M_{d-1} leads
    w_low, v_low = np.linalg.eigh(m_d[:low, :low])
    profile = (_rank(w_low), _rank(w))
    if profile[0] != profile[1]:
        raise RankNotFlat(f"rank M_{d} = {profile[1]} != rank M_{d - 1} = {profile[0]}")
    return _flat_measure(S, t, d - 1, w_low, v_low, seed, profile)
