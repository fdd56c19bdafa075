"""Hilbertian seminorms on finite-dimensional real spaces.

A Hilbertian seminorm is stored as a symmetric positive semidefinite Gram
matrix G; the seminorm is p(v) = sqrt(v' G v) and the associated bilinear
form is <v, w>_p = v' G w.  Everything downstream (traces, Gaussian
measures, graded seminorms on the symmetric algebra) is built on the three
types defined here:

* :class:`GramForm`          -- the seminorm itself,
* :class:`DualFunctional`    -- a linear functional with its operator norm,
* :class:`OrthonormalSystem` -- an ordered p-orthonormal family.

Rank and kernel decisions use a relative eigenvalue cutoff
``PSD_TOL * lambda_max``; eigenvalues at or below the cutoff count as kernel
(conservative for trace-finiteness checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    KernelNotContained,
    NotPSD,
)


class _Infinite:
    """Tagged sentinel for an infinite value (kept distinct from float inf
    so reports stay serializable and comparisons stay explicit)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def is_infinite(x) -> bool:
    return x is INFINITE


def jsonable(x):
    """The report encoding of a float-or-INFINITE value."""
    return "infinite" if is_infinite(x) else float(x)


# PSD: least eigenvalue down to -PSD_TOL * max(1, lambda_max); kernel:
# eigenvalues at or below PSD_TOL * lambda_max.
PSD_TOL = 1e-10
# q-continuous: kernel component <= _KER_REL_TOL * max(1, |coeffs|).
# In the closed unit q-dual ball: dual norm <= 1 + _DUAL_BALL_SLACK.
_KER_REL_TOL = 1e-8
_DUAL_BALL_SLACK = 1e-9
_SYMMETRY_TOL = 1e-12  # g and g' agree within this, relative, plus this times max(1, max|g|)
_SPAN_RANK_TOL = 1e-12  # restrict_gram keeps singular values above this * max(1, s_max)
_SCALE_FLOOR = 1e-300  # least scale a relative tolerance is taken against


def _as_vector(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected vector of length {dim}, got shape {v.shape}")
    return v


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention for eigenvector columns: the entry of
    largest magnitude is made positive (first such entry on ties).  Acts on
    each matrix of a stack alike."""
    if not vectors.size:
        return vectors.copy()
    rows = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    peaks = np.take_along_axis(vectors, rows, axis=-2)
    return np.where(peaks < 0, -vectors, vectors)


def _is_psd(w: np.ndarray) -> np.ndarray:
    """The PSD rule on ascending eigenvalues w (last axis, stacks too)."""
    return ~(w[..., :1] < -PSD_TOL * np.fmax(1.0, w[..., -1:])).any(axis=-1)


def _check_psd(w: np.ndarray) -> None:
    """GramForm's PSD rule on ascending eigenvalues w."""
    if not _is_psd(w):
        raise NotPSD(
            f"gram has eigenvalue {w[0]:.3e} below -PSD_TOL*max(1, lam_max)"
        )


def _above_cutoff(w: np.ndarray) -> np.ndarray:
    """Which ascending eigenvalues (last axis, stacks too) lie above the
    kernel cutoff PSD_TOL * lambda_max; the rest count as kernel."""
    return w > PSD_TOL * np.maximum(w[..., -1:], 0.0)


@dataclass(frozen=True, eq=False)
class GramForm:
    """A Hilbertian seminorm p(v) = sqrt(v' gram v) on R^dim."""

    dim: int
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"gram must be {self.dim}x{self.dim}, got {g.shape}"
            )
        atol = _SYMMETRY_TOL * max(1.0, float(np.abs(g).max(initial=0.0)))
        if not np.allclose(g, g.T, rtol=_SYMMETRY_TOL, atol=atol):
            raise NotPSD("gram matrix is not symmetric")
        g = 0.5 * (g + g.T)  # symmetrize exactly against round-off
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        _check_psd(self._eig[0])

    # -- spectral data ----------------------------------------------------

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and sign-fixed eigenvectors of gram."""
        w, v = np.linalg.eigh(self.gram)
        return w, _fix_signs(v)

    @property
    def lambda_max(self) -> float:
        w, _ = self._eig
        return max(float(w[-1]), 0.0)

    @property
    def kernel_cutoff(self) -> float:
        """Eigenvalues <= this value count as kernel (ties go to the kernel)."""
        return PSD_TOL * self.lambda_max

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(positive eigenvalues, their vectors, kernel eigenvalues, kernel vectors)."""
        w, v = self._eig
        keep = _above_cutoff(w)
        return w[keep], v[:, keep], w[~keep], v[:, ~keep]

    @property
    def rank(self) -> int:
        return int(self._split[0].shape[0])

    # -- evaluation -------------------------------------------------------

    def __call__(self, v) -> float:
        return evaluate(self, v)

    def inner(self, v, w) -> float:
        """Bilinear form <v, w>_p = v' gram w (direct, not via polarization)."""
        v = _as_vector(v, self.dim)
        w = _as_vector(w, self.dim)
        return float(v @ self.gram @ w)

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Spectral pseudo-inverse of gram (kernel directions dropped)."""
        wp, vp, _, _ = self._split
        out = _pseudo_inverses(wp, vp) if wp.size else np.zeros_like(self.gram)
        out.setflags(write=False)
        return out

    def to_jsonable(self) -> list:
        """Row-major nested lists of doubles."""
        return [[float(x) for x in row] for row in self.gram]


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """A linear functional ell(v) = coeffs . v on R^dim."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_vector(self.coeffs, self.dim).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, v) -> float:
        return float(self.coeffs @ _as_vector(v, self.dim))


@dataclass(frozen=True, eq=False)
class OrthonormalSystem:
    """An ordered q-orthonormal family of vectors.

    ``complete`` means the family spans a complement of ker(q); ``dropped``
    records indices of input vectors discarded during orthonormalization.
    """

    form: GramForm
    vectors: tuple
    complete: bool
    dropped: tuple = field(default_factory=tuple)

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.vectors)
        for v in vecs:
            if v.shape != (self.form.dim,):
                raise DimensionMismatch(
                    f"system vector has shape {v.shape}, expected ({self.form.dim},)"
                )
            v.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def matrix(self) -> np.ndarray:
        """n x k matrix whose columns are the system vectors."""
        if not self.vectors:
            return np.zeros((self.form.dim, 0))
        return np.column_stack(self.vectors)

    def gram_error(self) -> float:
        """max |<e_i, e_j>_q - delta_ij| over the system."""
        if not self.vectors:
            return 0.0
        m = self.matrix
        g = m.T @ self.form.gram @ m
        return float(np.abs(g - np.eye(len(self))).max())


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def evaluate(p: GramForm, v) -> float:
    """Seminorm value p(v) = sqrt(v' gram v), clamping tiny negative round-off:
    values down to -PSD_TOL * max(1, lambda_max v'v) read 0, lower is NotPSD."""
    v = _as_vector(v, p.dim)
    val = float(v @ p.gram @ v)
    if val < 0.0:
        scale = max(1.0, p.lambda_max * float(v @ v))
        if val < -PSD_TOL * scale:
            raise NotPSD(f"quadratic form value {val:.3e} below clamping tolerance")
        val = 0.0
    return float(np.sqrt(val))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[..., i, :] for each row i: a stacked matmul runs,
    row by row, the dot product two lone vectors get."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _quad_rows(m: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """v @ m @ v for each row v of ``vs`` (m, vs: one matrix and its rows,
    or stacks of both), bit for bit as for a lone v: its vector-matrix
    product, then its dot product."""
    return _row_dots(np.matmul(vs[..., None, :], m[..., None, :, :])[..., 0, :], vs)


def _pseudo_inverses(wp: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """(vp / wp) vp' for positive eigenvalues wp and their vectors vp, or
    for stacks of both: GramForm.pseudo_inverse's product."""
    return (vp / wp[..., None, :]) @ np.swapaxes(vp, -1, -2)


def _picked(v: np.ndarray, cols: slice) -> np.ndarray:
    """The columns ``cols`` of each matrix of a stack of eigenvectors, laid
    out as a lone form's boolean pick of them (_split) lays them out:
    Fortran order, so that every product runs as it runs alone."""
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(v[..., cols], -1, -2)), -1, -2)


def _dual_ball_stacks(w: np.ndarray, v: np.ndarray, rank: int):
    """(pseudo-inverses, kernel bases) of a stack of forms of one rank from
    their stacked ascending eigenvalues w and sign-fixed eigenvectors v,
    each matrix bit for bit a lone form's pseudo_inverse and _split[3]."""
    cut = w.shape[-1] - rank
    pinvs = _pseudo_inverses(w[..., cut:], _picked(v, slice(cut, None))) if rank else np.zeros_like(v)
    return pinvs, _picked(v, slice(cut))


def kernel_basis(p: GramForm) -> list[np.ndarray]:
    """Euclidean-orthonormal basis of ker(gram), by eigenvalue cutoff."""
    _, _, _, vk = p._split
    return [vk[:, j].copy() for j in range(vk.shape[1])]


def kernel_component(q: GramForm, vec) -> float:
    """Euclidean norm of the projection of ``vec`` onto ker(q)."""
    vec = _as_vector(vec, q.dim)
    _, _, _, vk = q._split
    return float(np.linalg.norm(vk.T @ vec))


def _unit_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(points / s, s), s per row the largest power of two <= max(1, max|row|):
    an exact division, after which norms cannot overflow."""
    top = np.abs(points).max(axis=-1, initial=0.0)
    s = np.ldexp(1.0, np.maximum(np.frexp(top)[1] - 1, 0))
    return points / s[..., None], s


def is_continuous(q: GramForm, l: DualFunctional) -> bool:
    """Whether ell is q-continuous: coeffs orthogonal to ker(q) within
    _KER_REL_TOL * max(1, |coeffs|), both sides divided by _unit_rows' s."""
    if l.dim != q.dim:
        raise DimensionMismatch(f"functional dim {l.dim} != form dim {q.dim}")
    unit, s = _unit_rows(l.coeffs)
    ker_tol = _KER_REL_TOL * max(1.0 / s, float(np.linalg.norm(unit)))
    return kernel_component(q, unit) <= ker_tol


def dual_norm(q: GramForm, l: DualFunctional):
    """Operator seminorm q'(ell) = sup_{q(v)<=1} |ell(v)|.

    Returns INFINITE when ell has a kernel component beyond tolerance,
    otherwise sqrt(coeffs' gram^+ coeffs), taken on _unit_rows' scaled coeffs.
    """
    if l.dim != q.dim:
        raise DimensionMismatch(f"functional dim {l.dim} != form dim {q.dim}")
    if not is_continuous(q, l):
        return INFINITE
    unit, s = _unit_rows(l.coeffs)
    return float(s) * float(np.sqrt(max(float(unit @ q.pseudo_inverse @ unit), 0.0)))


def _in_unit_dual_balls(pinvs: np.ndarray, kernels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Verdicts (g, R) on points (g, R, s) for the stacks of g forms given
    by their pseudo-inverses (g, s, s) and Euclidean kernel bases (g, s, z):
    whether each row of points[j] lies in the closed unit dual ball of form
    j, i.e. dual_norm <= 1 + _DUAL_BALL_SLACK, where a row failing
    ``is_continuous``'s kernel test is outside (both on _unit_rows).  Each
    row's kernel test and quadratic form run the products that row gets
    alone (stacked matmuls), so its verdict depends neither on the rows
    nor on the forms stacked with it."""
    unit, s = _unit_rows(points)
    leak = np.matmul(np.swapaxes(kernels, -1, -2)[:, None], unit[..., None])[..., 0]
    ker_tol = _KER_REL_TOL * np.maximum(1.0 / s, np.sqrt(_row_dots(unit, unit)))
    continuous = np.sqrt(_row_dots(leak, leak)) <= ker_tol
    quad = _quad_rows(pinvs, unit)
    return continuous & (np.sqrt(np.maximum(quad, 0.0)) <= (1.0 + _DUAL_BALL_SLACK) / s)


def _in_unit_dual_ball(q: GramForm, points: np.ndarray) -> np.ndarray:
    """Row by row, whether those coefficients lie in the closed unit q-dual
    ball: the one-form case of _in_unit_dual_balls."""
    return _in_unit_dual_balls(q.pseudo_inverse[None], q._split[3][None], points[None])[0]


def gram_schmidt(q: GramForm, vectors) -> OrthonormalSystem:
    """q-orthonormalize ``vectors`` (modified Gram-Schmidt in the q-inner
    product).  Vectors whose residual q-norm falls below tolerance are
    dropped; their input indices are reported on the returned system."""
    basis: list[np.ndarray] = []
    dropped: list[int] = []
    drop_scale = PSD_TOL * max(q.lambda_max, 1.0)
    for idx, v in enumerate(vectors):
        r = _as_vector(v, q.dim).copy()
        for _ in range(2):  # one reorthogonalization pass for stability
            for e in basis:
                r = r - q.inner(e, r) * e
        nrm2 = float(r @ q.gram @ r)
        if nrm2 <= drop_scale * max(1.0, float(r @ r)):
            dropped.append(idx)
            continue
        basis.append(r / np.sqrt(nrm2))
    complete = len(basis) == q.rank
    return OrthonormalSystem(
        form=q, vectors=tuple(basis), complete=complete, dropped=tuple(dropped)
    )


def whitening_system(q: GramForm) -> OrthonormalSystem:
    """The complete q-orthonormal system from the eigendecomposition of gram
    (eigenvectors scaled by 1/sqrt(eigenvalue) on the positive part)."""
    wp, vp, _, _ = q._split
    vecs = tuple(vp[:, j] / np.sqrt(wp[j]) for j in range(vp.shape[1]))
    return OrthonormalSystem(form=q, vectors=vecs, complete=True)


def kernel_contained(p: GramForm, q: GramForm) -> bool:
    """Whether ker(q) is contained in ker(p): every kernel vector of q must
    have p-norm^2 at or below PSD_TOL * lambda_max(p)."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dims {p.dim} != {q.dim}")
    thresh = p.kernel_cutoff
    for v in kernel_basis(q):
        if float(v @ p.gram @ v) > thresh:
            return False
    return True


def simultaneous_diagonalize(p: GramForm, q: GramForm) -> OrthonormalSystem:
    """A complete q-orthonormal system that is also p-orthogonal.

    Obtained by whitening q and eigen-decomposing the whitened p; members
    are ordered by decreasing p-norm.  Requires ker(q) contained in ker(p).
    """
    if not kernel_contained(p, q):
        raise KernelNotContained("a q-null vector has positive p-norm")
    white = whitening_system(q)
    w = white.matrix  # n x r, columns q-orthonormal
    if w.shape[1] == 0:
        return OrthonormalSystem(form=q, vectors=(), complete=True)
    p_hat = w.T @ p.gram @ w
    p_hat = 0.5 * (p_hat + p_hat.T)
    mu, u = np.linalg.eigh(p_hat)
    u = _fix_signs(u)
    order = np.argsort(mu)[::-1]  # decreasing p-norm
    g = w @ u[:, order]
    return OrthonormalSystem(
        form=q, vectors=tuple(g[:, j] for j in range(g.shape[1])), complete=True
    )


def _restriction_groups(p: GramForm, index_sets):
    """p restricted to the coordinate tuples of ``index_sets`` (principal
    submatrices of gram), per size (first-seen order) and rank (ascending):
    (positions, ascending; rank; stacked ascending eigenvalues; stacked
    sign-fixed eigenvectors), each slice a lone GramForm's bit for bit from
    one gather and one eigh per size.  All sizes are checked before the
    first group: a coordinate past p.dim is a DimensionMismatch, and the
    first restriction (by size, then input order) that breaks the
    constructor's PSD rule raises its NotPSD."""
    sets = [tuple(s) for s in index_sets]
    by_size: dict = {}
    for i, s in enumerate(sets):
        by_size.setdefault(len(s), []).append(i)
    stacks = []
    for size, pos in by_size.items():
        cols = np.array([sets[i] for i in pos], dtype=int).reshape(len(pos), size)
        if cols.size and (cols.min() < 0 or cols.max() >= p.dim):
            raise DimensionMismatch(f"an index set leaves coordinates 0..{p.dim - 1}")
        w, v = np.linalg.eigh(p.gram[cols[:, :, None], cols[:, None, :]])
        psd = _is_psd(w)
        if not psd.all():
            _check_psd(w[np.argmin(psd)])
        stacks.append((pos, w, _fix_signs(v)))
    for pos, w, v in stacks:
        ranks = _above_cutoff(w).sum(axis=1)
        for r in sorted(set(ranks.tolist())):
            group = np.flatnonzero(ranks == r)
            yield [pos[j] for j in group], r, w[group], v[group]


def restrict_gram(p: GramForm, basis_vectors) -> GramForm:
    """The form p restricted to span(basis_vectors), expressed in a
    Euclidean-orthonormal basis of that span (choice immaterial for traces)."""
    cols = [_as_vector(v, p.dim) for v in basis_vectors]
    if not cols:
        return GramForm(dim=0, gram=np.zeros((0, 0)))
    m = np.column_stack(cols)
    # Euclidean-orthonormal basis of the span via SVD (rank-revealing)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = s > _SPAN_RANK_TOL * max(s[0], 1.0) if s.size else np.zeros(0, dtype=bool)
    b = u[:, keep]
    g = b.T @ p.gram @ b
    return GramForm(dim=b.shape[1], gram=0.5 * (g + g.T))
