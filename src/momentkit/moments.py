"""Moment functionals on the truncated symmetric algebra.

A MomentFunctional stores its moments as one dense read-only vector in
monomials_up_to order, the layout of an element's coefficient vector, so
L(a) is one dot product and each degree is one contiguous slice.  A Hankel
index (ranks of alpha + beta) gathers moment and localizing matrices from
it; s_L and the Cauchy-Schwarz check are quadratic forms on the moment
matrix.  Continuity of the restriction to a graded slice is measured against
the graded seminorms of :mod:`momentkit.symalg`.  Carleman-type diagnostics
run in log space so that double-factorial growth at cutoff 200 stays finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CARLEMAN_MIN_MOMENTS,
    WEIGHT_SUM_TOL,
    DegreeOverflow,
    DimensionMismatch,
    InvalidInput,
    NegativeEvenMoment,
    NotSquarePositive,
    ZeroNormDirection,
    weights_sum_to_one,
)
from .forms import GramForm, INFINITE, OrthonormalSystem, _is_psd, jsonable
from .symalg import (
    AlgebraElement,
    Character,
    _canon_alpha,
    _graded_exponents,
    _graded_rank,
    _graded_slice,
    _monomial_values,
    _orthonormal_monomials,
    _sym_power,
    evaluate_character,
    monomials_up_to,
)

SQUARE_TOL = 1e-9  # a negative L(a^2) within this share of its scale is rounding
CBS_SLACK = 1e-9  # relative slack on L(ab)^2 <= L(a^2) L(b^2)
EVEN_MOMENT_TOL = 1e-12  # a negative L(v^2n) within this share of its scale is rounding
MEMBERSHIP_TOL = 1e-12  # g(c) down to -MEMBERSHIP_TOL counts as g(c) >= 0
_NEGATIVE_WEIGHT_TOL = 1e-14  # a weight down to -_NEGATIVE_WEIGHT_TOL counts as nonnegative
_NORMALIZATION_TOL = 1e-9  # |L(1) - 1| allowed of a moment functional
_KERNEL_REL = 1e-10  # L on kernel directions allowed, relative to max(1, its largest |value|)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def _check_weights(weights: np.ndarray) -> None:
    """A measure's weight rules on finite weights: nonnegative down to
    -_NEGATIVE_WEIGHT_TOL, summing to 1 within WEIGHT_SUM_TOL."""
    values = weights.tolist()
    if min(values, default=0.0) < -_NEGATIVE_WEIGHT_TOL:
        raise InvalidInput("weights must be nonnegative")
    if not weights_sum_to_one(values):
        raise InvalidInput(f"weights do not sum to 1 within {WEIGHT_SUM_TOL}")


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure on R^dim."""

    dim: int
    atoms: np.ndarray  # shape (k, dim)
    weights: np.ndarray  # shape (k,), nonnegative, sums to 1

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float)).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if atoms.shape != (len(weights), self.dim):
            raise DimensionMismatch(
                f"atoms shape {atoms.shape} vs {len(weights)} weights in dim {self.dim}"
            )
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise InvalidInput("atoms and weights must be finite")
        _check_weights(weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _marginal(cls, atoms, weights) -> "DiscreteMeasure":
        """A marginal of an already validated measure on read-only arrays:
        atoms copied from its finite atoms, weights its weights merged by
        addition.  The constructor's weight rules, without its copies and
        its finiteness test."""
        _check_weights(weights)
        nu = cls.__new__(cls)
        nu.__dict__.update(dim=atoms.shape[1], atoms=atoms, weights=weights)
        return nu

    @property
    def support(self) -> np.ndarray:
        """Atoms carrying strictly positive weight."""
        return self.atoms[self.weights > 0]

    def moment(self, alpha) -> float:
        alpha = _canon_alpha(alpha, self.dim)
        vals = np.ones(len(self.weights))
        for i, e in enumerate(alpha):
            if e:
                vals *= self.atoms[:, i] ** e
        return float(self.weights @ vals)

    def to_jsonable(self) -> dict:
        return {
            "atoms": [list(map(float, a)) for a in self.atoms],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "DiscreteMeasure":
        atoms = np.atleast_2d(np.asarray(data["atoms"], dtype=float))
        return cls(dim=atoms.shape[1], atoms=atoms, weights=np.asarray(data["weights"]))


@dataclass(frozen=True, eq=False)
class QuadraticModuleSpec:
    """Finite generator list g_1..g_m (g_0 = 1 implicit); the represented
    nonnegativity set is K = {c : g_i(c) >= 0 for all i}."""

    generators: tuple

    def contains(self, point) -> bool:
        ch = Character(point=np.asarray(point, dtype=float))
        return all(evaluate_character(ch, g) >= -MEMBERSHIP_TOL for g in self.generators)


# ---------------------------------------------------------------------------
# Moment functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentFunctional:
    """Linear functional on the degree-truncated algebra: ``values[r]`` is
    L of monomial r of monomials_up_to(dim, max_degree)."""

    dim: int
    max_degree: int
    values: np.ndarray
    source: DiscreteMeasure | None = None

    def __post_init__(self):
        if self.max_degree < 0:
            raise InvalidInput(f"truncation degree {self.max_degree} < 0")
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:  # a caller's array: keep a private copy
            values = values.copy()
            values.setflags(write=False)
        if values.shape != (_graded_slice(self.dim, self.max_degree).stop,):
            raise DimensionMismatch(f"{values.shape} moments for {self.dim} variables")
        if not np.isfinite(values).all():
            raise InvalidInput("moments must be finite")
        if abs(values[0] - 1.0) > _NORMALIZATION_TOL:
            raise InvalidInput(f"L(1) = {values[0]}, expected 1")
        object.__setattr__(self, "values", values)

    def moment(self, alpha) -> float:
        a = _canon_alpha(alpha, self.dim)
        if sum(a) > self.max_degree:
            raise DegreeOverflow(f"moment of degree {sum(a)} not stored")
        return float(self.values[_graded_rank(a)])

    def __call__(self, a: AlgebraElement) -> float:
        if a.degree() > self.max_degree:
            raise DegreeOverflow(
                f"element degree {a.degree()} exceeds stored degree {self.max_degree}"
            )
        _check_dim(self, a)
        u = a._padded(a.degree())
        return float(u @ self.values[: len(u)])

    def extend(self, new_max_degree: int) -> "MomentFunctional":
        """Recompute to a higher degree from the source measure."""
        if new_max_degree <= self.max_degree:
            return self
        if self.source is None:
            raise DegreeOverflow("cannot extend a functional without a source measure")
        return from_measure(self.source, new_max_degree)

    def to_jsonable(self) -> dict:
        """The nonzero moments in graded-lex order."""
        table = zip(monomials_up_to(self.dim, self.max_degree), self.values)
        moments = [{"alpha": list(a), "value": float(v)} for a, v in table if v != 0.0]
        return {"dim": self.dim, "max_degree": self.max_degree, "moments": moments}

    @classmethod
    def from_jsonable(cls, data: dict) -> "MomentFunctional":
        """Moments by multi-index, absent ones zero; the element with these
        coefficients validates the multi-indices."""
        dim, max_degree = data["dim"], data["max_degree"]
        moments = {tuple(e["alpha"]): e["value"] for e in data["moments"]}
        return cls(dim=dim, max_degree=max_degree,
                   values=AlgebraElement(dim, max_degree, moments).coeffs)


def from_measure(nu: DiscreteMeasure, max_degree: int) -> MomentFunctional:
    """values[alpha] = sum_j w_j atom_j^alpha over the atoms' monomial values."""
    values = nu.weights @ _monomial_values(nu.atoms, max_degree)
    values.setflags(write=False)
    return MomentFunctional(dim=nu.dim, max_degree=max_degree, values=values, source=nu)


def _slice_values(L: MomentFunctional, k: int) -> np.ndarray:
    """L on the degree-k slice, in slice_monomials order."""
    return L.values[_graded_slice(L.dim, k)]


@functools.lru_cache(maxsize=None)
def _hankel_index(dim: int, d: int, shift=0) -> np.ndarray:
    """H[a, b] = rank of monomial a + monomial b + shift (an exponent tuple)
    in monomials_up_to, for a, b over monomials_up_to(dim, d)."""
    e = _graded_exponents(dim, d)
    index = _graded_rank(e[:, None, :] + e[None, :, :] + np.asarray(shift, dtype=np.intp))
    index.setflags(write=False)  # shared by every caller through the cache
    return index


def s_L(L: MomentFunctional, a: AlgebraElement) -> float:
    """The seminorm s_L(a) = sqrt(L(a^2)); clamps tiny negatives, raises
    NotSquarePositive when L(a^2) = u M u is negative beyond SQUARE_TOL of
    the scale 1 + |u| |M| |u|."""
    _check_dim(L, a)
    m, u = moment_matrix(L, a.degree()), a._padded(a.degree())
    val = float(u @ m @ u)
    if val < 0.0:
        if val < -SQUARE_TOL * (1.0 + np.abs(u) @ np.abs(m) @ np.abs(u)):
            raise NotSquarePositive(f"L(a^2) = {val} < 0")
        val = 0.0
    return float(np.sqrt(val))


def moment_matrix(L: MomentFunctional, d: int) -> np.ndarray:
    """M[alpha, beta] = L(x^(alpha+beta)) over monomials of degree <= d
    (graded-lex order; see :func:`monomials_up_to`)."""
    if d < 0:
        raise InvalidInput(f"moment matrix order {d} < 0")
    if 2 * d > L.max_degree:
        raise DegreeOverflow(f"moment matrix needs degree {2 * d} > {L.max_degree}")
    return L.values[_hankel_index(L.dim, d)]


def localizing_matrix(L: MomentFunctional, g: AlgebraElement, d: int) -> np.ndarray:
    """M_g[alpha, beta] = L(g * x^(alpha+beta)) over monomials of degree <= d:
    the sum of c L(x^(alpha+beta+idx)) over g's nonzero coefficients c x^idx,
    in graded-lex order, one gather each through the shifted Hankel index."""
    if d < 0:
        raise InvalidInput(f"localizing matrix order {d} < 0")
    top = 2 * d + g.degree()
    if top > L.max_degree:
        raise DegreeOverflow(f"localizing matrix needs degree {top} > {L.max_degree}")
    _check_dim(L, g)
    out = np.zeros(_hankel_index(L.dim, d).shape)
    for r, idx in zip(*g._support()):
        out += g.coeffs[r] * L.values[_hankel_index(L.dim, d, tuple(idx.tolist()))]
    return out


def psd_within(matrix: np.ndarray) -> bool:
    """GramForm's PSD rule on the eigenvalues of ``matrix``."""
    return bool(_is_psd(np.linalg.eigvalsh(matrix)))


def square_positive_check(L: MomentFunctional) -> bool:
    """L is PSD on squares of the truncation iff the half-degree moment
    matrix is PSD."""
    return psd_within(moment_matrix(L, L.max_degree // 2))


def cbs_check(L: MomentFunctional, a: AlgebraElement, b: AlgebraElement) -> bool:
    """Cauchy-Bunyakovsky-Schwarz: L(ab)^2 <= L(a^2) L(b^2), with L(ab) = u M v."""
    _check_dim(L, a)
    _check_dim(L, b)
    k = max(a.degree(), b.degree())
    m, u, v = moment_matrix(L, k), a._padded(k), b._padded(k)
    lhs = float(u @ m @ v) ** 2
    rhs = float(u @ m @ u) * float(v @ m @ v)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return bool(lhs <= rhs + CBS_SLACK * scale)


def _kernel_tol(values: np.ndarray) -> float:
    return _KERNEL_REL * max(1.0, float(np.abs(values).max(initial=0.0)))


def _check_dim(L: MomentFunctional, x):
    """x, a form or an element, lives in L's dimension."""
    if x.dim != L.dim:
        raise DimensionMismatch(f"{type(x).__name__} dim {x.dim} != functional dim {L.dim}")


def continuity_constant(
    L: MomentFunctional,
    p_2d: GramForm,
    d: int,
    system: OrthonormalSystem | None = None,
):
    """Smallest C with |L(b)| <= C * p~^(2d)(b) on the degree-2d slice: the
    l2 norm of L's values on the orthonormalized monomial basis; INFINITE
    when L is nonzero on a monomial touching the kernel."""
    _check_dim(L, p_2d)
    if 2 * d > L.max_degree:
        raise DegreeOverflow(f"slice degree {2 * d} not stored, max {L.max_degree}")
    g, kernel = _orthonormal_monomials(p_2d, system, 2 * d)
    vals = g @ _slice_values(L, 2 * d)  # L on the orthonormalized monomials
    if np.any(np.abs(vals[kernel]) > _kernel_tol(vals)):
        return INFINITE
    return float(np.linalg.norm(vals[~kernel]))


def square_constant(
    L: MomentFunctional,
    p_2d: GramForm,
    d: int,
    system: OrthonormalSystem | None = None,
):
    """Smallest C with L(b^2) <= C * (p~^(d)(b))^2 for b in the degree-d
    slice: lambda_max of the matrix L(m_beta m_beta') over orthonormalized
    monomials of degree d.  INFINITE when any entry touching a kernel
    monomial is nonzero.

    This is the constant that certifies square positivity transfer through
    the graded seminorm; it is generally smaller or larger than the linear
    continuity constant and the two must not be conflated.
    """
    _check_dim(L, p_2d)
    g, kernel = _orthonormal_monomials(p_2d, system, d)
    k = len(kernel)
    # the degree-d block of the moment matrix, transformed to the basis
    mat = g @ moment_matrix(L, d)[-k:, -k:] @ g.T
    if np.abs(mat[kernel]).max(initial=0.0) > _kernel_tol(mat):
        return INFINITE
    if kernel.all():
        return 0.0
    w = np.linalg.eigvalsh(mat[np.ix_(~kernel, ~kernel)])
    return float(max(w[-1], 0.0))


# ---------------------------------------------------------------------------
# Carleman diagnostics (log space)
# ---------------------------------------------------------------------------


class CarlemanVerdict(Enum):
    DIVERGENT_LIKELY = "DIVERGENT_LIKELY"
    CONVERGENT_LIKELY = "CONVERGENT_LIKELY"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True, eq=False)
class CarlemanDiagnostic:
    """terms[n-1] = t_n = L(v^{2n})^{-1/(2n)}; the verdict is an explicitly
    heuristic three-way classification of the decay of t_n."""

    terms: np.ndarray
    partial_sums: np.ndarray
    fitted_decay_exponent: float
    verdict: CarlemanVerdict
    tail_sum_estimate: object  # float, INFINITE, or None

    def to_jsonable(self) -> dict:
        tail = self.tail_sum_estimate
        return {
            "terms": [float(t) for t in self.terms],
            "partial_sums": [float(s) for s in self.partial_sums],
            "fitted_decay_exponent": float(self.fitted_decay_exponent),
            "verdict": self.verdict.value,
            "tail_sum_estimate": None if tail is None else jsonable(tail),
        }


CARLEMAN_MARGIN = 0.1  # fitted decay slope within this of -1 is undetermined


def carleman_from_log_moments(
    log_even_moments, margin: float = CARLEMAN_MARGIN
) -> CarlemanDiagnostic:
    """Diagnostic from log L(v^{2n}), n = 1..N.  All computation on t_n is
    done from the logs, so the raw moments may exceed float range."""
    logs = np.asarray(log_even_moments, dtype=float)
    n_max = len(logs)
    if n_max < CARLEMAN_MIN_MOMENTS:
        raise InvalidInput(f"need at least {CARLEMAN_MIN_MOMENTS} even moments")
    ns = np.arange(1, n_max + 1)
    log_t = -logs / (2.0 * ns)
    terms = np.exp(log_t)
    partial = np.cumsum(terms)
    half = n_max // 2
    slope, _ = np.polyfit(np.log(ns[half - 1 :]), log_t[half - 1 :], 1)
    slope = float(slope)
    if slope >= -1.0 + margin:
        verdict = CarlemanVerdict.DIVERGENT_LIKELY
        tail = INFINITE
    elif slope <= -1.0 - margin:
        verdict = CarlemanVerdict.CONVERGENT_LIKELY
        ratio = terms[-1] / terms[-2] if terms[-2] > 0 else 0.0
        tail = float(partial[-1] + terms[-1] * ratio / (1.0 - ratio)) if ratio < 1 else None
    else:
        verdict = CarlemanVerdict.UNDETERMINED
        tail = None
    return CarlemanDiagnostic(
        terms=terms,
        partial_sums=partial,
        fitted_decay_exponent=slope,
        verdict=verdict,
        tail_sum_estimate=tail,
    )


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a), by scipy.special.logsumexp's algorithm: the m entries
    equal to the maximum are split off the shifted sum and enter as log(m)."""
    a_max = a.max()
    if not np.isfinite(a_max):
        return float(a_max)
    is_max = a == a_max
    m = np.count_nonzero(is_max)
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def log_even_moments_from_measure(nu: DiscreteMeasure, v, n_max: int) -> np.ndarray:
    """log integral of <v, .>^{2n} for n = 1..N via log-sum-exp over atoms;
    raises ZeroNormDirection when <v, .> vanishes on the support."""
    v = np.asarray(v, dtype=float)
    vals = nu.atoms @ v
    if not vals[nu.weights > 0].any():
        raise ZeroNormDirection("L(v^2) = 0: the direction vanishes on the support")
    out = np.empty(n_max)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.maximum(nu.weights, 0.0))
        log_abs = np.log(np.abs(vals))
    for n in range(1, n_max + 1):
        out[n - 1] = _logsumexp(log_w + 2 * n * log_abs)
    return out


def carleman_diagnostic(
    L: MomentFunctional, v: AlgebraElement, n_max: int
) -> CarlemanDiagnostic:
    """Diagnostic for the direction v (degree-1 element).  Even moments come
    from the source measure when present (log space, any N) and otherwise
    from the stored moments (requires degree 2N): L(v^2n) is Sym^2n(v) times
    the degree-2n slice, negative beyond EVEN_MOMENT_TOL of its terms' scale.
    Both routes raise ZeroNormDirection when s_L(v) = 0, v = 0 included."""
    if not v.is_homogeneous(1):
        raise DimensionMismatch("direction must be a degree-1 element")
    _check_dim(L, v)
    vec = v._padded(1)[_graded_rank(np.eye(L.dim, dtype=np.intp))]  # x_i's ranks
    if L.source is not None:
        return carleman_from_log_moments(log_even_moments_from_measure(L.source, vec, n_max))
    if 2 * n_max > L.max_degree:
        raise DegreeOverflow(
            f"need even moments to degree {2 * n_max}, stored {L.max_degree}"
        )
    logs = np.empty(n_max)
    for n in range(1, n_max + 1):
        terms = _sym_power(vec[None, :], 2 * n)[0] * _slice_values(L, 2 * n)
        val = float(terms.sum())
        if val < -EVEN_MOMENT_TOL * float(np.abs(terms).sum()):
            raise NegativeEvenMoment(f"L(v^{2 * n}) = {val} < 0")
        if val <= 0.0:
            raise ZeroNormDirection(f"L(v^{2 * n}) = 0: the direction has zero seminorm")
        logs[n - 1] = np.log(val)
    return carleman_from_log_moments(logs)


def log_gaussian_even_moments(n_max: int) -> np.ndarray:
    """log (2n-1)!! for n = 1..N (standard Gaussian directional moments)."""
    return np.array(
        [
            math.lgamma(2 * n + 1) - n * math.log(2.0) - math.lgamma(n + 1)
            for n in range(1, n_max + 1)
        ]
    )


def log_squared_exponential_moments(n_max: int) -> np.ndarray:
    """log e^{2n^2} = 2n^2 (an indeterminate-type growth profile)."""
    ns = np.arange(1, n_max + 1)
    return 2.0 * ns.astype(float) ** 2
