"""Degree-truncated symmetric algebra S(R^n) and its graded seminorms.

An element is one dense read-only coefficient vector in monomials_up_to
order, the layout of a moment table, truncated at a hard degree D; this
module alone knows that layout (``_graded_slice`` gives a degree's slice
bounds, ``_graded_rank`` the position of an exponent row).  Characters are
point evaluations.  For a Hilbertian seminorm s on the degree-1 slice, the
graded seminorm s~^(d) on S(R^n)_d follows the canonical convention

    *the orthonormalized monomial basis has identity Gram*:

diagonalize s into an s-orthonormal system (e_i) plus a kernel completion,
re-express a_d in monomials of that basis, and take the l2-norm of the
coefficients weighted by the product of factor norms (kernel factors
contribute 0).  On decompositions into s-orthogonal factors this reproduces
the matched-order product formula <b_1,b_1>_s ... <b_d,b_d>_s.

The reference system may be supplied explicitly (any complete s-orthonormal
system); multi-form constructions such as the tilde-trace identity need
coherent reference bases across forms, which the default eigendecomposition
cannot provide when the two forms do not commute.

Slice arithmetic is dense.  A slice index, cached per (dim, d), ranks the
degree-d monomials; a change of degree-1 basis x_k -> sum_i S[k, i] y_i
acts on a degree-d coefficient vector c as c @ Sym^d(S), the d-th
symmetric power of S on that basis.  The graded inner products, the
tilde-trace direct path and the slice constants of
:mod:`momentkit.moments` all use Sym^d.  The same tables evaluate all
monomials of degree <= D at a set of points (``_monomial_values``) for the
moment tables, the consistency sweep and the solver; ``evaluate_character``
and ``DiscreteMeasure.moment`` take powers instead, the reference route.
A product scatter-adds the outer product of two coefficient vectors at the
ranks of alpha + beta; the Hankel index of :mod:`momentkit.moments` gathers
through the same ranks.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOverflow,
    DimensionMismatch,
    IllConditioned,
    IncompleteSystem,
    InfiniteTrace,
    InvalidInput,
    NotContinuous,
    NotHomogeneous,
    NotInScope,
)
from .forms import (
    DualFunctional,
    GramForm,
    OrthonormalSystem,
    dual_norm,
    is_infinite,
    kernel_basis,
    simultaneous_diagonalize,
)
from .traces import trace


# ---------------------------------------------------------------------------
# Multi-index helpers
# ---------------------------------------------------------------------------


def _canon_alpha(alpha, dim: int) -> tuple:
    t = tuple(int(k) for k in alpha)
    if len(t) != dim or any(k < 0 for k in t):
        raise DimensionMismatch(f"bad multi-index {alpha} for dim {dim}")
    return t


def slice_monomials(dim: int, degree: int) -> list[tuple]:
    """All multi-indices of total degree ``degree`` in lex order."""
    words = itertools.combinations_with_replacement(range(dim), degree)
    return sorted(tuple(w.count(i) for i in range(dim)) for w in words)


def multinomial(alpha: tuple) -> int:
    """d! / alpha! for d = |alpha| (number of ordered words with content alpha)."""
    d = sum(alpha)
    val = math.factorial(d)
    for k in alpha:
        val //= math.factorial(k)
    return val


# ---------------------------------------------------------------------------
# The slice kernel: dense coefficient vectors and Sym^d of a substitution
# ---------------------------------------------------------------------------


# The degree-d monomials in dim variables in slice_monomials order, and the
# tables that build slice d from slice d - 1: parent[r] is the slice rank of
# monomial r without one factor x_var[r] (its first variable), and times[b, i]
# is the slice rank of monomial b of slice d - 1 times x_i.
_SliceIndex = collections.namedtuple("_SliceIndex", "monomials exponents parent var times")


@functools.lru_cache(maxsize=None)
def _slice_index(dim: int, d: int) -> _SliceIndex:
    monos = tuple(slice_monomials(dim, d))
    exponents = np.array(monos, dtype=np.intp).reshape(len(monos), dim)
    parent = var = np.zeros(0, dtype=np.intp)
    times = np.zeros((0, dim), dtype=np.intp)
    if d > 0 and dim > 0:
        unit = np.eye(dim, dtype=np.intp)
        var = (exponents > 0).argmax(axis=1)
        parent = _graded_rank(exponents - unit[var]) - _graded_slice(dim, d - 1).start
        lower = _slice_index(dim, d - 1).exponents
        times = _graded_rank(lower[:, None, :] + unit) - _graded_slice(dim, d).start
    for t in (exponents, parent, var, times):
        t.setflags(write=False)  # shared by every caller through the cache
    return _SliceIndex(monos, exponents, parent, var, times)


@functools.lru_cache(maxsize=None)
def _monomial_counts(dim: int, degree: int) -> np.ndarray:
    """counts[m, k] = C(m + k - 1, m) monomials of degree m in k variables, k >= 1."""
    counts = np.array([[math.comb(m + k - 1, m) if k else 0 for k in range(dim + 2)]
                       for m in range(degree + 1)], dtype=np.intp)
    counts.setflags(write=False)  # shared by every caller through the cache
    return counts


def _graded_rank(exponents) -> np.ndarray:
    """Rank of each exponent row (last axis) in monomials_up_to(dim, D), any D
    >= its degree: the monomials of lower degree, plus, per variable, those of
    its slice that agree with it before that variable and are smaller in it."""
    exponents = np.asarray(exponents, dtype=np.intp)
    dim = exponents.shape[-1]
    rest = np.cumsum(exponents[..., ::-1], axis=-1)[..., ::-1]  # degree from variable i on
    deg = rest[..., 0]
    counts = _monomial_counts(dim, int(deg.max(initial=0)))
    k = np.arange(dim, 0, -1)  # variables from i on
    lex = (counts[rest, k] - counts[rest - exponents, k]).sum(axis=-1)
    return counts[deg, dim + 1] - counts[deg, dim] + lex


def _graded_slice(dim: int, d: int) -> slice:
    """Positions of the degree-d monomials in monomials_up_to(dim, D), any
    D >= d: after the C(dim + d - 1, dim) monomials of lower degree."""
    return slice(math.comb(dim + d - 1, dim) if d else 0, math.comb(dim + d, dim))


@functools.lru_cache(maxsize=None)
def _graded_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent rows of monomials_up_to(dim, degree)."""
    table = np.vstack([_slice_index(dim, d).exponents for d in range(degree + 1)])
    table.setflags(write=False)  # shared by every caller through the cache
    return table


def _sym_power(s: np.ndarray, d: int) -> np.ndarray:
    """Sym^d(s): row alpha holds the y-coefficients of
    prod_k (sum_i s[k, i] y_i)^alpha_k; ``s`` may be rectangular.  Row alpha
    is row parent(alpha) of Sym^(d-1)(s) times the image of x_var(alpha);
    multiplying by y_i maps columns one to one (``times[:, i]``), so every
    entry adds its terms in the same order, i = 0, 1, ..."""
    n_rows, n_cols = s.shape
    out = np.ones((1, 1))
    for k in range(1, d + 1):
        rows, cols = _slice_index(n_rows, k), _slice_index(n_cols, k)
        prev, image = out[rows.parent], s[rows.var]
        out = np.zeros((len(rows.monomials), len(cols.monomials)))
        for i in range(n_cols):
            out[:, cols.times[:, i]] += prev * image[:, i : i + 1]
    return out


def monomials_up_to(dim: int, degree: int) -> list[tuple]:
    """All multi-indices of total degree <= degree, graded-lex order."""
    return [alpha for d in range(degree + 1) for alpha in _slice_index(dim, d).monomials]


def _monomial_values(points: np.ndarray, degree: int) -> np.ndarray:
    """Column r holds x^alpha_r for every row x of ``points``, the columns in
    monomials_up_to order.  Column alpha of slice d is column parent(alpha)
    of slice d - 1 times x_var(alpha): one product per entry, no powers."""
    out = [np.ones((len(points), 1))]
    for d in range(1, degree + 1):
        index = _slice_index(points.shape[1], d)
        out.append(out[-1][:, index.parent] * points[:, index.var])
    return np.hstack(out)


# ---------------------------------------------------------------------------
# Algebra elements and characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Truncated element of S(R^dim): ``coeffs[r]`` is the coefficient of
    monomial r of monomials_up_to(dim, max_degree), the layout of a moment
    table.  A map multi-index -> coefficient may stand in for the vector;
    repeated multi-indices add up."""

    dim: int
    max_degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"element dim {self.dim} < 1")
        if self.max_degree < 0:
            raise InvalidInput(f"truncation degree {self.max_degree} < 0")
        size = _graded_slice(self.dim, self.max_degree).stop
        if isinstance(self.coeffs, dict):
            alphas = [_canon_alpha(a, self.dim) for a in self.coeffs]
            top = max(alphas, key=sum, default=())
            if sum(top) > self.max_degree:
                raise DegreeOverflow(f"term {top} exceeds truncation degree {self.max_degree}")
            coeffs = np.zeros(size)
            ranks = _graded_rank(np.reshape(alphas, (-1, self.dim)))
            np.add.at(coeffs, ranks, [float(c) for c in self.coeffs.values()])
        else:
            coeffs = np.array(self.coeffs, dtype=float)
            if coeffs.shape != (size,):
                raise DimensionMismatch(
                    f"{coeffs.shape} coefficients for dim {self.dim}, degree {self.max_degree}"
                )
        if not np.isfinite(coeffs).all():
            raise InvalidInput("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(dim: int, max_degree: int) -> "AlgebraElement":
        return AlgebraElement(dim, max_degree, {})

    @staticmethod
    def one(dim: int, max_degree: int) -> "AlgebraElement":
        return AlgebraElement(dim, max_degree, {(0,) * dim: 1.0})

    @staticmethod
    @functools.lru_cache(maxsize=None)  # elements are immutable: one per (i, dim, max_degree)
    def variable(i: int, dim: int, max_degree: int) -> "AlgebraElement":
        if not 0 <= i < dim:
            raise DimensionMismatch(f"variable index {i} outside 0..{dim - 1}")
        return AlgebraElement.from_vector(np.eye(dim)[i], max_degree)

    @staticmethod
    def from_vector(v, max_degree: int) -> "AlgebraElement":
        """Degree-1 element sum v_i x_i."""
        v = np.asarray(v, dtype=float)
        units = map(tuple, np.eye(len(v), dtype=int).tolist())
        return AlgebraElement(len(v), max_degree, {e: c for e, c in zip(units, v) if c != 0.0})

    # -- structure -------------------------------------------------------

    def _support(self):
        """Ranks of the nonzero coefficients and their exponent rows, in
        graded-lex order."""
        nz = np.flatnonzero(self.coeffs)
        return nz, _graded_exponents(self.dim, self.max_degree)[nz]

    def _padded(self, degree: int) -> np.ndarray:
        """The coefficients in monomials_up_to(dim, degree) order: cut at
        ``degree`` (at least the element's degree), zeros beyond max_degree."""
        size = _graded_slice(self.dim, degree).stop
        out = self.coeffs[:size]
        return out if len(out) == size else np.concatenate([out, np.zeros(size - len(out))])

    def degree(self) -> int:
        """Degree of the element (0 for the zero element)."""
        _, exponents = self._support()
        return int(exponents[-1].sum()) if len(exponents) else 0

    def is_homogeneous(self, d: int) -> bool:
        _, exponents = self._support()
        return bool((exponents.sum(axis=1) == d).all())

    def coefficient(self, alpha) -> float:
        a = _canon_alpha(alpha, self.dim)
        return float(self.coeffs[_graded_rank(a)]) if sum(a) <= self.max_degree else 0.0

    @property
    def terms(self) -> dict:
        """The nonzero coefficients by multi-index, in graded-lex order (a
        copy: the element does not change with it)."""
        nz, exponents = self._support()
        return dict(zip(map(tuple, exponents.tolist()), self.coeffs[nz].tolist()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        top = max(self.max_degree, other.max_degree)
        return AlgebraElement(self.dim, top, self._padded(top) + other._padded(top))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement(self.dim, self.max_degree, scalar * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def _check_compatible(self, other: "AlgebraElement"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} != {other.dim}")

    def __repr__(self):
        parts = [f"{c:+g}*x^{list(a)}" for a, c in self.terms.items()]
        return f"AlgebraElement({' '.join(parts) or '0'})"

    def to_jsonable(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [{"alpha": list(a), "c": c} for a, c in self.terms.items()],
        }


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Commutative product: the outer product of the nonzero coefficients,
    scatter-added at the ranks of alpha + beta; raises DegreeOverflow when a
    product term exceeds the truncation degree."""
    a._check_compatible(b)
    cap = max(a.max_degree, b.max_degree)
    (ra, ea), (rb, eb) = a._support(), b._support()
    gamma = ea[:, None, :] + eb[None, :, :]
    top = int(gamma.sum(axis=-1).max(initial=0))
    if top > cap:
        raise DegreeOverflow(f"product term of degree {top} exceeds truncation {cap}")
    out = np.zeros(_graded_slice(a.dim, cap).stop)
    np.add.at(out, _graded_rank(gamma), np.outer(a.coeffs[ra], b.coeffs[rb]))
    return AlgebraElement(a.dim, cap, out)


@dataclass(frozen=True, eq=False)
class Character:
    """A character of S(R^n): evaluation at a point of R^n."""

    point: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float).copy()
        p.setflags(write=False)
        object.__setattr__(self, "point", p)

    @property
    def dim(self) -> int:
        return len(self.point)


def evaluate_character(alpha: Character, a: AlgebraElement) -> float:
    """hat a (alpha): polynomial evaluation of a at the character's point,
    term by term in graded-lex order, each term c times the coordinates'
    powers, taken one scalar power at a time."""
    if alpha.dim != a.dim:
        raise DimensionMismatch(f"character dim {alpha.dim} != element dim {a.dim}")
    ranks, exponents = a._support()
    vals = a.coeffs[ranks]
    for k, e in zip(alpha.point, exponents.T):
        vals = vals * np.array([k**j for j in range(a.max_degree + 1)])[e]
    return float(np.cumsum(np.append(0.0, vals))[-1])  # summed left to right


# ---------------------------------------------------------------------------
# Graded seminorms
# ---------------------------------------------------------------------------


def _reference_basis(s: GramForm, system: OrthonormalSystem | None, d: int):
    """Full basis of R^n made of an s-orthonormal part plus a kernel
    completion.  Returns (basis matrix U with those columns, mask of the
    degree-d monomials in those columns that touch a kernel factor)."""
    ker = kernel_basis(s)
    if system is None:
        from .forms import whitening_system

        on_vecs = list(whitening_system(s).vectors)
    else:
        if system.form is not s and not np.array_equal(system.form.gram, s.gram):
            raise DimensionMismatch("reference system belongs to a different form")
        if len(system) != s.rank:
            raise IncompleteSystem(
                f"reference system has {len(system)} vectors, form rank is {s.rank}"
            )
        on_vecs = list(system.vectors)
    cols = on_vecs + ker
    if len(cols) != s.dim:
        raise IncompleteSystem("orthonormal part plus kernel does not span")
    u = np.column_stack(cols)
    kernel = _slice_index(s.dim, d).exponents[:, len(on_vecs) :].any(axis=1)
    return u, kernel


def _reference_coords(
    s: GramForm, system: OrthonormalSystem | None, d: int, coeffs: np.ndarray
) -> np.ndarray:
    """Rows of ``coeffs`` (degree-d slice vectors in the x-monomials)
    re-expressed in the monomials of the reference basis, keeping only the
    monomials of weight 1 (those touching no kernel factor)."""
    u, kernel = _reference_basis(s, system, d)
    try:
        inv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"reference basis is singular: {exc}") from None
    # row k of inv(U)^T: coordinates of x_k in the reference basis
    return (coeffs @ _sym_power(inv.T, d))[..., ~kernel]


def _orthonormal_monomials(s: GramForm, system: OrthonormalSystem | None, d: int):
    """(Sym^d(U^T), kernel mask) for the reference basis U of s: row alpha
    holds the x-coefficients of the orthonormalized monomial
    u_1^alpha_1 ... u_n^alpha_n."""
    u, kernel = _reference_basis(s, system, d)
    return _sym_power(u.T, d), kernel


def graded_inner(
    s: GramForm,
    d: int,
    a_d: AlgebraElement,
    b_d: AlgebraElement,
    system: OrthonormalSystem | None = None,
) -> float:
    """Inner product on S(R^n)_d under the canonical convention (monomials
    of the reference s-orthonormal basis are orthonormal; monomials touching
    kernel factors carry weight 0)."""
    for elem in (a_d, b_d):
        if not elem.is_homogeneous(d):
            raise NotHomogeneous(f"element {elem!r} is not homogeneous of degree {d}")
        if elem.dim != s.dim:
            raise DimensionMismatch(f"element dim {elem.dim} != form dim {s.dim}")
    u, v = (elem._padded(d)[_graded_slice(s.dim, d)] for elem in (a_d, b_d))
    return _slice_inner(s, d, u, v, system)


def _slice_inner(s: GramForm, d: int, u, v, system: OrthonormalSystem | None = None) -> float:
    """graded_inner of the degree-d slice vectors u and v."""
    a_ref, b_ref = _reference_coords(s, system, d, np.array([u, v]))
    return float(a_ref @ b_ref)


def graded_norm(
    s: GramForm,
    d: int,
    a_d: AlgebraElement,
    system: OrthonormalSystem | None = None,
) -> float:
    """The graded Hilbertian seminorm s~^(d)(a_d); see the module docstring
    for the convention."""
    val = graded_inner(s, d, a_d, a_d, system=system)
    return float(np.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# The weighted tilde seminorms and their trace identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GradedSeminormTower:
    """Per-degree data defining the weighted seminorms p~ and q~ on the
    truncated algebra:

        p~(a)^2 = lam_0^2 |a^(0)|^2 + sum_d lam_d^2 C_{2d} (p_{2d}~^(d)(a^(d)))^2
        q~(a)^2 = eta_0^2 |a^(0)|^2 + sum_d eta_d^2 (q_{2d}~^(d)(a^(d)))^2

    ``base_forms[d-1] = (p_2d, q_2d)``; ``lam``/``eta`` have length D+1
    (index 0 is the constant slice); ``constants[d-1] = C_{L,2d}``.
    """

    dim: int
    max_degree: int
    base_forms: tuple
    lam: tuple
    eta: tuple
    constants: tuple

    def __post_init__(self):
        d_max = self.max_degree
        if len(self.base_forms) != d_max:
            raise DimensionMismatch(
                f"need {d_max} base form pairs, got {len(self.base_forms)}"
            )
        if len(self.lam) != d_max + 1 or len(self.eta) != d_max + 1:
            raise DimensionMismatch("weights must have length max_degree + 1")
        if len(self.constants) != d_max:
            raise DimensionMismatch("constants must have length max_degree")
        if any(w <= 0 for w in self.lam) or any(w <= 0 for w in self.eta):
            raise NotInScope("weights must be positive")
        if any(c < 0 for c in self.constants):
            raise NotInScope("constants must be nonnegative")
        for p2d, q2d in self.base_forms:
            if p2d.dim != self.dim or q2d.dim != self.dim:
                raise DimensionMismatch("base form dimension mismatch")

    @property
    def lambda_inverse_square_sum(self) -> float:
        """sum of lam_d^{-2} over the truncated range d = 0..D (the finite
        rendering of the summability hypothesis)."""
        return float(sum(1.0 / w**2 for w in self.lam))


def p_tilde(tower: GradedSeminormTower, a: AlgebraElement) -> float:
    """The weighted seminorm p~(a) =
    sqrt(lam_0^2 |a^(0)|^2 + sum_d lam_d^2 C_{2d} p_{2d}~^(d)(a^(d))^2)."""
    if a.degree() > tower.max_degree:
        raise DegreeOverflow(
            f"element degree {a.degree()} exceeds tower degree {tower.max_degree}"
        )
    if a.dim != tower.dim:
        raise DimensionMismatch(f"element dim {a.dim} != tower dim {tower.dim}")
    coeffs = a._padded(tower.max_degree)
    total = (tower.lam[0] * coeffs[0]) ** 2
    for d in range(1, tower.max_degree + 1):
        u = coeffs[_graded_slice(tower.dim, d)]
        if u.any():
            sq = max(_slice_inner(tower.base_forms[d - 1][0], d, u, u), 0.0)
            total += tower.lam[d] ** 2 * tower.constants[d - 1] * sq
    return float(np.sqrt(total))


@dataclass(frozen=True, eq=False)
class TildeTraceReport:
    formula: float
    direct: float
    per_degree: tuple
    rel_error: float
    agree: bool

    def to_jsonable(self) -> dict:
        return {
            "formula": self.formula,
            "direct": self.direct,
            "per_degree": [
                {"degree": d, "formula": f, "direct": s} for d, f, s in self.per_degree
            ],
            "rel_error": self.rel_error,
            "agree": self.agree,
        }


TILDE_REL_TOL = 1e-8  # relative agreement required of the two tilde-trace paths


def tilde_trace_identity(
    tower: GradedSeminormTower, rel_tol: float = TILDE_REL_TOL
) -> TildeTraceReport:
    """Two-path evaluation of tr(p~/q~).

    Formula path:  lam_0^2/eta_0^2 + sum_d (lam_d^2/eta_d^2) C_{2d} tr(p_2d/q_2d)^d.

    Direct path: per degree d, take the q~-orthonormal monomial family built
    on a complete q_{2d}-orthonormal system E_d (members eta_d^{-1} e_{i_1}
    ... e_{i_d} over ordered index tuples, so a monomial with repeated
    factors enters with multiplicity d!/alpha!) and sum p~(.)^2 over the
    family.  E_d is chosen p-orthogonal (simultaneous diagonalization) and
    the p-norms are evaluated with the matching reference system, so both
    paths compute the same quantity; the comparison checks the
    combinatorial bookkeeping, not a tautology.
    """
    formula = tower.lam[0] ** 2 / tower.eta[0] ** 2
    direct = formula
    per_degree = [(0, formula, formula)]
    for d in range(1, tower.max_degree + 1):
        p2d, q2d = tower.base_forms[d - 1]
        tr = trace(p2d, q2d)
        if is_infinite(tr.value):
            raise InfiniteTrace(f"tr(p_{2*d}/q_{2*d}) is infinite")
        weight = (tower.lam[d] ** 2 / tower.eta[d] ** 2) * tower.constants[d - 1]
        f_d = weight * tr.value**d

        # direct orthonormal sum over the monomial family of E_d
        e_sys = simultaneous_diagonalize(p2d, q2d)
        members = list(e_sys.vectors)
        mu = [float(v @ p2d.gram @ v) for v in members]
        # p-orthonormal reference: normalize the members with positive p-norm
        cutoff = p2d.kernel_cutoff
        ref_vecs = tuple(
            v / np.sqrt(m) for v, m in zip(members, mu) if m > cutoff
        )
        ref_sys = (
            OrthonormalSystem(form=p2d, vectors=ref_vecs, complete=True)
            if len(ref_vecs) == p2d.rank
            else None
        )
        # row alpha: the member product e^alpha in x-monomials, then in the
        # reference monomials of p_2d; its squared l2 norm is p~^(d)(e^alpha)^2
        products = _sym_power(np.reshape(members, (-1, tower.dim)), d)
        coords = _reference_coords(p2d, ref_sys, d, products)
        family = _slice_index(len(members), d).monomials
        mult = np.array([multinomial(alpha) for alpha in family], dtype=float)
        s_d = weight * float(mult @ np.sum(coords**2, axis=1))
        formula += f_d
        direct += s_d
        per_degree.append((d, f_d, s_d))
    rel_error = abs(formula - direct) / max(abs(formula), 1e-300)
    return TildeTraceReport(
        formula=formula,
        direct=direct,
        per_degree=tuple(per_degree),
        rel_error=rel_error,
        agree=bool(rel_error <= rel_tol),
    )


# ---------------------------------------------------------------------------
# Character bound
# ---------------------------------------------------------------------------


def character_norm_bound(
    l: DualFunctional,
    r: GramForm,
    s: GramForm,
    d: int,
    a_d: AlgebraElement,
) -> dict:
    """Check |alpha_ell(a_d)| <= (r'(ell) tr(r/s))^d s~^(d)(a_d) for the
    multiplicative extension alpha_ell(v_1...v_d) = ell(v_1)...ell(v_d).

    Note the bound requires tr(r/s) >= 1 to be provable (the sharp exponent
    on the trace is d/2); callers generate scenarios in that regime.
    """
    tr = trace(r, s)
    if is_infinite(tr.value):
        raise InfiniteTrace("tr(r/s) is infinite")
    rp = dual_norm(r, l)
    if is_infinite(rp):
        raise NotContinuous("functional is not r-continuous")
    lhs = abs(evaluate_character(Character(point=l.coeffs), a_d))
    rhs = (rp * tr.value) ** d * graded_norm(s, d, a_d)
    ok = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return {"lhs": lhs, "rhs": rhs, "dual_norm": rp, "trace": tr.value, "ok": bool(ok)}
