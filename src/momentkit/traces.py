"""Trace of one Hilbertian seminorm with respect to another.

The trace tr(p/q) is the supremum of sum p(e)^2 over finite q-orthonormal
sets; at finite dimension it is computed as the sum over any complete
q-orthonormal system (basis independence) and is infinite exactly when
ker(q) is not contained in ker(p).  An operator-theoretic cross-check
computes the same number as the trace of the q-whitened p.  The converse
construction, a q with prescribed trace tr(p/q) = sum lambda_n^2, is
``construct_q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DimensionMismatch, IncompleteSystem, InvalidInput
from .forms import (
    _SCALE_FLOOR,
    GramForm,
    INFINITE,
    OrthonormalSystem,
    is_infinite,
    jsonable,
    kernel_contained,
    restrict_gram,
    whitening_system,
)


_LAW_SLACK = 1e-9  # slack of the scaling law (relative) and of restriction monotonicity


class TraceMethod(Enum):
    ORTHONORMAL_SUM = "orthonormal_sum"
    OPERATOR_TRACE = "operator_trace"


@dataclass(frozen=True, eq=False)
class TraceReport:
    """Result of a relative-trace computation.

    ``value`` is a nonnegative float or the INFINITE sentinel;
    ``witness_basis`` is the complete q-orthonormal system summed over
    (None for infinite traces).
    """

    value: object
    witness_basis: OrthonormalSystem | None
    method: TraceMethod

    @property
    def finite(self) -> bool:
        return not is_infinite(self.value)

    def to_jsonable(self) -> dict:
        return {
            "value": jsonable(self.value),
            "method": self.method.value,
        }


def trace(p: GramForm, q: GramForm, method: TraceMethod = TraceMethod.ORTHONORMAL_SUM) -> TraceReport:
    """tr(p/q): INFINITE when ker(q) is not contained in ker(p), otherwise
    the sum of p(e)^2 over a complete q-orthonormal system (the whitening
    basis).  The operator method computes trace(W' G_p W) directly, which is
    the same sum rearranged."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dims {p.dim} != {q.dim}")
    if not kernel_contained(p, q):
        return TraceReport(value=INFINITE, witness_basis=None, method=method)
    basis = whitening_system(q)
    w = basis.matrix
    if method is TraceMethod.OPERATOR_TRACE:
        val = float(np.trace(w.T @ p.gram @ w)) if w.shape[1] else 0.0
    else:
        val = 0.0
        for e in basis.vectors:
            val += float(e @ p.gram @ e)
    return TraceReport(value=max(val, 0.0), witness_basis=basis, method=method)


def trace_value(p: GramForm, q: GramForm):
    """Convenience: just the number (or INFINITE)."""
    return trace(p, q).value


def trace_scaling_check(p: GramForm, q: GramForm, eps: float, delta: float) -> bool:
    """Verify tr(eps*p / delta*q) = (eps/delta)^2 tr(p/q) within _LAW_SLACK,
    relative, by computing both sides independently."""
    base = trace(p, q)
    if not base.finite:
        raise InvalidInput("trace_scaling_check requires finite tr(p/q)")
    scaled_p = GramForm(p.dim, eps**2 * np.asarray(p.gram))
    scaled_q = GramForm(q.dim, delta**2 * np.asarray(q.gram))
    lhs = trace(scaled_p, scaled_q).value
    rhs = (eps / delta) ** 2 * base.value
    return bool(abs(lhs - rhs) <= _LAW_SLACK * max(abs(rhs), _SCALE_FLOOR))


def trace_restriction_check(p: GramForm, q: GramForm, subspace_vectors) -> bool:
    """Verify tr(p|_W / q|_W) <= tr(p/q) (1 + _LAW_SLACK) + _LAW_SLACK for
    W = span(subspace_vectors)."""
    full = trace(p, q)
    p_w = restrict_gram(p, subspace_vectors)
    q_w = restrict_gram(q, subspace_vectors)
    restricted = trace(p_w, q_w)
    if not restricted.finite:
        # restriction can only stay infinite if the full trace already is
        return not full.finite
    if not full.finite:
        return True
    return bool(restricted.value <= full.value * (1.0 + _LAW_SLACK) + _LAW_SLACK)


@dataclass(frozen=True, eq=False)
class SeminormTower:
    """Finite truncation of a directed family of seminorms: diagonal forms
    with entries n^{2k} at level k, so consecutive relative traces are the
    partial sums of sum 1/n^2 (< pi^2/6)."""

    dim: int
    forms: tuple

    def consecutive_traces(self) -> list[float]:
        return [
            trace(self.forms[k], self.forms[k + 1]).value
            for k in range(len(self.forms) - 1)
        ]


def nuclear_tower(dim: int, levels: int) -> SeminormTower:
    """Build the diagonal tower (p_k)_{nn} = n^{2k}, k = 1..levels."""
    if dim < 1 or levels < 2:
        raise InvalidInput("need dim >= 1 and levels >= 2")
    n = np.arange(1, dim + 1, dtype=float)
    forms = tuple(
        GramForm(dim, np.diag(n ** (2 * k))) for k in range(1, levels + 1)
    )
    return SeminormTower(dim=dim, forms=forms)


# ---------------------------------------------------------------------------
# The q-construction from a weight sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Positive weights lambda_1..lambda_N; the truncated sum of squares is
    recorded as the expected trace."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals or any(v <= 0 for v in vals):
            raise ConfigError("weights must be a nonempty positive sequence")
        object.__setattr__(self, "values", vals)

    @property
    def sum_squares(self) -> float:
        return float(sum(v * v for v in self.values))


@dataclass(frozen=True, eq=False)
class ConstructQRecord:
    q: GramForm
    trace: object  # float or INFINITE
    expected_trace: float
    gram_error: float
    ok: bool

    def to_jsonable(self) -> dict:
        return {
            "q": self.q.to_jsonable(),
            "trace": jsonable(self.trace),
            "expected_trace": float(self.expected_trace),
            "gram_error": float(self.gram_error),
            "ok": bool(self.ok),
        }


CONSTRUCT_Q_TOL = 1e-10  # trace (relative) and Gram error allowed by construct_q


def construct_q(
    p: GramForm, e_sys: OrthonormalSystem, lam: WeightSequence, tol: float = CONSTRUCT_Q_TOL
) -> ConstructQRecord:
    """q(v)^2 = sum_n lambda_n^{-2} <v, e_n>_p^2 over a complete
    p-orthonormal system; then tr(p/q) = sum_n lambda_n^2 and the rescaled
    family {lambda_n e_n} is a complete q-orthonormal system."""
    if len(e_sys) != p.rank or len(e_sys) != len(lam.values):
        raise IncompleteSystem(
            f"need |E| = rank p = |lambda|, got {len(e_sys)}, {p.rank}, "
            f"{len(lam.values)}"
        )
    g = np.zeros((p.dim, p.dim))
    for lam_n, e_n in zip(lam.values, e_sys.vectors):
        u = p.gram @ e_n
        g += np.outer(u, u) / lam_n**2
    q = GramForm(dim=p.dim, gram=g)
    tr = trace(p, q).value
    expected = lam.sum_squares
    scaled = tuple(
        lam_n * e_n for lam_n, e_n in zip(lam.values, e_sys.vectors)
    )
    sys_q = OrthonormalSystem(form=q, vectors=scaled, complete=True)
    gram_err = sys_q.gram_error()
    ok = (
        not is_infinite(tr)
        and abs(tr - expected) <= tol * max(1.0, abs(expected))
        and gram_err < tol
    )
    return ConstructQRecord(
        q=q,
        trace=tr,
        expected_trace=expected,
        gram_error=float(gram_err),
        ok=bool(ok),
    )
