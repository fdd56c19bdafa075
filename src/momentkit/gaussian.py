"""Gaussian measures attached to a Hilbertian seminorm.

The measure is realized through a whitening matrix W whose columns form a
complete q-orthonormal system; samples are v = W z with z standard normal,
so the q-coordinates of a sample are i.i.d. N(0,1).  Monte-Carlo estimators
partition the sample index space into contiguous blocks, one counter-based
Philox substream per block.  One streaming pass draws each block once, in
chunks, and feeds every estimator of a check; the blocks run on a thread
pool sized to the CPU affinity and their results merge in fixed block
order — the result is bit-identical for a given (seed, samples, streams)
regardless of scheduling or worker count.

The parallelism lives in the block pool, so a chunk is small (_chunk_rows,
rows * rank^2 bounded): its BLAS calls stay in cache and single-threaded,
where larger ones would start BLAS threads inside the pool's workers.  A
worker holds one float64 array of values per estimator for its block,
squared in place for the sum of squares, plus chunk-sized buffers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .concentration import MASS_SLACK, _certifies, _second_moment
from .errors import (
    InvalidInput,
    KernelNotContained,
    NotInScope,
    SingularForm,
    ZeroNormDirection,
    mc_cap_fault,
)
from .forms import (
    DualFunctional,
    GramForm,
    INFINITE,
    _in_unit_dual_ball,
    dual_norm,
    is_infinite,
    jsonable,
    kernel_basis,
    whitening_system,
)
from .moments import DiscreteMeasure
from .traces import trace_value

CERTIFY_SIGMAS = 4.0  # a Monte Carlo estimate certifies within this many standard errors
_CHUNK = 8_192  # rows per chunk up to rank 6: a chunk and its BLAS products stay in cache
_HYPOTHESIS_LEAK_REL = 1e-12  # second moment on ker p allowed by the lemma's sup, relative


@dataclass(frozen=True, eq=False)
class McConfig:
    """Identical (seed, samples, streams) yields bit-identical estimates."""

    seed: int
    samples: int
    streams: int = 1

    def __post_init__(self):
        if self.samples <= 0 or self.streams <= 0:
            raise InvalidInput("samples and streams must be positive")
        fault = mc_cap_fault(self.samples, self.streams)
        if fault:
            raise InvalidInput(fault)

    def block_counts(self) -> list[int]:
        base, rem = divmod(self.samples, self.streams)
        return [base + (1 if b < rem else 0) for b in range(self.streams)]


def _block_rng(seed: int, block_id: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_id,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian measure with covariance the inverse Gram of q (on the
    quotient by ker q when requested)."""

    q: GramForm
    whitening: np.ndarray  # (dim, rank), columns a complete q-orthonormal system

    @classmethod
    def from_form(cls, q: GramForm, quotient: bool = False) -> "GaussianMeasure":
        if q.rank < q.dim and not quotient:
            raise SingularForm(
                f"q has kernel of dimension {q.dim - q.rank}; pass quotient=True"
            )
        w = whitening_system(q).matrix
        w.setflags(write=False)
        return cls(q=q, whitening=w)

    @property
    def rank(self) -> int:
        return self.whitening.shape[1]


def sample(gamma: GaussianMeasure, cfg: McConfig) -> np.ndarray:
    """All samples as an array of shape (samples, dim), deterministic."""
    blocks = []
    for b, count in enumerate(cfg.block_counts()):
        if count == 0:
            continue
        z = _block_rng(cfg.seed, b).standard_normal((count, gamma.rank))
        blocks.append(z @ gamma.whitening.T)
    return np.vstack(blocks)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _chunk_rows(rank: int) -> int:
    """The largest power of two up to _CHUNK with rows * rank^2, the work of
    a chunk's z @ a, at most that of _CHUNK rows at rank 6."""
    rows = _CHUNK
    while rows > 1 and rows * rank * rank > _CHUNK * 36:
        rows //= 2
    return rows


def _block_sums(gamma: GaussianMeasure, seed: int, block: int, count: int, fns) -> list:
    """(sum, sum of squares) of each fn's per-sample values on one block.
    The block's stream is drawn _chunk_rows(rank) rows at a time into one
    buffer; each fn fills an array as long as the block, which is summed
    whole, so every sum has the bits of a single whole-block draw."""
    rng = _block_rng(seed, block)
    rows = _chunk_rows(gamma.rank)
    buf = np.empty((min(count, rows), gamma.rank))
    vals = [np.empty(count) for _ in fns]
    for start in range(0, count, rows):
        z = buf[: min(rows, count - start)]
        rng.standard_normal(out=z)
        for fn, out in zip(fns, vals):
            out[start : start + len(z)] = fn(z)
    sums = []
    for v in vals:
        total = float(v.sum())
        np.square(v, out=v)  # the bits of (v * v).sum(), without a second block array
        sums.append((total, float(v.sum())))
    return sums


def _mc_means(gamma: GaussianMeasure, cfg: McConfig, per_sample_fns) -> list:
    """Streaming (mean, stderr) of each per_sample(z_chunk) over all samples,
    in one pass: the non-empty blocks run on a thread pool (numpy releases
    the GIL while it draws and reduces) and merge in block order, so the
    result does not depend on the number of workers.  per_sample functions
    run on worker threads and must call numpy only."""
    blocks = [(b, count) for b, count in enumerate(cfg.block_counts()) if count]

    def run(block):
        return _block_sums(gamma, cfg.seed, *block, per_sample_fns)

    workers = min(len(blocks), _cpu_count())
    if workers == 1:
        sums = list(map(run, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(run, blocks))
    n = cfg.samples
    means = []
    for per_block in zip(*sums):  # one estimator's sums, in block order
        total = 0.0
        total_sq = 0.0
        for block_sum, block_sum_sq in per_block:
            total += block_sum
            total_sq += block_sum_sq
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
        means.append((mean, float(np.sqrt(var / n))))
    return means


@dataclass(frozen=True, eq=False)
class McReport:
    estimate: float
    stderr: float
    bound: float
    certified: bool
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "estimate": float(self.estimate),
            "stderr": float(self.stderr),
            "bound": float(self.bound),
            "certified": bool(self.certified),
            "seed": int(self.seed),
        }


def _second_moment_estimator(gamma: GaussianMeasure, w, cfg: McConfig):
    """(per-sample values, report builder) of second_moment_check."""
    w = np.asarray(w, dtype=float)
    nrm = gamma.q(w)
    if nrm <= 0.0:
        raise ZeroNormDirection("q(w) = 0: direction lies in the kernel")
    w = w / nrm
    u = gamma.whitening.T @ (gamma.q.gram @ w)  # <Wz, w>_q = z . u

    def report(est, stderr):
        return McReport(
            estimate=est,
            stderr=stderr,
            bound=1.0,
            certified=bool(abs(est - 1.0) <= CERTIFY_SIGMAS * stderr),
            seed=cfg.seed,
        )

    return (lambda z: (z @ u) ** 2), report


def _estimate(gamma: GaussianMeasure, cfg: McConfig, estimators) -> list:
    """Reports of (per-sample values, report builder) pairs, all estimated
    in one pass over the samples."""
    means = _mc_means(gamma, cfg, [values for values, _ in estimators])
    return [report(*m) for (_, report), m in zip(estimators, means)]


def second_moment_check(gamma: GaussianMeasure, w, cfg: McConfig) -> McReport:
    """MC estimate of the integral of <v, w>_q^2, which equals 1 exactly for
    q(w) = 1 (w is normalized internally)."""
    return _estimate(gamma, cfg, [_second_moment_estimator(gamma, w, cfg)])[0]


@dataclass(frozen=True, eq=False)
class TailReport:
    exact: float
    bound: float
    dual_norm_value: object  # float or INFINITE
    ok: bool

    def to_jsonable(self) -> dict:
        return {
            "exact": float(self.exact),
            "bound": float(self.bound),
            "dual_norm": jsonable(self.dual_norm_value),
            "certified": bool(self.ok),
        }


def tail_lower_bound_check(gamma: GaussianMeasure, l: DualFunctional) -> TailReport:
    """gamma(|l(v)| > 1) = 2(1 - Phi(1/q'(l))) for l(v) ~ N(0, q'(l)^2);
    must be >= 1/7 whenever q'(l) >= 1."""
    qp = dual_norm(gamma.q, l)
    if is_infinite(qp):
        exact = 1.0
    elif qp < 1.0:
        raise NotInScope(f"dual norm {qp} < 1: hypothesis fails")
    else:
        exact = math.erfc(1.0 / qp / math.sqrt(2.0))
    return TailReport(
        exact=exact, bound=1.0 / 7.0, dual_norm_value=qp, ok=bool(exact >= 1.0 / 7.0)
    )


def _chebyshev_estimator(gamma: GaussianMeasure, p: GramForm, delta: float, cfg: McConfig):
    """(per-sample values, report builder) of chebyshev_outside_ball."""
    tr = trace_value(p, gamma.q)
    if is_infinite(tr):
        raise KernelNotContained("tr(p/q) is infinite")
    a = gamma.whitening.T @ p.gram @ gamma.whitening

    def report(est, _):
        stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / cfg.samples))
        bound = tr / delta**2
        return McReport(
            estimate=est,
            stderr=stderr,
            bound=bound,
            certified=bool(est <= bound + CERTIFY_SIGMAS * stderr),
            seed=cfg.seed,
        )

    return (lambda z: (np.einsum("ij,ij->i", z @ a, z) > delta**2).astype(float)), report


def chebyshev_outside_ball(
    gamma: GaussianMeasure, p: GramForm, delta: float, cfg: McConfig
) -> McReport:
    """MC estimate of gamma(p(v) > delta) against the Chebyshev-type bound
    delta^{-2} tr(p/q)."""
    return _estimate(gamma, cfg, [_chebyshev_estimator(gamma, p, delta, cfg)])[0]


def _mc_checks(
    gamma: GaussianMeasure, w, cfg: McConfig, p: GramForm | None = None, delta=None
) -> tuple:
    """(second_moment_check, chebyshev_outside_ball or None) from one pass
    over the samples; the Chebyshev check runs when p (and delta) is given."""
    estimators = [_second_moment_estimator(gamma, w, cfg)]
    if p is not None:
        estimators.append(_chebyshev_estimator(gamma, p, delta, cfg))
    second, *cheb = _estimate(gamma, cfg, estimators)
    return second, (cheb[0] if cheb else None)


@dataclass(frozen=True, eq=False)
class FundamentalLemmaReport:
    """Record of the quantitative concentration lemma for a discrete measure
    mu on dual vectors: if sup over the p-ball of radius delta of the
    mu-mean of l(v)^2 is at most epsilon, then the mu-mass of the closed
    unit q-dual ball is at least 1 - 7(epsilon + tr(p/(delta q)))."""

    sup_quadratic: object  # float or INFINITE
    epsilon: float
    hypothesis_certified: bool
    mass_in_unit_dual_ball: float
    trace_term: float
    bound: float
    conclusion_ok: object  # bool, or None when the hypothesis fails

    def to_jsonable(self) -> dict:
        return {
            "sup_quadratic": jsonable(self.sup_quadratic),
            "epsilon": float(self.epsilon),
            "hypothesis_certified": bool(self.hypothesis_certified),
            "mass": float(self.mass_in_unit_dual_ball),
            "trace_term": float(self.trace_term),
            "bound": float(self.bound),
            "conclusion_ok": self.conclusion_ok,
        }


def fundamental_lemma_check(
    mu: DiscreteMeasure,
    p: GramForm,
    q: GramForm,
    epsilon: float,
    delta: float,
) -> FundamentalLemmaReport:
    """The atoms of mu are coefficient vectors of dual functionals.

    (a) certifies the hypothesis exactly through the sufficient criterion
        sup_{p(v) <= delta} sum_j w_j l_j(v)^2 <= epsilon, computed as
        delta^2 lambda_max of the second-moment matrix whitened by p
        (infinite when the second-moment matrix is nonzero on ker p);
    (b) computes the mu-mass of the closed unit q-dual ball atom by atom,
        summing the weights of the atoms inside in atom order;
    (c) the conclusion mass >= 1 - 7(epsilon + tr(p/q)/delta^2) is asserted
        only when (a) is certified.
    """
    tr = trace_value(p, q)
    if is_infinite(tr):
        raise KernelNotContained("tr(p/q) is infinite")
    m = _second_moment(mu)

    ker = kernel_basis(p)
    leak = np.abs(m @ np.column_stack(ker)).max() if ker else 0.0
    if leak > _HYPOTHESIS_LEAK_REL * max(1.0, float(np.abs(m).max())):
        sup = INFINITE
    else:
        w = whitening_system(p).matrix
        lam = float(np.linalg.eigvalsh(w.T @ m @ w)[-1]) if w.size else 0.0
        sup = delta**2 * max(lam, 0.0)

    certified = (not is_infinite(sup)) and _certifies(sup, epsilon)

    inside = _in_unit_dual_ball(q, mu.atoms)
    mass = sum(w for w, ok in zip(mu.weights, inside) if ok)

    trace_term = tr / delta**2
    bound = 1.0 - 7.0 * (epsilon + trace_term)
    conclusion = bool(mass >= bound - MASS_SLACK) if certified else None
    return FundamentalLemmaReport(
        sup_quadratic=sup,
        epsilon=epsilon,
        hypothesis_certified=bool(certified),
        mass_in_unit_dual_ball=float(mass),
        trace_term=float(trace_term),
        bound=float(bound),
        conclusion_ok=conclusion,
    )
