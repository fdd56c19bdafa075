"""Gaussian measures on seminormed spaces: reproducible sampling, exact
second moments, tail lower bounds, Chebyshev mass, and the quantitative
dual-ball lemma."""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import momentkit
from momentkit import (
    DiscreteMeasure,
    DualFunctional,
    GaussianMeasure,
    GramForm,
    McConfig,
    chebyshev_outside_ball,
    fundamental_lemma_check,
    is_infinite,
    second_moment_check,
    tail_lower_bound_check,
)
from momentkit.cli import main
from momentkit.errors import (
    BLOCK_SAMPLES_CAP,
    STREAMS_CAP,
    InvalidInput,
    KernelNotContained,
    NotInScope,
    SingularForm,
)
from momentkit.gaussian import (
    _CHUNK,
    _block_rng,
    _block_sums,
    _chebyshev_estimator,
    _chunk_rows,
    _mc_checks,
    _mc_means,
    sample,
)
from momentkit.scenarios import run_config


def test_sampling_reproducible_and_stream_invariant():
    q = GramForm(dim=3, gram=np.diag([1.0, 2.0, 3.0]))
    gamma = GaussianMeasure.from_form(q)
    a = sample(gamma, McConfig(seed=42, samples=1000, streams=1))
    b = sample(gamma, McConfig(seed=42, samples=1000, streams=1))
    assert np.array_equal(a, b)
    # same seed, different stream split: same values, fixed merge order
    c = sample(gamma, McConfig(seed=42, samples=1000, streams=4))
    assert c.shape == a.shape
    d = sample(gamma, McConfig(seed=42, samples=1000, streams=4))
    assert np.array_equal(c, d)


def test_sampling_law_kolmogorov_smirnov():
    """One-dimensional marginal of the sampled law matches N(0, 1/q-scale)."""
    q = GramForm(dim=1, gram=np.array([[4.0]]))
    gamma = GaussianMeasure.from_form(q)
    v = sample(gamma, McConfig(seed=0, samples=100_000)).ravel()
    # q(v) = 2|v| standard: whitened direction has q = 1 -> sd = 1/2
    stat, pvalue = stats.kstest(v, "norm", args=(0.0, 0.5))
    assert pvalue > 1e-3


def test_singular_form_needs_quotient_flag():
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    with pytest.raises(SingularForm):
        GaussianMeasure.from_form(q)
    gamma = GaussianMeasure.from_form(q, quotient=True)
    assert gamma.rank == 1


def test_second_moment_exact_value_one():
    rng = np.random.default_rng(5)
    q_mat = rng.standard_normal((4, 4))
    q = GramForm(dim=4, gram=q_mat @ q_mat.T + 0.5 * np.eye(4))
    gamma = GaussianMeasure.from_form(q)
    w = rng.standard_normal(4)
    rep = second_moment_check(gamma, w, McConfig(seed=1, samples=200_000))
    assert rep.bound == 1.0
    assert rep.certified
    assert abs(rep.estimate - 1.0) <= 4.0 * rep.stderr


def test_tail_lower_bound_boundary_value():
    q = GramForm(dim=2, gram=np.eye(2))
    gamma = GaussianMeasure.from_form(q)
    l = DualFunctional(dim=2, coeffs=np.array([1.0, 0.0]))  # q'(l) = 1
    rep = tail_lower_bound_check(gamma, l)
    assert rep.exact == pytest.approx(0.317310508, abs=1e-9)
    assert rep.exact >= 1.0 / 7.0
    assert rep.ok


def test_tail_lower_bound_matches_scipy_normal_tail():
    """exact = erfc(x / sqrt 2) agrees with 2 * norm.sf(x), x = 1/q'(l), to
    4 ulp over the whole range in scope: q'(l) >= 1 puts x in (0, 1]."""
    gamma = GaussianMeasure.from_form(GramForm(dim=1, gram=np.eye(1)))
    for x in np.linspace(0.0, 1.0, 20_001)[1:]:
        l = DualFunctional(dim=1, coeffs=np.array([1.0 / x]))
        rep = tail_lower_bound_check(gamma, l)
        want = 2.0 * stats.norm.sf(1.0 / rep.dual_norm_value)
        assert abs(rep.exact - want) <= 4 * np.spacing(want), x


def test_tail_report_encodes_infinite_dual_norm():
    """A functional off range(q) has dual norm INFINITE (reachable on the
    quotient measure); the report carries it as the string "infinite"."""
    gamma = GaussianMeasure.from_form(GramForm(dim=2, gram=np.diag([1.0, 0.0])), quotient=True)
    rep = tail_lower_bound_check(gamma, DualFunctional(dim=2, coeffs=np.array([0.0, 1.0])))
    assert is_infinite(rep.dual_norm_value)
    assert rep.exact == 1.0 and rep.ok

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    data = json.loads(json.dumps(rep.to_jsonable()), parse_constant=reject)
    assert data["dual_norm"] == "infinite"


def test_tail_lower_bound_monotone_in_dual_norm():
    q = GramForm(dim=1, gram=np.eye(1))
    gamma = GaussianMeasure.from_form(q)
    exacts = []
    for c in (1.0, 2.0, 5.0):
        l = DualFunctional(dim=1, coeffs=np.array([c]))
        rep = tail_lower_bound_check(gamma, l)
        assert rep.ok
        exacts.append(rep.exact)
    assert exacts == sorted(exacts)


def test_tail_lower_bound_out_of_scope_below_one():
    q = GramForm(dim=1, gram=np.eye(1))
    gamma = GaussianMeasure.from_form(q)
    with pytest.raises(NotInScope):
        tail_lower_bound_check(gamma, DualFunctional(dim=1, coeffs=np.array([0.5])))


def test_chebyshev_outside_ball():
    q = GramForm(dim=2, gram=np.eye(2))
    gamma = GaussianMeasure.from_form(q)
    p = GramForm(dim=2, gram=np.eye(2))
    rep = chebyshev_outside_ball(gamma, p, delta=3.0, cfg=McConfig(seed=2, samples=100_000))
    assert rep.bound == pytest.approx(2.0 / 9.0)
    # true mass P(chi2_2 > 9) = exp(-4.5)
    assert rep.estimate == pytest.approx(np.exp(-4.5), abs=5e-3)
    assert rep.certified


def _whole_block_means(gamma, cfg, per_sample_fns):
    """Reference: each estimator on its own pass, each block drawn whole."""
    means = []
    for fn in per_sample_fns:
        total = 0.0
        total_sq = 0.0
        n = 0
        for b, count in enumerate(cfg.block_counts()):
            if count == 0:
                continue
            z = _block_rng(cfg.seed, b).standard_normal((count, gamma.rank))
            vals = np.asarray(fn(z), dtype=float)
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
            n += count
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
        means.append((mean, float(np.sqrt(var / n))))
    return means


def test_chunk_rows_scale_with_rank():
    """Up to rank 6 a chunk has _CHUNK rows; above, the largest power of two
    with rows * rank^2 within that of rank 6."""
    assert [_chunk_rows(r) for r in (1, 2, 6, 7, 12, 24, 1000)] == [
        _CHUNK, _CHUNK, _CHUNK, _CHUNK // 2, _CHUNK // 4, _CHUNK // 16, 1
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("streams", [1, 3, 4, 7])
def test_chunked_pooled_pass_keeps_whole_block_bits(monkeypatch, streams, workers):
    """The streaming kernel (chunked draws, one pass for several estimators,
    blocks on a thread pool) gives the bits of whole-block draws, one pass
    per estimator, on one thread, for every block layout: partial chunks,
    several chunks, and empty blocks (samples < streams); at rank 3 with
    _CHUNK rows and at rank 12 with a quarter of that."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    pools = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    rng = np.random.default_rng(11)
    for rank in (3, 12):
        m = rng.standard_normal((rank, rank))
        gamma = GaussianMeasure.from_form(GramForm(dim=rank, gram=m @ m.T + np.eye(rank)))
        u = rng.standard_normal(rank)
        a = m.T @ m
        fns = [
            lambda z: (z @ u) ** 2,
            lambda z: (np.einsum("ij,jk,ik->i", z, a, z) > 2.0 * rank / 3).astype(float),
            lambda z: np.einsum("ij,ij->i", z @ a, z),
        ]
        rows = _chunk_rows(rank)
        for samples in (1, 10, rows - 1, rows + 1, 3 * rows + 5):
            cfg = McConfig(seed=5, samples=samples, streams=streams)
            pools.clear()
            assert _mc_means(gamma, cfg, fns) == _whole_block_means(gamma, cfg, fns), (rank, samples)
            busy = min(samples, streams)  # non-empty blocks
            assert pools == ([2] if workers == 2 and busy >= 2 else []), (rank, samples)


def test_one_pass_equals_separate_checks():
    """The gaussian kind's one pass over the samples reports what separate
    second_moment_check and chebyshev_outside_ball calls report with the
    same McConfig: on the bundled fixture (one stream, no pool) and with
    four streams (a pool of up to four workers)."""
    config = json.loads(
        resources.files("momentkit").joinpath("fixtures", "gaussian.json").read_text()
    )
    params = config["parameters"]
    _, results, _, seed = run_config(config)
    q = GramForm(dim=2, gram=np.array(params["q"], dtype=float))
    p = GramForm(dim=2, gram=np.array(params["p"], dtype=float))
    gamma = GaussianMeasure.from_form(q)
    w = gamma.whitening[:, 0]
    for cfg in (
        McConfig(seed=seed, samples=params["samples"]),
        McConfig(seed=3, samples=50_001, streams=4),
    ):
        second = second_moment_check(gamma, w, cfg).to_jsonable()
        cheb = chebyshev_outside_ball(gamma, p, params["delta"], cfg).to_jsonable()
        fused = _mc_checks(gamma, w, cfg, p, params["delta"])
        assert [r.to_jsonable() for r in fused] == [second, cheb]
        alone, none = _mc_checks(gamma, w, cfg)
        assert alone.to_jsonable() == second and none is None
        if cfg.streams == 1:
            assert results["second_moment"] == second
            assert results["chebyshev_outside_ball"] == cheb


def test_block_sums_hold_one_block_array_per_estimator():
    """A block keeps one float64 array of values per estimator, squared in
    place for the sum of squares, plus chunk-sized buffers: (v * v).sum()
    would hold a third whole-block array here."""
    gamma = GaussianMeasure.from_form(GramForm(dim=1, gram=np.array([[2.0]])))
    fns = [lambda z: z[:, 0], lambda z: z[:, 0]]  # views: no per-chunk arrays
    count = 3 * _CHUNK + 5
    chunk_buffer = _CHUNK * gamma.rank * 8
    _block_sums(gamma, 0, 0, 1, fns)  # one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sums = _block_sums(gamma, 0, 0, count, fns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sums[0] == sums[1]
    block_arrays = len(fns) * count * 8
    assert block_arrays <= peak <= block_arrays + 2 * chunk_buffer, peak


def _six_dim_pair(seed):
    rng = np.random.default_rng(seed)
    m, k = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
    q = GramForm(dim=6, gram=m @ m.T + np.eye(6))
    p = GramForm(dim=6, gram=k @ k.T + 0.1 * np.eye(6))
    return q, p


def test_chebyshev_indicator_counts_the_three_operand_form():
    """The Chebyshev indicator (the row dot of z @ a with z) counts the same
    samples as the three-operand einsum z_i a z_i, on seeded 6-d draws with
    several blocks of several chunks, and its estimate is that count over
    the samples."""
    q, p = _six_dim_pair(21)
    gamma = GaussianMeasure.from_form(q)
    a = gamma.whitening.T @ p.gram @ gamma.whitening
    delta = float(np.sqrt(np.trace(a)))  # p(v)^2 > E p(v)^2: a mass well inside (0, 1)
    cfg = McConfig(seed=7, samples=7 * _CHUNK + 3, streams=3)
    indicator, _ = _chebyshev_estimator(gamma, p, delta, cfg)
    outside = 0
    for b, count in enumerate(cfg.block_counts()):
        z = _block_rng(cfg.seed, b).standard_normal((count, gamma.rank))
        reference = np.einsum("ij,jk,ik->i", z, a, z) > delta**2
        assert 0 < reference.sum() < count
        assert np.array_equal(indicator(z), reference.astype(float)), b
        outside += int(reference.sum())
    assert chebyshev_outside_ball(gamma, p, delta, cfg).estimate == outside / cfg.samples


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    """A 4-stream gaussian report (both Monte Carlo checks) has the same
    bytes in this process and in one whose BLAS runs on one thread."""
    q, p = _six_dim_pair(5)
    config = {
        "kind": "gaussian",
        "seed": 9,
        "parameters": {
            "q": q.gram.tolist(),
            "p": p.gram.tolist(),
            "delta": float(np.sqrt(np.trace(p.gram))),
            "samples": 4 * 3 * _CHUNK + 7,
            "streams": 4,
        },
    }
    cfg = tmp_path / "gaussian6.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path / "here")]) == 0
    src = str(Path(momentkit.__file__).resolve().parents[1])
    one_thread = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-m", "momentkit.cli", "run", str(cfg), "--out", str(tmp_path / "one")],
        capture_output=True,
        text=True,
        env=dict(
            os.environ,
            **one_thread,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        ),
    )
    assert proc.returncode == 0, proc.stderr
    name = "gaussian6.report.json"
    assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_mc_config_caps():
    """McConfig refuses more than STREAMS_CAP streams and blocks of more than
    BLOCK_SAMPLES_CAP samples, before any array is allocated."""
    McConfig(seed=0, samples=4 * BLOCK_SAMPLES_CAP, streams=4)
    McConfig(seed=0, samples=1, streams=STREAMS_CAP)
    for samples, streams in ((4 * BLOCK_SAMPLES_CAP + 1, 4), (10**12, 1), (1, STREAMS_CAP + 1)):
        with pytest.raises(InvalidInput):
            McConfig(seed=0, samples=samples, streams=streams)


def test_chebyshev_requires_kernel_containment():
    q = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    gamma = GaussianMeasure.from_form(q, quotient=True)
    p = GramForm(dim=2, gram=np.eye(2))
    with pytest.raises(KernelNotContained):
        chebyshev_outside_ball(gamma, p, delta=1.0, cfg=McConfig(seed=0, samples=10))


def test_fundamental_lemma_spec_example():
    """mu = half delta_{0.5} + half delta_3 on functionals over R^1 with
    p = q = |.|, delta = 0.1: sup over the delta-ball is 0.04625."""
    mu = DiscreteMeasure(
        dim=1, atoms=np.array([[0.5], [3.0]]), weights=np.array([0.5, 0.5])
    )
    p = GramForm(dim=1, gram=np.eye(1))
    q = GramForm(dim=1, gram=np.eye(1))
    rep = fundamental_lemma_check(mu, p, q, epsilon=0.05, delta=0.1)
    assert rep.sup_quadratic == pytest.approx(0.04625, abs=1e-12)
    assert rep.hypothesis_certified
    # only the atom at 0.5 lies in the unit dual ball of q
    assert rep.mass_in_unit_dual_ball == pytest.approx(0.5)
    assert rep.conclusion_ok


def test_fundamental_lemma_uncertified_branch():
    mu = DiscreteMeasure(
        dim=1, atoms=np.array([[0.5], [3.0]]), weights=np.array([0.5, 0.5])
    )
    p = GramForm(dim=1, gram=np.eye(1))
    q = GramForm(dim=1, gram=np.eye(1))
    rep = fundamental_lemma_check(mu, p, q, epsilon=0.01, delta=0.1)
    assert not rep.hypothesis_certified
    assert rep.conclusion_ok is None


def test_fundamental_lemma_mass_bound_random():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 25:
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        p = GramForm(dim=n, gram=a @ a.T + 0.3 * np.eye(n))
        b = rng.standard_normal((n, n))
        q = GramForm(dim=n, gram=b @ b.T + 0.3 * np.eye(n))
        k = int(rng.integers(1, 6))
        atoms = rng.uniform(-1.5, 1.5, size=(k, n))
        w = rng.uniform(0.2, 1.0, k)
        mu = DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())
        delta = float(rng.uniform(0.2, 1.0))
        # pick epsilon at the certificate threshold so the hypothesis holds
        probe = fundamental_lemma_check(mu, p, q, epsilon=np.inf, delta=delta)
        eps = probe.sup_quadratic * 1.01 + 1e-12
        rep = fundamental_lemma_check(mu, p, q, epsilon=eps, delta=delta)
        assert rep.hypothesis_certified
        assert rep.conclusion_ok
        assert rep.mass_in_unit_dual_ball >= rep.bound - 1e-12
        checked += 1
