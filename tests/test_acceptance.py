"""Acceptance gate: thirteen desk-scale criteria with exact constants.

Each test prints one summary line (visible with -s or on failure); the
pytest verbose output gives the per-criterion pass/fail status.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from momentkit import (
    AlgebraElement,
    DiscreteMeasure,
    DualFunctional,
    GaussianMeasure,
    GramForm,
    McConfig,
    MeasureFamily,
    QuadraticModuleSpec,
    TraceMethod,
    WeightSequence,
    character_norm_bound,
    concentration_check,
    concentration_equivalence_check,
    construct_q,
    fundamental_lemma_check,
    from_measure,
    graded_norm,
    gram_schmidt,
    is_infinite,
    multiply,
    p_tilde,
    prokhorov_mass_check,
    second_moment_check,
    solve_multivariate,
    solve_univariate,
    square_constant,
    tail_lower_bound_check,
    tilde_trace_identity,
    trace,
    trace_restriction_check,
    trace_scaling_check,
    trace_value,
    verify_main_theorem_scenario,
)
from momentkit.errors import RankNotFlat
from momentkit.moments import (
    CarlemanVerdict,
    carleman_from_log_moments,
    log_even_moments_from_measure,
    log_gaussian_even_moments,
    log_squared_exponential_moments,
    monomials_up_to,
)
from momentkit.symalg import GradedSeminormTower, slice_monomials
from momentkit.traces import _LAW_SLACK, whitening_system


def rand_pd(rng, n, floor=0.1):
    a = rng.standard_normal((n, n))
    return GramForm(dim=n, gram=a @ a.T + floor * np.eye(n))


def rand_measure(rng, n, max_atoms, spread=1.5):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(-spread, spread, size=(k, n))
    w = rng.uniform(0.1, 1.0, k)
    return DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())


def test_criterion_01_trace_equivalence():
    """200 random PSD pairs (n <= 50): two trace methods within 1e-10
    relative; restriction monotonicity and the (eps/delta)^2 scaling law
    within 1e-9; all inside 30 s."""
    assert _LAW_SLACK == 1e-9  # the tolerance both law checks apply
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 51))
        q = rand_pd(rng, n)
        if i % 3 == 0 and n >= 2:
            # degenerate p (and occasionally a kernel-respecting pair)
            c = rng.standard_normal((n, n))
            p = GramForm(dim=n, gram=q.gram @ (c @ c.T) @ q.gram)
        else:
            p = rand_pd(rng, n)
        t_sum = trace(p, q, method=TraceMethod.ORTHONORMAL_SUM).value
        t_op = trace(p, q, method=TraceMethod.OPERATOR_TRACE).value
        assert is_infinite(t_sum) == is_infinite(t_op)
        if not is_infinite(t_sum):
            rel = abs(t_sum - t_op) / max(abs(t_sum), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-10
            k = int(rng.integers(1, n + 1))
            sub = [rng.standard_normal(n) for _ in range(k)]
            assert trace_restriction_check(p, q, sub)
            eps, delta = rng.uniform(0.5, 2.0, 2)
            assert trace_scaling_check(p, q, eps, delta)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 01 PASS: 200 pairs, worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gaussian_second_moment():
    """50 random (q, w) with n <= 10: the exact second moment is 1 and the
    10^6-sample MC estimate certifies within 4 standard errors; under 2 min."""
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    worst_dev = 0.0
    for i in range(50):
        n = int(rng.integers(1, 11))
        q = rand_pd(rng, n)
        gamma = GaussianMeasure.from_form(q)
        w = rng.standard_normal(n)
        rep = second_moment_check(
            gamma, w, McConfig(seed=2000 + i, samples=1_000_000)
        )
        assert rep.bound == 1.0
        assert rep.certified, f"rep {i}: est {rep.estimate} stderr {rep.stderr}"
        worst_dev = max(worst_dev, abs(rep.estimate - 1.0) / rep.stderr)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 02 PASS: 50 runs, worst |est-1|/stderr {worst_dev:.2f}, {elapsed:.1f}s")


def test_criterion_03_gaussian_tail_lower_bound():
    """Exact tail 2(1 - Phi(1/q'(l))) >= 1/7 whenever q'(l) >= 1; the
    boundary q'(l) = 1 evaluates to 0.317310508 within 1e-9."""
    rng = np.random.default_rng(303)
    q = GramForm(dim=3, gram=np.eye(3))
    gamma = GaussianMeasure.from_form(q)
    boundary = tail_lower_bound_check(
        gamma, DualFunctional(dim=3, coeffs=np.array([1.0, 0.0, 0.0]))
    )
    assert boundary.exact == pytest.approx(0.317310508, abs=1e-9)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 6))
        qn = rand_pd(rng, n)
        gn = GaussianMeasure.from_form(qn)
        l = DualFunctional(dim=n, coeffs=rng.standard_normal(n) * rng.uniform(1, 5))
        from momentkit import dual_norm

        if dual_norm(qn, l) < 1.0:
            continue
        rep = tail_lower_bound_check(gn, l)
        assert rep.exact >= 1.0 / 7.0
        assert rep.ok
        checked += 1
    print("criterion 03 PASS: boundary 0.317310508 and 100 probes >= 1/7")


def test_criterion_04_fundamental_lemma_mass_bound():
    """100 certified scenarios: exact dual-ball mass >= 1 - 7(eps +
    tr(p/q)/delta^2) in every case, and tr(p / delta r_eps) = eps exactly."""
    rng = np.random.default_rng(404)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 5))
        p = rand_pd(rng, n)
        q = rand_pd(rng, n)
        mu = rand_measure(rng, n, 6)
        delta = float(rng.uniform(0.2, 1.2))
        probe = fundamental_lemma_check(mu, p, q, epsilon=np.inf, delta=delta)
        eps = float(probe.sup_quadratic) * (1.0 + rng.uniform(0.0, 0.5)) + 1e-12
        rep = fundamental_lemma_check(mu, p, q, epsilon=eps, delta=delta)
        assert rep.hypothesis_certified
        assert rep.conclusion_ok
        assert rep.mass_in_unit_dual_ball >= rep.bound - 1e-12
        # internal identity: r_eps = q sqrt(tr)/(delta sqrt(eps))
        tr = trace_value(p, q)
        scale = (delta * np.sqrt(tr) / (delta * np.sqrt(eps))) ** 2
        scaled_q = GramForm(dim=n, gram=scale * np.asarray(q.gram))
        assert trace_value(p, scaled_q) == pytest.approx(eps, rel=1e-10)
        done += 1
    print("criterion 04 PASS: 100 scenarios, mass bound and trace identity exact")


def test_criterion_05_prokhorov_mass_and_nesting():
    """Certified scenarios: exact nu_S(K^(S)) >= 1 - 14 eps for every S and
    projected K^(T) atoms pass the K^(S) membership test."""
    rng = np.random.default_rng(505)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 5))
        p = rand_pd(rng, n)
        q = rand_pd(rng, n)
        nu = rand_measure(rng, n, 6)
        fam = MeasureFamily.from_global(nu)
        delta = float(rng.uniform(0.2, 0.8))
        probe = concentration_check(fam, p, np.inf, delta)
        eps = probe.details["worst_sup"] * 1.05 + 1e-12
        if eps >= 1.0:
            continue
        rep = prokhorov_mass_check(fam, p, q, epsilon=eps, delta=delta)
        assert rep.mass_ok
        assert rep.nesting_ok
        assert all(m >= 1 - 14 * eps - 1e-12 for m in rep.masses.values())
        done += 1
    print("criterion 05 PASS: 50 certified scenarios, masses and nesting exact")


def test_criterion_06_concentration_equivalence():
    """50 random families (n <= 4, <= 8 atoms): eps-delta certification
    implies the eps-gamma form at gamma = 1/(delta/2), and conversely."""
    rng = np.random.default_rng(606)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 5))
        p = rand_pd(rng, n)
        nu = rand_measure(rng, n, 8)
        fam = MeasureFamily.from_global(nu)
        delta = float(rng.uniform(0.2, 1.0))
        probe = concentration_check(fam, p, np.inf, delta)
        eps = probe.details["worst_sup"] * 1.05 + 1e-12
        ok = concentration_equivalence_check(
            fam, p, [(eps, delta)]
        )
        assert ok
        done += 1
    print("criterion 06 PASS: 50 families, both equivalence directions")


def test_criterion_07_sufficient_condition():
    """Whenever the degree-1 second-moment matrix is dominated by C G_p, the
    pair (eps, sqrt(eps/C)) certifies for every grid eps: 100/100."""
    rng = np.random.default_rng(707)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        p = rand_pd(rng, n)
        nu = rand_measure(rng, n, 6)
        fam = MeasureFamily.from_global(nu)
        m = sum(
            w * np.outer(a, a) for a, w in zip(nu.atoms, nu.weights)
        )
        wmat = whitening_system(p).matrix
        c = float(np.linalg.eigvalsh(wmat.T @ m @ wmat)[-1])
        if c <= 0:
            c = 1e-12
        for eps in (0.01, 0.1, 0.5):
            rep = concentration_check(fam, p, eps, float(np.sqrt(eps / c)))
            assert rep.certified, f"trial {trial} eps {eps}"
    print("criterion 07 PASS: 100 scenarios x 3 grid points certified")


def test_criterion_08_weighted_q_construction():
    """50 random (E, lambda) with N <= 30: tr(p/q) = sum lambda_n^2 within
    1e-10 and the rescaled system is q-orthonormal with Gram error < 1e-10."""
    rng = np.random.default_rng(808)
    for _ in range(50):
        n = int(rng.integers(1, 31))
        p = rand_pd(rng, n)
        basis = [rng.standard_normal(n) for _ in range(n)]
        e_sys = gram_schmidt(p, basis)
        if len(e_sys) != n:
            e_sys = whitening_system(p)
        lam = WeightSequence(values=tuple(rng.uniform(0.2, 2.0, n)))
        rec = construct_q(p, e_sys, lam, tol=1e-10)
        assert rec.ok
        assert rec.trace == pytest.approx(lam.sum_squares, rel=1e-10)
        assert rec.gram_error < 1e-10
    print("criterion 08 PASS: 50 constructions, trace and Gram certified")


def test_criterion_09_tilde_trace_identity():
    """Weighted tower traces: formula path equals the direct orthonormal-sum
    path within 1e-8 relative for n <= 3, D <= 4."""
    rng = np.random.default_rng(909)
    count = 0
    for n in (1, 2, 3):
        for d_max in (1, 2, 3, 4):
            for _ in range(3):
                pairs = []
                for _ in range(d_max):
                    a = rng.standard_normal((n, n))
                    b = rng.standard_normal((n, n))
                    pairs.append(
                        (
                            GramForm(dim=n, gram=a @ a.T),
                            GramForm(dim=n, gram=b @ b.T + 0.3 * np.eye(n)),
                        )
                    )
                tower = GradedSeminormTower(
                    dim=n,
                    max_degree=d_max,
                    base_forms=tuple(pairs),
                    lam=tuple(rng.uniform(0.5, 2.0, d_max + 1)),
                    eta=tuple(rng.uniform(0.5, 2.0, d_max + 1)),
                    constants=tuple(rng.uniform(0.5, 3.0, d_max)),
                )
                rep = tilde_trace_identity(tower, rel_tol=1e-8)
                assert rep.agree, f"n={n} D={d_max}: {rep.rel_error:.2e}"
                count += 1
    print(f"criterion 09 PASS: {count} towers, both paths within 1e-8")


def test_criterion_10_character_and_weighted_norm_bounds():
    """500 random probes with zero violations: (a) the multiplicative
    character bound |alpha_l(a_d)| <= (r'(l) tr(r/s))^d s~(a_d) in the
    tr >= 1 regime; (b) the chain |L(a)|^2 <= L(a^2) <=
    (sum lambda_d^-2) p~(a)^2 with certified square constants."""
    rng = np.random.default_rng(1010)
    violations = 0
    # (a) 250 character probes
    for _ in range(250):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        r = rand_pd(rng, n)
        s_gram = rand_pd(rng, n).gram
        tr = trace_value(r, GramForm(dim=n, gram=s_gram))
        if tr < 1.0:
            s_gram = np.asarray(s_gram) * tr
        s = GramForm(dim=n, gram=s_gram)
        l = DualFunctional(dim=n, coeffs=rng.standard_normal(n))
        a = AlgebraElement(
            n, d, {alpha: float(rng.standard_normal()) for alpha in slice_monomials(n, d)}
        )
        if not character_norm_bound(l, r, s, d, a)["ok"]:
            violations += 1
    # (b) 250 weighted-norm chain probes
    d_top = 2
    for _ in range(250):
        n = int(rng.integers(1, 4))
        nu = rand_measure(rng, n, 5)
        L = from_measure(nu, 4 * d_top)
        p = rand_pd(rng, n)
        consts = []
        for d in range(1, d_top + 1):
            c = square_constant(L, p, d)
            assert not is_infinite(c)
            consts.append(max(float(c), 1e-12))
        lam = tuple(rng.uniform(0.5, 2.0, d_top + 1))
        tower = GradedSeminormTower(
            dim=n,
            max_degree=d_top,
            base_forms=tuple((p, p) for _ in range(d_top)),
            lam=lam,
            eta=(1.0,) * (d_top + 1),
            constants=tuple(consts),
        )
        terms = {
            alpha: float(rng.standard_normal())
            for dd in range(0, d_top + 1)
            for alpha in slice_monomials(n, dd)
        }
        a = AlgebraElement(n, 2 * d_top, terms)
        la = L(a)
        la2 = L(multiply(a, a))
        pt = p_tilde(tower, a)
        cap = tower.lambda_inverse_square_sum * pt**2
        scale = max(1.0, abs(la2), cap)
        if not (la**2 <= la2 + 1e-9 * scale and la2 <= cap + 1e-9 * scale):
            violations += 1
    assert violations == 0
    print("criterion 10 PASS: 500 probes, zero violations")


def _match_atoms(got, want):
    """Greedy nearest matching; valid when separation >> recovery error."""
    got = list(map(np.asarray, got))
    err = 0.0
    for atom in want:
        dists = [np.linalg.norm(atom - g) for g in got]
        j = int(np.argmin(dists))
        err = max(err, dists[j])
        got.pop(j)
    return err


def test_criterion_11_solver_round_trip():
    """Random atomic measures (<= 6 atoms, n <= 3, separation >= 0.1):
    atoms recovered within 1e-7 and all moments within 1e-8; the three
    univariate fixtures match their closed-form oracles to 1e-10."""
    # fixtures
    res = solve_univariate([1.0, 0.0, 1.0, 0.0, 1.0])
    assert _match_atoms(res.measure.atoms, [[-1.0], [1.0]]) < 1e-10
    assert np.allclose(sorted(res.measure.weights), [0.5, 0.5], atol=1e-10)
    res = solve_univariate([1.0, 0.0, 1.0, 0.0, 3.0, 0.0])
    s3 = np.sqrt(3.0)
    assert _match_atoms(res.measure.atoms, [[-s3], [0.0], [s3]]) < 1e-10
    assert np.allclose(
        sorted(res.measure.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-10
    )
    c = -0.8
    res = solve_univariate([1.0, c, c**2, c**3, c**4])
    assert _match_atoms(res.measure.atoms, [[c]]) < 1e-10
    assert res.measure.weights == pytest.approx([1.0], abs=1e-10)

    rng = np.random.default_rng(1111)
    done = 0
    attempts = 0
    while done < 30 and attempts < 500:
        attempts += 1
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        atoms = rng.uniform(-1.5, 1.5, size=(k, n))
        if any(
            np.linalg.norm(atoms[i] - atoms[j]) < 0.1
            for i in range(k)
            for j in range(i + 1, k)
        ):
            continue
        w = rng.uniform(0.1, 1.0, k)
        nu = DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())
        d = 1
        while len(monomials_up_to(n, d - 1)) < k:
            d += 1
        L = from_measure(nu, 2 * d)
        try:
            res = solve_multivariate(L, d)
        except RankNotFlat:
            continue
        assert _match_atoms(res.measure.atoms, atoms) < 1e-7
        assert res.residual < 1e-8
        back = from_measure(res.measure, 2 * d)
        for alpha in monomials_up_to(n, 2 * d):
            assert abs(back.moment(alpha) - L.moment(alpha)) < 1e-8
        done += 1
    assert done == 30
    print(f"criterion 11 PASS: fixtures exact, {done} round-trips clean")


def test_criterion_12_carleman_diagnostics():
    """Gaussian and compact-support moment sequences diagnose divergent
    (quasi-analytic) growth; exp(2 n^2) diagnoses convergent with tail
    1/(e-1) within 1e-9; 200 terms in under 5 s."""
    t0 = time.monotonic()
    diag = carleman_from_log_moments(log_gaussian_even_moments(200))
    assert diag.verdict is CarlemanVerdict.DIVERGENT_LIKELY
    nu = DiscreteMeasure(
        dim=1, atoms=np.array([[-1.0], [2.0]]), weights=np.array([0.5, 0.5])
    )
    diag = carleman_from_log_moments(
        log_even_moments_from_measure(nu, np.array([1.0]), 200)
    )
    assert diag.verdict is CarlemanVerdict.DIVERGENT_LIKELY
    diag = carleman_from_log_moments(log_squared_exponential_moments(200))
    assert diag.verdict is CarlemanVerdict.CONVERGENT_LIKELY
    assert diag.tail_sum_estimate == pytest.approx(
        1.0 / (np.e - 1.0), abs=1e-9
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 12 PASS: verdicts and tail sum, {elapsed:.2f}s")


def test_criterion_13_end_to_end_scenario(tmp_path):
    """Bundled two-atom fixture: all nine stages pass, tr(s_L|V/q) = 3 within
    1e-12, and two CLI runs with the same seed emit byte-identical reports."""
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
    )
    g = AlgebraElement(2, 4, {(0, 0): 9.0, (2, 0): -1.0, (0, 2): -1.0})
    report = verify_main_theorem_scenario(
        nu,
        GramForm(dim=2, gram=np.eye(2)),
        QuadraticModuleSpec(generators=(g,)),
        degrees=4,
        eps_grid=[0.04, 0.25],
    )
    assert report.overall_pass
    assert len(report.stages) == 9
    assert all(s.status == "pass" for s in report.stages)
    assert report.stages[2].data["trace"] == pytest.approx(3.0, abs=1e-12)

    from importlib import resources

    from momentkit.cli import main as cli_main

    fixture = str(
        resources.files("momentkit").joinpath("fixtures", "main_theorem.json")
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", fixture, "--out", str(out_a)]) == 0
    assert cli_main(["run", fixture, "--out", str(out_b)]) == 0
    ra = (out_a / "main_theorem.report.json").read_bytes()
    rb = (out_b / "main_theorem.report.json").read_bytes()
    assert ra == rb
    parsed = json.loads(ra)
    assert parsed["passed"] is True
    print("criterion 13 PASS: nine stages, trace 3, byte-identical reports")
