"""Marginal families, concentration certificates, Prokhorov mass bounds,
and the end-to-end scenario pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from momentkit import (
    AlgebraElement,
    DiscreteMeasure,
    GramForm,
    MeasureFamily,
    QuadraticModuleSpec,
    SubalgebraIndex,
    concentration_check,
    concentration_equivalence_check,
    consistency_check,
    dual_norm,
    full_lattice,
    fundamental_lemma_check,
    is_infinite,
    prokhorov_mass_check,
    pushforward,
    reverse_seminorm_construction,
    trace_value,
    verify_main_theorem_scenario,
)
from momentkit.concentration import (
    CONSISTENCY_ABS,
    _dual_balls,
    _index_spectra,
    exact_tail,
)
from momentkit.errors import (
    DimensionMismatch,
    HypothesisNotCertified,
    InvalidInput,
    KernelIssue,
    NotInScope,
    NotPSD,
    NotSubset,
)
from momentkit.forms import (
    PSD_TOL,
    DualFunctional,
    _in_unit_dual_ball,
    _in_unit_dual_balls,
    evaluate,
    principal_restrictions,
)
from momentkit.moments import monomials_up_to


def two_atom():
    return DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
    )


def test_subalgebra_index_ordering():
    s = SubalgebraIndex(coords=(0,))
    t = SubalgebraIndex(coords=(0, 1))
    assert s.is_subset(t)
    assert not t.is_subset(s)
    assert s.positions_in(t) == [0]
    with pytest.raises(NotSubset):
        t.positions_in(s)


def test_full_lattice_size_and_cap():
    assert len(full_lattice(3)) == 7
    with pytest.raises(NotInScope):
        full_lattice(13)


def test_nested_checks_cap_the_distinct_coordinates():
    """The nested checks sweep the lattice of the family's distinct
    coordinates, which need not be 0..n-1, up to the lattice cap; an empty
    family is consistent and nested."""
    point = DiscreteMeasure(dim=1, atoms=np.zeros((1, 1)), weights=np.ones(1))
    for top, want in (([0.0, 7.0], True), ([1e-6, 7.0], False)):
        assert consistency_check(_point_family(top, (3, 40), 0.0)) == want
    one = GramForm(dim=1, gram=np.eye(1))
    assert consistency_check(MeasureFamily(entries={}))
    assert prokhorov_mass_check(MeasureFamily(entries={}), one, one, 0.05, 0.5).nesting_ok
    wide = MeasureFamily(entries={SubalgebraIndex(coords=(i,)): point for i in range(13)})
    with pytest.raises(NotInScope):
        consistency_check(wide)
    eye = GramForm(dim=13, gram=np.eye(13))
    with pytest.raises(NotInScope):
        prokhorov_mass_check(wide, eye, eye, 0.05, 0.5, require_certificate=False)


def test_pushforward_projection_and_merge():
    nu = two_atom()
    s = SubalgebraIndex(coords=(0,))
    t = SubalgebraIndex(coords=(0, 1))
    proj = pushforward(nu, s, t)
    assert sorted(proj.atoms.ravel().tolist()) == [-1.0, 1.0]
    # equal projections merge by weight addition
    nu2 = DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 2.0], [1.0, 3.0]]),
        weights=np.array([0.5, 0.5]),
    )
    merged = pushforward(nu2, s, t)
    assert merged.atoms.shape == (1, 1)
    assert merged.weights[0] == pytest.approx(1.0)


def test_family_from_global_consistent():
    fam = MeasureFamily.from_global(two_atom())
    assert len(fam.indices()) == 3
    assert consistency_check(fam)


def test_consistency_detects_perturbation():
    fam = MeasureFamily.from_global(two_atom())
    s = SubalgebraIndex(coords=(0,))
    bad = dict(fam.entries)
    nu = bad[s]
    bad[s] = DiscreteMeasure(
        dim=1, atoms=nu.atoms, weights=np.array([0.5 + 1e-3, 0.5 - 1e-3])
    )
    assert not consistency_check(MeasureFamily(entries=bad))


def test_exact_tail_weight_sums():
    nu = two_atom()
    # functional a = (1, 0): values 1 and -1, |.| >= 1 both -> tail 1
    assert exact_tail(nu, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert exact_tail(nu, np.array([0.4, 0.0])) == pytest.approx(0.0)
    assert exact_tail(nu, np.array([0.0, 0.5])) == pytest.approx(0.5)


def test_concentration_certificate_exact_threshold():
    """p equal to the global second-moment form: the whitened eigenvalue is
    exactly 1, so the certificate at epsilon = delta^2 needs the equality
    slack."""
    fam = MeasureFamily.from_global(two_atom())
    p = GramForm(dim=2, gram=np.array([[1.0, 1.0], [1.0, 2.0]]))
    rep = concentration_check(fam, p, epsilon=0.04, delta=0.2)
    assert rep.certified
    assert rep.details["worst_sup"] == pytest.approx(0.04, rel=1e-12)
    tight = concentration_check(fam, p, epsilon=0.0399, delta=0.2)
    assert not tight.certified


def test_concentration_delta_origin_always_certified():
    nu = DiscreteMeasure(
        dim=2, atoms=np.zeros((1, 2)), weights=np.array([1.0])
    )
    fam = MeasureFamily.from_global(nu)
    p = GramForm(dim=2, gram=np.eye(2))
    for eps, delta in [(1e-6, 1e-3), (0.5, 10.0)]:
        assert concentration_check(fam, p, eps, delta).certified


def test_concentration_kernel_escape_raises():
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[0.0, 5.0], [0.0, -5.0]]),
        weights=np.array([0.5, 0.5]),
    )
    fam = MeasureFamily.from_global(nu)
    p = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    with pytest.raises(KernelIssue):
        concentration_check(fam, p, epsilon=0.1, delta=0.1)


def test_concentration_equivalence_modes():
    fam = MeasureFamily.from_global(two_atom())
    p = GramForm(dim=2, gram=np.array([[1.0, 1.0], [1.0, 2.0]]))
    grid = [(0.04, 0.2), (0.25, 0.5)]
    assert concentration_equivalence_check(fam, p, grid)
    assert concentration_equivalence_check(fam, p, [])  # vacuous


def test_equivalence_kernel_branch():
    """An atom family supported where p vanishes: nu(|alpha(a)| = 0) = 1 for
    p-null directions a, the branch the proposition handles separately."""
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[2.0, 0.0], [-2.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
    )
    fam = MeasureFamily.from_global(nu)
    p = GramForm(dim=2, gram=np.diag([4.0, 1.0]))
    # atoms vanish on coordinate 2; p has no kernel so nothing leaks
    assert concentration_equivalence_check(fam, p, [(0.5, 0.3)])
    # p vanishes on coordinate 2 (p|_{1} = 0), where the atoms do too
    assert concentration_equivalence_check(fam, GramForm(dim=2, gram=np.diag([4.0, 0.0])), [(0.5, 0.3)])


def test_prokhorov_mass_and_nesting():
    fam = MeasureFamily.from_global(two_atom())
    p = GramForm(dim=2, gram=np.array([[1.0, 1.0], [1.0, 2.0]]))
    q = GramForm(dim=2, gram=np.eye(2))
    rep = prokhorov_mass_check(fam, p, q, epsilon=0.04, delta=0.2)
    assert rep.mass_ok
    assert all(m >= 1 - 14 * 0.04 - 1e-12 for m in rep.masses.values())
    assert rep.nesting_ok
    assert rep.trace_identity_ok


def test_prokhorov_requires_certificate():
    fam = MeasureFamily.from_global(two_atom())
    p = GramForm(dim=2, gram=np.array([[1.0, 1.0], [1.0, 2.0]]))
    q = GramForm(dim=2, gram=np.eye(2))
    with pytest.raises(HypothesisNotCertified):
        prokhorov_mass_check(fam, p, q, epsilon=0.001, delta=0.2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps", [3e-308, 2.2250738585072014e-308, 1e-320])
def test_prokhorov_rejects_a_scale_out_of_float_range(eps):
    """At delta = sqrt(eps), the identity's form (delta c)^2 q = (tr(p/q) / eps) q,
    or the sum GramForm symmetrizes it by, leaves float range for eps this
    small: a typed error without overflow warnings, not a NaN gram ("NotPSD:
    gram matrix is not symmetric") or a TypeError; 5e-308 still fits."""
    fam = MeasureFamily.from_global(two_atom())
    p = GramForm(dim=2, gram=np.array([[1.0, 1.0], [1.0, 2.0]]))
    q = GramForm(dim=2, gram=np.eye(2))
    with pytest.raises(InvalidInput):
        prokhorov_mass_check(fam, p, q, eps, float(np.sqrt(eps)), require_certificate=False)
    rep = prokhorov_mass_check(fam, p, q, 5e-308, float(np.sqrt(5e-308)), require_certificate=False)
    assert rep.trace_identity_ok


def test_prokhorov_zero_trace_keeps_only_the_origin():
    """tr(p/q) = 0 makes c = 0 and K^(S) = {0}: only atoms at the origin
    count, however small the others are."""
    nu = DiscreteMeasure(
        dim=2, atoms=np.array([[0.0, 0.0], [1e-12, 0.0]]), weights=np.array([0.75, 0.25])
    )
    zero, q = GramForm(dim=2, gram=np.zeros((2, 2))), GramForm(dim=2, gram=np.eye(2))
    rep = prokhorov_mass_check(MeasureFamily.from_global(nu), zero, q, 0.05, 0.5)
    assert rep.scale == 0.0
    assert rep.masses[SubalgebraIndex(coords=(0,))] == 0.75
    assert rep.masses[SubalgebraIndex(coords=(1,))] == 1.0
    assert rep.nesting_ok and rep.trace_identity_ok


def test_lattice_checks_reject_coordinates_past_the_form():
    """An index naming a coordinate the form does not have is a
    DimensionMismatch, not an IndexError from the principal gather."""
    one = GramForm(dim=1, gram=np.eye(1))
    point = DiscreteMeasure(dim=1, atoms=np.zeros((1, 1)), weights=np.ones(1))
    fam = MeasureFamily(entries={SubalgebraIndex(coords=(i,)): point for i in range(3)})
    with pytest.raises(DimensionMismatch):
        concentration_check(fam, one, 0.05, 0.5)
    with pytest.raises(DimensionMismatch):
        prokhorov_mass_check(fam, one, one, 0.05, 0.5, require_certificate=False)


def test_prokhorov_trace_identity_exact():
    """tr(p / delta r_eps) = eps exactly when tr(p/q) > 0."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        p = GramForm(dim=n, gram=a @ a.T + 0.2 * np.eye(n))
        b = rng.standard_normal((n, n))
        q = GramForm(dim=n, gram=b @ b.T + 0.2 * np.eye(n))
        eps = float(rng.uniform(0.01, 0.5))
        delta = float(rng.uniform(0.1, 1.0))
        tr = trace_value(p, q)
        c = np.sqrt(tr) / (delta * np.sqrt(eps))
        scaled = GramForm(dim=n, gram=(delta * c) ** 2 * np.asarray(q.gram))
        assert trace_value(p, scaled) == pytest.approx(eps, rel=1e-10)


def test_reverse_seminorm_trace_bound():
    rng = np.random.default_rng(9)
    q = GramForm(dim=3, gram=np.eye(3))
    for _ in range(5):
        k = int(rng.integers(1, 5))
        atoms = rng.uniform(-2.0, 2.0, size=(k, 3))
        w = rng.uniform(0.1, 1.0, k)
        nu = DiscreteMeasure(dim=3, atoms=atoms, weights=w / w.sum())
        p = reverse_seminorm_construction(nu, q)
        tr = trace_value(p, q)
        assert tr <= 2.0 + 1e-9
    # measure inside K_1: trace equals sum n^-4 * second moments <= sum n^-2
    nu = DiscreteMeasure(
        dim=3, atoms=0.3 * np.eye(3), weights=np.ones(3) / 3.0
    )
    p = reverse_seminorm_construction(nu, q)
    assert trace_value(p, q) < 2.0


def _restrict(p, s):
    """p restricted to the coordinates of the index s."""
    return principal_restrictions(p, [s.coords])[0]


def test_restrict_form_matches_submatrix():
    p = GramForm(dim=3, gram=np.diag([1.0, 2.0, 3.0]))
    s = SubalgebraIndex(coords=(0, 2))
    r = _restrict(p, s)
    assert np.allclose(r.gram, np.diag([1.0, 3.0]))


def test_main_theorem_pipeline_all_stages():
    g = AlgebraElement(2, 4, {(0, 0): 9.0, (2, 0): -1.0, (0, 2): -1.0})
    report = verify_main_theorem_scenario(
        two_atom(),
        GramForm(dim=2, gram=np.eye(2)),
        QuadraticModuleSpec(generators=(g,)),
        degrees=4,
        eps_grid=[0.04, 0.25],
    )
    assert report.overall_pass
    names = [s.name for s in report.stages]
    assert names == [
        "moment_functional",
        "s_L_degree_one_form",
        "trace_s_L_over_q",
        "marginal_family",
        "consistency",
        "concentration_sqrt_eps",
        "prokhorov_mass",
        "support_continuity_and_kq",
        "representation_identity",
    ]
    tr_stage = report.stages[2]
    assert tr_stage.data["trace"] == pytest.approx(3.0, abs=1e-12)


def test_main_theorem_flags_kq_violation():
    g = AlgebraElement(2, 4, {(1, 0): 1.0})  # x1 >= 0 excludes (-1, 0)
    report = verify_main_theorem_scenario(
        two_atom(),
        GramForm(dim=2, gram=np.eye(2)),
        QuadraticModuleSpec(generators=(g,)),
        degrees=4,
        eps_grid=[0.04],
    )
    assert not report.overall_pass
    failed = {s.name: s for s in report.stages if s.status == "fail"}
    assert "support_continuity_and_kq" in failed
    assert failed["support_continuity_and_kq"].data["kq_violations"] == [1]


def test_main_theorem_origin_trivial():
    nu = DiscreteMeasure(dim=2, atoms=np.zeros((1, 2)), weights=np.array([1.0]))
    report = verify_main_theorem_scenario(
        nu,
        GramForm(dim=2, gram=np.eye(2)),
        QuadraticModuleSpec(generators=()),
        degrees=4,
        eps_grid=[0.1],
    )
    assert report.overall_pass
    assert report.stages[2].data["trace"] == pytest.approx(0.0, abs=1e-15)


def test_main_theorem_past_the_lattice_cap_skips_what_needs_the_family():
    """At n = 13 the marginal family cannot be built (NotInScope): the
    stages that need it report "skipped" instead of failing on a missing
    family, and the others still run."""
    nu = DiscreteMeasure(dim=13, atoms=np.array([[0.5] * 13, [-0.5] * 13]),
                         weights=np.array([0.5, 0.5]))
    report = verify_main_theorem_scenario(
        nu, GramForm(dim=13, gram=np.eye(13)), QuadraticModuleSpec(generators=()),
        degrees=1, eps_grid=[0.1],
    )
    status = {s.name: s.status for s in report.stages}
    assert status == {
        "moment_functional": "pass",
        "s_L_degree_one_form": "pass",
        "trace_s_L_over_q": "pass",
        "marginal_family": "fail",
        "consistency": "skipped",
        "concentration_sqrt_eps": "skipped",
        "prokhorov_mass": "skipped",
        "support_continuity_and_kq": "pass",
        "representation_identity": "pass",
    }
    assert "NotInScope" in report.stages[3].data["error"]
    assert not report.overall_pass


def test_consistency_compares_pairs_that_are_not_covering():
    """Only {0} and {0,1,2}: no pair with |T| = |S| + 1 exists, and the two
    marginals agree up to degree 3 but differ in the degree-4 moment."""
    s, t = SubalgebraIndex(coords=(0,)), SubalgebraIndex(coords=(0, 1, 2))
    r = np.sqrt(2.0)  # x0 takes 0, +-sqrt 2: moments 1, 0, 1, 0, 2
    nu_t = DiscreteMeasure(
        dim=3,
        atoms=np.array([[0.0, 1.0, 0.5], [r, -1.0, 0.0], [-r, 0.0, 2.0]]),
        weights=np.array([0.5, 0.25, 0.25]),
    )
    nu_s = DiscreteMeasure(  # +-1: moments 1, 0, 1, 0, 1
        dim=1, atoms=np.array([[1.0], [-1.0]]), weights=np.array([0.5, 0.5])
    )
    fam = MeasureFamily(entries={s: nu_s, t: nu_t})
    assert consistency_check(fam, degree=3)
    assert not consistency_check(fam, degree=4)


def test_consistency_with_coincident_projected_atoms():
    """Atoms that coincide after projection merge in the marginal; the
    check compares moments, so the family is consistent."""
    rng = np.random.default_rng(12)
    base = rng.uniform(-1.0, 1.0, size=(3, 3))
    atoms = np.vstack([base, base + [0.0, 0.0, 0.7], base * [1.0, 1.0, -2.0]])
    w = rng.uniform(0.1, 1.0, len(atoms))
    nu = DiscreteMeasure(dim=3, atoms=atoms, weights=w / w.sum())
    fam = MeasureFamily.from_global(nu)
    assert len(fam.entries[SubalgebraIndex(coords=(0, 1))].atoms) == 3
    assert consistency_check(fam)
    assert _all_pairs_consistency(fam)


def _all_pairs_consistency(fam, degree=4, tol=CONSISTENCY_ABS):
    """Reference for consistency_check: every nested pair S within T on its
    own, nu_T's atoms projected onto S, one moment at a time by
    DiscreteMeasure.moment (powers, not the monomial kernel)."""
    for s in fam.entries:
        alphas = monomials_up_to(len(s), degree)
        own = np.array([fam.entries[s].moment(a) for a in alphas])
        for t, nu_t in fam.entries.items():
            if s != t and s.is_subset(t):
                pushed = DiscreteMeasure(
                    dim=len(s), atoms=nu_t.atoms[:, s.positions_in(t)], weights=nu_t.weights
                )
                if np.any(np.abs([pushed.moment(a) for a in alphas] - own) > tol):
                    return False
    return True


def _partial_family(nu, rng, keep=0.5):
    """Marginals of nu on a random part of the full lattice (top kept)."""
    lattice = full_lattice(nu.dim)
    return MeasureFamily.from_global(
        nu, [s for s in lattice[:-1] if rng.random() < keep] + lattice[-1:]
    )


def test_consistency_sweep_matches_all_pairs_reference():
    """The per-index superset sweep decides as the pair-by-pair reference
    on full and partial lattices, consistent and with one entry's atom
    nudged just inside or well past the tolerance."""
    rng = np.random.default_rng(15)
    seen = set()
    for trial in range(24):
        n, k = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        w = rng.uniform(0.1, 1.0, k)
        nu = DiscreteMeasure(dim=n, atoms=rng.uniform(-1.5, 1.5, (k, n)), weights=w / w.sum())
        fam = MeasureFamily.from_global(nu) if trial % 2 else _partial_family(nu, rng)
        entries = dict(fam.entries)
        s = list(entries)[int(rng.integers(len(entries)))]
        nudge = (1e-14, 1e-6)[trial % 3 != 0]
        atoms = np.array(entries[s].atoms)
        atoms[0, int(rng.integers(len(s)))] += nudge
        entries[s] = DiscreteMeasure(dim=len(s), atoms=atoms, weights=entries[s].weights)
        for family in (fam, MeasureFamily(entries=entries)):
            for degree in (2, 4):
                want = _all_pairs_consistency(family, degree)
                assert consistency_check(family, degree) == want, (trial, degree)
                seen.add(want)
    assert seen == {True, False}


def _point_family(top, coords, first=1.0):
    """coords[0] alone holding one atom at ``first``, ``coords`` one atom at
    ``top``."""
    return MeasureFamily(entries={
        SubalgebraIndex(coords=coords[:1]): DiscreteMeasure(
            dim=1, atoms=np.array([[first]]), weights=np.ones(1)),
        SubalgebraIndex(coords=coords): DiscreteMeasure(
            dim=len(coords), atoms=np.array([top]), weights=np.ones(1)),
    })


def test_consistency_decides_at_the_tolerance_boundary():
    """nu_{0} at 1 against nu_T at x in its first coordinate, degree 1: x
    at the last double with |x - 1| <= CONSISTENCY_ABS is consistent, the
    next one is not, above 1 (the superset max) and below (the min), for a
    covering T and for a T two coordinates larger."""
    for toward in (2.0, 0.0):
        x = 1.0 + np.copysign(CONSISTENCY_ABS, toward - 1.0)
        while abs(x - 1.0) > CONSISTENCY_ABS:
            x = np.nextafter(x, 1.0)
        while abs(np.nextafter(x, toward) - 1.0) <= CONSISTENCY_ABS:
            x = np.nextafter(x, toward)
        for last, want in ((x, True), (np.nextafter(x, toward), False)):
            for coords in ((0, 1), (0, 1, 2)):
                top = [last] + [0.5] * (len(coords) - 1)
                fam = _point_family(top, coords)
                assert consistency_check(fam, degree=1) == want, (last, coords)
                assert _all_pairs_consistency(fam, degree=1) == want


def test_nesting_decides_at_a_relative_kernel_cutoff():
    """q = diag(1, 1e-30): r_eps's cutoff is relative, so the second
    coordinate is kernel of r_eps|_(0,1) but not of r_eps|_(1).  An atom
    (0.5, 5e-9) is inside K^(0,1) while its projection 5e-9 is outside
    K^(1), so nesting fails; with 0 there it holds.  An index that only
    overlaps S is not a superset of S: with (0,1) and (1,2) alone nothing
    is nested, although (0,1)'s atoms projected onto (1,2) leave K^(1,2)."""
    eps = 0.05
    q2 = GramForm(dim=2, gram=np.diag([1.0, 1e-30]))
    q3 = GramForm(dim=3, gram=np.diag([1.0, 1e-30, 1e-30]))
    nus = {
        second: DiscreteMeasure(
            dim=2, atoms=np.array([[0.5, second], [-0.5, -second]]), weights=np.full(2, 0.5))
        for second in (5e-9, 0.0)
    }
    overlap = MeasureFamily(entries={
        SubalgebraIndex(coords=(0, 1)): nus[5e-9],
        SubalgebraIndex(coords=(1, 2)): DiscreteMeasure(dim=2, atoms=np.zeros((1, 2)), weights=np.ones(1)),
    })
    cases = [
        (MeasureFamily.from_global(nus[5e-9]), q2, False),
        (MeasureFamily.from_global(nus[0.0]), q2, True),
        (overlap, q3, True),
    ]
    for fam, q, want in cases:
        p = GramForm(dim=q.dim, gram=np.diag([1.0] + [0.0] * (q.dim - 1)))
        rep = prokhorov_mass_check(fam, p, q, eps, np.sqrt(eps), require_certificate=False)
        r_eps = GramForm(dim=q.dim, gram=rep.scale**2 * q.gram)
        assert rep.nesting_ok == _all_pairs_nesting(fam, r_eps) == want


def _in_k(form, atom):
    nd = dual_norm(form, DualFunctional(dim=form.dim, coeffs=atom))
    return not is_infinite(nd) and nd <= 1.0 + 1e-9


def _all_pairs_nesting(fam, r_eps):
    """Reference for Prokhorov nesting: every nested pair S within T on its
    own, nu_T's atoms in K^(T) projected onto S and tested in K^(S)."""
    return all(
        _in_unit_dual_ball(
            _restrict(r_eps, s),
            nu_t.atoms[_in_unit_dual_ball(_restrict(r_eps, t), nu_t.atoms)][:, s.positions_in(t)],
        ).all()
        for s in fam.entries
        for t, nu_t in fam.entries.items()
        if s != t and s.is_subset(t)
    )


def test_prokhorov_and_fundamental_lemma_masses_match_per_atom_dual_norms():
    """Masses (bit for bit), nesting and the fundamental-lemma mass equal a
    per-atom dual_norm reference, on seeded full and partial families with
    full-rank and rank-deficient q and atoms inside, outside and off
    range(q), some straddling the r_eps ball within 1e-6; nesting also
    equals the pair-by-pair reference."""
    rng = np.random.default_rng(13)
    for trial in range(16):
        n = int(rng.integers(2, 5))
        b = rng.standard_normal((n, n if trial % 2 else n - 1))
        q = GramForm(dim=n, gram=b @ b.T)
        p = GramForm(dim=n, gram=0.3 * q.gram + 0.1 * b[:, :1] @ b[:, :1].T)
        k = int(rng.integers(3, 8))
        atoms = rng.standard_normal((k, n)) * rng.uniform(0.1, 3.0, (k, 1))
        atoms[: k // 2] = atoms[: k // 2] @ q.gram  # in range(q)
        eps, delta = 0.05, 0.5
        c = np.sqrt(trace_value(p, q)) / (delta * np.sqrt(eps))
        r_eps = GramForm(dim=n, gram=c**2 * q.gram)
        if trial % 4 >= 2:  # r_eps-dual norms 1 -+ 1e-6 on the in-range atoms
            for i in range(k // 2):
                nd = dual_norm(r_eps, DualFunctional(dim=n, coeffs=atoms[i]))
                atoms[i] *= (1.0 + (-1.0) ** i * 1e-6) / nd
        w = rng.uniform(0.1, 1.0, k)
        nu = DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())
        fam = MeasureFamily.from_global(nu) if trial % 3 else _partial_family(nu, rng)
        rep = prokhorov_mass_check(fam, p, q, eps, delta, require_certificate=False)
        assert rep.scale == c
        for s, nu_s in fam.entries.items():
            r_s = _restrict(r_eps, s)
            want = float(sum(w for a, w in zip(nu_s.atoms, nu_s.weights) if _in_k(r_s, a)))
            assert rep.masses[s] == want
        nesting = all(
            _in_k(_restrict(r_eps, s), a[s.positions_in(t)])
            for s in fam.entries
            for t in fam.entries
            if s != t and s.is_subset(t)
            for a in fam.entries[t].atoms
            if _in_k(_restrict(r_eps, t), a)
        )
        assert rep.nesting_ok == nesting == _all_pairs_nesting(fam, r_eps)
        fl = fundamental_lemma_check(nu, p, q, eps, delta)
        mass = 0.0
        for a, w in zip(nu.atoms, nu.weights):
            if _in_k(q, a):
                mass += w
        assert fl.mass_in_unit_dual_ball == mass


def test_main_theorem_pipeline_at_n6():
    """Six atoms in R^6, degree 4: all nine stages pass."""
    rng = np.random.default_rng(14)
    atoms = rng.uniform(-1.0, 1.0, size=(6, 6))
    w = rng.integers(1, 10, 6).astype(float)
    nu = DiscreteMeasure(dim=6, atoms=atoms, weights=w / w.sum())
    b = rng.standard_normal((6, 6))
    q = GramForm(dim=6, gram=b @ b.T + np.eye(6))
    radius2 = 1.5 * float((atoms**2).sum(axis=1).max())
    terms = {(0,) * 6: radius2}
    for i in range(6):
        terms[tuple(2 if j == i else 0 for j in range(6))] = -1.0
    ball = AlgebraElement(6, 4, terms)
    report = verify_main_theorem_scenario(
        nu, q, QuadraticModuleSpec(generators=(ball,)), degrees=4, eps_grid=[0.04, 0.25]
    )
    assert len(report.stages) == 9
    assert [s.status for s in report.stages] == ["pass"] * 9


def _five_dim_family(seed):
    """A full n=5 lattice and a diagonal p large enough that every index is
    certified at (0.05, 0.5)."""
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-1.0, 1.0, size=(8, 5))
    w = rng.uniform(0.1, 1.0, 8)
    fam = MeasureFamily.from_global(DiscreteMeasure(dim=5, atoms=atoms, weights=w / w.sum()))
    p = GramForm(dim=5, gram=np.diag(rng.uniform(40.0, 80.0, 5)))
    return fam, p


def test_one_decomposition_pass_per_index(monkeypatch):
    """Counts np.linalg.eigh/eigvalsh calls on a full n=5 lattice (31
    indices): each check restricts and decomposes an index once, not once
    per grid point, and the checks on one (family, p) share one pass, which
    the read-only entries keep from going stale."""
    fam, p = _five_dim_family(21)
    q = GramForm(dim=5, gram=np.eye(5))
    n_idx = len(fam.entries)
    assert n_idx == 31
    calls = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls["n"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn, *args, **kwargs):
        calls["n"] = 0
        fn(*args, **kwargs)
        return calls["n"]

    assert count(concentration_check, fam, p, 0.05, 0.5) <= 2 * n_idx
    grid = [(0.05, 0.5), (0.1, 0.5), (0.05, 0.25)]
    assert all(concentration_check(fam, p, e, d).certified for e, d in grid)
    assert count(concentration_equivalence_check, fam, p, grid) <= 2 * n_idx
    assert count(concentration_equivalence_check, fam, p, []) == 0
    assert count(prokhorov_mass_check, fam, p, q, 0.05, 0.5) <= 3 * n_idx + 4

    # one spectral pass per (family, p), shared by every check on it
    fam, p = _five_dim_family(21)
    calls["n"] = 0
    concentration_check(fam, p, 0.05, 0.5)
    concentration_equivalence_check(fam, p, grid)
    assert calls["n"] <= 2 * n_idx
    fam, p = _five_dim_family(21)
    concentration_check(fam, p, 0.05, 0.5)
    assert count(prokhorov_mass_check, fam, p, q, 0.05, 0.5) <= n_idx + 4
    rng = np.random.default_rng(23)
    nu = DiscreteMeasure(dim=5, atoms=rng.uniform(-1.0, 1.0, (6, 5)), weights=np.ones(6) / 6)
    ball = QuadraticModuleSpec(generators=())
    assert count(verify_main_theorem_scenario, nu, q, ball, 4, [0.04, 0.25]) <= 4 * n_idx + 8
    with pytest.raises(TypeError):
        fam.entries[SubalgebraIndex(coords=(0,))] = fam.entries[SubalgebraIndex(coords=(1,))]


def test_certificate_decisions_agree_at_a_planted_boundary(monkeypatch):
    """At the smallest epsilon the certificate accepts, and at the floats
    next to it, the equivalence check (which goes on to its two closed-form
    sups only at certified grid points) and Prokhorov's
    HypothesisNotCertified decide as concentration_check does.  The worst
    sup they share, delta^2 max_S lambda_S, is the largest per-index sup
    bit for bit."""
    from momentkit import concentration
    from momentkit.concentration import CERTIFICATE_SLACK, _worst_sup

    fam, p = _five_dim_family(22)
    q = GramForm(dim=5, gram=np.eye(5))
    delta = 0.7
    details = concentration_check(fam, p, 1.0, delta).details
    worst = details.pop("worst_sup")
    assert _worst_sup(_index_spectra(fam, p), delta) == max(d["sup"] for d in details.values())
    assert worst == _worst_sup(_index_spectra(fam, p), delta)

    def certified(eps):
        return concentration_check(fam, p, eps, delta).certified

    eps = (worst - 1e-15) / (1.0 + CERTIFICATE_SLACK)
    while certified(eps):
        eps = np.nextafter(eps, 0.0)
    while not certified(eps):
        eps = np.nextafter(eps, 1.0)
    top = worst * (1.0 + CERTIFICATE_SLACK) + 1e-15
    candidates = [np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)]
    candidates += [np.nextafter(top, 0.0), top, np.nextafter(top, 1.0)]
    assert [certified(e) for e in candidates[:2]] == [False, True]
    sups = []
    monkeypatch.setattr(
        concentration, "_worst_sup", lambda spectra, d: sups.append(d) or _worst_sup(spectra, d)
    )
    for e in map(float, candidates):
        want = certified(e)
        sups.clear()
        assert concentration_equivalence_check(fam, p, [(e, delta)])
        assert (len(sups) == 3) == want, e
        try:
            prokhorov_mass_check(fam, p, q, e, delta)
            raised = False
        except HypothesisNotCertified:
            raised = True
        assert raised == (not want), e


# ---------------------------------------------------------------------------
# Stacked lattice numerics against per-index and independent references
# ---------------------------------------------------------------------------


def _ref_eig(gram):
    """eigh of one gram with the sign convention of forms._fix_signs."""
    w, v = np.linalg.eigh(gram)
    peaks = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return w, np.where(peaks < 0, -v, v)


def _ref_spectra(fam, p):
    """{S: (p|_S gram, lambda_S)}, one index at a time: the restriction,
    kernel test, whitening and whitened spectrum each computed alone."""
    out = {}
    for s in fam.indices():
        nu = fam.entries[s]
        idx = np.asarray(s.coords, dtype=int)
        gram = p.gram[np.ix_(idx, idx)]
        w, v = _ref_eig(gram)
        keep = w > PSD_TOL * max(float(w[-1]), 0.0)
        scale = max(1.0, float(np.abs(nu.support).max(initial=0.0)))
        if np.abs(nu.support @ v[:, ~keep]).max(initial=0.0) > 1e-10 * scale:
            raise KernelIssue("kernel")
        wp, vp = w[keep], v[:, keep]
        white = np.zeros((len(s), 0))
        if wp.size:
            white = np.column_stack([vp[:, j] / np.sqrt(wp[j]) for j in range(vp.shape[1])])
        m = white.T @ np.einsum("j,ji,jk->ik", nu.weights, nu.atoms, nu.atoms) @ white
        lam = float(max(np.linalg.eigvalsh(m)[-1], 0.0)) if white.size else 0.0
        out[s] = (gram, (w, v), int(keep.sum()), lam)
    return out


def _seeded_family(rng, n, rank, partial):
    k = int(rng.integers(2, 9))
    atoms = rng.uniform(-1.5, 1.5, (k, n))
    b = rng.standard_normal((n, rank))
    gram = b @ b.T
    if rank < n:  # atoms in range(p), so no kernel leak
        atoms = atoms @ gram
    w = rng.uniform(0.1, 1.0, k)
    nu = DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())
    fam = _partial_family(nu, rng) if partial else MeasureFamily.from_global(nu)
    return fam, GramForm(dim=n, gram=rng.uniform(0.5, 4.0) * gram)


def _same_bits(x, y):
    """Equal, every float bit for bit: repr round-trips and tells -0.0 from 0.0."""
    return repr(x) == repr(y)


def test_stacked_restrictions_equal_lone_restrictions():
    """Each restriction of the stacked helper has the gram, decomposition
    and rank a lone eigh gives it, bit for bit, a read-only gram, and the
    constructor's PSD rule."""
    rng = np.random.default_rng(31)
    for n, rank in [(5, 5), (5, 2), (4, 1)]:
        b = rng.standard_normal((n, rank))
        p = GramForm(dim=n, gram=b @ b.T)
        sets = [s.coords for s in full_lattice(n)][::-1]
        for coords, form in zip(sets, principal_restrictions(p, sets)):
            lone = GramForm(dim=len(coords), gram=p.gram[np.ix_(coords, coords)])
            assert np.array_equal(form.gram, lone.gram)
            assert not form.gram.flags.writeable
            assert all(np.array_equal(x, y) for x, y in zip(form._eig, lone._eig))
            assert all(np.array_equal(x, y) for x, y in zip(form._split, lone._split))
            assert form.rank == lone.rank and form.kernel_cutoff == lone.kernel_cutoff
    # a principal submatrix can break the PSD rule its parent passes
    p = GramForm(dim=2, gram=np.diag([-5e-9, 100.0]))
    with pytest.raises(NotPSD):
        GramForm(dim=1, gram=np.array([[-5e-9]]))
    with pytest.raises(NotPSD):
        _restrict(p, SubalgebraIndex(coords=(0,)))


def test_stacked_spectra_match_per_index_references():
    """On seeded full and partial families with full-rank and
    rank-deficient p, the stacked spectral pass equals the per-index
    reference bit for bit."""
    rng = np.random.default_rng(32)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        rank = n if trial % 3 else int(rng.integers(1, n))
        fam, p = _seeded_family(rng, n, rank, partial=trial % 2 == 1)
        want = _ref_spectra(fam, p)
        got = _index_spectra(fam, p)
        assert list(got) == list(want)
        for s, (p_s, lam) in got.items():
            gram, eig, r, ref_lam = want[s]
            assert _same_bits(lam, ref_lam) and p_s.rank == r
            assert np.array_equal(p_s.gram, gram)
            assert all(np.array_equal(x, y) for x, y in zip(p_s._eig, eig))


def test_reported_sups_match_an_independent_eigensolver_and_bound_every_tail():
    """The certificate's sup against routes that share none of its
    whitening: on full-rank indices of seeded full and partial families it
    is delta^2 times the top generalized eigenvalue of (M_S, p|_S) from
    scipy's Cholesky-based eigh, and on every index no exact tail at 32
    random points of the delta-sphere of p|_S exceeds it (Chebyshev)."""
    from scipy.linalg import eigh

    rng = np.random.default_rng(34)
    full_rank = 0
    for trial in range(12):
        n = int(rng.integers(2, 6))
        rank = n if trial % 3 else int(rng.integers(1, n))
        fam, p = _seeded_family(rng, n, rank, partial=trial % 2 == 1)
        delta = float(rng.uniform(0.2, 1.0))
        details = concentration_check(fam, p, 0.1, delta).details
        for s, (p_s, _) in _index_spectra(fam, p).items():
            nu, sup = fam.entries[s], details[s]["sup"]
            if p_s.rank == len(s):
                m = np.einsum("j,ji,jk->ik", nu.weights, nu.atoms, nu.atoms)
                top = eigh(m, p_s.gram, eigvals_only=True)[-1]
                assert sup == pytest.approx(delta**2 * top, rel=1e-9, abs=0.0), (trial, s)
                full_rank += 1
            for u in rng.standard_normal((32, len(s))):
                nrm = evaluate(p_s, u)
                if nrm > 0:
                    assert exact_tail(nu, (delta / nrm) * u) <= sup * (1.0 + 1e-9) + 1e-15
    assert full_rank > 50


def test_spectral_pass_makes_one_eigh_per_index_size(monkeypatch):
    """The spectral pass of an n-dim family restricts every index of one
    size with one stacked eigh: at most n calls for 2^n - 1 indices, and
    one eigvalsh per (size, rank) group."""
    fam, p = _five_dim_family(24)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert concentration_check(fam, p, 0.05, 0.5).certified
    assert calls == {"eigh": 5, "eigvalsh": 5}


# ---------------------------------------------------------------------------
# Batched marginals and stacked dual-ball tests against per-index references
# ---------------------------------------------------------------------------


def _dict_marginal(nu, pos):
    """Reference pushforward: a dict keyed by the projected tuples (float
    ==, so 0.0 and -0.0 share a key, the first kept), weights added from
    0.0 in atom order."""
    merged: dict = {}
    for atom, w in zip(nu.atoms, nu.weights):
        key = tuple(atom[pos])
        merged[key] = merged.get(key, 0.0) + w
    atoms = np.array(list(merged), dtype=float).reshape(len(merged), len(pos))
    return atoms, np.array(list(merged.values()))


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _coincident_measure(rng, n, k):
    """k atoms on a coarse grid, so projections coincide often, one pair
    apart only by 0.0 against -0.0 in one coordinate, weights mixing sizes
    so that merged sums round."""
    atoms = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0 / 3.0], (k, n))
    if rng.random() < 0.5:
        atoms[:, int(rng.integers(n))] = rng.uniform(-1.0, 1.0, k)  # one spread coordinate
    j = int(rng.integers(n))
    atoms[1] = atoms[0]
    atoms[0, j], atoms[1, j] = 0.0, -0.0
    if rng.random() < 0.5:
        atoms[0, j], atoms[1, j] = -0.0, 0.0
    w = rng.uniform(0.01, 1.0, k) * 10.0 ** rng.integers(-3, 1, k)
    return DiscreteMeasure(dim=n, atoms=atoms, weights=w / w.sum())


def test_batched_marginals_equal_per_index_pushforward_bit_for_bit():
    """On seeded measures with planted coincident projections (a 0.0/-0.0
    pair among them), every marginal of from_global on full and partial
    lattices, and pushforward between the entries of hand-built families,
    equal the dict-merging reference in atoms, weights and their order, bit
    for bit; from_global's marginals also equal pushforward's."""
    rng = np.random.default_rng(51)
    signed_zero_merges = 0
    for trial in range(30):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        nu = _coincident_measure(rng, n, k)
        top = SubalgebraIndex(coords=tuple(range(n)))
        fam = MeasureFamily.from_global(nu) if trial % 2 else _partial_family(nu, rng)
        for s, nu_s in fam.entries.items():
            atoms, weights = _dict_marginal(nu, list(s.coords))
            assert _bits(nu_s.atoms) == _bits(atoms) and _bits(nu_s.weights) == _bits(weights)
            lone = pushforward(nu, s, top)
            assert _bits(lone.atoms) == _bits(atoms) and _bits(lone.weights) == _bits(weights)
            assert not (nu_s.atoms.flags.writeable or nu_s.weights.flags.writeable)
            signed_zero_merges += bool(np.signbit(nu.atoms[:2, list(s.coords)]).any()
                                       and len(atoms) < k)
        # a hand-built family: each entry the marginal of its own measure
        hand = MeasureFamily(entries={
            s: _coincident_measure(rng, len(s), int(rng.integers(2, 8))) for s in full_lattice(n)
        })
        for t, nu_t in hand.entries.items():
            for s in hand.entries:
                if s.is_subset(t):
                    pos = s.positions_in(t)
                    atoms, weights = _dict_marginal(nu_t, pos)
                    got = pushforward(nu_t, s, t)
                    assert _bits(got.atoms) == _bits(atoms) and _bits(got.weights) == _bits(weights)
    assert signed_zero_merges > 10


@pytest.mark.parametrize("block", [None, 7])
def test_many_atom_marginals_are_exact_in_linear_memory(monkeypatch, block):
    """A 4,000-atom measure on a coarse grid (a 0.0/-0.0 pair planted):
    every marginal of from_global equals the dict-merging reference bit for
    bit, also when each merge block holds at most one index, and the
    traced peak stays far below the 4,000^2 pairs of atoms."""
    import tracemalloc

    from momentkit import concentration

    if block is not None:
        monkeypatch.setattr(concentration, "_MERGE_BLOCK", block)
    nu = _coincident_measure(np.random.default_rng(52), 4, 4000)
    tracemalloc.start()
    try:
        fam = MeasureFamily.from_global(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one bool per pair of atoms would be 15 MB
    for s, nu_s in fam.entries.items():
        atoms, weights = _dict_marginal(nu, list(s.coords))
        assert _bits(nu_s.atoms) == _bits(atoms) and _bits(nu_s.weights) == _bits(weights)
    assert any(len(nu_s.weights) < 4000 for nu_s in fam.entries.values())


def test_lattice_tolerances_are_named_constants():
    """concentration.py writes no 1e-... literal outside the module
    constants that name its tolerances."""
    import ast
    import re
    from pathlib import Path

    from momentkit import concentration

    src = Path(concentration.__file__).read_text()
    tree = ast.parse(src)
    named = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.Assign) and [type(t) for t in top.targets] == [ast.Name]
        for node in ast.walk(top.value)
    }
    bare = [
        (node.lineno, ast.get_source_segment(src, node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and id(node) not in named
        and re.fullmatch(r"[0-9.]*e-[0-9]+", ast.get_source_segment(src, node) or "", re.I)
    ]
    assert bare == []


def _lone_restriction(q, s):
    """q restricted to s by GramForm's own constructor and eigh."""
    return GramForm(dim=len(s), gram=q.gram[np.ix_(s.coords, s.coords)])


def test_stacked_dual_balls_equal_lone_tests_row_by_row():
    """q with a null coordinate and a rank below n, so that indices of one
    size split into full-rank and rank-deficient groups: each group's
    pseudo-inverses and kernel bases are the lone restriction's bit for
    bit, and the stacked test's verdict on every row (random rows, rows on
    the 1 + 1e-9 dual-norm boundary of their index, rows leaking into the
    kernel at the tolerance) equals the lone test's on that row alone."""
    rng = np.random.default_rng(52)
    mixed = checked = 0
    for trial in range(10):
        n = int(rng.integers(3, 7))
        b = rng.standard_normal((n, int(rng.integers(2, n + 1))))
        b[int(rng.integers(n))] = 0.0  # a null coordinate: its indices lose rank
        q = GramForm(dim=n, gram=b @ b.T)
        nu = DiscreteMeasure(dim=n, atoms=rng.standard_normal((4, n)), weights=np.full(4, 0.25))
        fam = MeasureFamily.from_global(nu) if trial % 2 else _partial_family(nu, rng)
        idxs = fam.indices()
        groups = _dual_balls(fam, q)
        sizes = [len(idxs[g[0][0]]) for g in groups]
        mixed += len(sizes) > len(set(sizes))
        for members, pinvs, kernels, _, _, _ in groups:
            size = len(idxs[members[0]])
            rows = rng.standard_normal((len(members), 24, size))
            for j, i in enumerate(members):
                lone = _lone_restriction(q, idxs[i])
                assert _bits(pinvs[j]) == _bits(np.asarray(lone.pseudo_inverse))
                assert _bits(kernels[j]) == _bits(lone._split[3])
                _, vr, _, vk = lone._split
                for r in range(0, 8):
                    if vr.shape[1]:
                        row = vr @ rng.standard_normal(vr.shape[1])
                        rows[j, r] = row / dual_norm(lone, DualFunctional(dim=size, coeffs=row))
                        rows[j, r] *= 1.0 + 1e-9
                    if vk.shape[1] and r % 2:
                        half = 0.5 * rows[j, r]
                        tol = 1e-8 * max(1.0, float(np.linalg.norm(half)))
                        rows[j, r] = half + tol * vk[:, int(rng.integers(vk.shape[1]))]
            stacked = _in_unit_dual_balls(pinvs, kernels, rows)
            for j, i in enumerate(members):
                lone = _lone_restriction(q, idxs[i])
                alone = [bool(_in_unit_dual_ball(lone, row[None])[0]) for row in rows[j]]
                assert stacked[j].tolist() == alone
                checked += len(alone)
    assert mixed >= 5 and checked > 2000


def test_hand_built_families_take_the_stacked_prokhorov_passes():
    """Families built by hand (entries unrelated to each other, atom counts
    differing within a size): masses equal sums of per-atom lone verdicts
    in atom order bit for bit, and nesting equals the pair-by-pair
    reference, for full-rank and rank-deficient q and, every third trial,
    for q = diag(1, 1e-30, ...) with atoms 5e-9 off the first axis, which
    breaks nesting at the relative kernel cutoff."""
    rng = np.random.default_rng(53)
    seen = set()
    for trial in range(12):
        n = int(rng.integers(2, 5))
        b = rng.standard_normal((n, n if trial % 2 else n - 1))
        tiny = trial % 3 == 0
        q = GramForm(dim=n, gram=np.diag([1.0] + [1e-30] * (n - 1)) if tiny else b @ b.T)
        p = GramForm(dim=n, gram=0.3 * q.gram)
        entries = {}
        for s in full_lattice(n):
            k = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 1.0, k)
            atoms = rng.standard_normal((k, len(s))) * rng.uniform(0.05, 2.0)
            if tiny:
                atoms = rng.uniform(-0.3, 0.3, (k, len(s)))
                atoms[:, [c != 0 for c in s.coords]] *= 5e-9 / 0.3
            entries[s] = DiscreteMeasure(dim=len(s), atoms=atoms, weights=w / w.sum())
        fam = MeasureFamily(entries=entries)
        eps, delta = 0.05, 0.5
        rep = prokhorov_mass_check(fam, p, q, eps, delta, require_certificate=False)
        r_eps = GramForm(dim=n, gram=rep.scale**2 * q.gram)
        for s, nu_s in fam.entries.items():
            inside = _in_unit_dual_ball(_lone_restriction(q, s), nu_s.atoms / rep.scale)
            want = sum(w for w, ok in zip(nu_s.weights, inside) if ok)
            assert _bits(np.float64(rep.masses[s])) == _bits(np.float64(want))
        assert rep.nesting_ok == _all_pairs_nesting(fam, r_eps)
        seen.add(rep.nesting_ok)
    assert seen == {True, False}
