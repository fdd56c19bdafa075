"""Graded symmetric-algebra seminorms, the two-path trace identity, and the
character/polarization bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import (
    AlgebraElement,
    DualFunctional,
    GradedSeminormTower,
    GramForm,
    character_norm_bound,
    evaluate_character,
    graded_norm,
    multiply,
    p_tilde,
    tilde_trace_identity,
)
from momentkit.errors import (
    DegreeOverflow,
    DimensionMismatch,
    InvalidInput,
    NotHomogeneous,
    NotInScope,
)
from momentkit.forms import gram_schmidt, kernel_basis, whitening_system
from momentkit.moments import DiscreteMeasure
from momentkit.symalg import (
    Character,
    _graded_rank,
    _monomial_values,
    _slice_index,
    _sym_power,
    graded_inner,
    monomials_up_to,
    multinomial,
    slice_monomials,
)
from sparse_oracles import power, sparse_multiply


def x(i, dim=2, deg=4):
    return AlgebraElement.variable(i, dim, deg)


def test_slice_monomials_count():
    # dim n, degree d: C(n+d-1, d) monomials
    assert len(slice_monomials(3, 2)) == 6
    assert len(slice_monomials(1, 5)) == 1
    assert slice_monomials(2, 0) == [(0, 0)]
    assert slice_monomials(0, 3) == []


def test_multinomial():
    assert multinomial((2, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((1, 1, 1)) == 6


def test_multiplication_and_degree_cap():
    a = x(0) + x(1)
    b = multiply(a, a)
    assert b.coefficient((2, 0)) == pytest.approx(1.0)
    assert b.coefficient((1, 1)) == pytest.approx(2.0)
    c = power(a, 4)
    assert c.coefficient((2, 2)) == pytest.approx(6.0)
    with pytest.raises(DegreeOverflow):
        power(a, 5)


@st.composite
def element_pairs(draw):
    """Two elements of one dimension 1-4 and truncations <= 4, with zero and
    negative coefficients drawn on monomials up to each truncation, so that
    some products overflow the larger truncation."""
    dim = draw(st.integers(1, 4))
    coeff = st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.375, 1e-3, -7.0, 3e5])
    out = []
    for _ in range(2):
        max_degree = draw(st.integers(0, 4))
        alphas = st.sampled_from(monomials_up_to(dim, max_degree))
        out.append(AlgebraElement(dim, max_degree,
                                  draw(st.dictionaries(alphas, coeff, max_size=6))))
    return out


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_dense_multiply_matches_the_sparse_oracle(pair):
    """The scatter-add product equals the dict convolution within 1e-12
    relative, and both raise DegreeOverflow on the same pairs."""
    a, b = pair
    try:
        want = sparse_multiply(a, b)
    except DegreeOverflow:
        with pytest.raises(DegreeOverflow):
            multiply(a, b)
        return
    got = multiply(a, b)
    assert (got.dim, got.max_degree) == (want.dim, want.max_degree)
    scale = max(np.abs(want.coeffs).max(initial=0.0), 1e-300)
    assert np.abs(got.coeffs - want.coeffs).max(initial=0.0) <= 1e-12 * scale
    assert got.degree() == want.degree()


def test_element_is_one_vector_in_the_moment_table_layout():
    """coeffs follows monomials_up_to; a map or a vector builds the same
    element, the vector is read-only, and terms is a copy of the nonzero
    coefficients in graded-lex order."""
    a = AlgebraElement(2, 2, {(0, 1): -1.5, (2, 0): 2.0, (0, 0): 1.0})
    assert monomials_up_to(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert a.coeffs.tolist() == [1.0, -1.5, 0.0, 0.0, 0.0, 2.0]
    assert list(a.terms.items()) == [((0, 0), 1.0), ((0, 1), -1.5), ((2, 0), 2.0)]
    assert AlgebraElement(2, 2, a.coeffs).terms == a.terms
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0
    a.terms[(0, 0)] = 5.0
    assert a.coefficient((0, 0)) == 1.0 and a.coefficient((2, 2)) == 0.0
    # x_0 sits after x_1 in the lex-ordered degree-1 slice
    assert AlgebraElement.from_vector([3.0, 4.0], 1).coeffs.tolist() == [0.0, 4.0, 3.0]
    assert AlgebraElement.variable(0, 3, 1).terms == {(1, 0, 0): 1.0}
    for dim, coeffs in ((2, np.zeros(5)), (0, {})):
        with pytest.raises(DimensionMismatch):
            AlgebraElement(dim, 2, coeffs)


def test_zero_element_is_homogeneous_of_every_degree():
    """A slice beyond max_degree reads as zeros."""
    s = GramForm(dim=2, gram=np.eye(2))
    zero = AlgebraElement.zero(2, 2)
    assert zero.is_homogeneous(5) and zero.degree() == 0
    assert graded_norm(s, 5, zero) == 0.0


@pytest.mark.parametrize("i", [2, 5, -1])
def test_variable_out_of_range_raises(i):
    """Before, an index outside 0..dim-1 built the constant 1."""
    with pytest.raises(DimensionMismatch):
        AlgebraElement.variable(i, 2, 2)


@pytest.mark.parametrize(
    "dim, max_degree, coeffs",
    [(2, 2, {(1, 0): np.nan}), (2, 2, {(0, 1): np.inf}), (1, 1, [1.0, -np.inf]), (2, -1, {})],
    ids=["nan", "inf", "inf_vector", "negative_truncation"],
)
def test_element_rejects_nonfinite_and_negative_truncation(dim, max_degree, coeffs):
    """Before, these constructed, and L of an element with an inf
    coefficient returned nan."""
    with pytest.raises(InvalidInput):
        AlgebraElement(dim, max_degree, coeffs)


def test_evaluate_character_is_point_evaluation():
    a = multiply(x(0), x(0)) + 2.0 * x(1)
    alpha = Character(point=np.array([3.0, -1.0]))
    assert evaluate_character(alpha, a) == pytest.approx(9.0 - 2.0)


@st.composite
def points_and_degree(draw):
    """Up to three points in 1-5 coordinates, each coordinate 0, +-1 or of
    magnitude 1e-3..10 (no underflow at degree 8), and a degree 0-8."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 3))
    magnitude = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 10.0))
    coord = st.builds(lambda m, neg: -m if neg else m, magnitude, st.booleans())
    values = draw(st.lists(coord, min_size=rows * dim, max_size=rows * dim))
    return np.reshape(values, (rows, dim)), draw(st.integers(0, 8))


@settings(max_examples=40, deadline=None)
@given(points_and_degree())
def test_monomial_values_match_the_power_routes(case):
    """Column r of _monomial_values is x^alpha_r for alpha_r the r-th entry
    of monomials_up_to: against the pow-based DiscreteMeasure.moment of the
    one-atom measure at x and evaluate_character at x, within 1e-13."""
    points, degree = case
    dim = points.shape[1]
    values = _monomial_values(points, degree)
    alphas = monomials_up_to(dim, degree)
    assert values.shape == (len(points), len(alphas))
    for x, row in zip(points, values):
        atom = DiscreteMeasure(dim=dim, atoms=x[None, :], weights=np.ones(1))
        point = Character(point=x)
        for alpha, got in zip(alphas, row):
            monomial = AlgebraElement(dim, degree, {alpha: 1.0})
            assert got == pytest.approx(atom.moment(alpha), rel=1e-13, abs=0.0)
            assert got == pytest.approx(evaluate_character(point, monomial), rel=1e-13, abs=0.0)


def test_graded_rank_is_the_monomials_up_to_order():
    """_graded_rank maps each exponent row of monomials_up_to(dim, D) to its
    position, for rows stacked along any leading axes."""
    for dim in range(1, 6):
        for degree in range(7):
            alphas = np.array(monomials_up_to(dim, degree)).reshape(-1, dim)
            assert np.array_equal(_graded_rank(alphas), np.arange(len(alphas)))
            assert np.array_equal(
                _graded_rank(alphas[None, ::-1, :]), np.arange(len(alphas))[None, ::-1]
            )


def test_slice_index_tables_follow_their_definition():
    """Per-entry loop over slice_monomials: var[r] is monomial r's first
    variable, parent[r] the slice rank of monomial r without that factor,
    and times[b, i] the slice rank of monomial b of the slice below times x_i."""
    for dim in range(1, 6):
        for d in range(1, 6):
            index = _slice_index(dim, d)
            rank = {alpha: r for r, alpha in enumerate(slice_monomials(dim, d))}
            lower = {alpha: r for r, alpha in enumerate(slice_monomials(dim, d - 1))}
            assert index.monomials == tuple(rank)
            for alpha, i, parent in zip(index.monomials, index.var, index.parent):
                assert alpha[:i] == (0,) * i and alpha[i] > 0
                assert lower[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]] == parent
            for beta, row in zip(lower, index.times):
                for i, r in enumerate(row):
                    assert rank[beta[:i] + (beta[i] + 1,) + beta[i + 1 :]] == r


def test_sym_power_is_a_representation():
    """Sym^d(AB) = Sym^d(A) Sym^d(B), also for rectangular factors, and
    Sym^d(I) = I exactly."""
    rng = np.random.default_rng(5)
    for d in range(5):
        for n, m, k in ((3, 3, 3), (2, 3, 4)):
            a = rng.standard_normal((n, m))
            b = rng.standard_normal((m, k))
            lhs = _sym_power(a @ b, d)
            rhs = _sym_power(a, d) @ _sym_power(b, d)
            assert lhs.shape == (len(slice_monomials(n, d)), len(slice_monomials(k, d)))
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
        for n in (1, 2, 4):
            ident = _sym_power(np.eye(n), d)
            assert np.array_equal(ident, np.eye(len(slice_monomials(n, d))))


def sparse_compose(a, rows):
    """Reference substitution by sparse multiply/power expansion."""
    images = [AlgebraElement.from_vector(rows[k], a.max_degree) for k in range(a.dim)]
    out = AlgebraElement.zero(a.dim, a.max_degree)
    for idx, c in a.terms.items():
        term = AlgebraElement.one(a.dim, a.max_degree)
        for k, e in enumerate(idx):
            term = multiply(term, power(images[k], e))
        out = out + c * term
    return out


def sparse_graded_inner(s, a, b, system=None):
    """Reference slice inner product: both elements expanded in the monomials
    of the reference basis, kernel-touching monomials dropped."""
    on = list((system or whitening_system(s)).vectors)
    u = np.column_stack(on + kernel_basis(s))
    subst = np.linalg.inv(u).T
    a_ref, b_ref = sparse_compose(a, subst), sparse_compose(b, subst)
    return sum(
        c * b_ref.terms.get(alpha, 0.0)
        for alpha, c in a_ref.terms.items()
        if not any(alpha[len(on) :])
    )


def seeded_forms(rng, n):
    """A dense full-rank form, a rank-deficient one, and the dense form with
    an explicit reference system."""
    a_mat = rng.standard_normal((n, n))
    dense = GramForm(dim=n, gram=a_mat @ a_mat.T + 0.1 * np.eye(n))
    b_mat = rng.standard_normal((n, n - 1))
    deficient = GramForm(dim=n, gram=b_mat @ b_mat.T)
    system = gram_schmidt(dense, [rng.standard_normal(n) for _ in range(n)])
    return [(dense, None), (deficient, None), (dense, system)]


def random_slice_element(rng, n, d):
    terms = {alpha: float(rng.standard_normal()) for alpha in slice_monomials(n, d)}
    return AlgebraElement(n, d, terms)


def test_dense_slice_matches_sparse_expansion():
    rng = np.random.default_rng(6)
    for n, d in ((2, 4), (3, 3), (4, 2)):
        for s, system in seeded_forms(rng, n):
            a_d, b_d = random_slice_element(rng, n, d), random_slice_element(rng, n, d)
            for u, v in ((a_d, b_d), (a_d, a_d)):
                want = sparse_graded_inner(s, u, v, system)
                got = graded_inner(s, d, u, v, system=system)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_graded_norm_euclidean_examples():
    s = GramForm(dim=2, gram=np.eye(2))
    a = multiply(x(0), x(1))
    assert graded_norm(s, 2, a) == pytest.approx(1.0, abs=1e-12)
    b = multiply(x(0), x(0)) + multiply(x(1), x(1))
    assert graded_norm(s, 2, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_graded_norm_requires_homogeneous():
    s = GramForm(dim=2, gram=np.eye(2))
    with pytest.raises(NotHomogeneous):
        graded_norm(s, 2, x(0) + multiply(x(0), x(1)))


def test_graded_norm_scaling_with_form():
    """Scaling the base form by c scales the degree-d slice norm by c^d."""
    rng = np.random.default_rng(0)
    a_mat = rng.standard_normal((3, 3))
    s = GramForm(dim=3, gram=a_mat @ a_mat.T)
    s4 = GramForm(dim=3, gram=4.0 * (a_mat @ a_mat.T))
    elem = AlgebraElement.zero(3, 3)
    for alpha in slice_monomials(3, 3):
        elem = elem + float(rng.standard_normal()) * AlgebraElement(
            3, 3, {alpha: 1.0}
        )
    n1 = graded_norm(s, 3, elem)
    n2 = graded_norm(s4, 3, elem)
    assert n2 == pytest.approx(8.0 * n1, rel=1e-8)


def test_graded_inner_reference_system_semantics():
    """Degree-1 slices are reference-independent (orthogonal change of
    s-orthonormal system is an isometry), but from degree 2 on the canonical
    monomial convention is tied to the chosen system: Sym^d of an orthogonal
    map is not an isometry for the plain monomial l2 structure.  The default
    (whitening) system is deterministic, which is what the tower code relies
    on."""
    rng = np.random.default_rng(1)
    a_mat = rng.standard_normal((2, 2))
    s = GramForm(dim=2, gram=a_mat @ a_mat.T)
    from momentkit.forms import gram_schmidt

    v = x(0) + 0.5 * x(1)
    w = x(1) - 2.0 * x(0)
    base_d1 = graded_inner(s, 1, v, w)
    for seed in range(3):
        r = np.random.default_rng(seed + 10)
        sys = gram_schmidt(s, [r.standard_normal(2) for _ in range(2)])
        assert graded_inner(s, 1, v, w, system=sys) == pytest.approx(
            base_d1, rel=1e-8, abs=1e-8
        )
    # the default reference is reproducible
    a = multiply(x(0), x(0)) + 2.0 * multiply(x(0), x(1))
    assert graded_norm(s, 2, a) == graded_norm(s, 2, a)
    # and hand-check the degree-2 dependence on a 45-degree rotation of I
    ident = GramForm(dim=2, gram=np.eye(2))
    rot = gram_schmidt(
        ident,
        [np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)],
    )
    sq = multiply(x(0), x(0))  # x0^2 = (e1'^2 + 2 e1' e2' + e2'^2)/2
    assert graded_norm(ident, 2, sq) == pytest.approx(1.0, abs=1e-12)
    assert graded_norm(ident, 2, sq, system=rot) == pytest.approx(
        np.sqrt(1.5), abs=1e-10
    )


def test_kernel_monomials_carry_zero_weight():
    s = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    a = multiply(x(1), x(1))  # pure kernel factor
    assert graded_norm(s, 2, a) == pytest.approx(0.0, abs=1e-12)
    mixed = multiply(x(0), x(1))
    assert graded_norm(s, 2, mixed) == pytest.approx(0.0, abs=1e-12)
    kept = multiply(x(0), x(0))
    assert graded_norm(s, 2, kept) == pytest.approx(1.0, abs=1e-10)


def simple_tower(dim, d_max, p_mats, q_mats, lam=None, eta=None, consts=None):
    lam = lam or [1.0] * (d_max + 1)
    eta = eta or [1.0] * (d_max + 1)
    consts = consts or [1.0] * d_max
    pairs = tuple(
        (GramForm(dim=dim, gram=p_mats[k]), GramForm(dim=dim, gram=q_mats[k]))
        for k in range(d_max)
    )
    return GradedSeminormTower(
        dim=dim,
        max_degree=d_max,
        base_forms=pairs,
        lam=tuple(lam),
        eta=tuple(eta),
        constants=tuple(consts),
    )


@pytest.mark.parametrize(
    "field, value", [("lam", (-1.0, 1.0)), ("eta", (1.0, 0.0)), ("constants", (-0.5,))]
)
def test_tower_rejects_bad_weights_with_a_library_error(field, value):
    """Nonpositive lam or eta and a negative constant raise NotInScope, a
    MomentkitError, not a bare ValueError."""
    eye = GramForm(dim=1, gram=np.eye(1))
    weights = {"lam": (1.0, 1.0), "eta": (1.0, 1.0), "constants": (1.0,), field: value}
    with pytest.raises(NotInScope):
        GradedSeminormTower(dim=1, max_degree=1, base_forms=((eye, eye),), **weights)


def test_p_tilde_example():
    # p~(1 + x0 x1)^2 with lam = (2, 1), C_2 = 2, p_2 = I:
    # 4*1 + 2*1 = 6 -> sqrt(6); and with all weights 1: sqrt(1 + 1) etc.
    tower = simple_tower(2, 2, [np.eye(2)] * 2, [np.eye(2)] * 2,
                         lam=[2.0, 1.0, 1.0], consts=[2.0, 1.0])
    a = AlgebraElement.one(2, 2) + multiply(x(0, 2, 2), x(1, 2, 2))
    # slice norms: |1| = 1 (weight 2), deg-2 slice norm 1 (C_2 = 1 here)
    val = p_tilde(tower, a)
    assert val == pytest.approx(np.sqrt(4.0 + 1.0), abs=1e-10)


def test_p_tilde_2sqrt3_example():
    # dim 1, a = 1 + x + x^2 with unit weights and C = (1, 3):
    # p~^2 = 1 + 1 + 3 = 5; pick C_4 = 3 to match sqrt(5); the 2*sqrt(3)
    # example instead uses a = 2 x^2 with C_4 = 3: p~ = sqrt(4*3) = 2 sqrt 3.
    tower = simple_tower(1, 2, [np.eye(1)] * 2, [np.eye(1)] * 2,
                         consts=[1.0, 3.0])
    a = 2.0 * multiply(x(0, 1, 2), x(0, 1, 2))
    assert p_tilde(tower, a) == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-10)


def test_tilde_trace_identity_minimal():
    tower = simple_tower(1, 1, [np.eye(1)], [np.eye(1)])
    rep = tilde_trace_identity(tower)
    assert rep.agree
    assert rep.formula == pytest.approx(2.0, abs=1e-12)
    assert rep.direct == pytest.approx(2.0, abs=1e-12)


def test_tilde_trace_identity_weighted():
    rng = np.random.default_rng(2)
    for trial in range(5):
        n = int(rng.integers(1, 4))
        d_max = int(rng.integers(1, 5))
        p_mats, q_mats = [], []
        for _ in range(d_max):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            p_mats.append(a @ a.T)
            q_mats.append(b @ b.T + 0.5 * np.eye(n))
        lam = list(rng.uniform(0.5, 2.0, d_max + 1))
        eta = list(rng.uniform(0.5, 2.0, d_max + 1))
        consts = list(rng.uniform(0.5, 3.0, d_max))
        tower = simple_tower(n, d_max, p_mats, q_mats, lam, eta, consts)
        rep = tilde_trace_identity(tower)
        assert rep.agree, f"trial {trial}: {rep.formula} vs {rep.direct}"
        assert rep.rel_error < 1e-8


def test_tilde_trace_formula_matches_closed_form():
    # p_2d = 2 I_2, q_2d = I_2 -> tr = 4; formula = 1 + C*4^d terms
    tower = simple_tower(2, 2, [2.0 * np.eye(2)] * 2, [np.eye(2)] * 2)
    rep = tilde_trace_identity(tower)
    assert rep.formula == pytest.approx(1.0 + 4.0 + 16.0, rel=1e-12)
    assert rep.agree


def test_character_norm_bound_examples():
    r = GramForm(dim=2, gram=np.eye(2))
    s = GramForm(dim=2, gram=np.eye(2))
    l = DualFunctional(dim=2, coeffs=np.array([1.0, 0.0]))
    a = multiply(x(0, 2, 2), x(0, 2, 2))
    out = character_norm_bound(l, r, s, 2, a)
    assert out["ok"]
    assert out["lhs"] == pytest.approx(1.0)
    # trace = 2, dual norm = 1, s~ norm = 1: rhs = 4
    assert out["rhs"] == pytest.approx(4.0, rel=1e-10)


def test_character_norm_bound_random_trace_ge_one():
    """Probes restricted to tr(r/s) >= 1, where the bound is a theorem."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        a_mat = rng.standard_normal((n, n))
        r = GramForm(dim=n, gram=a_mat @ a_mat.T + 0.1 * np.eye(n))
        b_mat = rng.standard_normal((n, n))
        s_gram = b_mat @ b_mat.T + 0.1 * np.eye(n)
        # scale s so that tr(r/s) >= 1
        from momentkit import trace_value

        tr = trace_value(r, GramForm(dim=n, gram=s_gram))
        if tr < 1.0:
            s_gram = s_gram * tr  # tr(r/(c s)) = tr/c -> 1/None... rescale
        s = GramForm(dim=n, gram=s_gram)
        assert trace_value(r, s) >= 1.0 - 1e-9
        l = DualFunctional(dim=n, coeffs=rng.standard_normal(n))
        coeffs = {
            alpha: float(rng.standard_normal())
            for alpha in slice_monomials(n, d)
        }
        a = AlgebraElement(n, d, coeffs)
        out = character_norm_bound(l, r, s, d, a)
        assert out["ok"]
