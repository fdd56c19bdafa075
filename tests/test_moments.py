"""Moment functionals, s_L, moment/localizing matrices, growth diagnostics."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from momentkit import (
    AlgebraElement,
    CarlemanVerdict,
    DiscreteMeasure,
    GramForm,
    INFINITE,
    MomentFunctional,
    QuadraticModuleSpec,
    carleman_diagnostic,
    continuity_constant,
    from_measure,
    is_infinite,
    localizing_matrix,
    moment_matrix,
    multiply,
    s_L,
    square_constant,
    square_positive_check,
)
from momentkit.errors import (
    DegreeOverflow,
    DimensionMismatch,
    InvalidInput,
    MomentkitError,
    NegativeEvenMoment,
    NotSquarePositive,
    ZeroNormDirection,
)
from momentkit.gaussian import McConfig
from momentkit.forms import gram_schmidt, kernel_basis, whitening_system
from momentkit.moments import (
    _logsumexp,
    carleman_from_log_moments,
    cbs_check,
    log_even_moments_from_measure,
    log_gaussian_even_moments,
    log_squared_exponential_moments,
    monomials_up_to,
)
from momentkit.solver import solve_univariate
from momentkit.symalg import slice_monomials
from momentkit.traces import nuclear_tower, trace_scaling_check
from sparse_oracles import power


def two_atom_measure():
    return DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
    )


def x(i, dim=2, deg=4):
    return AlgebraElement.variable(i, dim, deg)


def table(dim, max_degree, moments):
    """The functional with the given {multi-index: moment} map, through
    from_jsonable (absent moments are zero)."""
    return MomentFunctional.from_jsonable({
        "dim": dim,
        "max_degree": max_degree,
        "moments": [{"alpha": list(a), "value": v} for a, v in moments.items()],
    })


@pytest.mark.parametrize(
    "atoms, weights",
    [
        ([[1.0], [2.0]], [np.nan, 1.0]),
        ([[1.0], [2.0]], [np.inf, 0.5]),
        ([[np.nan], [2.0]], [0.5, 0.5]),
        ([[1.0], [-np.inf]], [0.5, 0.5]),
    ],
    ids=["nan_weight", "inf_weight", "nan_atom", "inf_atom"],
)
def test_discrete_measure_rejects_non_finite(atoms, weights):
    """A NaN compares False with every bound, so the weight checks alone
    would let it through; non-finite input is rejected first."""
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(dim=1, atoms=np.array(atoms), weights=np.array(weights))


@pytest.mark.parametrize(
    "values",
    [[1.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [1.0, 0.0, np.inf], [1.0, -np.inf, 1.0]],
    ids=["nan_moment", "nan_L_of_1", "inf_moment", "minus_inf_moment"],
)
def test_moment_functional_rejects_non_finite(values):
    """A NaN L(1) passes the |L(1) - 1| bound (NaN compares False), so the
    table is checked for non-finite values first, by value and by map."""
    with pytest.raises(InvalidInput, match="finite"):
        MomentFunctional(dim=1, max_degree=2, values=values)
    with pytest.raises(InvalidInput, match="finite"):
        table(1, 2, {(k,): v for k, v in enumerate(values)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiscreteMeasure(dim=1, atoms=np.array([[np.nan]]), weights=np.array([1.0])),
        lambda: DiscreteMeasure(dim=1, atoms=np.array([[1.0], [2.0]]), weights=np.array([1.5, -0.5])),
        lambda: DiscreteMeasure(dim=1, atoms=np.array([[1.0], [2.0]]), weights=np.array([0.5, 0.4])),
        lambda: McConfig(seed=0, samples=0),
        lambda: McConfig(seed=0, samples=10, streams=0),
        lambda: table(1, 2, {(0,): 0.5}),
    ],
    ids=["non_finite", "negative_weight", "weight_sum", "samples", "streams", "L_of_1"],
)
def test_constructors_raise_typed_invalid_input(build):
    """Out-of-domain constructor arguments raise InvalidInput: a
    MomentkitError for the CLI's typed exits and a ValueError for callers
    that catch one."""
    with pytest.raises(InvalidInput) as info:
        build()
    assert isinstance(info.value, MomentkitError)
    assert isinstance(info.value, ValueError)


_I2 = GramForm(dim=2, gram=np.eye(2))
_Q_KERNEL = GramForm(dim=2, gram=np.diag([1.0, 0.0]))  # tr(I / q) is infinite


@pytest.mark.parametrize(
    "call",
    [
        lambda: trace_scaling_check(_I2, _Q_KERNEL, 0.5, 2.0),
        lambda: nuclear_tower(dim=3, levels=1),
        lambda: solve_univariate([1.0, 0.0]),
        lambda: carleman_from_log_moments([0.0, 0.0, 0.0]),
    ],
    ids=["trace_scaling_infinite", "tower_levels", "too_few_moments", "too_few_log_moments"],
)
def test_library_calls_raise_typed_invalid_input(call):
    """Out-of-domain arguments of library calls raise InvalidInput, which
    is still the ValueError these calls raised before."""
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, MomentkitError)
    assert isinstance(info.value, ValueError)


def test_from_measure_moments():
    L = from_measure(two_atom_measure(), 4)
    assert L.moment((0, 0)) == pytest.approx(1.0)
    assert L.moment((1, 0)) == pytest.approx(0.0)
    assert L.moment((2, 0)) == pytest.approx(1.0)
    assert L.moment((1, 1)) == pytest.approx(1.0)
    assert L.moment((0, 2)) == pytest.approx(2.0)


def test_functional_call_and_degree_cap():
    L = from_measure(two_atom_measure(), 2)
    a = multiply(x(0, 2, 2), x(1, 2, 2))
    assert L(a) == pytest.approx(1.0)
    big = AlgebraElement(2, 6, {(3, 3): 1.0})
    with pytest.raises(DegreeOverflow):
        L(big)


def test_extend_keeps_existing_values():
    L = from_measure(two_atom_measure(), 2)
    L4 = L.extend(4)
    assert L4.max_degree == 4
    assert L4.moment((1, 1)) == pytest.approx(L.moment((1, 1)))


def test_serialization_round_trip():
    """to_jsonable lists the nonzero moments in graded-lex order, and
    from_jsonable rebuilds the same table bit for bit."""
    L = from_measure(two_atom_measure(), 3)
    data = L.to_jsonable()
    alphas = [tuple(e["alpha"]) for e in data["moments"]]
    assert alphas == sorted(alphas, key=lambda a: (sum(a), a))
    assert (1, 0) not in alphas and all(e["value"] != 0.0 for e in data["moments"])
    back = MomentFunctional.from_jsonable(data)
    assert np.array_equal(back.values, L.values)
    assert back.to_jsonable() == data
    for alpha in monomials_up_to(2, 3):
        assert back.moment(alpha) == L.moment(alpha)


@pytest.mark.parametrize(
    "moments, error",
    [
        ({(0, 0): 1.0, (1,): 2.0}, DimensionMismatch),
        ({(0, 0): 1.0, (2, -1): 2.0}, DimensionMismatch),
        ({(0, 0): 1.0, (1, 0, 0): 2.0}, DimensionMismatch),
        ({(0, 0): 1.0, (3, 2): 2.0}, DegreeOverflow),
        ({(0, 0): 0.5}, InvalidInput),
        ({(1, 1): 1.0}, InvalidInput),
    ],
    ids=["short_index", "negative_index", "long_index", "degree", "L_of_1", "no_L_of_1"],
)
def test_from_jsonable_typed_errors(moments, error):
    with pytest.raises(error):
        table(2, 4, moments)


@pytest.mark.parametrize("alpha", [(1,), (3, -1), (1, 0, 5)])
def test_moment_rejects_malformed_multi_index(alpha):
    """Both moment methods validate the multi-index against the dimension."""
    nu = two_atom_measure()
    for target in (nu, from_measure(nu, 4)):
        with pytest.raises(DimensionMismatch):
            target.moment(alpha)


def test_s_L_values_and_clamp():
    L = from_measure(two_atom_measure(), 4)
    v = x(0) + x(1)
    # L((x0+x1)^2) = m20 + 2 m11 + m02 = 1 + 2 + 2 = 5
    assert s_L(L, v) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    with pytest.raises(NotSquarePositive):
        bad = table(1, 2, {(0,): 1.0, (2,): -0.5})
        s_L(bad, x(0, 1, 2))


def test_moment_matrix_psd_and_entries():
    L = from_measure(two_atom_measure(), 4)
    m = moment_matrix(L, 2)
    assert m.shape == (6, 6)
    assert np.allclose(m, m.T)
    assert np.linalg.eigvalsh(m)[0] > -1e-10
    assert square_positive_check(L)


def test_localizing_matrix_nonnegative_on_support():
    L = from_measure(two_atom_measure(), 4)
    g = AlgebraElement(
        2, 2, {(0, 0): 9.0, (2, 0): -1.0, (0, 2): -1.0}
    )  # 9 - |c|^2 >= 0 on both atoms
    loc = localizing_matrix(L, g, 1)
    assert np.linalg.eigvalsh(loc)[0] > -1e-10


def _moment_matrix_loop(L, d):
    """Reference moment matrix: one table lookup per entry, the table keyed
    by the multi-indices of monomials_up_to."""
    by_alpha = dict(zip(monomials_up_to(L.dim, L.max_degree), L.values))
    basis = monomials_up_to(L.dim, d)
    m = np.empty((len(basis), len(basis)))
    for i, alpha in enumerate(basis):
        for j in range(i, len(basis)):
            gamma = tuple(x + y for x, y in zip(alpha, basis[j]))
            m[i, j] = m[j, i] = by_alpha[gamma]
    return m


def _localizing_matrix_loop(L, g, d):
    """Reference localizing matrix: per entry, the sum over g's terms in
    term order of c * L(x^(idx + alpha + beta))."""
    by_alpha = dict(zip(monomials_up_to(L.dim, L.max_degree), L.values))
    basis = monomials_up_to(L.dim, d)
    m = np.empty((len(basis), len(basis)))
    for i, alpha in enumerate(basis):
        for j in range(i, len(basis)):
            gamma = tuple(x + y for x, y in zip(alpha, basis[j]))
            val = 0.0
            for idx, c in g.terms.items():
                val += c * by_alpha[tuple(x + y for x, y in zip(idx, gamma))]
            m[i, j] = m[j, i] = val
    return m


@st.composite
def functional_and_generator(draw):
    """(L, g, d): a random moment table with zero and negative entries, and
    a generator of degree <= 2 drawn with zero and negative coefficients."""
    dim, d, g_degree = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 2))
    coeff = st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.375, 1e-3, -7.0])
    terms = draw(st.dictionaries(st.sampled_from(monomials_up_to(dim, g_degree)), coeff, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_degree = 2 * d + g_degree
    values = rng.standard_normal(math.comb(dim + max_degree, dim))
    values[rng.random(len(values)) < 0.3] = 0.0
    values[0] = 1.0
    L = MomentFunctional(dim=dim, max_degree=max_degree, values=values)
    return L, AlgebraElement(dim, g_degree, terms), d


@settings(max_examples=60, deadline=None)
@given(functional_and_generator())
def test_hankel_gathers_match_the_per_entry_loops(case):
    L, g, d = case
    assert np.array_equal(moment_matrix(L, d), _moment_matrix_loop(L, d))
    assert np.array_equal(localizing_matrix(L, g, d), _localizing_matrix_loop(L, g, d))


def test_quadratic_forms_match_sparse_products():
    """s_L and cbs_check against L of sparse multiply products: s_L within
    1e-13 relative, and the same CBS verdict, which a table that is not
    positive (random moments) flips for some pairs."""
    rng = np.random.default_rng(3)
    verdicts = set()
    for dim in (1, 2, 3):
        for k in (1, 2):
            nu = DiscreteMeasure(
                dim=dim, atoms=rng.standard_normal((5, dim)), weights=np.full(5, 0.2)
            )
            measured = from_measure(nu, 2 * k)
            values = rng.standard_normal(math.comb(dim + 2 * k, dim))
            values[0] = 1.0
            signed = MomentFunctional(dim=dim, max_degree=2 * k, values=values)
            alphas = monomials_up_to(dim, k)
            for _ in range(10):
                a, b = (
                    AlgebraElement(dim, 2 * k, dict(zip(alphas, rng.standard_normal(len(alphas)))))
                    for _ in range(2)
                )
                want = math.sqrt(measured(multiply(a, a)))
                assert s_L(measured, a) == pytest.approx(want, rel=1e-13, abs=0.0)
                for L in (measured, signed):
                    lhs = L(multiply(a, b)) ** 2
                    rhs = L(multiply(a, a)) * L(multiply(b, b))
                    ok = lhs <= rhs + 1e-9 * max(abs(lhs), abs(rhs), 1.0)
                    assert cbs_check(L, a, b) == ok
                    verdicts.add(ok)
    assert verdicts == {True, False}


def test_quadratic_module_membership():
    g = AlgebraElement(2, 2, {(0, 0): 9.0, (2, 0): -1.0, (0, 2): -1.0})
    spec = QuadraticModuleSpec(generators=(g,))
    assert spec.contains([1.0, 2.0])
    assert not spec.contains([3.0, 1.0])


def test_cbs_inequality():
    L = from_measure(two_atom_measure(), 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = AlgebraElement.from_vector(rng.standard_normal(2), 4)
        b = AlgebraElement.from_vector(rng.standard_normal(2), 4)
        assert cbs_check(L, a, b)


def test_continuity_constant_euclidean():
    """For L from a measure and p = I, the constant is the l2 norm of L on
    the monomials of the doubled slice."""
    nu = DiscreteMeasure(
        dim=1, atoms=np.array([[2.0]]), weights=np.array([1.0])
    )
    L = from_measure(nu, 4)
    p = GramForm(dim=1, gram=np.eye(1))
    c = continuity_constant(L, p, 1)
    # slice degree 2 of dim 1: single monomial x^2 -> |L(x^2)| = 4
    assert c == pytest.approx(4.0, abs=1e-12)


def test_continuity_constant_infinite_on_kernel():
    nu = DiscreteMeasure(
        dim=2, atoms=np.array([[1.0, 1.0]]), weights=np.array([1.0])
    )
    L = from_measure(nu, 4)
    p = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
    assert is_infinite(continuity_constant(L, p, 1))


def test_square_constant_certifies_squares():
    rng = np.random.default_rng(1)
    for _ in range(10):
        atoms = rng.uniform(-2, 2, size=(3, 2))
        w = rng.uniform(0.1, 1.0, 3)
        w = w / w.sum()
        nu = DiscreteMeasure(dim=2, atoms=atoms, weights=w)
        L = from_measure(nu, 4)
        a_mat = rng.standard_normal((2, 2))
        p = GramForm(dim=2, gram=a_mat @ a_mat.T + 0.2 * np.eye(2))
        c = square_constant(L, p, 1)
        assert not is_infinite(c)
        # certified: L(b^2) <= C p~(b)^2 for random degree-1 b
        from momentkit import graded_norm

        for _ in range(20):
            v = rng.standard_normal(2)
            b = AlgebraElement.from_vector(v, 2)
            lhs = L(multiply(b, b))
            rhs = c * graded_norm(p, 1, b) ** 2
            assert lhs <= rhs * (1 + 1e-8) + 1e-10


def sparse_constants(L, p, d, system=None):
    """Reference (continuity, square) constants by sparse multiply/power
    expansion of the orthonormalized monomials of the reference basis."""
    on = list((system or whitening_system(p)).vectors)
    u = np.column_stack(on + kernel_basis(p))
    gens = [AlgebraElement.from_vector(u[:, i], 2 * d) for i in range(p.dim)]

    def monomials(degree):
        out = []
        for alpha in slice_monomials(p.dim, degree):
            elem = AlgebraElement.one(p.dim, 2 * d)
            for i, e in enumerate(alpha):
                elem = multiply(elem, power(gens[i], e))
            out.append((elem, any(alpha[len(on) :])))
        return out

    def tol(values):
        return 1e-10 * max(1.0, max(abs(v) for v in values))

    vals = [(L(m), ker) for m, ker in monomials(2 * d)]
    t = tol([v for v, _ in vals])
    if any(ker and abs(v) > t for v, ker in vals):
        cont = INFINITE
    else:
        cont = math.sqrt(sum(v * v for v, ker in vals if not ker))
    elems = monomials(d)
    mat = np.array([[L(multiply(a, b)) for b, _ in elems] for a, _ in elems])
    kernel = np.array([ker for _, ker in elems])
    if np.abs(mat[kernel]).max(initial=0.0) > tol(mat.ravel()):
        sq = INFINITE
    else:
        sq = max(np.linalg.eigvalsh(mat[np.ix_(~kernel, ~kernel)])[-1], 0.0)
    return cont, sq


def test_constants_match_sparse_expansion():
    """Dense, rank-deficient and explicit-reference forms; the measure lies
    in the range of the rank-deficient form in the first case and leaks into
    its kernel in the second, so both INFINITE and finite kernel cases
    occur."""
    rng = np.random.default_rng(7)
    seen_infinite = seen_finite_deficient = 0
    for n, d in ((2, 2), (3, 2), (3, 1), (2, 3)):
        a_mat = rng.standard_normal((n, n))
        dense = GramForm(dim=n, gram=a_mat @ a_mat.T + 0.1 * np.eye(n))
        b_mat = rng.standard_normal((n, n - 1))
        deficient = GramForm(dim=n, gram=b_mat @ b_mat.T)
        system = gram_schmidt(dense, [rng.standard_normal(n) for _ in range(n)])
        wts = rng.uniform(0.1, 1.0, 4)
        wts /= wts.sum()
        in_range = DiscreteMeasure(
            dim=n, atoms=rng.standard_normal((4, n - 1)) @ b_mat.T, weights=wts
        )
        spread = DiscreteMeasure(dim=n, atoms=rng.standard_normal((4, n)), weights=wts)
        for nu in (in_range, spread):
            L = from_measure(nu, 2 * d)
            for p, ref in ((dense, None), (deficient, None), (dense, system)):
                want = sparse_constants(L, p, d, ref)
                got = (
                    continuity_constant(L, p, d, system=ref),
                    square_constant(L, p, d, system=ref),
                )
                for g, w in zip(got, want):
                    if is_infinite(w):
                        seen_infinite += 1
                        assert is_infinite(g)
                    else:
                        seen_finite_deficient += p is deficient
                        assert g == pytest.approx(w, rel=1e-12)
    assert seen_infinite and seen_finite_deficient


def test_square_constant_vs_continuity_constant_distinct():
    """The square constant is not the square of the linear continuity
    constant; the square-positivity transfer genuinely needs its own
    certificate."""
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 1.0], [-1.0, 1.0]]),
        weights=np.array([0.5, 0.5]),
    )
    L = from_measure(nu, 4)
    p = GramForm(dim=2, gram=np.eye(2))
    c_sq = square_constant(L, p, 1)
    c_lin = continuity_constant(L, p, 1)
    assert not math.isclose(c_sq, c_lin)


def test_carleman_gaussian_divergent():
    logs = log_gaussian_even_moments(200)
    t0 = time.time()
    diag = carleman_from_log_moments(logs)
    assert time.time() - t0 < 5.0
    assert diag.verdict is CarlemanVerdict.DIVERGENT_LIKELY
    assert is_infinite(diag.tail_sum_estimate)
    # Gaussian terms: t_n = ((2n-1)!!)^{-1/(2n)} ~ sqrt(e/(2n))
    assert diag.terms[0] == pytest.approx(1.0, abs=1e-12)


def test_log_gaussian_even_moments_match_gammaln():
    ns = np.arange(1, 201)
    want = gammaln(2 * ns + 1) - ns * np.log(2.0) - gammaln(ns + 1)
    got = log_gaussian_even_moments(200)
    # n = 1 is log 1 = 0, where only an absolute comparison means anything
    assert abs(got[0]) <= 1e-15
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-14, atol=0.0)


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(0)
    cases = [
        np.array([-np.inf]),
        np.full(4, -np.inf),
        np.array([2.5]),
        np.zeros(3),
        np.array([0.0, -np.inf, 0.0, -1.0]),
    ]
    for _ in range(3000):
        size = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            a = rng.normal(scale=rng.choice([1.0, 30.0, 700.0]), size=size)
        else:  # a coarse grid makes ties at the maximum common
            a = rng.integers(-4, 3, size=size) * 0.75
        a[rng.random(size) < 0.2] = -np.inf  # zero weights
        cases.append(a)
    for a in cases:
        assert _logsumexp(a).hex() == float(logsumexp(a)).hex(), a


def test_carleman_squared_exponential_convergent():
    logs = log_squared_exponential_moments(200)
    diag = carleman_from_log_moments(logs)
    assert diag.verdict is CarlemanVerdict.CONVERGENT_LIKELY
    assert diag.tail_sum_estimate == pytest.approx(
        1.0 / (math.e - 1.0), abs=1e-9
    )


def test_carleman_compact_support_divergent():
    nu = DiscreteMeasure(
        dim=1, atoms=np.array([[-1.0], [2.0]]), weights=np.array([0.5, 0.5])
    )
    logs = log_even_moments_from_measure(nu, np.array([1.0]), 200)
    diag = carleman_from_log_moments(logs)
    assert diag.verdict is CarlemanVerdict.DIVERGENT_LIKELY


def test_carleman_from_functional_requires_even_positivity():
    L = table(1, 8, {(0,): 1.0, (2,): 1.0, (4,): -3.0})
    with pytest.raises(NegativeEvenMoment):
        carleman_diagnostic(L, AlgebraElement.variable(0, 1, 1), n_max=4)


@pytest.mark.parametrize("m8", [1.0, 1e6])
def test_carleman_negativity_is_judged_on_its_own_terms(m8):
    """L(x^4) = -1e-9 is negative beyond rounding whatever L(x^8) is: the
    tolerance scales with the terms of v^4, not of v^8."""
    L = table(1, 8, {(0,): 1.0, (2,): 1.0, (4,): -1e-9, (6,): 1.0, (8,): m8})
    with pytest.raises(NegativeEvenMoment):
        carleman_diagnostic(L, AlgebraElement.variable(0, 1, 1), n_max=4)


def test_carleman_via_functional_measure_path():
    """With a source measure attached, the diagnostic works in log space for
    any N, far past the stored degree."""
    nu = DiscreteMeasure(
        dim=2,
        atoms=np.array([[1.0, 0.0], [0.0, 2.0]]),
        weights=np.array([0.5, 0.5]),
    )
    L = from_measure(nu, 4)
    diag = carleman_diagnostic(L, AlgebraElement.variable(1, 2, 1), n_max=100)
    assert diag.verdict is CarlemanVerdict.DIVERGENT_LIKELY


def _on_axis():
    """Atoms on the x-axis: every direction (0, c) has L(v^2) = 0."""
    return DiscreteMeasure(dim=2, atoms=np.array([[1.0, 0.0], [-2.0, 0.0]]),
                           weights=np.array([0.5, 0.5]))


@pytest.mark.parametrize("v", [(0.0, 0.0), (0.0, 1.0)], ids=["zero", "kernel"])
def test_carleman_zero_direction_source_route(v):
    """With a source measure, a direction with s_L(v) = 0 raises instead of
    returning an UNDETERMINED verdict with infinite terms and a NaN slope."""
    with pytest.raises(ZeroNormDirection):
        carleman_diagnostic(from_measure(_on_axis(), 4), AlgebraElement.from_vector(v, 1), 6)
    with pytest.raises(ZeroNormDirection):
        log_even_moments_from_measure(_on_axis(), np.array(v), 6)


@pytest.mark.parametrize("v", [(0.0, 0.0), (0.0, 1.0)], ids=["zero", "kernel"])
def test_carleman_zero_direction_stored_route(v):
    """From stored moments alone, L(v^2) = 0 raises instead of reading as
    L(v^2n) = 1e-300 and a CONVERGENT_LIKELY tail of about 1e150."""
    stored = MomentFunctional(dim=2, max_degree=12,
                              values=from_measure(_on_axis(), 12).values)
    with pytest.raises(ZeroNormDirection):
        carleman_diagnostic(stored, AlgebraElement.from_vector(v, 1), n_max=6)
