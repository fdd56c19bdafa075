"""Concentration of measure families over coordinate subalgebras.

A family assigns to each coordinate subset S a discrete measure on R^|S|
(the marginal picture of a projective system).  All probabilities are exact
weight sums; concentration over the delta-ball is certified through the
exact Chebyshev eigenvalue criterion.  Its sup over the delta-ball of an
index S is delta^2 lambda_S, lambda_S the top eigenvalue of nu_S's
second-moment matrix whitened by p|_S, so one spectrum per index decides
every (epsilon, delta) pair, and the eps-gamma equivalence too: Chebyshev
bounds every tail the certificate speaks of by that sup.

Every lattice pass runs once per size of index, not once per index.  A
global measure's marginals of one size come from one projection and one
stable sort of the images, which puts coinciding ones side by side and
maps each global atom to its image's place among the marginal's atoms.  A
restriction p|_S lives in a stack, never in a per-index GramForm: forms
decomposes all indices of one size with one stacked eigh and hands them
out in (size, rank) groups of stacked eigenpairs.  The spectral pass
whitens each group in one stack; the Prokhorov pass tests the atoms of
every index of a (size, rank of q|_S) group in one stacked dual-ball call,
and reads nesting off those verdicts through the image maps.  Each stacked
value is bit for bit the one a lone index gets.  A family keeps {S:
lambda_S} of the last form p and the dual-ball stacks of the last form q
it met (its entries are read-only, so neither can go stale), so all checks
on one (family, p) or (family, q) share them; the nested checks reach each
index's supersets by bitmask.  The module ends in a nine-stage
verification pipeline combining moment functionals, concentration
certificates and Prokhorov-type mass bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    LATTICE_CAP,
    DimensionMismatch,
    HypothesisNotCertified,
    InvalidInput,
    KernelIssue,
    MomentkitError,
    NotInScope,
    NotSubset,
)
from .forms import (
    DualFunctional,
    GramForm,
    _dual_ball_stacks,
    _in_unit_dual_ball,
    _in_unit_dual_balls,
    _picked,
    _restriction_groups,
    dual_norm,
    is_infinite,
    jsonable,
)
from .moments import DiscreteMeasure, QuadraticModuleSpec, from_measure
from .symalg import _graded_slice, _monomial_values, monomials_up_to
from .traces import trace_value


# ---------------------------------------------------------------------------
# Index lattice and families
# ---------------------------------------------------------------------------

# Tolerances of the lattice checks; the CLI echoes these into reports.  R is
# the largest |coordinate| of the atoms whose moments are compared.
CERTIFICATE_SLACK = 1e-9  # relative slack on epsilon in the concentration certificate
CONSISTENCY_ABS = 1e-10  # nested marginals' moment difference allowed, per max(1, R)^|alpha|
MASS_SLACK = 1e-12  # shortfall of a mass below its bound still accepted
IDENTITY_ABS = 1e-12  # representation identity error allowed, per max(1, R)^|alpha|
_CERTIFICATE_FLOOR = 1e-15  # absolute slack on epsilon in the concentration certificate
_KERNEL_LEAK_REL = 1e-10  # a supported atom's p|_S-kernel component allowed, relative
_TRACE_IDENTITY_REL = 1e-10  # error of tr(p / (delta r_eps)) = eps allowed, relative
_REVERSE_TRACE_SLACK = 1e-9  # excess of the reverse construction's trace over 2 allowed
_SWEEP_BLOCK = 256  # monomial columns per superset sweep of consistency_check
_FILL_BLOCK = 1 << 16  # atom-monomial values per table fill of consistency_check
_MERGE_BLOCK = 1 << 16  # image values (indices x atoms x coordinates) per block of _marginals


@dataclass(frozen=True, order=True)
class SubalgebraIndex:
    """Sorted tuple of coordinate indices (0-based) naming the subalgebra
    generated by those coordinates."""

    coords: tuple

    def __post_init__(self):
        c = tuple(sorted(int(i) for i in self.coords))
        if len(set(c)) != len(c) or (c and c[0] < 0):
            raise DimensionMismatch(f"bad coordinate subset {self.coords}")
        object.__setattr__(self, "coords", c)

    def __len__(self):
        return len(self.coords)

    def is_subset(self, other: "SubalgebraIndex") -> bool:
        return set(self.coords) <= set(other.coords)

    def positions_in(self, other: "SubalgebraIndex") -> list[int]:
        if not self.is_subset(other):
            raise NotSubset(f"{self.coords} not within {other.coords}")
        return [other.coords.index(i) for i in self.coords]


def full_lattice(n: int) -> list[SubalgebraIndex]:
    """All 2^n - 1 nonempty coordinate subsets, ordered by size then lex."""
    if n > LATTICE_CAP:
        raise NotInScope(f"full lattice capped at n = {LATTICE_CAP}, got {n}")
    return [
        SubalgebraIndex(coords=combo)
        for size in range(1, n + 1)
        for combo in itertools.combinations(range(n), size)
    ]


def _marginals(nu: DiscreteMeasure, cols: np.ndarray) -> tuple:
    """Marginals of nu on the coordinate tuples in the rows of ``cols`` (one
    size, positions among nu's coordinates), by pushforward's rule: each
    atom's image copies its values, and images equal in every coordinate
    (float ==, so 0.0 and -0.0 coincide) merge into the first of them, with
    the weights added from 0.0 in atom order.  One stable sort of all the
    images of a block of tuples (keyed by tuple, then by the image + 0.0,
    which reads -0.0 as 0.0) puts coinciding images next to each other in
    atom order; np.add.at makes the merging additions in that order.  The
    working set is linear in the atom count: blocks of at most _MERGE_BLOCK
    image values.  Also returns the image maps: row i, entry j the place of
    atom j's image among the i-th marginal's atoms."""
    k, size = len(nu.weights), cols.shape[1]
    step = max(1, _MERGE_BLOCK // max(1, k * size))
    out, maps = [], []
    for lo in range(0, len(cols), step):
        block = cols[lo:lo + step]
        images = nu.atoms[:, block].swapaxes(0, 1).reshape(len(block) * k, size)
        tuple_of = np.repeat(np.arange(len(block)), k)
        keys = images + 0.0
        order = np.lexsort((*keys.T, tuple_of))
        keys, tuples = keys[order], tuple_of[order]
        new = np.ones(len(order), dtype=bool)  # a sorted image starts a group
        new[1:] = (tuples[1:] != tuples[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
        merged_into = np.empty_like(order)
        merged_into[order] = order[new][np.cumsum(new) - 1]  # its group's first atom
        sums = np.zeros(len(order))
        np.add.at(sums, merged_into, np.tile(nu.weights, len(block)))
        first = merged_into == np.arange(len(order))
        atoms, weights = images[first], sums[first]
        atoms.setflags(write=False)  # and so every marginal's slice
        weights.setflags(write=False)
        per_tuple = first.reshape(-1, k)
        ranks = np.cumsum(per_tuple, axis=1) - 1  # a first image's place in its marginal
        maps.append(ranks.ravel()[merged_into].reshape(-1, k))
        ends = np.cumsum(per_tuple.sum(axis=1)).tolist()
        out += [
            DiscreteMeasure._marginal(atoms[a:b], weights[a:b])
            for a, b in zip([0] + ends[:-1], ends)
        ]
    return out, np.vstack(maps)


def pushforward(
    nu: DiscreteMeasure, s: SubalgebraIndex, t: SubalgebraIndex
) -> DiscreteMeasure:
    """Marginal of a measure over T on the sub-coordinates S: project atoms
    and merge exactly coinciding images by weight addition, in atom order
    (the one-index case of the pass that builds a family's marginals)."""
    if nu.dim != len(t):
        raise DimensionMismatch(f"measure dim {nu.dim} != |T| = {len(t)}")
    return _marginals(nu, np.array(s.positions_in(t), dtype=int).reshape(1, len(s)))[0][0]


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """Finite map SubalgebraIndex -> DiscreteMeasure over those coordinates,
    held read-only.  from_global also keeps the image maps (row S, in index
    order: the place among nu_S's atoms of each global atom's image; None
    on a family built from entries).  It keeps {S: lambda_S} of the last
    form p it was checked against, and the dual-ball stacks of the last
    form q of a Prokhorov check: one slot each, matched by identity
    (GramForm is frozen)."""

    entries: MappingProxyType
    _images: np.ndarray = field(default=None, init=False, repr=False)
    _spectra: tuple = field(default=(None, None), init=False, repr=False)
    _balls: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for idx, nu in self.entries.items():
            if nu.dim != len(idx):
                raise DimensionMismatch(
                    f"entry {idx.coords} has measure dim {nu.dim}"
                )

    def indices(self) -> list[SubalgebraIndex]:
        return sorted(self.entries, key=lambda s: (len(s), s.coords))

    @classmethod
    def from_global(cls, nu: DiscreteMeasure, lattice=None) -> "MeasureFamily":
        """Marginals of one global measure over a lattice (default: full),
        each pushforward's from the top index, with their image maps; the
        indices of one size share one projection and one coincidence pass."""
        if lattice is None:
            lattice = full_lattice(nu.dim)
        top = SubalgebraIndex(coords=tuple(range(nu.dim)))
        for s in lattice:
            if s.coords and s.coords[-1] >= nu.dim:
                s.positions_in(top)  # raises NotSubset
        marginals, maps = {}, [np.zeros((0, len(nu.weights)), dtype=np.intp)]
        idxs = sorted(dict.fromkeys(lattice), key=lambda s: (len(s), s.coords))
        for size, group in itertools.groupby(idxs, key=len):
            group = list(group)
            cols = np.array([s.coords for s in group], dtype=int).reshape(len(group), size)
            nus, images = _marginals(nu, cols)
            marginals.update(zip(group, nus))
            maps.append(images)
        fam = cls(entries={s: marginals[s] for s in lattice})
        images = np.vstack(maps)
        images.setflags(write=False)
        object.__setattr__(fam, "_images", images)
        return fam


def _lattice_bits(idxs):
    """The family's distinct coordinates in sorted order, the k-th standing
    for bit k: their number and each index's bitmask."""
    bit = {c: k for k, c in enumerate(sorted({i for s in idxs for i in s.coords}))}
    if len(bit) > LATTICE_CAP:
        raise NotInScope(f"lattice sweeps capped at {LATTICE_CAP} coordinates, got {len(bit)}")
    return len(bit), np.array([sum(1 << bit[i] for i in s.coords) for s in idxs], dtype=np.int64)


def _padded(nus):
    """Measures on one R^s stacked: (atoms padded with zero rows to the
    largest count, weights padded with 0.0, which rows are atoms)."""
    counts = np.array([len(nu.weights) for nu in nus])
    real = np.arange(counts.max()) < counts[:, None]
    atoms, weights = np.zeros(real.shape + (nus[0].dim,)), np.zeros(real.shape)
    atoms[real] = np.vstack([nu.atoms for nu in nus])
    weights[real] = np.concatenate([nu.weights for nu in nus])
    return atoms, weights, real


def _by_count(real):
    """The rows of a padded stack by atom count, as (rows, count): an einsum
    or matmul over the atoms may add in an order set by their number, so a
    reduction that must equal its lone measure's runs per count, on the
    atoms alone."""
    counts = real.sum(axis=1)
    for k in sorted(set(counts.tolist())):
        yield np.flatnonzero(counts == k), k


def _moment_rows(nus, degree: int) -> np.ndarray:
    """The moments up to ``degree`` of measures on one R^s, one row each in
    monomials_up_to order: one monomial-kernel call for all their padded
    atoms, one stacked product per atom count, each row bit for bit its
    measure's weights times its values."""
    atoms, weights, real = _padded(nus)
    values = _monomial_values(atoms.reshape(-1, atoms.shape[2]), degree)
    values = values.reshape(real.shape + values.shape[1:])
    out = np.empty((len(nus), values.shape[2]))
    for rows, k in _by_count(real):
        out[rows] = np.matmul(weights[rows, None, :k], values[rows, :k])[:, 0]
    return out


def _moment_tolerances(constant: float, nus, degrees) -> np.ndarray:
    """constant * max(1, R)^|alpha| per monomial degree |alpha|, R the
    largest |coordinate| of the measures' atoms (a degree-|alpha| moment's
    rounding grows so), capped at the largest float: an infinite error fails."""
    coordinates = np.concatenate([[0.0], *(nu.atoms.ravel() for nu in nus)])
    scale = max(1.0, float(np.abs(coordinates).max()))
    with np.errstate(over="ignore"):
        return np.minimum(constant * scale ** np.asarray(degrees, dtype=float), np.finfo(float).max)


def consistency_check(fam: MeasureFamily, degree: int = 4) -> bool:
    """For every nested pair S within T (not only |T| = |S| + 1: the
    tolerance does not shrink along a chain, so differences add up), nu_T
    pushed to S must match nu_S in each moment alpha up to ``degree``,
    within CONSISTENCY_ABS max(1, R)^|alpha|, R the family's largest
    |coordinate|; a non-finite moment fails.  Row mask(S) of one (2^n x
    monomials) table holds nu_S's moments of the monomials supported in S
    (in order, S's own monomials_up_to), NaN elsewhere; n fmax and n fmin
    passes over the bits (Yates' zeta transform), per column block, give
    each row the max and min over its supersets.  Rounded subtraction is
    monotone, so comparing those with the row is the all-pairs verdict (on
    nu_T's own moments, which pushing forward only rounds anew).  The rows
    of one size are filled by _moment_rows, _FILL_BLOCK values at most."""
    idxs = fam.indices()
    n, masks = _lattice_bits(idxs)
    alphas = np.array(monomials_up_to(n, degree))
    supp = (alphas > 0) @ (1 << np.arange(n))
    tols = _moment_tolerances(CONSISTENCY_ABS, fam.entries.values(), alphas.sum(axis=1))
    table = np.full((1 << n, len(supp)), np.nan)
    for _, run in itertools.groupby(range(len(idxs)), key=lambda i: len(idxs[i])):
        run = list(run)  # the positions of one size: idxs is sorted by size
        nus = [fam.entries[idxs[i]] for i in run]
        width = _graded_slice(nus[0].dim, degree).stop * max(len(nu.weights) for nu in nus)
        step = max(1, _FILL_BLOCK // width)
        for lo in range(0, len(run), step):
            mask = masks[run[lo:lo + step]]
            within = np.nonzero((supp & ~mask[:, None]) == 0)[1].reshape(len(mask), -1)
            rows = _moment_rows(nus[lo:lo + step], degree)
            if not np.isfinite(rows).all():
                return False
            table[mask[:, None], within] = rows
    buffer = np.empty(table.shape[0] * min(len(supp), _SWEEP_BLOCK))  # one block's sweep
    cuts = range(_SWEEP_BLOCK, len(supp), _SWEEP_BLOCK)
    for own, tol in zip(np.split(table, cuts, axis=1), np.split(tols, cuts)):
        for fold, sign in ((np.fmax, 1.0), (np.fmin, -1.0)):
            sweep = buffer[:own.size].reshape(own.shape)
            np.copyto(sweep, own)
            for i in range(n):
                pairs = sweep.reshape(-1, 2, 1 << i, sweep.shape[1])
                fold(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
            sweep -= own
            sweep *= sign
            if np.any(sweep > tol):
                return False
    return True


# ---------------------------------------------------------------------------
# Concentration certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    certified_pairs: tuple
    details: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return len(self.certified_pairs) > 0

    def to_jsonable(self) -> dict:
        return {
            "mode": "eps_delta",
            "certified_pairs": [list(map(float, p)) for p in self.certified_pairs],
            "exact": True,
            "details": _jsonable_details(self.details),
        }


def _jsonable_details(d):
    out = {}
    for k, v in d.items():
        key = ",".join(str(i) for i in k.coords) if isinstance(k, SubalgebraIndex) else str(k)
        out[key] = v
    return out


def _second_moment(nu: DiscreteMeasure) -> np.ndarray:
    return np.einsum("j,ji,jk->ik", nu.weights, nu.atoms, nu.atoms)


def _second_moments(nus) -> np.ndarray:
    """The second-moment matrices of measures on one R^s, stacked: those of
    one atom count from one einsum, each bit for bit _second_moment's."""
    atoms, weights, real = _padded(nus)
    out = np.empty((len(nus), atoms.shape[2], atoms.shape[2]))
    for rows, k in _by_count(real):
        own = atoms[rows, :k]
        out[rows] = np.einsum("mj,mji,mjk->mik", weights[rows, :k], own, own)
    return out


def exact_tail(nu: DiscreteMeasure, a: np.ndarray, threshold: float = 1.0) -> float:
    """nu({alpha : |alpha(a)| >= threshold}) as an exact weight sum."""
    a = np.asarray(a, dtype=float)
    return float(nu.weights[np.abs(nu.atoms @ a) >= threshold].sum())


def _index_spectra(fam: MeasureFamily, p: GramForm) -> dict:
    """{S: lambda_S} in index order, computed once per (family, p): the
    family keeps the pass of the last form it was given.  The whitening
    (the trailing rank eigenvectors over the square roots of their
    eigenvalues, as in whitening_system), the second moments (one einsum
    per atom count), the whitened second moments and their eigvalsh run on
    the (size, rank) stacks of _restriction_groups.  The kernel test (only
    where p|_S has a kernel) stays per index, on kernel columns laid out as
    a lone form's, so every value is the one a lone index gets.  Raises
    KernelIssue when a supported atom is nonzero on a p|_S-kernel direction
    (concentrated families must vanish there)."""
    form, spectra = fam._spectra
    if form is p:
        return spectra
    idxs = fam.indices()
    lams = [0.0] * len(idxs)
    for members, r, w, v in _restriction_groups(p, [s.coords for s in idxs]):
        size = w.shape[-1]
        if r < size:
            for i, kernel in zip(members, _picked(v, slice(size - r))):
                support = fam.entries[idxs[i]].support
                scale = max(1.0, float(np.abs(support).max(initial=0.0)))
                leak = np.abs(support @ kernel).max(initial=0.0)
                if leak > _KERNEL_LEAK_REL * scale:
                    raise KernelIssue(
                        "supported character is nonzero on a kernel direction of p|_S"
                    )
        if r == 0:
            continue
        white = v[:, :, size - r:] / np.sqrt(w[:, None, size - r:])
        moments = _second_moments([fam.entries[idxs[i]] for i in members])
        tops = np.linalg.eigvalsh(np.swapaxes(white, 1, 2) @ moments @ white)[:, -1]
        for i, top in zip(members, tops):
            lams[i] = float(max(top, 0.0))
    out = dict(zip(idxs, lams))
    object.__setattr__(fam, "_spectra", (p, out))
    return out


def _worst_sup(spectra: dict, delta: float) -> float:
    """delta^2 max_S lambda_S: rounding a product by delta^2 > 0 is monotone,
    so this is the largest per-index sup delta^2 lambda_S bit for bit."""
    return delta**2 * max([0.0, *spectra.values()])


def _certifies(value: float, epsilon: float) -> bool:
    """The certificate's acceptance rule:
    value <= epsilon (1 + CERTIFICATE_SLACK) + _CERTIFICATE_FLOOR."""
    return value <= epsilon * (1.0 + CERTIFICATE_SLACK) + _CERTIFICATE_FLOOR


def concentration_check(
    fam: MeasureFamily, p: GramForm, epsilon: float, delta: float
) -> ConcentrationReport:
    """Exact sufficient certificate per index S:

        sup_{p(a) <= delta, a in S} (nu_S-second moment of hat a)
            = delta^2 lambda_max(second-moment matrix whitened by p|_S)

    certified when that sup is at most epsilon for every S.  By Chebyshev
    it bounds every tail nu_S(|alpha(a)| >= 1) at p(a) = delta, so no
    sampled a could refute a certified pair unless lambda_S were wrong.
    """
    spectra = _index_spectra(fam, p)
    details: dict = {s: {"sup": delta**2 * lam} for s, lam in spectra.items()}
    worst = _worst_sup(spectra, delta)
    pairs = ((epsilon, delta),) if _certifies(worst, epsilon) else ()
    details["worst_sup"] = worst
    return ConcentrationReport(certified_pairs=pairs, details=details)


def concentration_equivalence_check(fam: MeasureFamily, p: GramForm, grid) -> bool:
    """On each (epsilon, delta) grid point where the eps-delta certificate
    holds, verify the eps-gamma formulation with gamma = 1/delta' for
    delta' = delta/2 (strictly inside), and the converse at delta'' =
    0.9/gamma < 1/gamma, in closed form from the index spectra.  By
    homogeneity the forward tail nu_S(|alpha(a)| > gamma p(a)) is a tail at
    1 on the 1/gamma-sphere of p|_S, so Chebyshev bounds it by lambda_S /
    gamma^2, the worst sup at 1/gamma; the converse tails at p(a) = delta''
    by the worst sup at delta''.  Both must pass the certificate's rule.
    The p(a) = 0 branch, where nu_S must put all mass at alpha(a) = 0, is
    the kernel test on which _index_spectra raises KernelIssue.
    """
    grid = list(grid)
    spectra = _index_spectra(fam, p) if grid else {}
    for epsilon, delta in grid:
        if not _certifies(_worst_sup(spectra, delta), epsilon):
            continue
        gamma = 1.0 / (delta / 2.0)
        radii = (1.0 / gamma, 0.9 / gamma)
        if not all(_certifies(_worst_sup(spectra, r), epsilon) for r in radii):
            return False
    return True


# ---------------------------------------------------------------------------
# Prokhorov-type compact mass bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProkhorovReport:
    scale: float
    masses: dict
    bound: float
    mass_ok: bool
    nesting_ok: bool
    trace_identity: float
    trace_identity_ok: bool

    def to_jsonable(self) -> dict:
        return {
            "scale": float(self.scale),
            "masses": _jsonable_details(self.masses),
            "bound": float(self.bound),
            "mass_ok": bool(self.mass_ok),
            "nesting_ok": bool(self.nesting_ok),
            "trace_identity": float(self.trace_identity),
            "trace_identity_ok": bool(self.trace_identity_ok),
        }


def _dual_balls(fam: MeasureFamily, q: GramForm) -> list:
    """q restricted to every index, as the stacks the dual-ball test takes,
    computed once per (family, q): the family keeps those of the last q it
    was given.  One entry per (size, rank of q|_S) group, in index order:
    (positions in fam.indices(), the group's pseudo-inverses and kernel
    bases, and its indices' atoms, weights and atom rows as _padded stacks
    them: the dual-ball test is per row and a mass adds in atom order, so
    the pad rows change neither)."""
    form, groups = fam._balls
    if form is q:
        return groups
    idxs = fam.indices()
    groups = []
    for members, r, w, v in _restriction_groups(q, [s.coords for s in idxs]):
        pinvs, kernels = _dual_ball_stacks(w, v, r)
        atoms, weights, real = _padded([fam.entries[idxs[i]] for i in members])
        groups.append((members, pinvs, kernels, atoms, weights, real))
    object.__setattr__(fam, "_balls", (q, groups))
    return groups


def prokhorov_mass_check(
    fam: MeasureFamily,
    p: GramForm,
    q: GramForm,
    epsilon: float,
    delta: float,
    require_certificate: bool = True,
) -> ProkhorovReport:
    """With r_eps(v) = c q(v), c = sqrt(tr(p/q)) / (delta sqrt(eps)), each
    nu_S must put mass at least 1 - 14 eps on

        K^(S) = {alpha : |alpha(v)| <= r_eps(v) for all degree-1 v in S},

    c times q|_S's closed unit dual ball, tested on alpha / c so that c^2
    is never formed ({0} when c = 0).  q is restricted once per (family, q)
    (see _dual_balls); each (size, rank of q|_S) group tests all its
    indices' atoms in one stacked call, and a mass adds the inside weights
    in atom order, as sum() does.  Nesting (nu_T's atoms in K^(T),
    projected onto S within T, lie in K^(S)) is read off those verdicts:
    the family comes from from_global (else NotInScope), so nu_T's atom of
    a global atom j projects onto nu_S's atom of j, up to the sign of zero,
    which no verdict reads; nesting holds iff each j kept at T is kept at
    every S within T, one OR over supersets of a (2^n x atoms) table.  Also
    checks the identity tr(p / (delta r_eps)) = eps (exact when tr(p/q) >
    0), on the form (delta c)^2 q; InvalidInput when that form leaves float
    range (an eps or delta so small that c overflows)."""
    if fam._images is None:
        raise NotInScope("Prokhorov checks take families built by MeasureFamily.from_global")
    tr = trace_value(p, q)
    if is_infinite(tr):
        raise HypothesisNotCertified("tr(p/q) is infinite")
    if require_certificate:
        if not _certifies(_worst_sup(_index_spectra(fam, p), delta), epsilon):
            raise HypothesisNotCertified(
                f"concentration not certified at ({epsilon}, {delta})"
            )
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = np.sqrt(tr) / (delta * np.sqrt(epsilon))
        r_gram = (delta * c) ** 2 * q.gram  # delta r_eps
        finite = np.isfinite(r_gram + r_gram.T).all()  # GramForm symmetrizes by this sum
    if not finite:
        raise InvalidInput(
            f"(delta c)^2 q is not finite at eps = {epsilon}, delta = {delta}"
        )
    bound = 1.0 - 14.0 * epsilon
    idxs = fam.indices()
    n, masks = _lattice_bits(idxs)
    masses = np.zeros(len(idxs))
    kept = np.zeros((1 << n, fam._images.shape[1]), dtype=bool)  # [mask(S), j]: j's image in K^(S)
    for members, pinvs, kernels, atoms, weights, real in _dual_balls(fam, q):
        inside = _in_unit_dual_balls(pinvs, kernels, atoms / c) if c > 0 else ~atoms.any(axis=-1)
        inside &= real
        # the cumsum adds in atom order as sum() does; + 0.0 is sum()'s 0 start
        masses[members] = np.cumsum(np.where(inside, weights, 0.0), axis=1)[:, -1] + 0.0
        kept[masks[members]] = np.take_along_axis(inside, fam._images[members], axis=1)
    mass_ok = not (masses < bound - MASS_SLACK).any()
    own = kept[masks]
    for i in range(n):
        pairs = kept.reshape(-1, 2, 1 << i, kept.shape[1])
        pairs[:, 0] |= pairs[:, 1]
    nesting_ok = not (kept[masks] & ~own).any()

    if tr > 0:
        # tr(p / (delta r_eps)) = tr(p/q) / (delta c)^2 = eps exactly
        ident = trace_value(p, GramForm(dim=q.dim, gram=r_gram))
        ident_ok = abs(ident - epsilon) <= _TRACE_IDENTITY_REL * max(epsilon, 1.0)
    else:
        ident = 0.0
        ident_ok = True
    return ProkhorovReport(
        scale=float(c),
        masses=dict(zip(idxs, masses.tolist())),
        bound=bound,
        mass_ok=mass_ok,
        nesting_ok=nesting_ok,
        trace_identity=float(ident),
        trace_identity_ok=ident_ok,
    )


# ---------------------------------------------------------------------------
# Reverse construction
# ---------------------------------------------------------------------------


def reverse_seminorm_construction(
    nu: DiscreteMeasure, q: GramForm, n_max: int = 50
) -> GramForm:
    """Builds p(v)^2 = sum_{n=1}^{N} n^{-4} * integral over K_n of hat v^2,
    with K_n = {alpha : alpha / n in the closed unit q-dual ball}; the
    construction guarantees tr(p/q) <= sum n^{-2} < 2 (checked internally)."""
    g = np.zeros((q.dim, q.dim))
    for n in range(1, n_max + 1):
        m_n = np.zeros_like(g)
        for atom, w, ok in zip(nu.atoms, nu.weights, _in_unit_dual_ball(q, nu.atoms / n)):
            if ok:
                m_n += w * np.outer(atom, atom)
        g += m_n / n**4
    p = GramForm(dim=q.dim, gram=g)
    tr = trace_value(p, q)
    if is_infinite(tr) or tr > 2.0 + _REVERSE_TRACE_SLACK:
        raise MomentkitError(f"reverse construction trace {tr} violates the bound 2")
    return p


# ---------------------------------------------------------------------------
# Nine-stage verification pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StageResult:
    name: str
    status: str  # pass | fail | skipped
    data: dict

    def to_jsonable(self) -> dict:
        return {"name": self.name, "status": self.status, "data": self.data}


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    stages: tuple

    @property
    def overall_pass(self) -> bool:
        return all(s.status == "pass" for s in self.stages)

    def to_jsonable(self) -> dict:
        return {
            "stages": [s.to_jsonable() for s in self.stages],
            "overall_pass": self.overall_pass,
        }


def verify_main_theorem_scenario(
    mu_target: DiscreteMeasure,
    q: GramForm,
    quad_module: QuadraticModuleSpec,
    degrees: int,
    eps_grid,
) -> ScenarioReport:
    """End-to-end desk-scale verification: build the moment functional of a
    target measure, its degree-1 seminorm s_L, the marginal family over the
    full coordinate lattice, then check consistency, concentration at
    delta = sqrt(eps), Prokhorov mass bounds, support continuity plus
    nonnegativity-set membership, and the representation identity.  Stage
    failures are recorded and the pipeline continues; a stage that needs
    the output of a failed stage is "skipped"."""
    stages = []
    state: dict = {}

    def run_stage(name, fn, needs=()):
        if not all(key in state for key in needs):
            status, data = "skipped", {}
        else:
            try:
                status, data = fn()
            except MomentkitError as exc:
                status, data = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        stages.append(StageResult(name=name, status=status, data=data))
        return stages[-1]

    def stage_functional():
        state["L"] = from_measure(mu_target, degrees)
        return "pass", {"dim": mu_target.dim, "max_degree": degrees}

    run_stage("moment_functional", stage_functional)

    def stage_s_form():
        m = _second_moment(mu_target)
        state["s_form"] = GramForm(dim=mu_target.dim, gram=m)
        return "pass", {"second_moment": [list(map(float, r)) for r in m]}

    run_stage("s_L_degree_one_form", stage_s_form)

    def stage_trace():
        tr = trace_value(state["s_form"], q)
        if is_infinite(tr):
            return "fail", {"trace": jsonable(tr)}
        state["trace"] = tr
        return "pass", {"trace": float(tr)}

    run_stage("trace_s_L_over_q", stage_trace, needs=("s_form",))

    def stage_family():
        state["family"] = MeasureFamily.from_global(mu_target)
        return "pass", {"indices": len(state["family"].entries)}

    run_stage("marginal_family", stage_family)

    def stage_consistency():
        ok = consistency_check(state["family"], degree=min(degrees, 4))
        return ("pass" if ok else "fail"), {"consistent": ok}

    run_stage("consistency", stage_consistency, needs=("family",))

    def stage_concentration():
        fam, s_form = state["family"], state["s_form"]
        results = {
            f"{eps}": concentration_check(fam, s_form, eps, float(np.sqrt(eps))).certified
            for eps in eps_grid
        }
        return ("pass" if all(results.values()) else "fail"), {"certified": results}

    run_stage("concentration_sqrt_eps", stage_concentration, needs=("family", "s_form"))

    def stage_prokhorov():
        results = {}
        all_ok = True
        for eps in eps_grid:
            rep = prokhorov_mass_check(
                state["family"], state["s_form"], q, eps, float(np.sqrt(eps))
            )
            ok = rep.mass_ok and rep.nesting_ok and rep.trace_identity_ok
            results[f"{eps}"] = {
                "mass_ok": rep.mass_ok,
                "nesting_ok": rep.nesting_ok,
                "trace_identity_ok": rep.trace_identity_ok,
            }
            all_ok = all_ok and ok
        return ("pass" if all_ok else "fail"), {"per_eps": results}

    run_stage("prokhorov_mass", stage_prokhorov, needs=("family", "s_form"))

    def stage_support():
        norms = [dual_norm(q, DualFunctional(dim=q.dim, coeffs=a)) for a in mu_target.atoms]
        violations = [
            i for i, atom in enumerate(mu_target.support) if not quad_module.contains(atom)
        ]
        ok = not any(map(is_infinite, norms)) and not violations
        return ("pass" if ok else "fail"), {
            "dual_norms": [jsonable(nd) for nd in norms],
            "kq_violations": violations,
        }

    run_stage("support_continuity_and_kq", stage_support)

    def stage_representation():
        # DiscreteMeasure.moment takes powers, not the kernel that built L
        alphas = monomials_up_to(mu_target.dim, degrees)
        errors = [abs(mu_target.moment(a) - v) for a, v in zip(alphas, state["L"].values)]
        tols = _moment_tolerances(IDENTITY_ABS, [mu_target], np.sum(alphas, axis=1))
        ok = bool(np.all(np.array(errors) <= tols))
        return ("pass" if ok else "fail"), {"max_error": max([0.0, *errors])}

    run_stage("representation_identity", stage_representation, needs=("L",))

    return ScenarioReport(stages=tuple(stages))
