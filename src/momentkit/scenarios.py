"""Named verification scenarios behind the command-line front end.

Each scenario kind owns a parameter schema (validated by hand, unknown
fields rejected), optional cross-field rules checked once every field is
well formed (matching sizes, degree bounds), a runner returning (passed,
results, tables), and the tolerances its report echoes: the config's
override where the runner reads one, else the default of the check it
runs.  Results are JSON-ready and deterministic for a fixed config
including the seed; anything time-dependent belongs in the separate
metadata file written by the CLI.
"""

from __future__ import annotations

import difflib
import math
import sys

from .errors import (
    CARLEMAN_MIN_MOMENTS,
    LATTICE_CAP,
    MONOMIAL_CAP,
    mc_cap_fault,
    weights_sum_to_one,
)


# ---------------------------------------------------------------------------
# Config parsing helpers
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:
    """A finite float value: Python's json also parses NaN, Infinity and
    integers beyond float range."""
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max
    )


def _is_squarable(x) -> bool:
    """A positive number with a finite, nonzero square (the checks square delta)."""
    return _is_number(x) and x > 0 and 0.0 < float(x) * float(x) < math.inf


def _check_matrix(x, where, errors):
    if (
        not isinstance(x, list)
        or not x
        or any(not isinstance(r, list) or len(r) != len(x) for r in x)
        or any(not _is_number(v) for r in x for v in r)
    ):
        errors.append(f"{where}: expected a square matrix of numbers")


def _vector_checker(accept, what):
    def check(x, where, errors):
        if not isinstance(x, list) or not x or not all(_is_number(v) and accept(v) for v in x):
            errors.append(f"{where}: expected a nonempty list of {what}")

    return check


_check_vector = _vector_checker(lambda v: True, "numbers")


def _check_measure(x, where, errors):
    if not isinstance(x, dict) or set(x) != {"atoms", "weights"}:
        errors.append(f"{where}: expected an object with keys atoms, weights")
        return
    atoms, weights = x["atoms"], x["weights"]
    atoms_ok = (
        isinstance(atoms, list)
        and atoms
        and all(isinstance(a, list) and a and len(a) == len(atoms[0]) for a in atoms)
        and all(_is_number(v) for a in atoms for v in a)
    )
    if not atoms_ok:
        errors.append(
            f"{where}.atoms: expected a nonempty list of equal-length, nonempty "
            "lists of numbers"
        )
    if not isinstance(weights, list) or not all(_is_number(w) and w >= 0 for w in weights):
        errors.append(f"{where}.weights: expected a list of nonnegative numbers")
    elif atoms_ok and len(weights) != len(atoms):
        errors.append(f"{where}.weights: {len(weights)} weights for {len(atoms)} atoms")
    elif not weights_sum_to_one(weights):
        errors.append(f"{where}.weights: expected weights summing to 1")


def _check_element(x, where, errors):
    if not isinstance(x, dict) or not {"dim", "terms"} <= set(x):
        errors.append(f"{where}: expected an object with keys dim, terms")
        return
    dim, terms = x["dim"], x["terms"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        errors.append(f"{where}.dim: expected a positive integer")
    if not isinstance(terms, list):
        errors.append(f"{where}.terms: expected a list")
        return
    for i, t in enumerate(terms):
        if not isinstance(t, dict) or set(t) != {"alpha", "c"}:
            errors.append(f"{where}.terms[{i}]: expected keys alpha, c")
            continue
        alpha = t["alpha"]
        if not (
            isinstance(alpha, list)
            and len(alpha) == dim
            and all(isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in alpha)
        ):
            errors.append(f"{where}.terms[{i}].alpha: expected {dim} nonnegative integers")
        if not _is_number(t["c"]):
            errors.append(f"{where}.terms[{i}].c: expected a number")


def _check_size(errors, where, got, want, of):
    if got != want:
        errors.append(f"{where}: size {got}, expected {want} ({of})")


def _check_lattice(errors, where, n):
    """The runs sweep the full coordinate lattice of R^n (full_lattice)."""
    if n > LATTICE_CAP:
        errors.append(f"{where}: atom length {n} exceeds the lattice cap {LATTICE_CAP}")


_CHECKERS = {
    "matrix": _check_matrix,
    "vector": _check_vector,
    # eps_grid: delta = sqrt(eps) and c = sqrt(tr) / (delta sqrt(eps)) overflow below it
    "normal_vector": _vector_checker(
        lambda v: v >= sys.float_info.min, f"numbers no smaller than {sys.float_info.min}"
    ),
    "nonnegative_vector": _vector_checker(lambda v: v >= 0, "nonnegative numbers"),
    "squarable_vector": _vector_checker(_is_squarable, "positive numbers with finite, nonzero squares"),
    "measure": _check_measure,
    "element": _check_element,
    "number": lambda x, w, e: None if _is_number(x) else e.append(f"{w}: expected a number"),
    "positive_number": lambda x, w, e: None
    if _is_number(x) and x > 0
    else e.append(f"{w}: expected a positive number"),
    "squarable": lambda x, w, e: None
    if _is_squarable(x)
    else e.append(f"{w}: expected a positive number whose square is finite and nonzero"),
    "positive_integer": lambda x, w, e: None
    if isinstance(x, int) and not isinstance(x, bool) and x > 0
    else e.append(f"{w}: expected a positive integer"),
    "number_or_infinite": lambda x, w, e: None
    if x == "infinite" or _is_number(x)
    else e.append(f'{w}: expected a number or "infinite"'),
    "string": lambda x, w, e: None
    if isinstance(x, str)
    else e.append(f"{w}: expected a string"),
    "squarable_pair_list": lambda x, w, e: None
    if isinstance(x, list)
    and all(isinstance(p, list) and len(p) == 2 and all(map(_is_squarable, p)) for p in x)
    else e.append(f"{w}: expected a list of pairs of positive numbers with finite, nonzero squares"),
    "vector_list": lambda x, w, e: [_check_vector(v, f"{w}[{i}]", e) for i, v in enumerate(x)]
    if isinstance(x, list) and x
    else e.append(f"{w}: expected a nonempty list of vectors"),
    "element_list": lambda x, w, e: [_check_element(el, f"{w}[{i}]", e) for i, el in enumerate(x)]
    if isinstance(x, list)
    else e.append(f"{w}: expected a list"),
    "pair_forms_list": lambda x, w, e: [
        _check_matrix(p.get("p"), f"{w}[{i}].p", e) or _check_matrix(p.get("q"), f"{w}[{i}].q", e)
        if isinstance(p, dict) and set(p) == {"p", "q"}
        else e.append(f"{w}[{i}]: expected an object with keys p, q")
        for i, p in enumerate(x)
    ]
    if isinstance(x, list) and x
    else e.append(f"{w}: expected a nonempty list"),
}


# ---------------------------------------------------------------------------
# Scenario runners — each returns (passed, results, tables).  A runner and a
# tolerance echo import the modules their kind needs in their own body, so
# validating (or rejecting) a config loads neither numpy nor the numerical
# modules.
# ---------------------------------------------------------------------------


def _parse_form(rows):
    import numpy as np

    from .forms import GramForm

    rows = np.asarray(rows, dtype=float)
    return GramForm(dim=rows.shape[0], gram=rows)


def _parse_measure(data):
    from .moments import DiscreteMeasure

    return DiscreteMeasure.from_jsonable(data)


def _parse_element(data, max_degree):
    from .symalg import AlgebraElement

    terms = {tuple(t["alpha"]): t["c"] for t in data["terms"]}
    return AlgebraElement(data["dim"], max_degree, terms)


TRACE_AGREEMENT_REL = 1e-9  # relative agreement of the two trace methods and the expected value
_TAIL_TOL = 1e-9  # tail_tol of a carleman config that sets none


def _run_trace(params, seed):
    from .forms import is_infinite, jsonable
    from .traces import TraceMethod, trace

    p = _parse_form(params["p"])
    q = _parse_form(params["q"])
    rep_sum = trace(p, q, method=TraceMethod.ORTHONORMAL_SUM)
    rep_op = trace(p, q, method=TraceMethod.OPERATOR_TRACE)
    if is_infinite(rep_sum.value):
        agree = is_infinite(rep_op.value)
    else:
        agree = (
            not is_infinite(rep_op.value)
            and abs(rep_sum.value - rep_op.value)
            <= TRACE_AGREEMENT_REL * max(1.0, abs(rep_sum.value))
        )
    passed = agree
    expected = params.get("expected")
    if expected is not None:
        if expected == "infinite":
            passed = passed and is_infinite(rep_sum.value)
        else:
            passed = passed and not is_infinite(rep_sum.value) and abs(
                rep_sum.value - expected
            ) <= TRACE_AGREEMENT_REL * max(1.0, abs(expected))
    results = {
        "value": jsonable(rep_sum.value),
        "methods_agree": bool(agree),
        "orthonormal_sum": rep_sum.to_jsonable(),
        "operator_trace": rep_op.to_jsonable(),
    }
    return passed, results, {}


def _trace_tolerances(params):
    return {"method_agreement_rel": TRACE_AGREEMENT_REL}


def _run_gaussian(params, seed):
    import numpy as np

    from .forms import DualFunctional
    from .gaussian import GaussianMeasure, McConfig, _mc_checks, tail_lower_bound_check

    q = _parse_form(params["q"])
    cfg = McConfig(
        seed=seed, samples=params["samples"], streams=params.get("streams", 1)
    )
    gamma = GaussianMeasure.from_form(q)
    if "w" in params:
        w = np.asarray(params["w"], dtype=float)
    else:
        w = gamma.whitening[:, 0]
    results = {}
    passed = True
    if "functional" in params:  # exact, so it runs (and may fail) before the sampling
        l = DualFunctional(dim=q.dim, coeffs=np.asarray(params["functional"]))
        tail = tail_lower_bound_check(gamma, l)
        results["tail_lower_bound"] = tail.to_jsonable()
        passed = tail.ok
    # one pass over the samples feeds both Monte Carlo checks
    p = _parse_form(params["p"]) if "p" in params else None
    second, cheb = _mc_checks(gamma, w, cfg, p, params.get("delta"))
    results["second_moment"] = second.to_jsonable()
    passed = passed and second.certified
    if cheb is not None:
        results["chebyshev_outside_ball"] = cheb.to_jsonable()
        passed = passed and cheb.certified
    return passed, results, {}


def _gaussian_rules(params, errors):
    fault = mc_cap_fault(params["samples"], params.get("streams", 1))
    if fault:
        errors.append(f"parameters: {fault}")
    for name in ("w", "functional", "p"):
        if name in params:
            _check_size(errors, f"parameters.{name}", len(params[name]), len(params["q"]), "q")
    if ("p" in params) != ("delta" in params):
        given, missing = ("p", "delta") if "p" in params else ("delta", "p")
        errors.append(
            f"parameters.{missing}: required with {given} (the Chebyshev check needs both)"
        )


def _gaussian_tolerances(params):
    from .gaussian import CERTIFY_SIGMAS

    return {"certify_sigmas": CERTIFY_SIGMAS}


def _run_fundamental_lemma(params, seed):
    from .gaussian import fundamental_lemma_check

    rep = fundamental_lemma_check(
        _parse_measure(params["mu"]),
        _parse_form(params["p"]),
        _parse_form(params["q"]),
        params["epsilon"],
        params["delta"],
    )
    passed = rep.hypothesis_certified and rep.conclusion_ok is True
    return passed, rep.to_jsonable(), {}


def _fundamental_lemma_rules(params, errors):
    n = len(params["p"])
    _check_size(errors, "parameters.q", len(params["q"]), n, "p")
    _check_size(errors, "parameters.mu.atoms", len(params["mu"]["atoms"][0]), n, "p")


def _fundamental_lemma_tolerances(params):
    from .concentration import CERTIFICATE_SLACK

    return {"certificate_slack": CERTIFICATE_SLACK}


def _run_concentration(params, seed):
    from .concentration import (
        MeasureFamily,
        concentration_check,
        concentration_equivalence_check,
    )

    fam = MeasureFamily.from_global(_parse_measure(params["global_measure"]))
    p = _parse_form(params["p"])
    rep = concentration_check(fam, p, params["epsilon"], params["delta"])
    passed = rep.certified
    results = {"concentration": rep.to_jsonable()}
    if "equivalence_grid" in params:
        ok = concentration_equivalence_check(fam, p, params["equivalence_grid"])
        results["equivalence"] = bool(ok)
        passed = passed and ok
    return passed, results, {}


def _concentration_rules(params, errors):
    atoms = params["global_measure"]["atoms"]
    _check_size(errors, "parameters.global_measure.atoms", len(atoms[0]), len(params["p"]), "p")
    _check_lattice(errors, "parameters.global_measure.atoms", len(atoms[0]))


def _concentration_tolerances(params):
    from .concentration import CERTIFICATE_SLACK

    return {"certificate_slack": CERTIFICATE_SLACK}


def _run_main_theorem(params, seed):
    from .concentration import verify_main_theorem_scenario
    from .moments import QuadraticModuleSpec

    mu = _parse_measure(params["measure"])
    degrees = params["degrees"]
    gens = tuple(
        _parse_element(g, degrees) for g in params.get("generators", [])
    )
    report = verify_main_theorem_scenario(
        mu,
        _parse_form(params["q"]),
        QuadraticModuleSpec(generators=gens),
        degrees,
        params["eps_grid"],
    )
    tables = {
        "stages": {
            "header": ["name", "status"],
            "rows": [[s.name, s.status] for s in report.stages],
        }
    }
    return report.overall_pass, report.to_jsonable(), tables


def _main_theorem_rules(params, errors):
    n, degrees = len(params["measure"]["atoms"][0]), params["degrees"]
    _check_size(errors, "parameters.q", len(params["q"]), n, "atom length")
    _check_lattice(errors, "parameters.measure.atoms", n)
    if n <= LATTICE_CAP and math.comb(n + degrees, degrees) > MONOMIAL_CAP:
        errors.append(
            f"parameters.degrees: {degrees} asks for more than {MONOMIAL_CAP} monomials "
            f"in {n} variables"
        )
    for i, gen in enumerate(params.get("generators", [])):
        _check_size(errors, f"parameters.generators[{i}].dim", gen["dim"], n, "atom length")
        top = max((sum(t["alpha"]) for t in gen["terms"]), default=0)
        if top > degrees:
            errors.append(f"parameters.generators[{i}]: degree {top} exceeds degrees = {degrees}")


def _main_theorem_tolerances(params):
    from .concentration import CERTIFICATE_SLACK, CONSISTENCY_ABS, IDENTITY_ABS

    return {
        "certificate_slack": CERTIFICATE_SLACK,
        "consistency_abs": CONSISTENCY_ABS,
        "identity_abs": IDENTITY_ABS,
    }


def _run_carleman(params, seed):
    import numpy as np

    from .moments import (
        carleman_from_log_moments,
        log_even_moments_from_measure,
        log_gaussian_even_moments,
        log_squared_exponential_moments,
    )

    n_max = params["n_max"]
    margin = _carleman_tolerances(params)["decay_margin"]
    family = params.get("family")
    if family == "gaussian":
        logs = log_gaussian_even_moments(n_max)
    elif family == "squared_exponential":
        logs = log_squared_exponential_moments(n_max)
    else:
        logs = log_even_moments_from_measure(
            _parse_measure(params["measure"]),
            np.asarray(params["direction"], dtype=float),
            n_max,
        )
    diag = carleman_from_log_moments(logs, margin=margin)
    passed = True
    if "expected_verdict" in params:
        passed = passed and diag.verdict.value == params["expected_verdict"]
    if "expected_tail_sum" in params:
        tol = params.get("tail_tol", _TAIL_TOL)
        tail = diag.tail_sum_estimate
        passed = passed and isinstance(tail, float) and abs(
            tail - params["expected_tail_sum"]
        ) <= tol
    tables = {
        "terms": {
            "header": ["n", "t_n", "partial_sum"],
            "rows": [
                [n + 1, float(t), float(s)]
                for n, (t, s) in enumerate(zip(diag.terms, diag.partial_sums))
            ],
        }
    }
    return passed, diag.to_jsonable(), tables


def _carleman_rules(params, errors):
    family = params.get("family")
    if family not in (None, "gaussian", "squared_exponential"):
        errors.append(f"parameters.family: expected gaussian or squared_exponential, got {family!r}")
    elif family is None and not {"measure", "direction"} <= set(params):
        errors.append("parameters: carleman needs either family or measure+direction")
    elif family is None:
        n = len(params["measure"]["atoms"][0])
        _check_size(errors, "parameters.direction", len(params["direction"]), n, "atom length")
        if not any(params["direction"]):
            errors.append("parameters.direction: expected a nonzero vector")
    if params["n_max"] < CARLEMAN_MIN_MOMENTS:
        errors.append(f"parameters.n_max: expected at least {CARLEMAN_MIN_MOMENTS} even moments")


def _carleman_tolerances(params):
    from .moments import CARLEMAN_MARGIN

    return {"decay_margin": params.get("margin", CARLEMAN_MARGIN)}


def _run_tilde_trace(params, seed):
    from .symalg import GradedSeminormTower, tilde_trace_identity

    pairs = tuple(
        (_parse_form(e["p"]), _parse_form(e["q"])) for e in params["pairs"]
    )
    tower = GradedSeminormTower(
        dim=params["dim"],
        max_degree=params["max_degree"],
        base_forms=pairs,
        lam=tuple(params["lam"]),
        eta=tuple(params["eta"]),
        constants=tuple(params["constants"]),
    )
    rep = tilde_trace_identity(tower, rel_tol=_tilde_trace_tolerances(params)["two_path_rel"])
    return rep.agree, rep.to_jsonable(), {}


def _tilde_trace_rules(params, errors):
    dim, top = params["dim"], params["max_degree"]
    _check_size(errors, "parameters.pairs", len(params["pairs"]), top, "max_degree")
    for i, pair in enumerate(params["pairs"]):
        for key in ("p", "q"):
            _check_size(errors, f"parameters.pairs[{i}].{key}", len(pair[key]), dim, "dim")
    for name in ("lam", "eta"):
        _check_size(errors, f"parameters.{name}", len(params[name]), top + 1, "max_degree + 1")
    _check_size(errors, "parameters.constants", len(params["constants"]), top, "max_degree")


def _tilde_trace_tolerances(params):
    from .symalg import TILDE_REL_TOL

    return {"two_path_rel": params.get("rel_tol", TILDE_REL_TOL)}


def _run_construct_q(params, seed):
    import numpy as np

    from .forms import OrthonormalSystem, whitening_system
    from .traces import WeightSequence, construct_q

    p = _parse_form(params["p"])
    if "vectors" in params:
        vecs = tuple(np.asarray(v, dtype=float) for v in params["vectors"])
        e_sys = OrthonormalSystem(form=p, vectors=vecs, complete=True)
    else:
        e_sys = whitening_system(p)
    record = construct_q(p, e_sys, WeightSequence(values=tuple(params["lam"])))
    return record.ok, record.to_jsonable(), {}


def _construct_q_rules(params, errors):
    for i, v in enumerate(params.get("vectors", [])):
        _check_size(errors, f"parameters.vectors[{i}]", len(v), len(params["p"]), "p")


def _construct_q_tolerances(params):
    from .traces import CONSTRUCT_Q_TOL

    return {"trace_abs": CONSTRUCT_Q_TOL, "gram_abs": CONSTRUCT_Q_TOL}


SCENARIO_KINDS = {
    "trace": {
        "description": "two-method relative trace of a seminorm pair",
        "runner": _run_trace,
        "tolerances": _trace_tolerances,
        "required": {"p": "matrix", "q": "matrix"},
        "optional": {"expected": "number_or_infinite"},
    },
    "gaussian": {
        "description": "Gaussian measure checks: second moment, tail bound, "
        "Chebyshev mass outside a ball",
        "runner": _run_gaussian,
        "tolerances": _gaussian_tolerances,
        "rules": _gaussian_rules,
        "required": {"q": "matrix", "samples": "positive_integer"},
        "optional": {
            "streams": "positive_integer",
            "w": "vector",
            "functional": "vector",
            "p": "matrix",
            "delta": "squarable",
        },
    },
    "fundamental_lemma": {
        "description": "quantitative dual-ball mass bound for a discrete "
        "measure on functionals",
        "runner": _run_fundamental_lemma,
        "tolerances": _fundamental_lemma_tolerances,
        "rules": _fundamental_lemma_rules,
        "required": {
            "mu": "measure",
            "p": "matrix",
            "q": "matrix",
            "epsilon": "squarable",
            "delta": "squarable",
        },
        "optional": {},
    },
    "concentration": {
        "description": "Chebyshev concentration certificate for the marginal "
        "family of a global measure",
        "runner": _run_concentration,
        "tolerances": _concentration_tolerances,
        "rules": _concentration_rules,
        "required": {
            "global_measure": "measure",
            "p": "matrix",
            "epsilon": "squarable",
            "delta": "squarable",
        },
        "optional": {"equivalence_grid": "squarable_pair_list"},
    },
    "main_theorem": {
        "description": "nine-stage end-to-end verification for a target "
        "measure",
        "runner": _run_main_theorem,
        "tolerances": _main_theorem_tolerances,
        "rules": _main_theorem_rules,
        "required": {
            "measure": "measure",
            "q": "matrix",
            "degrees": "positive_integer",
            "eps_grid": "normal_vector",
        },
        "optional": {"generators": "element_list"},
    },
    "carleman": {
        "description": "log-space moment-growth diagnostic with three-way "
        "verdict",
        "runner": _run_carleman,
        "tolerances": _carleman_tolerances,
        "rules": _carleman_rules,
        "required": {"n_max": "positive_integer"},
        "optional": {
            "family": "string",
            "measure": "measure",
            "direction": "vector",
            "margin": "positive_number",
            "expected_verdict": "string",
            "expected_tail_sum": "number",
            "tail_tol": "positive_number",
        },
    },
    "tilde_trace": {
        "description": "two-path trace identity for weighted graded seminorm "
        "towers",
        "runner": _run_tilde_trace,
        "tolerances": _tilde_trace_tolerances,
        "rules": _tilde_trace_rules,
        "required": {
            "dim": "positive_integer",
            "max_degree": "positive_integer",
            "pairs": "pair_forms_list",
            "lam": "squarable_vector",
            "eta": "squarable_vector",
            "constants": "nonnegative_vector",
        },
        "optional": {"rel_tol": "positive_number"},
    },
    "construct_q": {
        "description": "build q from a p-orthonormal system and weights; "
        "verify the trace identity",
        "runner": _run_construct_q,
        "tolerances": _construct_q_tolerances,
        "rules": _construct_q_rules,
        "required": {"p": "matrix", "lam": "squarable_vector"},
        "optional": {"vectors": "vector_list"},
    },
}


def validate_config(config) -> list[str]:
    """Returns a list of problems; empty means the config is runnable."""
    errors: list[str] = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    allowed_top = {"kind", "parameters", "seed", "output_path"}
    unknown = set(config) - allowed_top
    if unknown:
        errors.append(f"unknown top-level fields: {sorted(unknown)}")
    kind = config.get("kind")
    if not isinstance(kind, str):
        errors.append("missing or non-string 'kind'")
        return errors
    if kind not in SCENARIO_KINDS:
        close = difflib.get_close_matches(kind, SCENARIO_KINDS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        errors.append(f"unknown kind {kind!r}{hint}")
        return errors
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append("'seed' must be a nonnegative integer")
    if "output_path" in config and not isinstance(config["output_path"], str):
        errors.append("'output_path' must be a string")
    params = config.get("parameters")
    if not isinstance(params, dict):
        errors.append("missing or non-object 'parameters'")
        return errors
    spec = SCENARIO_KINDS[kind]
    known = set(spec["required"]) | set(spec["optional"])
    unknown = set(params) - known
    if unknown:
        errors.append(f"parameters: unknown fields {sorted(unknown)}")
    for name, typ in spec["required"].items():
        if name not in params:
            errors.append(f"parameters.{name}: required")
        else:
            _CHECKERS[typ](params[name], f"parameters.{name}", errors)
    for name, typ in spec["optional"].items():
        if name in params:
            _CHECKERS[typ](params[name], f"parameters.{name}", errors)
    if not errors and "rules" in spec:
        spec["rules"](params, errors)
    return errors


def run_config(config, seed_override=None):
    """Execute a validated config; returns (passed, results, tables, seed)."""
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    runner = SCENARIO_KINDS[config["kind"]]["runner"]
    passed, results, tables = runner(config["parameters"], seed)
    return bool(passed), results, tables, seed
