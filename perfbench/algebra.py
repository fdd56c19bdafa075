"""In-process library jobs of the ``algebra`` workload.

``build`` turns a job spec from ``inputs.py`` into momentkit objects (part
of set-up) and returns the call to time; ``outcome`` turns what the call
returned into the JSON-able dict the checker reads (outside the timing).
Only the timed call does momentkit arithmetic: d-th powers are expanded
here by the multinomial theorem instead of through ``symalg.power``.
"""

from __future__ import annotations

import math


def _compositions(n, d):
    """Exponent tuples of length n summing to d."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _compositions(n - 1, d - first):
            yield (first,) + rest


def _power_terms(v, d):
    """Coefficients of (sum_i v_i x_i)^d."""
    terms = {}
    for alpha in _compositions(len(v), d):
        coeff = math.factorial(d)
        for vi, e in zip(v, alpha):
            coeff = coeff / math.factorial(e) * vi**e
        terms[alpha] = coeff
    return terms


def _match_error(got, want):
    """Greedy nearest-atom matching distance (atoms are >= 0.3 apart)."""
    got = [list(map(float, a)) for a in got]
    if len(got) != len(want):
        return math.inf
    err = 0.0
    for atom in want:
        j = min(range(len(got)), key=lambda i: math.dist(atom, got[i]))
        err = max(err, math.dist(atom, got.pop(j)))
    return err


def _build_case(op, size, spec, expect, mk, np):
    """(call, outcome) for one case of a job."""

    def form(rows):
        return mk.GramForm(dim=len(rows), gram=np.array(rows, dtype=float))

    if op == "tilde":
        n, d_max = size
        tower = mk.GradedSeminormTower(
            dim=n, max_degree=d_max,
            base_forms=tuple((form(p), form(q)) for p, q in spec["pairs"]),
            lam=tuple(spec["lam"]), eta=tuple(spec["eta"]),
            constants=tuple(spec["constants"]),
        )
        return (lambda: mk.tilde_trace_identity(tower, rel_tol=expect["rel_error_max"]),
                lambda rep: {"agree": rep.agree, "rel_error": rep.rel_error,
                             "values": [rep.formula, rep.direct]})
    if op == "graded_norm":
        n, d = size
        s = form(spec["s"])
        elem = mk.AlgebraElement(n, d, _power_terms(spec["v"], d))
        return lambda: mk.graded_norm(s, d, elem), lambda value: {"values": [value]}
    if op in ("continuity_constant", "square_constant"):
        n, d = size
        nu = mk.DiscreteMeasure(dim=n, atoms=np.array(spec["measure"]["atoms"]),
                                weights=np.array(spec["measure"]["weights"]))
        func, p = mk.from_measure(nu, 2 * d), form(spec["p"])
        # looked up per call, so that a traced pass reaches the wrapper
        return (lambda: getattr(mk, op)(func, p, d),
                lambda value: {"values": [value if isinstance(value, float) else repr(value)]})
    if op == "solve":
        n, degree = size
        atoms = spec["atoms"]
        nu = mk.DiscreteMeasure(dim=n, atoms=np.array(atoms), weights=np.array(spec["weights"]))
        func = mk.from_measure(nu, degree)

        def outcome(res):
            got = res.measure.atoms.tolist()
            return {"values": [x for a in got for x in a], "atom_err": _match_error(got, atoms)}

        return lambda: mk.solve_multivariate(func, degree // 2), outcome
    raise ValueError(f"unknown library op {op!r}")


def build(job, mk, np):
    """(call, outcome) for one job, whose cases run in order in one call;
    ``mk`` is the imported momentkit."""
    cases = [_build_case(job["op"], c["size"], c["spec"], job["expect"], mk, np)
             for c in job["cases"]]

    def call():
        return [case_call() for case_call, _ in cases]

    def outcome(raws):
        parts = [case_outcome(raw) for (_, case_outcome), raw in zip(cases, raws)]
        merged = {"values": [v for part in parts for v in part["values"]]}
        if "agree" in parts[0]:
            merged["agree"] = all(part["agree"] for part in parts)
            merged["rel_error"] = max(part["rel_error"] for part in parts)
        if "atom_err" in parts[0]:
            merged["atom_err"] = max(part["atom_err"] for part in parts)
        return merged

    return call, outcome
