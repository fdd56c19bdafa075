"""
Concentration certificates and the Prokhorov pipeline
=====================================================

A projective family of marginals of an atomic measure, an exact
(eps, delta) concentration certificate, its equivalent reformulation,
Prokhorov-style mass lower bounds on nested compact sets, and the full
nine-stage end-to-end verification.
"""

import numpy as np

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
    prokhorov_mass_check,
    pushforward,
    verify_main_theorem_scenario,
)

# A two-atom measure on R^2 and its marginal family over all coordinate
# subsets.
nu = DiscreteMeasure(dim=2, atoms=np.array([[1.0, 2.0], [-1.0, 0.0]]),
                     weights=np.array([0.5, 0.5]))
fam = MeasureFamily.from_global(nu)
print("marginal indices:", [s.coords for s in fam.indices()])
print("projective consistency:", consistency_check(fam))

# The family is projective: pushforward, the marginal map of one pair of
# nested indices S within T, takes nu_T to nu_S (images that coincide on S
# merge, their weights adding).
s, t = SubalgebraIndex(coords=(0,)), SubalgebraIndex(coords=(0, 1))
pushed = pushforward(fam.entries[t], s, t)
print("nu_T pushed to S is nu_S:", pushed.to_jsonable() == fam.entries[s].to_jsonable())

# The concentration certificate: for every subset S the exact sup of the
# nu_S-second moment over the p-ball of radius delta must be <= eps.
p = GramForm(dim=2, gram=np.array([[1.0, 1.0], [1.0, 2.0]]))
rep = concentration_check(fam, p, epsilon=0.04, delta=0.2)
print("worst sup:", rep.details["worst_sup"], " certified:", rep.certified)

# The same data certify the equivalent formulation (radius gamma = 2/delta
# on the other side of the inequality).
print("equivalence on the grid:",
      concentration_equivalence_check(fam, p, [(0.04, 0.2)]))

# Prokhorov mass bounds: each marginal keeps mass >= 1 - 14 eps on its
# compact set K^(S), and the sets are projectively nested.
q = GramForm(dim=2, gram=np.eye(2))
prk = prokhorov_mass_check(fam, p, q, epsilon=0.04, delta=0.2)
print("masses:", {k.coords: round(v, 6) for k, v in prk.masses.items()})
print("mass_ok:", prk.mass_ok, " nesting_ok:", prk.nesting_ok,
      " trace identity:", prk.trace_identity_ok)

# End to end: the nine-stage scenario over a quadratic module whose
# generator dominates the support.
g = AlgebraElement(2, 4, {(0, 0): 9.0, (2, 0): -1.0, (0, 2): -1.0})
report = verify_main_theorem_scenario(
    nu, q, QuadraticModuleSpec(generators=(g,)), degrees=4,
    eps_grid=[0.04, 0.25],
)
for stage in report.stages:
    print(f"  {stage.name:32s} {stage.status}")
print("overall:", "pass" if report.overall_pass else "FAIL")
