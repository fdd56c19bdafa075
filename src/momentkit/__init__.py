"""Finite-dimensional machinery for moment problems on seminormed spaces.

The package covers: Gram-matrix seminorms and their relative traces,
Gaussian sampling with certified tail/concentration bounds, graded seminorm
towers on polynomial algebras, moment functionals, Chebyshev/Prokhorov
concentration pipelines, and atomic measure recovery from moment matrices.
The ``momentkit`` console script runs packaged verification scenarios.

Public names are exported lazily (PEP 562): ``import momentkit`` loads only
the standard library, and a submodule (with numpy) is imported on first
access to one of its names.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"  # the project version in pyproject.toml; reports carry it

_EXPORTS = {
    "errors": (
        "ConfigError", "DegreeOverflow", "DimensionMismatch", "HypothesisNotCertified",
        "IllConditioned", "IncompleteSystem", "InfiniteTrace",
        "InvalidInput", "KernelIssue", "KernelNotContained", "MomentkitError",
        "NegativeEvenMoment", "NotContinuous", "NotHomogeneous", "NotInScope", "NotPSD",
        "NotSquarePositive", "NotSubset", "RankNotFlat", "SingularForm", "ZeroNormDirection",
    ),
    "forms": (
        "INFINITE", "DualFunctional", "GramForm", "OrthonormalSystem", "dual_norm",
        "evaluate", "gram_schmidt", "is_infinite", "kernel_basis",
        "simultaneous_diagonalize", "whitening_system",
    ),
    "traces": (
        "SeminormTower", "TraceMethod", "TraceReport", "WeightSequence", "construct_q",
        "nuclear_tower", "trace", "trace_restriction_check",
        "trace_scaling_check", "trace_value",
    ),
    "symalg": (
        "AlgebraElement", "GradedSeminormTower", "character_norm_bound",
        "evaluate_character", "graded_norm", "multiply", "p_tilde",
        "tilde_trace_identity",
    ),
    "moments": (
        "CarlemanVerdict", "DiscreteMeasure", "MomentFunctional",
        "QuadraticModuleSpec", "carleman_diagnostic", "cbs_check",
        "continuity_constant", "from_measure", "localizing_matrix", "moment_matrix", "s_L",
        "square_constant", "square_positive_check",
    ),
    "gaussian": (
        "GaussianMeasure", "McConfig", "chebyshev_outside_ball", "fundamental_lemma_check",
        "sample", "second_moment_check", "tail_lower_bound_check",
    ),
    "concentration": (
        "MeasureFamily", "SubalgebraIndex", "concentration_check",
        "concentration_equivalence_check", "consistency_check", "full_lattice",
        "prokhorov_mass_check", "pushforward",
        "reverse_seminorm_construction", "verify_main_theorem_scenario",
    ),
    "solver": ("SolverResult", "solve_multivariate", "solve_univariate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
