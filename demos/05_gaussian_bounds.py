"""
Gaussian concentration bounds
=============================

The Gaussian measure attached to a positive form q: reproducible
counter-based sampling, the exact second-moment identity, a universal
tail lower bound, a Chebyshev escape estimate, and the dual-ball mass
bound that drives the main concentration argument.
"""

import numpy as np

from momentkit import (
    DiscreteMeasure,
    DualFunctional,
    GaussianMeasure,
    GramForm,
    McConfig,
    chebyshev_outside_ball,
    fundamental_lemma_check,
    sample,
    second_moment_check,
    tail_lower_bound_check,
)

q = GramForm(dim=2, gram=np.eye(2))
gamma = GaussianMeasure.from_form(q)

# Sampling is deterministic per (seed, stream): re-running bit-repeats.
a = sample(gamma, McConfig(seed=42, samples=1000))
b = sample(gamma, McConfig(seed=42, samples=1000))
print("same seed, identical draws:", np.array_equal(a, b))

# For any w with q(w) = 1 the pushforward second moment is exactly 1;
# Monte Carlo agrees within 4 standard errors and certifies against the
# closed form.
rep = second_moment_check(gamma, np.array([1.0, 0.0]),
                          McConfig(seed=0, samples=200_000))
print(f"second moment: estimate {rep.estimate:.5f}  bound {rep.bound}"
      f"  certified {rep.certified}")

# For any functional with dual norm >= 1 the two-sided tail at level 1
# is at least 2(1 - Phi(1)) = 0.3173... >= 1/7.
tail = tail_lower_bound_check(gamma, DualFunctional(dim=2, coeffs=np.array([1.0, 0.0])))
print(f"tail exact {tail.exact:.9f} >= 1/7: {tail.ok}")

# Chebyshev: mass outside the p-ball of radius delta is at most
# tr(p/q)/delta^2.
p = GramForm(dim=2, gram=np.eye(2))
cheb = chebyshev_outside_ball(gamma, p, 3.0, McConfig(seed=1, samples=100_000))
print(f"outside-ball estimate {cheb.estimate:.5f} <= bound {cheb.bound:.5f}:"
      f" certified {cheb.certified}")

# Fundamental mass bound: for a measure whose q'-dual second moments are
# small (certified sup <= eps), at least 1 - 7(eps + tr(p/q)/delta^2) of
# the mass lies in the unit dual ball.
mu = DiscreteMeasure(dim=1, atoms=np.array([[0.5], [3.0]]),
                     weights=np.array([0.5, 0.5]))
one = GramForm(dim=1, gram=np.eye(1))
fl = fundamental_lemma_check(mu, one, one, epsilon=0.05, delta=0.1)
print(f"sup over ball {fl.sup_quadratic}  certified {fl.hypothesis_certified}")
print(f"mass in unit dual ball {fl.mass_in_unit_dual_ball} >= bound"
      f" {fl.bound}: {fl.conclusion_ok}")
