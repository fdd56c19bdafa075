"""
Relative traces tr(p/q)
=======================

The trace of a seminorm p against a dominating seminorm q: sum of
p(e_n)^2 over a complete q-orthonormal system.  Two computations over
the same whitening of q must agree, the trace obeys an exact (eps/delta)^2
scaling law, and it is monotone under restriction to subspaces.
"""

import numpy as np

from momentkit import (
    GramForm,
    TraceMethod,
    nuclear_tower,
    trace,
    trace_restriction_check,
    trace_scaling_check,
)

p = GramForm(dim=2, gram=np.diag([1.0, 4.0]))
q = GramForm(dim=2, gram=np.eye(2))

t_sum = trace(p, q, method=TraceMethod.ORTHONORMAL_SUM)
t_op = trace(p, q, method=TraceMethod.OPERATOR_TRACE)
print("orthonormal-sum trace:", t_sum.value)
print("operator trace:       ", t_op.value)

# Scaling: tr((1/eps) p / (1/delta) q) = (delta/eps)^2 tr(p/q) -- i.e.
# rescaling both sides changes the trace by an exact square factor.
print("scaling law holds:", trace_scaling_check(p, q, eps=2.0, delta=0.5))

# Restriction to a subspace can only shrink the trace.
sub = [np.array([1.0, 1.0])]
print("restriction monotone:", trace_restriction_check(p, q, sub))

# If q has a kernel direction that p sees, the trace is infinite.
q_deg = GramForm(dim=2, gram=np.diag([1.0, 0.0]))
print("trace against degenerate q:", trace(p, q_deg).value)

# A nuclear tower of diagonal forms: each level shrinks coordinate n by
# another factor n^2, so every consecutive trace equals sum_{n<=3} 1/n^2
# = 49/36.
tower = nuclear_tower(dim=3, levels=4)
print("consecutive tower traces:", tower.consecutive_traces(),
      "(49/36 =", 49 / 36, ")")
