"""The excess function as a necessary-condition detector.

E(t, x, r, q) = f(t, x, q) - f(t, x, r) - (q - r) f_r(t, x, r) compares the
integrand at a competitor slope q against the tangent line at the candidate
slope r. When the integrand is convex in the slope at every scattered point
(the graininess-weighted hypothesis), a strong local minimizer must keep
E >= 0 for every q. One negative sample at a right-dense t disqualifies the
candidate; at a right-scattered t it refutes the hypothesis instead.
"""

import numpy as np

import tsvar as tv

# Convex integrand: the excess of r^2 is the perfect square (q - r)^2.
L = tv.parse_lagrangian("r^2")
print("excess of r^2:")
for r, q in [(0.0, 1.0), (1.0, -2.0), (3.0, 3.0)]:
    print(f"  E(r={r:g}, q={q:g}) = {tv.excess(L, 0, 0, r, q):g}   ((q-r)^2 = {(q - r) ** 2:g})")

# A clean candidate: x(t) = t solves the Euler-Lagrange equation of r^2 on
# the integers, the hypothesis holds, and the scan stays nonnegative.
P = tv.VariationalProblem(tv.make_uniform(0, 4, 1), 0, 4, L, 0.0, 4.0)
x = tv.solve_el_discrete(P).trajectory
report = tv.classify_candidate(P, x, q_grid=np.linspace(-10, 10, 41))
print("\ninteger window, f = r^2, x = t:")
print("  EL residual max:", report.el_max_residual)
print("  convexity hypothesis holds (sampled):", report.convexity_ok)
print("  violations:", len(report.weierstrass_violations), "-> verdict:", report.verdict.value)

# A candidate that is disqualified: the integrand is convex near the
# origin but bends down for large slopes. On a dense scale the hypothesis
# holds vacuously (mu = 0), and E < 0 at a right-dense t refutes the candidate.
f = tv.parse_lagrangian("r^2 - 0.001*r^4")
P2 = tv.VariationalProblem(tv.make_dense(0, 1, 50), 0, 1, f, 0.0, 0.0)
report2 = tv.classify_candidate(P2, P2.zero_trajectory(), q_grid=np.linspace(-40, 40, 81))
print("\ndense [0, 1], f = r^2 - 0.001 r^4, x = 0:")
v = report2.weierstrass_violations
print(f"  first violation: E(q={v.q[0]:g}) = {v.E[0]:.4g} -> verdict: {report2.verdict.value}")

# The same integrand on the integers: every t is right-scattered, where the
# hypothesis is convexity in r. Sampled near the candidate it holds, but the
# scan's E < 0 refutes it, and the midpoint check between r and q fails.
P3 = tv.VariationalProblem(tv.make_uniform(0, 4, 1), 0, 4, f, 0.0, 0.0)
report3 = tv.classify_candidate(P3, P3.zero_trajectory(), q_grid=np.linspace(-40, 40, 81))
cx = report3.convexity_counterexample
print("\ninteger window, same f, x = 0:")
print(f"  violations: {len(report3.weierstrass_violations)} -> verdict: {report3.verdict.value}")
print(f"  f(gamma r + (1 - gamma) q) = {cx.lhs:g} > {cx.rhs:g} at r={cx.r1:g}, q={cx.r2:g}, gamma={cx.gamma:g}")

# Trajectories with corners scan both one-sided slopes at the corner.
dense = tv.make_dense(0.0, 1.0, 100)
P4 = tv.VariationalProblem(dense, 0.0, 1.0, tv.parse_lagrangian("0 - r^2"), 0.0, 0.0)
corner = tv.GridFunction.from_callable(dense, lambda t: abs(t - 0.5), break_points=(0.5,))
hits = tv.weierstrass_scan(P4, corner, q_grid=[4.0])
print("\ncorner at t = 0.5 on a dense scale (concave integrand):")
for i in np.flatnonzero(hits.t == 0.5):
    kind = list(tv.SlopeKind)[hits.kind[i]]
    print(f"  slope {hits.r[i]:+.3g} ({kind.value}): E(q=4) = {hits.E[i]:.4g}")
