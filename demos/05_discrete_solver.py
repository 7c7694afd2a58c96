"""Solving discrete Euler-Lagrange equations on arbitrary point scales.

On a purely discrete window the Euler-Lagrange condition
f_r^D(t) = f_x(t, x(sigma(t)), x^D(t)) is a finite system of nonlinear
equations in the interior trajectory values, and the gradient of the
discrete functional L up to the factors -mu. The solver pins the boundary
values and runs Newton's method on L with its exact tridiagonal Hessian,
built from symbolic second partials of f, and reports whether the solution
is a strict local minimum of L.
"""

import numpy as np

import tsvar as tv

# Quadratic integrand: extremals have constant delta slope, so x(t) = t
# regardless of how unevenly the points are spaced.
for ts, label in [
    (tv.make_uniform(0, 4, 1), "integer window"),
    (tv.make_harmonic(30), "harmonic scale"),
    (tv.make_geometric(1, 16, 2), "geometric scale"),
]:
    P = tv.VariationalProblem(ts, ts.min, ts.max, tv.parse_lagrangian("r^2"), ts.min, ts.max)
    result = tv.solve_el_discrete(P)
    err = float(np.max(np.abs(result.trajectory.values - ts.points)))
    print(
        f"{label:>16}: x(t) = t to {err:.2e}, residual {result.residual_max:.2e}, "
        f"{result.iterations} iteration(s), {result.second_order}"
    )

# State coupling makes the extremal curve: f = r^2 + x^2 on the integers
# satisfies the three-term recurrence x(t+2) = 3 x(t+1) - x(t).
P = tv.VariationalProblem(
    tv.make_uniform(0, 4, 1), 0, 4, tv.parse_lagrangian("r^2 + x^2"), 0.0, 1.0
)
result = tv.solve_el_discrete(P)
print("\nf = r^2 + x^2, x(0)=0, x(4)=1:")
print("  solved:   ", np.round(result.trajectory.values, 6))
print("  recurrence:", [0, 1, 3, 8, 21], "scaled by 1/21 =", np.round(np.array([0, 1, 3, 8, 21]) / 21, 6))

# A genuinely nonlinear state term still converges quadratically.
P2 = tv.VariationalProblem(
    tv.make_uniform(0, 4, 1), 0, 4, tv.parse_lagrangian("r^2 + exp(x)"), 0.0, 1.0
)
result2 = tv.solve_el_discrete(P2)
res = tv.el_residual(P2, result2.trajectory)
print("\nf = r^2 + exp(x):")
print("  iterations:", result2.iterations, " residual max:", float(np.max(np.abs(res.values))))
print("  trajectory:", np.round(result2.trajectory.values, 6))
