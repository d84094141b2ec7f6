#!/usr/bin/env python3
"""Solve the manufactured unit-square problem once and print the error history.

Backward Euler on a 10x10 grid with dt = 0.1 up to T = 1, the default
configuration throughout this package.  Per step we report the velocity
errors of the interval (L2 and H1), the interval pressure error, and the
residual-based indicator; at the end the accumulated space-time norms.
"""

from stokes_asgs.manufactured import run_verification_solve

result = run_verification_solve(nx=10, dt=0.1, theta=1, t_final=1.0,
                                mu=0.1, c1=4.0, c2=2.0)

print("step    t     err_u_L2    err_u_H1    err_p_L2      eta")
for row in result.steps:
    print(f"{row.step:4d}  {row.t:4.1f}  {row.err_u_l2:.4e}"
          f"  {row.err_u_h1:.4e}  {row.err_p_l2:.4e}  {row.eta:.5f}")

print()
print(f"velocity error (max-in-time L2 + L2-in-time H1): {result.err_u_vtilde:.6f}")
print(f"velocity error L2(L2):                           {result.err_u_l2l2:.6f}")
print(f"pressure error L2(L2):                           {result.err_p_l2l2:.6f}")
print(f"total error:                                     {result.total:.6f}")
print(f"time-accumulated indicator eta:                  {result.eta:.6f}")
print(f"divergence error L2(L2):                         {result.err_div_l2l2:.6f}")
