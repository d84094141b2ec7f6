#!/usr/bin/env python3
"""Refinement study for the manufactured problem.

Halves h and dt together (backward Euler) and prints the error table with
rates of convergence.  Three levels by default so the demo finishes in a
few seconds; pass --levels 5 to reproduce the full 10x10 ... 160x160
sequence used by the acceptance suite (about 11 s at 330 MB peak RSS with
one BLAS thread on a 2-core Xeon).
"""

import argparse

import numpy as np

from stokes_asgs.manufactured import run_convergence_study

parser = argparse.ArgumentParser()
parser.add_argument("--levels", type=int, default=3)
parser.add_argument("--theta", type=int, default=1, choices=(0, 1))
args = parser.parse_args()

table, results = run_convergence_study(10, 0.1, args.levels, theta=args.theta)

print("level    nx       dt    err_u_vtilde   err_p_l2l2        total      RoC")
for row in table.rows:
    roc = "     -" if np.isnan(row.roc) else f"{row.roc:6.4f}"
    print(f"{row.level:5d}  {row.nx:4d}  {row.dt:7.5f}   {row.err_u_vtilde:.6e}"
          f"  {row.err_p_l2l2:.6e}  {row.total:.6e}  {roc}")

hs = np.array([r.h for r in table.rows])
totals = np.array([r.total for r in table.rows])
A = np.vstack([np.log(hs), np.ones(len(hs))]).T
slope = np.linalg.lstsq(A, np.log(totals), rcond=None)[0][0]
print(f"\nfitted slope of log(total) vs log(h): {slope:.4f}")
print("divergence errors:",
      ", ".join(f"{r.err_div_l2l2:.3e}" for r in results))
