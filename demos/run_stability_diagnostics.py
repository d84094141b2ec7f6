#!/usr/bin/env python3
"""Eigenvalue diagnostics: coercivity and the discrete inf-sup constant.

Two experiments on a sequence of meshes:

1. The smallest eigenvalue of the symmetrized one-step operator (backward
   Euler, Dirichlet and zero-mean directions projected out).  With the
   subgrid stabilization on it is strictly positive; switched off, the
   pressure block of the symmetric part vanishes and the minimum drops to
   zero, which is the algebraic fingerprint of the equal-order instability.

2. The inf-sup constant beta_h from the pressure Schur complement, up to
   nx=160, with its observed order in h against the previous row.  The
   unstabilized equal-order pair falls like h (order near 1).  The
   stabilized constant's order shrinks under refinement; whether it reaches
   0, so that beta_h levels off, is the paper's discrete inf-sup claim.
"""

import math

from stokes_asgs import build_dofmap, build_unit_square_mesh
from stokes_asgs.asgs_core import (StabilizationParams, coercivity_check,
                                   infsup_constant)

MU, C1, C2, DT = 0.1, 4.0, 2.0, 0.1

print("coercivity: smallest eigenvalue of the symmetrized operator")
print("  nx    stabilized      unstabilized (dt=10)")
for nx in (4, 8):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    stab = StabilizationParams.for_mesh(mesh, MU, C1, C2, DT)
    lam = coercivity_check(mesh, dofmap, stab, DT)
    loose = StabilizationParams.for_mesh(mesh, MU, C1, C2, 10.0, stabilized=False)
    lam0 = coercivity_check(mesh, dofmap, loose, 10.0)
    print(f"  {nx:2d}    {lam:.6e}    {lam0:+.2e}")

print()
print("inf-sup constant beta_h (pressure Schur complement) and its order in h")
print("   nx    stabilized (order)    unstabilized (order)")
prev = None
for nx in (2, 4, 8, 16, 64, 160):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, 0.05)
    beta = (infsup_constant(mesh, dofmap, True, params),
            infsup_constant(mesh, dofmap, False, params))
    cols = [f"{b:.5f}" + (f" ({math.log(p / b) / math.log(nx / prev[0]):.3f})" if prev else "")
            for b, p in zip(beta, prev[1] if prev else beta)]
    print(f"  {nx:3d}    {cols[0]:18s}    {cols[1]}")
    prev = nx, beta
