#!/usr/bin/env python3
"""The dynamic subscale recursion, isolated.

Under backward Euler (theta=1) the subscale velocity at each quadrature
point obeys uprime_{n+1} = tau1p * (R1 + uprime_n / dt_eff).  With the
states frozen at zero, R1 is the interval forcing that ``update_subscales``
takes, here an array of its values at the (2, m, 7) assembly points.  Two
regimes:

- frozen residual: the history builds up a geometric partial sum that
  approaches the quasi-static limit tau1 * R1;
- zero residual: the history decays by exactly tau1/(dt_eff + tau1) per
  step.
"""

import numpy as np

from stokes_asgs import build_unit_square_mesh
from stokes_asgs.asgs_core import (FieldState, StabilizationParams,
                                   SubscaleState, TimeScheme, update_subscales)

mesh = build_unit_square_mesh(4)
scheme = TimeScheme(theta=1, dt=0.05, n_steps=1)
params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, scheme.dt_eff)
zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                  np.zeros(mesh.n_vertices), 0.0)

print("frozen residual R1 = (1, 0): growth toward the quasi-static limit")
frozen = np.zeros((2, mesh.n_triangles, 7))
frozen[0] = 1.0
sub = SubscaleState.zeros(mesh)
limit = params.tau1[0]  # tau1 * |R1| with |R1| = 1
for n in range(1, 11):
    sub = update_subscales(mesh, zero, zero, sub, scheme, params, frozen)
    mag = np.abs(sub.uprime[..., 0]).max()
    print(f"  step {n:2d}: max |uprime| = {mag:.8f}   (limit tau1*R = {limit:.8f})")

print()
print("zero residual: geometric decay")
fzero = np.zeros((2, mesh.n_triangles, 7))
rng = np.random.default_rng(1)
sub = SubscaleState(rng.standard_normal((mesh.n_triangles, 7, 2)))
factor = params.tau1[0] / (scheme.dt_eff + params.tau1[0])
prev = np.abs(sub.uprime).max()
print(f"  analytic per-step factor: {factor:.8f}")
for n in range(1, 6):
    sub = update_subscales(mesh, zero, zero, sub, scheme, params, fzero)
    cur = np.abs(sub.uprime).max()
    print(f"  step {n}: max |uprime| = {cur:.3e}   measured factor {cur / prev:.8f}")
    prev = cur
