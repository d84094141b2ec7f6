"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion before asserting, so
a full run (pytest -s tests/test_acceptance.py) yields a one-line verdict
per criterion.  The refinement study behind criteria 1, 2, 8 and 9 runs
once per session.
"""

import math
import time

import numpy as np
import pytest

from stokes_asgs import build_dofmap, build_unit_square_mesh
from stokes_asgs.asgs_core import (FieldState, StabilizationParams,
                                   StepFailureError, SubscaleState, TimeScheme,
                                   _interval_forcing, assemble_lhs, assemble_rhs,
                                   coercivity_check, solve_transient,
                                   update_subscales)
from stokes_asgs.fem_space import interpolate, quadrature_rule
from stokes_asgs.manufactured import (exact_pressure, exact_velocity,
                                      exact_velocity_gradient, forcing,
                                      run_convergence_study,
                                      run_verification_solve)

from oracle_dense import dense_assemble

REFERENCE_ERRORS = [0.0651611, 0.0349207, 0.0182159, 0.00931727, 0.0047026]
REFERENCE_ROCS = [0.899928, 0.93883, 0.96722, 0.986447]


def _verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def study():
    start = time.perf_counter()
    table, results = run_convergence_study(10, 0.1, 5, theta=1, t_final=1.0,
                                           mu=0.1, c1=4.0, c2=2.0)
    elapsed = time.perf_counter() - start
    return table, results, elapsed


@pytest.fixture(scope="session")
def time_study():
    """Crank-Nicolson final-time velocities at nx=64 for dt = 0.05/2^i.

    Returns the L2 norms of the differences between successive levels and
    the runtime.  The start matches run_verification_solve: nodal
    interpolant of the exact velocity, zero pressure and subscales.
    """
    start = time.perf_counter()
    mu, c1, c2 = 0.1, 4.0, 2.0
    mesh = build_unit_square_mesh(64)
    dofmap = build_dofmap(mesh)
    initial = FieldState(
        u1=interpolate(lambda x, y: exact_velocity(x, y, 0.0)[0], mesh),
        u2=interpolate(lambda x, y: exact_velocity(x, y, 0.0)[1], mesh),
        p=np.zeros(mesh.n_vertices), t=0.0)
    fn = lambda x, y, t: forcing(x, y, t, mu)
    finals = []
    for i in range(4):
        scheme = TimeScheme(theta=0, dt=0.05 / 2 ** i, n_steps=20 * 2 ** i)
        params = StabilizationParams.for_mesh(mesh, mu, c1, c2, scheme.dt_eff)
        finals.append(solve_transient(mesh, dofmap, scheme, params, fn, initial))

    rule = quadrature_rule(5)

    def l2_gap(a, b):
        d = np.stack([(a.u1 - b.u1)[mesh.triangles],
                      (a.u2 - b.u2)[mesh.triangles]], axis=-1)
        vals = np.einsum("qi,kid->kqd", rule.points, d)
        return math.sqrt(np.einsum("k,kqd,q->", mesh.areas, vals ** 2,
                                   rule.weights))

    gaps = [l2_gap(a, b) for a, b in zip(finals, finals[1:])]
    elapsed = time.perf_counter() - start
    return gaps, elapsed


def test_criterion_1_table_rate_reproduction(study):
    table, results, elapsed = study
    rocs = table.rocs()
    deviations = [abs(r - p) for r, p in zip(rocs, REFERENCE_ROCS)]
    in_bracket = all(d <= 0.06 for d in deviations)
    increasing = all(b > a for a, b in zip(rocs, rocs[1:]))
    final_ok = 0.93 <= rocs[-1] <= 1.05
    runtime_ok = elapsed <= 600.0
    # informational magnitude comparison (non-gating): reference "total
    # error" normalization is unknown, see docs/acceptance.md
    ratios = [r.total / e for r, e in zip(table.rows, REFERENCE_ERRORS)]
    print(f"  totals      : {[format(r.total, '.7f') for r in table.rows]}")
    print(f"  magnitude ratios vs reference errors (informational): "
          f"{[format(x, '.3f') for x in ratios]} "
          f"(within factor 3: {all(1 / 3 <= x <= 3 for x in ratios)})")
    ok = in_bracket and increasing and final_ok and runtime_ok
    rocs_text = [format(r, '.5f') for r in rocs]
    _verdict(1, "Table rate reproduction", ok,
             f"rocs={rocs_text} vs refs "
             f"{REFERENCE_ROCS}, max dev {max(deviations):.4f} (<=0.06: {in_bracket}), "
             f"increasing={increasing}, final in [0.93,1.05]={final_ok}, "
             f"runtime {elapsed:.0f}s<=600s={runtime_ok}")
    assert in_bracket, (
        f"RoC deviations {[format(d, '.4f') for d in deviations]} exceed 0.06; "
        f"computed rocs {rocs_text} approach 1 from above while the reference "
        f"pattern rises from below (see docs/acceptance.md)")
    assert increasing, f"rocs {rocs_text} are not monotonically increasing"
    assert final_ok
    assert runtime_ok


def test_criterion_2_spatial_first_order(study):
    table, results, _ = study
    hs = np.array([1.0 / r.nx for r in table.rows])
    totals = np.array([r.total for r in table.rows])
    A = np.vstack([np.log(hs), np.ones(len(hs))]).T
    slope = float(np.linalg.lstsq(A, np.log(totals), rcond=None)[0][0])
    ok = 0.85 <= slope <= 1.1
    _verdict(2, "spatial first order", ok,
             f"LSQ slope {slope:.4f} in [0.85, 1.10]")
    tail = [format(r, '.5f') for r in table.rocs()[-2:]]
    assert ok, (f"fitted slope {slope:.4f} outside [0.85, 1.1]; tail rates "
                f"{tail} are first order, the overshoot is "
                f"pre-asymptotic (see docs/acceptance.md)")


def test_criterion_3_temporal_second_order_cn(time_study):
    # temporal self-convergence: at fixed nx the spatial error is common to
    # all levels, so the gaps between successive dt isolate the dt^2 part
    # (docs/acceptance.md)
    gaps, elapsed = time_study
    last_order = math.log(gaps[-2] / gaps[-1]) / math.log(2.0)
    ok = 1.6 <= last_order <= 2.4 and elapsed <= 300.0
    _verdict(3, "temporal second order (theta=0)", ok,
             f"final-time L2 velocity gaps={[format(g, '.3e') for g in gaps]}, "
             f"last-ratio order {last_order:.3f} in [1.6, 2.4], "
             f"runtime {elapsed:.0f}s<=300s")
    assert elapsed <= 300.0
    assert 1.6 <= last_order <= 2.4, (
        f"observed last-ratio order {last_order:.3f} of the final-time "
        f"velocity gaps between successive dt (docs/acceptance.md)")


def test_criterion_4_assembly_oracle_equivalence():
    mesh = build_unit_square_mesh(2)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, scheme.dt_eff)
    rng = np.random.default_rng(17)
    n = mesh.n_vertices
    state = FieldState(rng.standard_normal(n), rng.standard_normal(n),
                       rng.standard_normal(n), 0.2)
    sub = SubscaleState(rng.standard_normal((mesh.n_triangles, 7, 2)))
    fn = lambda x, y, t: forcing(x, y, t, 0.1)
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    to_points = quadrature_rule(5).points.T
    u_old = np.stack([u[mesh.triangles] @ to_points for u in (state.u1, state.u2)])
    load = (u_old + np.moveaxis(sub.uprime, -1, 0)) / scheme.dt_eff
    load += _interval_forcing(fn, mesh, state.t, state.t + scheme.dt, scheme.alpha)
    rhs = assemble_rhs(mesh, dofmap, params, load)
    A_ref, b_ref = dense_assemble(mesh, dofmap, state, sub, scheme, params, fn)
    dev_a = np.abs(matrix.toarray() - A_ref).max()
    dev_b = np.abs(rhs - b_ref).max()
    ok = dev_a <= 1e-12 and dev_b <= 1e-12
    _verdict(4, "assembly oracle equivalence", ok,
             f"matrix dev {dev_a:.2e}, rhs dev {dev_b:.2e} (<= 1e-12)")
    assert ok


def test_criterion_5_forcing_oracle():
    rng = np.random.default_rng(42)
    x, y = rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000)
    t = rng.uniform(0, 2, 1000)
    h, mu = 1e-5, 0.1

    def u(xx, yy, tt):
        return np.stack(exact_velocity(xx, yy, tt))

    f_fd = ((u(x, y, t + h) - u(x, y, t - h)) / (2 * h)
            - mu * (u(x + h, y, t) + u(x - h, y, t) + u(x, y + h, t)
                    + u(x, y - h, t) - 4 * u(x, y, t)) / h ** 2
            + np.stack([(exact_pressure(x + h, y, t)
                         - exact_pressure(x - h, y, t)) / (2 * h),
                        (exact_pressure(x, y + h, t)
                         - exact_pressure(x, y - h, t)) / (2 * h)]))
    dev_f = np.abs(np.stack(forcing(x, y, t, mu)) - f_fd).max()
    d11, _, _, d22 = exact_velocity_gradient(x, y, t)
    dev_div = np.abs(d11 + d22).max()
    ok = dev_f <= 1e-6 and dev_div <= 1e-12
    _verdict(5, "forcing oracle", ok,
             f"forcing FD dev {dev_f:.2e} (<=1e-6), divergence {dev_div:.2e} (<=1e-12)")
    assert ok


def test_criterion_6_coercivity():
    start = time.perf_counter()
    values = {}
    for nx in (4, 8):
        mesh = build_unit_square_mesh(nx)
        dofmap = build_dofmap(mesh)
        params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, 0.1)
        values[nx] = coercivity_check(mesh, dofmap, params, 0.1)
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    unstab = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, 10.0,
                                          stabilized=False)
    degenerate = coercivity_check(mesh, dofmap, unstab, 10.0)
    elapsed = time.perf_counter() - start
    ok = (all(v > 0 for v in values.values()) and degenerate <= 1e-10
          and elapsed <= 60.0)
    _verdict(6, "coercivity", ok,
             f"stabilized min eigenvalues {values}, unstabilized large-dt "
             f"{degenerate:.2e} (<=1e-10), runtime {elapsed:.1f}s")
    assert ok


def test_criterion_7_stabilization_necessity():
    stab = run_verification_solve(20, 0.05, 1, 1.0, stabilized=True)
    try:
        unstab = run_verification_solve(20, 0.05, 1, 1.0, stabilized=False)
        ratio = unstab.err_p_l2l2 / stab.err_p_l2l2
        ok = ratio >= 2.0
        detail = f"unstabilized ran; pressure error ratio {ratio:.1f} (>=2)"
    except StepFailureError as exc:
        ok = True
        detail = f"unstabilized run failed as SingularMatrix at step {exc.step}"
    ok = ok and np.isfinite(stab.total)
    _verdict(7, "stabilization necessity", ok, detail)
    assert ok


def test_criterion_8_divergence_convergence(study):
    _, results, _ = study
    hs = np.array([1.0 / r.nx for r in results])
    divs = np.array([r.err_div_l2l2 for r in results])
    A = np.vstack([np.log(hs), np.ones(len(hs))]).T
    slope = float(np.linalg.lstsq(A, np.log(divs), rcond=None)[0][0])
    ok = slope >= 0.8
    _verdict(8, "divergence convergence", ok,
             f"div errors {[format(d, '.2e') for d in divs]}, fitted order "
             f"{slope:.3f} (>=0.8)")
    assert ok


def test_criterion_9_estimator_effectivity(study):
    table, results, _ = study
    effectivities = [r.eta / r.total for r in table.rows]
    in_range = all(0.05 <= e <= 50.0 for e in effectivities)
    spread = max(effectivities) / min(effectivities)
    ok = in_range and spread < 4.0
    _verdict(9, "estimator effectivity", ok,
             f"eta/total per level {[format(e, '.3f') for e in effectivities]}, "
             f"spread {spread:.2f} (<4)")
    assert ok


def test_criterion_10_subscale_recursion():
    mesh = build_unit_square_mesh(4)
    scheme = TimeScheme(theta=1, dt=0.05, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, scheme.dt_eff)
    zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                      np.zeros(mesh.n_vertices), 0.0)
    frozen = _interval_forcing(lambda x, y, t: (1.3 + 0.0 * x, -0.7 + 0.0 * x),
                               mesh, 0.0, scheme.dt, scheme.alpha)

    sub = SubscaleState.zeros(mesh)
    for _ in range(10):
        sub = update_subscales(mesh, zero, zero, sub, scheme, params, frozen)
    t1p = params.tau1p[:, None, None]
    q = (params.tau1p / scheme.dt_eff)[:, None, None]
    R = np.zeros_like(sub.uprime)
    R[..., 0], R[..., 1] = 1.3, -0.7
    closed = t1p * R * (1.0 - q ** 10) / (1.0 - q)
    dev_sum = np.abs(sub.uprime - closed).max()

    rng = np.random.default_rng(23)
    sub = SubscaleState(rng.standard_normal((mesh.n_triangles, 7, 2)))
    factor = (params.tau1 / (scheme.dt_eff + params.tau1))[:, None, None]
    fzero = _interval_forcing(lambda x, y, t: (0.0 * x, 0.0 * x), mesh, 0.0,
                              scheme.dt, scheme.alpha)
    nxt = update_subscales(mesh, zero, zero, sub, scheme, params, fzero)
    dev_decay = np.abs(nxt.uprime - factor * sub.uprime).max()

    ok = dev_sum <= 1e-13 and dev_decay <= 1e-13
    _verdict(10, "subscale recursion", ok,
             f"geometric sum dev {dev_sum:.2e}, decay factor dev "
             f"{dev_decay:.2e} (<=1e-13)")
    assert ok
