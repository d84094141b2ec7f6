import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_asgs import build_dofmap, build_unit_square_mesh, interpolate
from stokes_asgs.asgs_core import (FieldState, StabilizationParams,
                                   TimeScheme, _element_tables, _p1_actions,
                                   solve_transient)
from stokes_asgs.fem_space import quadrature_rule
from stokes_asgs.manufactured import (ErrorAccumulator, _field_at_quadrature,
                                      accumulate_errors, exact_pressure,
                                      exact_velocity, exact_velocity_gradient,
                                      forcing, rate_table, residual_indicator,
                                      run_verification_solve)

MU = 0.1


# ------------------------------------------------------- exact fields

def test_velocity_zero_at_center_and_boundary():
    u1, u2 = exact_velocity(0.5, 0.5, 0.37)
    assert u1 == 0.0 and u2 == 0.0
    rng = np.random.default_rng(1)
    s = rng.uniform(0, 1, 50)
    for x, y in [(s, np.zeros(50)), (s, np.ones(50)),
                 (np.zeros(50), s), (np.ones(50), s)]:
        u1, u2 = exact_velocity(x, y, 0.9)
        assert np.abs(u1).max() == 0.0
        assert np.abs(u2).max() == 0.0


def test_velocity_point_value():
    u1, _ = exact_velocity(0.25, 0.75, 0.0)
    # x^2(x-1)^2 = 0.03515625 and y(y-1)(2y-1) = -0.09375
    assert u1 == pytest.approx(0.03515625 * (-0.09375), abs=1e-18)
    assert u1 == pytest.approx(-0.0032958984375, abs=1e-18)


def test_pressure_values():
    assert exact_pressure(0.5, 0.123, 4.0) == 0.0
    assert exact_pressure(0.0, 0.0, 0.0) == 1.0


def test_pressure_zero_mean():
    mesh = build_unit_square_mesh(4)
    rule = quadrature_rule(8)
    pts = mesh.quad_points(rule)
    vals = exact_pressure(pts[..., 0], pts[..., 1], 0.7)
    integral = np.einsum("k,kq,q->", mesh.areas, vals, rule.weights)
    assert abs(integral) < 1e-12


def test_forcing_against_finite_differences():
    # independent oracle: second-order central differences of the exact
    # fields; this gates everything downstream
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, 1000)
    y = rng.uniform(0, 1, 1000)
    t = rng.uniform(0, 2, 1000)
    h = 1e-5

    def u(xx, yy, tt):
        return np.stack(exact_velocity(xx, yy, tt))

    dudt = (u(x, y, t + h) - u(x, y, t - h)) / (2 * h)
    lap = (u(x + h, y, t) + u(x - h, y, t) + u(x, y + h, t) + u(x, y - h, t)
           - 4 * u(x, y, t)) / h ** 2
    gpx = (exact_pressure(x + h, y, t) - exact_pressure(x - h, y, t)) / (2 * h)
    gpy = (exact_pressure(x, y + h, t) - exact_pressure(x, y - h, t)) / (2 * h)
    f_fd = dudt - MU * lap + np.stack([gpx, gpy])
    f = np.stack(forcing(x, y, t, MU))
    assert np.abs(f - f_fd).max() <= 1e-6


def test_velocity_divergence_free_pointwise():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 1000)
    y = rng.uniform(0, 1, 1000)
    t = rng.uniform(0, 3, 1000)
    d11, _, _, d22 = exact_velocity_gradient(x, y, t)
    assert np.abs(d11 + d22).max() <= 1e-12


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.01, 0.99, 200)
    y = rng.uniform(0.01, 0.99, 200)
    t = rng.uniform(0, 1, 200)
    h = 1e-6
    d11, d12, d21, d22 = exact_velocity_gradient(x, y, t)
    for comp in range(2):
        fdx = (np.stack(exact_velocity(x + h, y, t))[comp]
               - np.stack(exact_velocity(x - h, y, t))[comp]) / (2 * h)
        fdy = (np.stack(exact_velocity(x, y + h, t))[comp]
               - np.stack(exact_velocity(x, y - h, t))[comp]) / (2 * h)
        dx = (d11, d21)[comp]
        dy = (d12, d22)[comp]
        assert np.abs(dx - fdx).max() < 1e-9
        assert np.abs(dy - fdy).max() < 1e-9


def test_forcing_at_symmetry_center():
    f1, f2 = forcing(0.5, 0.5, 0.0, MU)
    assert f1 == 0.0 and f2 == 0.0


def test_forcing_decays_in_time():
    f1, f2 = forcing(0.3, 0.7, 50.0, MU)
    assert abs(f1) < 1e-20 and abs(f2) < 1e-20


# -------------------------------------------------- error accumulation

def _interp_state(mesh, t):
    return FieldState(
        interpolate(lambda x, y: exact_velocity(x, y, t)[0], mesh),
        interpolate(lambda x, y: exact_velocity(x, y, t)[1], mesh),
        interpolate(lambda x, y: exact_pressure(x, y, t), mesh), t)


def test_zero_error_for_zero_fields():
    mesh = build_unit_square_mesh(3)
    zero_exact = (lambda x, y, t: (0.0 * x, 0.0 * x),
                  lambda x, y, t: (0.0 * x, 0.0 * x, 0.0 * x, 0.0 * x),
                  lambda x, y, t: 0.0 * x)
    z = np.zeros(mesh.n_vertices)
    acc = ErrorAccumulator()
    accumulate_errors(acc, FieldState(z, z, z, 0.0), FieldState(z, z, z, 0.1),
                      mesh, 1, 0.1, exact=zero_exact)
    assert acc.u_l2l2_sq == 0.0 and acc.p_l2l2_sq == 0.0
    assert acc.total_error == 0.0


def test_unit_constant_field_norm():
    # discrete field = 1, exact = 0, T = 1: the squared L2(L2) norm is 1
    mesh = build_unit_square_mesh(3)
    zero_exact = (lambda x, y, t: (0.0 * x, 0.0 * x),
                  lambda x, y, t: (0.0 * x, 0.0 * x, 0.0 * x, 0.0 * x),
                  lambda x, y, t: 0.0 * x)
    one = np.ones(mesh.n_vertices)
    z = np.zeros(mesh.n_vertices)
    acc = ErrorAccumulator()
    dt, n = 0.1, 10
    for i in range(n):
        accumulate_errors(acc, FieldState(one, z, z, i * dt),
                          FieldState(one, z, z, (i + 1) * dt),
                          mesh, 1, dt, exact=zero_exact)
    assert acc.u_l2l2_sq == pytest.approx(1.0, abs=1e-13)
    assert acc.u_max_l2_sq == pytest.approx(1.0, abs=1e-13)


def test_error_scaling_quadratic():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(2)
    n = mesh.n_vertices
    zero_exact = (lambda x, y, t: (0.0 * x, 0.0 * x),
                  lambda x, y, t: (0.0 * x, 0.0 * x, 0.0 * x, 0.0 * x),
                  lambda x, y, t: 0.0 * x)
    u1, u2, p = rng.standard_normal((3, n))
    s = 3.7

    def run(scale):
        acc = ErrorAccumulator()
        a = FieldState(scale * u1, scale * u2, scale * p, 0.0)
        b = FieldState(scale * u1, scale * u2, scale * p, 0.1)
        return accumulate_errors(acc, a, b, mesh, 1, 0.1, exact=zero_exact)

    base, scaled = run(1.0), run(s)
    assert scaled.u_l2l2_sq == pytest.approx(s ** 2 * base.u_l2l2_sq, rel=1e-12)
    assert scaled.u_max_l2_sq == pytest.approx(s ** 2 * base.u_max_l2_sq, rel=1e-12)
    assert scaled.p_l2l2_sq == pytest.approx(s ** 2 * base.p_l2l2_sq, rel=1e-12)


def test_interpolant_error_is_second_order_in_l2():
    errs = {}
    for nx in (4, 8):
        mesh = build_unit_square_mesh(nx)
        acc = ErrorAccumulator()
        dt, n = 0.25, 4
        prev = _interp_state(mesh, 0.0)
        for i in range(1, n + 1):
            cur = _interp_state(mesh, i * dt)
            accumulate_errors(acc, prev, cur, mesh, 1, dt)
            prev = cur
        errs[nx] = acc
    # nodal interpolation: L2 velocity error O(h^2), H1 part O(h)
    assert errs[4].err_u_l2l2 / errs[8].err_u_l2l2 > 3.0
    assert 1.7 < errs[4].err_u_l2h1 / errs[8].err_u_l2h1 < 2.4


def test_interpolant_error_below_solved_error():
    mesh = build_unit_square_mesh(8)
    acc = ErrorAccumulator()
    dt, n = 0.1, 10
    prev = _interp_state(mesh, 0.0)
    for i in range(1, n + 1):
        cur = _interp_state(mesh, i * dt)
        accumulate_errors(acc, prev, cur, mesh, 1, dt)
        prev = cur
    solved = run_verification_solve(8, 0.1, 1, 1.0)
    assert acc.err_u_l2l2 < solved.err_u_vtilde


# ------------------------------------------------------------ kernels

def test_linear_field_kernels_exact():
    # P1 interpolation reproduces a linear field, so the quadrature values
    # and gradients are exact, and the closed-form element actions equal
    # the element tables applied to the nodal values
    mesh = build_unit_square_mesh(3)
    rule = quadrature_rule(8)
    pts = mesh.quad_points(rule)
    x, y = pts[..., 0], pts[..., 1]
    c = [(0.3, -1.7, 2.5), (-4.0, 0.6, 1.1)]
    u1, u2 = (interpolate(lambda x, y, c=cd: c[0] + c[1] * x + c[2] * y, mesh)
              for cd in c)
    vals, grads = _field_at_quadrature(mesh, rule, u1, u2)
    for d, (c0, c1, c2) in enumerate(c):
        assert np.abs(vals[..., d] - (c0 + c1 * x + c2 * y)).max() <= 1e-14
        assert np.abs(grads[:, d, 0] - c1).max() <= 1e-13
        assert np.abs(grads[:, d, 1] - c2).max() <= 1e-13

    u_loc = np.stack([u1[mesh.triangles], u2[mesh.triangles]], axis=-1)
    _, _, mass, stiff, _ = _element_tables(mesh)
    mass_u, stiff_u, _ = _p1_actions(mesh, u_loc)
    assert np.abs(mass_u - mass @ u_loc).max() <= 1e-14
    assert np.abs(stiff_u - stiff @ u_loc).max() <= 1e-14


# ------------------------------------------------- residual indicator

def test_indicator_zero_divergence_contribution():
    # constant-in-time interpolant of a divergence-free field with exactly
    # matching forcing: R2 = 0 elementwise for any nodal field that is
    # globally constant, so eta reduces to the h-weighted R1 part
    mesh = build_unit_square_mesh(3)
    n = mesh.n_vertices
    c = np.full(n, 0.8)
    z = np.zeros(n)
    state = FieldState(c, z, z, 0.0)
    state2 = FieldState(c, z, z, 0.1)
    fzero = lambda x, y, t: (0.0 * x, 0.0 * x)
    eta_k, eta = residual_indicator(state, state2, mesh, 0.1, 1, fzero)
    assert eta == pytest.approx(0.0, abs=1e-15)


def test_indicator_decreases_with_h_for_interpolant():
    etas = {}
    for nx in (10, 20, 40):
        mesh = build_unit_square_mesh(nx)
        prev = _interp_state(mesh, 0.0)
        cur = _interp_state(mesh, 0.1)
        fn = lambda x, y, t: forcing(x, y, t, MU)
        _, eta = residual_indicator(prev, cur, mesh, 0.1, 1, fn)
        etas[nx] = eta
    assert etas[20] < etas[10]
    assert etas[40] < etas[20]


def test_indicator_shape_and_total():
    mesh = build_unit_square_mesh(5)
    prev = _interp_state(mesh, 0.0)
    cur = _interp_state(mesh, 0.1)
    fn = lambda x, y, t: forcing(x, y, t, MU)
    eta_k, eta = residual_indicator(prev, cur, mesh, 0.1, 1, fn)
    assert eta_k.shape == (mesh.n_triangles,)
    assert eta == pytest.approx(np.sqrt((eta_k ** 2).sum()), rel=1e-13)


# ----------------------------------------------- verification observer

@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 6), theta=st.sampled_from([0, 1]),
       dt=st.floats(0.01, 0.5), n_steps=st.integers(1, 4))
def test_observer_equals_interval_fold(nx, theta, dt, n_steps):
    # the observer computes each level's snapshot once; folding the
    # standalone accumulate_errors and residual_indicator over the kept
    # history of the same solve must give the same norms and eta
    res = run_verification_solve(nx, dt, theta, n_steps * dt,
                                 collect_steps=True)
    mesh = build_unit_square_mesh(nx)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=n_steps)
    params = StabilizationParams.for_mesh(mesh, MU, 4.0, 2.0, scheme.dt_eff)
    fn = lambda x, y, t: forcing(x, y, t, MU)
    initial = FieldState(
        interpolate(lambda x, y: exact_velocity(x, y, 0.0)[0], mesh),
        interpolate(lambda x, y: exact_velocity(x, y, 0.0)[1], mesh),
        np.zeros(mesh.n_vertices), 0.0)
    hist = solve_transient(mesh, build_dofmap(mesh), scheme, params, fn,
                           initial)
    acc = ErrorAccumulator()
    etas = []
    for prev, cur in zip(hist, hist[1:]):
        accumulate_errors(acc, prev, cur, mesh, theta, dt)
        etas.append(residual_indicator(prev, cur, mesh, dt, theta, fn)[1])
    acc.eta_sq = sum(dt * e ** 2 for e in etas)
    for name in ("err_u_vtilde", "err_u_l2l2", "err_u_l2h1", "err_p_l2l2",
                 "total", "eta", "err_div_l2l2"):
        want = getattr(acc, "total_error" if name == "total" else name)
        assert getattr(res, name) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert [s["eta"] for s in res.steps] == pytest.approx(etas, rel=1e-12)


def test_verification_solve_bitwise_deterministic():
    runs = [run_verification_solve(4, 0.1, theta, 0.3, collect_steps=True)
            for theta in (0, 1) for _ in range(2)]
    # LevelResult equality compares every norm and the per-step records
    assert runs[0] == runs[1] and runs[2] == runs[3]


# ------------------------------------------------------------- rates

class _Lv:
    def __init__(self, nx, dt, total):
        self.nx = nx
        self.dt = dt
        self.total = total
        self.err_u_vtilde = total
        self.err_p_l2l2 = 0.0
        self.eta = 0.0


def test_rate_table_reference_rates():
    # reference error column and its log2 ratios; the second reference
    # rate is rounded inconsistently in its source, hence the wider
    # tolerance there (see docs/acceptance.md)
    errs = [0.0651611, 0.0349207, 0.0182159, 0.00931727, 0.0047026]
    refs = [0.899928, 0.93883, 0.96722, 0.986447]
    levels = [_Lv(10 * 2 ** i, 0.1 / 2 ** i, e) for i, e in enumerate(errs)]
    table = rate_table(levels)
    rocs = table.rocs()
    assert abs(rocs[0] - refs[0]) < 1e-5
    assert abs(rocs[1] - refs[1]) < 1e-4
    assert abs(rocs[2] - refs[2]) < 1e-5
    assert abs(rocs[3] - refs[3]) < 1e-5


def test_rate_table_equal_errors():
    levels = [_Lv(10, 0.1, 0.5), _Lv(20, 0.05, 0.5)]
    assert rate_table(levels).rocs() == [pytest.approx(0.0, abs=1e-15)]


def test_rate_table_needs_two_levels():
    with pytest.raises(ValueError):
        rate_table([_Lv(10, 0.1, 1.0)])


def test_rate_table_against_dt():
    levels = [_Lv(16, 0.2, 0.4), _Lv(16, 0.1, 0.1)]
    table = rate_table(levels, rate_against="dt")
    assert table.rocs() == [pytest.approx(2.0, abs=1e-12)]


def test_run_verification_solve_rejects_bad_t_final():
    with pytest.raises(ValueError):
        run_verification_solve(4, 0.3, 1, 1.0)
