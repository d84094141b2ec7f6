import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_asgs import (asgs_core, build_dofmap, build_unit_square_mesh,
                         interpolate, linalg, manufactured)
from stokes_asgs import mesh as mesh_module
from stokes_asgs.asgs_core import (FieldState, StabilizationParams,
                                   TimeScheme, solve_transient)
from stokes_asgs.fem_space import quadrature_rule
from stokes_asgs.manufactured import (DEFAULT_EXACT, ERROR_QUAD_DEGREE,
                                      LevelResult, _SquareForm,
                                      _VerificationObserver, exact_pressure,
                                      exact_velocity, exact_velocity_gradient,
                                      forcing, rate_table,
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


# ------------------------------------ pointwise reference of the norms

# The observer evaluates every norm as a quadratic form in nodal errors.
# These reference functions integrate the same norms pointwise at the
# degree-8 points, with the exact fields evaluated there at each time.

def _field_at_quadrature(mesh, rule, u1, u2):
    """Values (m, nq, 2) and constant gradients (m, 2, 2) of a P1 velocity,
    grads[k, d, e] = du_d/dx_e on element k."""
    tri = mesh.triangles
    u_loc = np.stack([u1[tri], u2[tri]], axis=-1)
    vals = rule.points @ u_loc
    grads = np.matmul(u_loc.transpose(0, 2, 1), mesh.shape_gradients)
    return vals, grads


def _l2sq(mesh, field_sq):
    wq = quadrature_rule(ERROR_QUAD_DEGREE).weights
    return float((field_sq @ wq) @ mesh.areas)


def _reference_snapshot(state, mesh, exact):
    """Velocity errors of one level at the error points (e1, e2 and the four
    gradient components) and the squared L2 norm of (e1, e2)."""
    exact_u, exact_gu, _ = exact
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    x, y = pts[..., 0], pts[..., 1]
    vals, grads = _field_at_quadrature(mesh, rule, state.u1, state.u2)
    errors = [vals[..., d] - ex for d, ex in enumerate(exact_u(x, y, state.t))]
    errors += [grads[:, None, d, e] - ex for (d, e), ex in
               zip(((0, 0), (0, 1), (1, 0), (1, 1)), exact_gu(x, y, state.t))]
    return state, errors, _l2sq(mesh, errors[0] ** 2 + errors[1] ** 2)


def _reference_div_sq(mesh, state_n, state_np1, alpha):
    """Elementwise squared L2 norm of div(alpha*u^{n+1} + (1-alpha)*u^n),
    from the vertex coordinates alone: on each element the P1 gradient of a
    level solves E grad = (value differences along the two edges E leaving
    the first vertex), and the area is |det E| / 2."""
    tri = mesh.triangles
    edges = mesh.vertices[tri[:, 1:]] - mesh.vertices[tri[:, :1]]  # (m, 2, 2)

    def div(state):  # grads[k, e, d] = du_d/dx_e
        rise = np.stack([u[tri[:, 1:]] - u[tri[:, :1]] for u in (state.u1, state.u2)], -1)
        grads = np.linalg.solve(edges, rise)
        return grads[:, 0, 0] + grads[:, 1, 1]

    div_mid = alpha * div(state_np1) + (1 - alpha) * div(state_n)
    return 0.5 * np.abs(np.linalg.det(edges)) * div_mid ** 2


def _reference_parts(snap_n, snap_np1, mesh, theta, dt, exact):
    """The interval's squares, keyed by the ``LevelResult`` sum each adds to
    times dt, and the two snapshot L2 squares."""
    alpha = 0.5 * (1 + theta)
    (state_n, err_n, l2_n), (state_np1, err_np1, l2_np1) = snap_n, snap_np1
    mid = [alpha * e1 + (1 - alpha) * e0 for e0, e1 in zip(err_n, err_np1)]
    mid_l2 = _l2sq(mesh, mid[0] ** 2 + mid[1] ** 2)
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    p_vals = state_np1.p[mesh.triangles] @ rule.points.T
    p_exact = exact[2](pts[..., 0], pts[..., 1], state_n.t + alpha * dt)
    interval = {"u_l2l2_sq": mid_l2,
                "u_l2h1_sq": mid_l2 + _l2sq(mesh, sum(m ** 2 for m in mid[2:])),
                "p_l2l2_sq": _l2sq(mesh, (p_vals - p_exact) ** 2),
                "div_l2l2_sq": float(_reference_div_sq(mesh, state_n, state_np1, alpha).sum())}
    return interval, (l2_n, l2_np1)


def _reference_fold(acc, state_n, state_np1, mesh, theta, dt, exact=DEFAULT_EXACT):
    interval, snaps = _reference_parts(_reference_snapshot(state_n, mesh, exact),
                                       _reference_snapshot(state_np1, mesh, exact),
                                       mesh, theta, dt, exact)
    for name, sq in interval.items():
        setattr(acc, name, getattr(acc, name) + dt * sq)
    acc.u_max_l2_sq = max(acc.u_max_l2_sq, *snaps)
    return acc


def _reference_indicator(state_n, state_np1, mesh, dt, theta, forcing_fn):
    """eta_k and eta with R1 = f_mid - du/dt - grad p at the error points."""
    a = mesh.areas
    alpha = 0.5 * (1 + theta)
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    tri = mesh.triangles
    f = [alpha * fe + (1 - alpha) * fs for fs, fe in
         zip(forcing_fn(pts[..., 0], pts[..., 1], state_n.t),
             forcing_fn(pts[..., 0], pts[..., 1], state_n.t + dt))]
    du = [rule.points @ (v1 - v0)[tri].T / dt for v0, v1 in
          ((state_n.u1, state_np1.u1), (state_n.u2, state_np1.u2))]
    gradp = np.einsum("ki,kid->kd", state_np1.p[tri], mesh.shape_gradients)
    r1 = [f[d] - du[d].T - gradp[:, d, None] for d in range(2)]
    r1_sq = a * ((r1[0] ** 2 + r1[1] ** 2) @ rule.weights)
    r2_sq = _reference_div_sq(mesh, state_n, state_np1, alpha)
    eta_k_sq = mesh.diameters ** 2 * r1_sq + r2_sq
    return np.sqrt(eta_k_sq), float(np.sqrt(eta_k_sq.sum()))


# -------------------------------------------------- error accumulation

_ZERO_EXACT = (lambda x, y, t: (0.0 * x, 0.0 * x),
               lambda x, y, t: (0.0 * x, 0.0 * x, 0.0 * x, 0.0 * x),
               lambda x, y, t: 0.0 * x)
_FZERO = lambda x, y, t: (0.0 * x, 0.0 * x)


def _observer(mesh, theta, dt, n_steps, exact=DEFAULT_EXACT, forcing_fn=_FZERO):
    return _VerificationObserver(mesh, TimeScheme(theta=theta, dt=dt, n_steps=n_steps),
                                 forcing_fn, exact)


def _observe(mesh, states, theta, dt, exact=DEFAULT_EXACT, forcing_fn=_FZERO):
    """The observer's accumulated norms over the given time levels."""
    obs = _observer(mesh, theta, dt, len(states) - 1, exact, forcing_fn)
    for n, state in enumerate(states):
        obs(n, state, None)
    return obs.result


def _interp_state(mesh, t):
    return FieldState(
        interpolate(lambda x, y: exact_velocity(x, y, t)[0], mesh),
        interpolate(lambda x, y: exact_velocity(x, y, t)[1], mesh),
        interpolate(lambda x, y: exact_pressure(x, y, t), mesh), t)


def test_zero_error_for_zero_fields():
    mesh = build_unit_square_mesh(3)
    z = np.zeros(mesh.n_vertices)
    acc = _observe(mesh, [FieldState(z, z, z, 0.0), FieldState(z, z, z, 0.1)],
                   1, 0.1, exact=_ZERO_EXACT)
    assert acc.u_l2l2_sq == 0.0 and acc.p_l2l2_sq == 0.0
    assert acc.total == 0.0


def test_unit_constant_field_norm():
    # discrete field = 1, exact = 0, T = 1: the squared L2(L2) norm is 1
    mesh = build_unit_square_mesh(3)
    one = np.ones(mesh.n_vertices)
    z = np.zeros(mesh.n_vertices)
    dt, n = 0.1, 10
    acc = _observe(mesh, [FieldState(one, z, z, i * dt) for i in range(n + 1)],
                   1, dt, exact=_ZERO_EXACT)
    assert acc.u_l2l2_sq == pytest.approx(1.0, abs=1e-13)
    assert acc.u_max_l2_sq == pytest.approx(1.0, abs=1e-13)


def test_error_scaling_quadratic():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(2)
    n = mesh.n_vertices
    u1, u2, p = rng.standard_normal((3, n))
    s = 3.7

    def run(scale):
        a = FieldState(scale * u1, scale * u2, scale * p, 0.0)
        b = FieldState(scale * u1, scale * u2, scale * p, 0.1)
        return _observe(mesh, [a, b], 1, 0.1, exact=_ZERO_EXACT)

    base, scaled = run(1.0), run(s)
    assert scaled.u_l2l2_sq == pytest.approx(s ** 2 * base.u_l2l2_sq, rel=1e-12)
    assert scaled.u_max_l2_sq == pytest.approx(s ** 2 * base.u_max_l2_sq, rel=1e-12)
    assert scaled.p_l2l2_sq == pytest.approx(s ** 2 * base.p_l2l2_sq, rel=1e-12)


def test_interpolant_error_is_second_order_in_l2():
    errs = {}
    for nx in (4, 8):
        mesh = build_unit_square_mesh(nx)
        dt, n = 0.25, 4
        errs[nx] = _observe(mesh, [_interp_state(mesh, i * dt) for i in range(n + 1)],
                            1, dt)
    # nodal interpolation: L2 velocity error O(h^2), H1 part O(h)
    assert errs[4].err_u_l2l2 / errs[8].err_u_l2l2 > 3.0
    assert 1.7 < errs[4].err_u_l2h1 / errs[8].err_u_l2h1 < 2.4


def test_interpolant_error_below_solved_error():
    mesh = build_unit_square_mesh(8)
    dt, n = 0.1, 10
    acc = _observe(mesh, [_interp_state(mesh, i * dt) for i in range(n + 1)], 1, dt)
    solved = run_verification_solve(8, 0.1, 1, 1.0)
    assert acc.err_u_l2l2 < solved.err_u_vtilde


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 8), theta=st.sampled_from([0, 1]),
       t=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_forms_equal_pointwise_sums(nx, theta, t, seed):
    # the quadratic forms in nodal errors expand the degree-8 pointwise
    # integrals exactly, so both agree to rounding for any nodal fields
    mesh = build_unit_square_mesh(nx)
    rng = np.random.default_rng(seed)
    dt = 0.1
    states = [FieldState(*rng.standard_normal((3, mesh.n_vertices)), t + i * dt)
              for i in range(2)]
    fn = lambda x, y, t: forcing(x, y, t, MU)
    obs = _observer(mesh, theta, dt, 1, forcing_fn=fn)
    snaps = [_reference_snapshot(s, mesh, DEFAULT_EXACT) for s in states]
    for n, (state, snap) in enumerate(zip(states, snaps)):
        obs(n, state, None)
        assert obs._prev.l2_sq == pytest.approx(snap[2], rel=1e-12, abs=0.0)
    want = _reference_fold(LevelResult(nx, dt), *states, mesh, theta, dt)
    for name in ("u_l2l2_sq", "u_l2h1_sq", "u_max_l2_sq", "p_l2l2_sq",
                 "div_l2l2_sq"):
        assert getattr(obs.result, name) == pytest.approx(getattr(want, name),
                                                          rel=1e-12, abs=0.0)
    _, ref = _reference_indicator(*states, mesh, dt, theta, fn)
    assert obs.result.eta_sq == pytest.approx(dt * ref ** 2, rel=1e-12, abs=0.0)
    assert obs.result.steps[0].eta == pytest.approx(ref, rel=1e-12, abs=0.0)


# a P1 exact solution: linear in space, exp(-t) in time
_P1_U = ((0.3, -1.7, 2.5), (-4.0, 0.6, 1.1))
_P1_P = (0.2, 0.9, -1.3)


def _linear(c, x, y, t):
    return np.exp(-t) * (c[0] + c[1] * x + c[2] * y)


_P1_EXACT = (lambda x, y, t: tuple(_linear(c, x, y, t) for c in _P1_U),
             lambda x, y, t: tuple(np.exp(-t) * c[k] + 0.0 * x
                                   for c in _P1_U for k in (1, 2)),
             lambda x, y, t: _linear(_P1_P, x, y, t))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 8), theta=st.sampled_from([0, 1]),
       t=st.floats(0.0, 2.0))
def test_p1_exact_interpolant_has_zero_error(nx, theta, t):
    # a P1 exact field is its own interpolant: the interpolation errors
    # vanish to rounding and every norm of the interpolated levels is zero
    # to rounding; no rounded square reaches sqrt below zero
    mesh = build_unit_square_mesh(nx)
    dt = 0.1
    alpha = 0.5 * (1 + theta)

    def level(s, tp):
        u = [interpolate(lambda x, y, c=c: _linear(c, x, y, s), mesh) for c in _P1_U]
        return FieldState(*u, interpolate(lambda x, y: _linear(_P1_P, x, y, tp), mesh), s)

    states = [level(t, t), level(t + dt, t + alpha * dt)]
    obs = _observer(mesh, theta, dt, 1, exact=_P1_EXACT)
    for n, state in enumerate(states):
        obs(n, state, None)
    for form in (obs.forms.velocity, obs.forms.gradient, obs.forms.pressure):
        assert 0.0 <= form.C <= 1e-28 and np.abs(form.b).max() <= 1e-14
    acc = obs.result
    for sq in (acc.u_l2l2_sq, acc.u_l2h1_sq, acc.u_max_l2_sq, acc.p_l2l2_sq):
        assert 0.0 <= sq <= 1e-28
    assert acc.total <= 1e-14
    # with u_h = 0 and p_h the interpolant of c_mid * p0, the forcing grad p
    # leaves a zero momentum residual; expanded about (du, p) = (0, c_mid*p0),
    # the form's nodal errors are zero and its square is zero to rounding
    # itself, never NaN
    c_mid = alpha * math.exp(-t - dt) + (1 - alpha) * math.exp(-t)
    z = np.zeros(mesh.n_vertices)
    p_h = c_mid * interpolate(lambda x, y: _linear(_P1_P, x, y, 0.0), mesh)
    grad_p = lambda x, y, t: (np.exp(-t) * _P1_P[1] + 0.0 * x,
                              np.exp(-t) * _P1_P[2] + 0.0 * x)
    eta = _observe(mesh, [FieldState(z, z, z, t), FieldState(z, z, p_h, t + dt)], theta,
                   dt, exact=_P1_EXACT, forcing_fn=grad_p).steps[0].eta
    assert eta <= 1e-12


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 8), theta=st.sampled_from([0, 1]),
       t=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_residual_form_is_an_identity(nx, theta, t, seed):
    # the form expands the indicator about (du, p) = (0, c*p0(x_i)) and the
    # field f0 - grad I_h p0; with P1 exact fields and a forcing unrelated
    # to them it must still give the pointwise indicator for any nodal states
    mesh = build_unit_square_mesh(nx)
    rng = np.random.default_rng(seed)
    dt = 0.1
    states = [FieldState(*rng.standard_normal((3, mesh.n_vertices)), t + i * dt)
              for i in range(2)]
    fn = manufactured.ManufacturedForcing(MU)
    eta = _observe(mesh, states, theta, dt, exact=_P1_EXACT, forcing_fn=fn).steps[0].eta
    assert eta == pytest.approx(_reference_indicator(*states, mesh, dt, theta, fn)[1],
                                rel=1e-12, abs=0.0)


def test_square_form_clamps_rounding_below_zero():
    # b and C of an interpolation error that cancels e exactly: the form is
    # zero in exact arithmetic, and these values round it below zero
    M = np.array([[2 / 3, 1 / 6], [1 / 6, 2 / 3]])
    e, c = np.array([[0.9], [0.2]]), 0.3
    eme = float(np.vdot(e, M @ e))
    form = _SquareForm(M, None, -(M @ e) / c, eme / c ** 2)
    assert eme + 2.0 * c * float(np.vdot(e, form.b)) + c * c * form.C < 0.0
    assert form.square(e, c) == 0.0


# ------------------------------------------------------------ kernels

def test_linear_field_kernels_exact():
    # P1 interpolation reproduces a linear field, so the reference's
    # quadrature values and gradients are exact
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


# ------------------------------------------------- residual indicator

def test_indicator_zero_divergence_contribution():
    # constant-in-time field with zero forcing and zero exact fields: R2 = 0
    # elementwise for any nodal field that is globally constant, so eta
    # reduces to the h-weighted R1 part, here zero
    mesh = build_unit_square_mesh(3)
    n = mesh.n_vertices
    c = np.full(n, 0.8)
    z = np.zeros(n)
    acc = _observe(mesh, [FieldState(c, z, z, 0.0), FieldState(c, z, z, 0.1)], 1, 0.1,
                   exact=_ZERO_EXACT)
    assert acc.steps[0].eta == pytest.approx(0.0, abs=1e-15)


def test_indicator_decreases_with_h_for_interpolant():
    etas = {}
    for nx in (10, 20, 40):
        mesh = build_unit_square_mesh(nx)
        acc = _observe(mesh, [_interp_state(mesh, 0.0), _interp_state(mesh, 0.1)], 1, 0.1,
                       forcing_fn=lambda x, y, t: forcing(x, y, t, MU))
        etas[nx] = acc.steps[0].eta
    assert etas[20] < etas[10]
    assert etas[40] < etas[20]


# ----------------------------------------------- verification observer

@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 6), theta=st.sampled_from([0, 1]),
       dt=st.floats(0.01, 0.5), n_steps=st.integers(1, 4))
def test_observer_equals_interval_fold(nx, theta, dt, n_steps):
    # the observer's quadratic forms must give the norms and eta of the
    # pointwise reference folded over the kept history of the same solve
    res = run_verification_solve(nx, dt, theta, n_steps * dt)
    mesh = build_unit_square_mesh(nx)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=n_steps)
    params = StabilizationParams.for_mesh(mesh, MU, 4.0, 2.0, scheme.dt_eff)
    fn = lambda x, y, t: forcing(x, y, t, MU)
    initial = FieldState(
        interpolate(lambda x, y: exact_velocity(x, y, 0.0)[0], mesh),
        interpolate(lambda x, y: exact_velocity(x, y, 0.0)[1], mesh),
        np.zeros(mesh.n_vertices), 0.0)
    hist = []  # the solve above takes the separable forcing object too
    solve_transient(mesh, build_dofmap(mesh), scheme, params,
                    manufactured.ManufacturedForcing(MU), initial,
                    observer=lambda n, state, subscale: hist.append(state))
    acc = LevelResult(nx, dt)
    etas = []
    for prev, cur in zip(hist, hist[1:]):
        _reference_fold(acc, prev, cur, mesh, theta, dt)
        etas.append(_reference_indicator(prev, cur, mesh, dt, theta, fn)[1])
    acc.eta_sq = sum(dt * e ** 2 for e in etas)
    for name in ("err_u_vtilde", "err_u_l2l2", "err_u_l2h1", "err_p_l2l2",
                 "total", "eta", "err_div_l2l2"):
        assert getattr(res, name) == pytest.approx(getattr(acc, name),
                                                   rel=1e-12, abs=0.0)
    assert [s.eta for s in res.steps] == pytest.approx(etas, rel=1e-12)


def test_verification_solve_bitwise_deterministic():
    runs = [run_verification_solve(4, 0.1, theta, 0.3)
            for theta in (0, 1) for _ in range(2)]
    # LevelResult equality compares every norm and the per-step records
    assert runs[0] == runs[1] and runs[2] == runs[3]


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 8), t=st.floats(0.0, 2.0))
def test_observer_field_cache_matches_closed_forms(nx, t):
    # the observer scales the nodal factors and the residual form's field
    # s = f0 - grad I_h p0 it builds once per mesh by exp(-t); they must
    # match the fields evaluated at t
    mesh = build_unit_square_mesh(nx)
    fn = lambda x, y, t: forcing(x, y, t, MU)
    obs = _observer(mesh, 1, 0.1, 1, forcing_fn=fn)
    z = np.zeros(mesh.n_vertices)
    obs(0, FieldState(z, z, z, 0.0), None)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    c = math.exp(-t)
    for cached, want in ((obs.forms.velocity.nodal, np.stack(exact_velocity(x, y, t), -1)),
                         (obs.forms.pressure.nodal[:, 0], exact_pressure(x, y, t)),
                         (obs.forms.residual.nodal[:, 2], exact_pressure(x, y, t))):
        assert cached.shape == want.shape
        assert np.abs(c * cached - want).max() <= 1e-14 * np.abs(want).max()
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    tri, g = mesh.triangles, mesh.shape_gradients
    s = (np.stack(fn(pts[..., 0], pts[..., 1], t), -1)
         - np.einsum("ki,kid->kd", exact_pressure(x, y, t)[tri], g)[:, None])
    want = float(np.einsum("k,kqd,kqd->", mesh.diameters ** 2 * mesh.areas,
                           s * rule.weights[:, None], s))
    assert not obs.forms.residual.nodal[:, :2].any()
    assert c * c * obs.forms.residual.C == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("theta", [1, 0])
def test_forcing_evaluated_once_per_level(monkeypatch, theta):
    # the solver and the observer each evaluate the separable forcing once
    # per mesh, at t = 0, whatever the number of time levels
    calls = []
    plain = manufactured.forcing
    monkeypatch.setattr(manufactured, "forcing",
                        lambda *args: calls.append(args[2]) or plain(*args))
    run_verification_solve(4, 0.1, theta, 0.5)
    assert calls == [0.0, 0.0]


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 8), t=st.floats(0.0, 2.0))
def test_separable_levels_equal_pointwise_forcing(nx, t):
    # the solver's once-per-mesh F0, rescaled, must give the forcing at t
    # and its Crank-Nicolson combination as pointwise evaluation does
    mesh = build_unit_square_mesh(nx)
    fn = manufactured.ManufacturedForcing(MU)
    pts = mesh.quad_points(quadrature_rule(asgs_core.ASSEMBLY_QUAD_DEGREE))

    def pointwise(s):  # components first, as the solver keeps them
        return np.moveaxis(asgs_core._forcing_at(fn, pts, s), -1, 0)

    dt = 0.1
    for got, want in ((asgs_core._interval_forcing(fn, mesh, t - dt, t, 1), pointwise(t)),
                      (asgs_core._interval_forcing(fn, mesh, t, t + dt, 0.5),
                       0.5 * pointwise(t + dt) + 0.5 * pointwise(t))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    mesh.table(("forcing", fn), lambda _: pytest.fail("F0 is not kept on the mesh"))


def test_time_study_builds_per_mesh_work_once(monkeypatch):
    # the levels of a time study share one mesh, its dofmap, the observer's
    # forms and the solver's forcing factor; each level's result is that of
    # a solve on its own mesh
    calls = {"mesh": 0, "forms": 0, "forcing": 0}

    def counted(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    with monkeypatch.context() as patch:
        for name, attr in (("mesh", "build_unit_square_mesh"),
                           ("forms", "_error_forms"), ("forcing", "forcing")):
            patch.setattr(manufactured, attr, counted(name, getattr(manufactured, attr)))
        _, results = manufactured.run_convergence_study(8, 0.5, 3, theta=0,
                                                        time_study=True)
    assert calls == {"mesh": 1, "forms": 1, "forcing": 2}
    assert [r.dt for r in results] == [0.5, 0.25, 0.125]
    for r in results:
        assert r == run_verification_solve(8, r.dt, 0, 1.0)


def test_element_blocks_give_unblocked_numbers(monkeypatch):
    # nx=6 has 72 elements, so blocks of 7 end in a block of 2; everything
    # but the C constants is bitwise that of one block.  A C adds up its
    # 2,304 nonnegative terms block by block, a reordered sum: it moved by
    # 8 to 14 ulp here; in blocks of 2048 it moved by at most 2 ulp against
    # one pass at nx=40 and 100
    fn = manufactured.ManufacturedForcing(MU)

    def plain(x, y, t):  # not separable, with a scalar component
        return np.sin(3 * x + t) * y, 0.5 - t

    def build():
        mesh = build_unit_square_mesh(6)
        forms = manufactured._error_forms(mesh, DEFAULT_EXACT, fn)
        values = [asgs_core._pointwise(f, mesh, 0.3) for f in (fn, plain)]
        scheme = TimeScheme(theta=0, dt=0.1, n_steps=3)
        params = StabilizationParams.for_mesh(mesh, MU, 4.0, 2.0, scheme.dt_eff)
        initial = FieldState(*(interpolate(lambda x, y: exact_velocity(x, y, 0.0)[c], mesh)
                               for c in range(2)), np.zeros(mesh.n_vertices), 0.0)
        state = solve_transient(mesh, build_dofmap(mesh), scheme, params, plain, initial)
        return mesh, forms, values, state

    monkeypatch.setattr(mesh_module, "ELEMENT_BLOCK", 72)
    whole = build()
    monkeypatch.setattr(mesh_module, "ELEMENT_BLOCK", 7)
    blocked = build()
    assert [len(range(72)[k]) for k in blocked[0].blocks()] == [7] * 10 + [2]
    for want, got in zip(whole[1], blocked[1]):
        assert np.array_equal(want.nodal, got.nodal) and np.array_equal(want.b, got.b)
        assert abs(got.C - want.C) <= 1e-14 * want.C
    for want, got in zip(whole[2], blocked[2]):
        assert got.flags.c_contiguous and np.array_equal(want, got)
    for c in ("u1", "u2", "p", "t"):
        assert np.array_equal(getattr(whole[3], c), getattr(blocked[3], c))


def test_setup_temporaries_are_bounded_by_a_block():
    # the forms and F0 evaluate the fields at the quadrature points block
    # by block; at nx=64 one pass over the whole mesh peaked 23.0 MiB above
    # the forms it returned and 6.6 MiB above what was live before F0
    mesh = build_unit_square_mesh(64)
    fn = manufactured.ManufacturedForcing(MU)
    tracemalloc.start()
    try:
        forms = manufactured._error_forms(mesh, DEFAULT_EXACT, fn)
        live, peak = tracemalloc.get_traced_memory()
        del forms
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        asgs_core._pointwise(fn, mesh, 0.0)
        f0_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live <= 10 * 2 ** 20
    assert f0_peak - before <= 4 * 2 ** 20


def test_step_factor_rows_closed_form(monkeypatch):
    # the rows the runners check before any mesh exists are the rows
    # solve_transient checks on the dofmap: the free dofs, the complement
    # of the Dirichlet set, less the pinned pressure
    checked = []
    monkeypatch.setattr(linalg, "check_factor_budget",
                        lambda n_rows, copies: checked.append((n_rows, copies)))
    manufactured._check_step_factors(*range(1, 41))
    assert len(checked) == 40
    for nx, got in zip(range(1, 41), checked):
        dofmap = build_dofmap(build_unit_square_mesh(nx))
        free = dofmap.free_dofs
        assert got == (free.size - 1, 1)
        assert np.array_equal(np.sort(free), np.setdiff1d(
            np.arange(dofmap.multiplier_index), dofmap.dirichlet_dofs))


def test_runners_refuse_an_over_budget_level_before_any_mesh(monkeypatch):
    # a budget between the predicted step factors of nx=4 (42 rows, 11,724
    # bytes) and nx=8 (178 rows, 95,508 bytes): a study whose second level
    # is nx=8, and a solve at nx=8, are refused before a mesh is built
    monkeypatch.setattr(linalg, "FACTOR_BUDGET_BYTES", 50_000)
    with monkeypatch.context() as patch:
        patch.setattr(manufactured, "build_unit_square_mesh",
                      lambda nx: pytest.fail(f"built the nx={nx} mesh"))
        with pytest.raises(linalg.FactorBudgetError, match="factor of 178 rows"):
            manufactured.run_convergence_study(4, 0.1, 2)
        with pytest.raises(linalg.FactorBudgetError, match="factor of 178 rows"):
            run_verification_solve(8, 0.1, 1, 0.1)
        with pytest.raises(ValueError, match="at least 2 levels"):
            manufactured.run_convergence_study(4, 0.1, 1)
    assert run_verification_solve(4, 0.1, 1, 0.1).steps


@pytest.mark.parametrize("nx", [3_000_000_000, 10 ** 20, 10 ** 200, 10 ** 3000],
                         ids=["past-int64", "1e20", "past-float", "past-str-digits"])
def test_runners_refuse_a_huge_nx_by_the_budget(monkeypatch, nx):
    # the step factor's row count, past int64, past the float range or past
    # the digits Python prints, gets a prediction and a readable refusal
    monkeypatch.setattr(manufactured, "build_unit_square_mesh",
                        lambda nx: pytest.fail(f"built the nx={nx} mesh"))
    with pytest.raises(linalg.FactorBudgetError, match="rows is predicted to need"):
        run_verification_solve(nx, 0.1, 1, 0.1)
    with pytest.raises(linalg.FactorBudgetError, match="rows is predicted to need"):
        manufactured.run_convergence_study(nx, 0.1, 2)


def test_runners_refuse_a_non_integral_nx_before_any_level_solves(monkeypatch):
    # nx=2.5 is not truncated to 2, which would rate nx 2 and 5 as a doubling
    monkeypatch.setattr(manufactured, "_verification_solve",
                        lambda *args: pytest.fail("a level was solved"))
    with pytest.raises(ValueError, match="positive integer, got 2.5"):
        manufactured.run_convergence_study(2.5, 0.1, 2, t_final=0.2)
    with pytest.raises(ValueError, match="positive integer, got 4.7"):
        run_verification_solve(4.7, 0.1, 1, 0.2)


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
    table = rate_table(levels)
    assert table.rocs() == [pytest.approx(2.0, abs=1e-12)]


def test_run_verification_solve_rejects_bad_t_final():
    with pytest.raises(ValueError):
        run_verification_solve(4, 0.3, 1, 1.0)
