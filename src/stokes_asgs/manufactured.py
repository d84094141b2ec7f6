"""Manufactured verification problem: exact fields, error norms, indicators.

The exact solution on the unit square is

    u1 =  exp(-t) * x^2 (x-1)^2 * y (y-1) (2y-1)
    u2 = -exp(-t) * y^2 (y-1)^2 * x (x-1) (2x-1)
    p  =  exp(-t) * (2x-1) (2y-1)

which is pointwise divergence free, vanishes on the boundary and has zero
pressure mean.  The body force is obtained by substitution into
du/dt - mu*lap(u) + grad(p) = f.

Space-time error norms are the discrete ones driven by the theta-scheme:
interval contributions are dt times the squared norm of the theta-combined
error, the velocity norm adds a max-in-time L2 part, and pressure is sampled
at the interval level where the solver produces it.

Every exact field and the forcing is separable, exp(-t) times a spatial
factor f0, so each squared norm is that of v_h - c*f0 for a P1 field v_h
with nodal values v and a weight c (exp(-t), or the theta-combination of two
such weights).  With the nodal error e = v - c*f0(x_i) and the interpolation
error rho0 = I_h f0 - f0 it expands exactly into a quadratic form,

    ||v_h - c f0||^2 = e^T M e + 2c e.b + c^2 C,   b_i = (rho0, l_i),
                                                   C = ||rho0||^2,

with the P1 mass matrix M; the H1 seminorm uses the stiffness matrix K with
b_i = (grad rho0, grad l_i) and C = ||grad rho0||^2.  So is the indicator's
h^2-weighted ||R1||^2, R1 = c f0 - du_h - grad p_h with the interval's
forcing weight c: with s = f0 - grad I_h p0 it is R1 = c s - L y, where
L y = y_u,h + grad y_p,h, in the nodal error y = (du, p) - c (0, p0(x_i)),
so A = L^T L (``_BlockMatrix``), b = -L^T s and C = ||s||^2, all
h^2-weighted.  The pressure is expanded about c p0, as f cancels against
grad p_h, and du about 0, so a small residual keeps its digits however far
the state is from the exact fields.  The observer integrates every b and C
once per mesh at the degree-8 error points; a time level then costs a few
sparse products on nodal vectors.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import asgs_core, linalg
from .asgs_core import (FieldState, StabilizationParams, TimeScheme,
                        count_steps)
from .fem_space import (assemble_matrix, assemble_vector, build_dofmap,
                        interpolate, quadrature_rule)
from .mesh import build_unit_square_mesh

ERROR_QUAD_DEGREE = 8


def exact_velocity(x, y, t):
    """Exact velocity components at (x, y, t); accepts arrays."""
    e = np.exp(-t)
    u1 = e * x ** 2 * (x - 1) ** 2 * y * (y - 1) * (2 * y - 1)
    u2 = -e * y ** 2 * (y - 1) ** 2 * x * (x - 1) * (2 * x - 1)
    return u1, u2


def exact_velocity_gradient(x, y, t):
    """Closed-form velocity gradient (du1/dx, du1/dy, du2/dx, du2/dy)."""
    e = np.exp(-t)
    X = x ** 2 * (x - 1) ** 2
    Y = y * (y - 1) * (2 * y - 1)
    Xt = y ** 2 * (y - 1) ** 2
    Yt = x * (x - 1) * (2 * x - 1)
    dX = 2 * x * (x - 1) * (2 * x - 1)       # = 2*Yt
    dY = 6 * y ** 2 - 6 * y + 1
    dXt = 2 * y * (y - 1) * (2 * y - 1)      # = 2*Y
    dYt = 6 * x ** 2 - 6 * x + 1
    d11 = e * dX * Y
    d12 = e * X * dY
    d21 = -e * Xt * dYt
    d22 = -e * dXt * Yt
    return d11, d12, d21, d22


def exact_pressure(x, y, t):
    """Exact pressure at (x, y, t); zero-mean over the unit square."""
    return np.exp(-t) * (2 * x - 1) * (2 * y - 1)


def forcing(x, y, t, mu):
    """Manufactured body force f = du/dt - mu*lap(u) + grad(p)."""
    e = np.exp(-t)
    X = x ** 2 * (x - 1) ** 2
    Y = y * (y - 1) * (2 * y - 1)
    Xt = y ** 2 * (y - 1) ** 2
    Yt = x * (x - 1) * (2 * x - 1)
    u1 = e * X * Y
    u2 = -e * Xt * Yt
    lap1 = e * ((12 * x ** 2 - 12 * x + 2) * Y + X * (12 * y - 6))
    lap2 = -e * ((12 * y ** 2 - 12 * y + 2) * Yt + Xt * (12 * x - 6))
    px = 2 * e * (2 * y - 1)
    py = 2 * e * (2 * x - 1)
    f1 = -u1 - mu * lap1 + px
    f2 = -u2 - mu * lap2 + py
    return f1, f2


@dataclass(frozen=True)
class ManufacturedForcing:
    """``forcing`` at viscosity ``mu``, callable as forcing(x, y, t).

    It declares itself separable, forcing(x, y, t) = exp(-t) forcing(x, y, 0),
    so the solver evaluates it once per mesh (``asgs_core._interval_forcing``),
    where a plain callable is evaluated at an interval's levels once per step.
    """

    mu: float

    def __call__(self, x, y, t):
        return forcing(x, y, t, self.mu)

    @staticmethod
    def time_factor(t):
        return math.exp(-t)


DEFAULT_EXACT = (exact_velocity, exact_velocity_gradient, exact_pressure)


def residual_indicator(form, values, c, div_sq):
    """Residual error indicator of one interval, eta^2 = sum_k h_k^2
    ||R1||_k^2 + ||R2||^2, with the subscale-free residuals R1 = c f0 - du_h
    - grad p_h (no Laplacian for P1) and R2 = -div u_h at the (n, theta)
    level: the R1 part from the residual ``form`` of the nodal ``values``
    (du, p), shape (n, 3), and the forcing's weight ``c``, and
    ``div_sq`` = ||R2||^2."""
    return math.sqrt(form.square(form.error(values, c), c) + div_sq)


# One step's interval velocity errors (L2, H1), pressure error and indicator,
# and one study level with its rate (nan for level 0); their fields are the
# columns of the solve and study CSVs.
StepRecord = namedtuple("StepRecord", "step t err_u_l2 err_u_h1 err_p_l2 eta")
RateRow = namedtuple("RateRow",
                     "level nx h dt err_u_vtilde err_p_l2l2 total roc eta")


@dataclass
class RateTable:
    rows: list

    def rocs(self):
        return [r.roc for r in self.rows[1:]]


def rate_table(levels):
    """Rates of convergence from per-level results.

    ``levels`` is a sequence of objects with nx, dt, err_u_vtilde,
    err_p_l2l2, total and eta attributes.  The rate of a level is the
    log-ratio of its total to the previous level's, over the log-ratio of
    dt when the two levels have the same nx (a temporal study) and of
    h = 1/nx otherwise.
    """
    if len(levels) < 2:
        raise ValueError("need at least 2 levels to compute rates")
    rows = []
    for i, lv in enumerate(levels):
        h = 1.0 / lv.nx
        if i == 0:
            roc = math.nan
        else:
            prev = levels[i - 1]
            num = math.log(prev.total / lv.total)
            if lv.nx == prev.nx:
                den = math.log(prev.dt / lv.dt)
            else:
                den = math.log((1.0 / prev.nx) / h)
            roc = num / den
        rows.append(RateRow(i, lv.nx, h, lv.dt, lv.err_u_vtilde,
                            lv.err_p_l2l2, lv.total, roc, lv.eta))
    return RateTable(rows=rows)


@dataclass
class LevelResult:
    """One verification solve: its running squared space-time norms, folded
    in along the time loop, and the norms they give.

    The sums are nonnegative and nondecreasing; ``u_max_l2_sq`` is the
    largest squared snapshot L2 velocity error seen so far (the max part of
    the velocity norm squared).  ``steps`` holds one ``StepRecord`` per step.
    """

    nx: int
    dt: float
    u_l2l2_sq: float = 0.0
    u_l2h1_sq: float = 0.0
    u_max_l2_sq: float = 0.0
    p_l2l2_sq: float = 0.0
    eta_sq: float = 0.0
    div_l2l2_sq: float = 0.0
    steps: list = field(default_factory=list, repr=False)

    @property
    def err_u_l2l2(self):
        return math.sqrt(self.u_l2l2_sq)

    @property
    def err_u_l2h1(self):
        return math.sqrt(self.u_l2h1_sq)

    @property
    def err_u_vtilde(self):
        return math.sqrt(self.u_max_l2_sq + self.u_l2h1_sq)

    @property
    def err_p_l2l2(self):
        return math.sqrt(self.p_l2l2_sq)

    @property
    def total(self):
        return math.sqrt(self.u_max_l2_sq + self.u_l2h1_sq + self.p_l2l2_sq)

    @property
    def eta(self):
        return math.sqrt(self.eta_sq)

    @property
    def err_div_l2l2(self):
        return math.sqrt(self.div_l2l2_sq)


class _SquareForm:
    """||v_h - c*f0||^2 of a P1 field with nodal values v, shape (n, d), as
    e^T A e + 2c e.b + c^2 C in the nodal error e = v - c*f0(x_i); the
    indicator's R1 part has the same shape (module docstring)."""

    def __init__(self, matrix, nodal, b, C):
        self.matrix, self.nodal, self.b, self.C = matrix, nodal, b, C

    def error(self, v, c):
        return v - c * self.nodal

    def square(self, e, c):
        value = (float(np.vdot(e, self.matrix @ e))
                 + 2.0 * c * float(np.vdot(e, self.b)) + c * c * self.C)
        return max(value, 0.0)  # rounding below zero is zero


class _BlockMatrix:
    """L^T L for L y = y_u,h + grad y_p,h in the h^2-weighted L2 product,
    applied to nodal y, shape (n, 3), block by block from the four P1
    matrices ``mass``, ``div1``, ``div2`` and ``stiff``: no 3n x 3n matrix
    is formed."""

    def __init__(self, mass, div1, div2, stiff):
        self.mass, self.div1, self.div2, self.stiff = mass, div1, div2, stiff

    def __matmul__(self, y):
        u1, u2, p = y.T
        return np.stack([self.mass @ u1 + self.div1 @ p, self.mass @ u2 + self.div2 @ p,
                         self.div1.T @ u1 + self.div2.T @ u2 + self.stiff @ p], axis=-1)


_Forms = namedtuple("_Forms", "velocity gradient pressure residual")


def _error_forms(mesh, exact, forcing_fn):
    """Per-mesh forms of the velocity L2 and H1-seminorm errors, the
    pressure L2 error and the indicator's R1 part, from the t = 0 factors
    of the separable ``exact`` fields and ``forcing_fn``."""
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    tri = mesh.triangles
    _, g, mass, stiff, div = asgs_core._element_tables(mesh)
    wa = (mesh.areas[:, None] * rule.weights)[..., None]  # (m, nq, 1)

    def factor(fn, where):  # fn(x, y, 0) at ``where`` (..., 2), stacked to (..., d)
        return asgs_core._forcing_at(fn, where, 0.0)

    exact_u, exact_gu, exact_p = exact
    M = assemble_matrix(mesh, mass)
    l2 = []
    for fn in (exact_u, lambda x, y, t: (exact_p(x, y, t),)):
        nodal = factor(fn, mesh.vertices)
        rho = rule.points @ nodal[tri] - factor(fn, pts)  # rho0, (m, nq, d)
        w_rho = wa * rho
        l2.append(_SquareForm(M, nodal, assemble_vector(mesh, rule.points.T @ w_rho),
                              float(np.einsum("kqd,kqd->", w_rho, rho))))
    nodal, p0 = l2[0].nodal, l2[1].nodal
    # R1 = c s - L y with s = f0 - grad I_h p0, h^2-weighted
    h2 = (mesh.diameters ** 2)[:, None, None]
    s = factor(forcing_fn, pts) - np.matmul(p0[tri].transpose(0, 2, 1), g)  # (m, nq, 2)
    w_s = h2 * wa * s
    lam = rule.points.T @ w_s  # (m, 3, 2); its sum over i integrates h^2 s
    b = np.hstack([assemble_vector(mesh, lam),
                   assemble_vector(mesh, np.einsum("kic,kc->ki", g, lam.sum(axis=1)))[:, None]])
    residual = _SquareForm(_BlockMatrix(*(assemble_matrix(mesh, h2 * t) for t in
                                          (mass, div[:, 0], div[:, 1], stiff))),
                           np.hstack([np.zeros_like(nodal), p0]), -b,
                           float(np.einsum("kqd,kqd->", w_s, s)))
    # grad rho0[k, q, d, e] = d(rho0_d)/dx_e: constant grad I_h f0 minus grad f0
    grad_rho = (np.matmul(nodal[tri].transpose(0, 2, 1), g)[:, None]
                - factor(exact_gu, pts).reshape(pts.shape[:2] + (2, 2)))
    grad_int = np.einsum("kq,kqde->kde", wa[..., 0], grad_rho)  # (m, d, e)
    gradient = _SquareForm(assemble_matrix(mesh, stiff), nodal,
                           assemble_vector(mesh, g @ grad_int.transpose(0, 2, 1)),
                           float(np.einsum("kq,kqde,kqde->", wa[..., 0], grad_rho, grad_rho)))
    return _Forms(l2[0], gradient, l2[1], residual)


# one time level: its state, exp(-t), stacked nodal velocity [u1 u2], nodal
# velocity error and squared L2 error
_Level = namedtuple("_Level", "state c velocity error l2_sq")


class _VerificationObserver:
    """Accumulates error norms and the indicator, and one record per step,
    along the time loop.

    Every norm and the indicator's R1 part is a form in nodal errors (see the
    module docstring); the forms are built on the first n = 0 call on a
    mesh, inside the time loop, and kept on ``Mesh.table`` for later solves
    on it.  A level keeps its stacked velocity v and its nodal velocity
    error e: the interval error is that of alpha*e^{n+1} + (1-alpha)*e^n
    with the weight c_f = alpha*c^{n+1} + (1-alpha)*c^n, which also weights
    the forcing in R1 of du = (v^{n+1} - v^n)/dt and p^{n+1}, and R2 is the
    elementwise divergence of alpha*v^{n+1} + (1-alpha)*v^n.  The pressure
    error is weighted by c_p = exp(-(t_n + alpha*dt)).
    """

    def __init__(self, mesh, scheme, forcing_fn, exact):
        self.mesh = mesh
        self.scheme = scheme
        self.forcing_fn = forcing_fn
        self.exact = exact
        self.forms = None
        self.result = LevelResult(mesh.nx, scheme.dt)
        self._prev = None

    def __call__(self, n, state, subscale):
        if self.forms is None:
            self.forms = self.mesh.table(
                ("error_forms", self.exact, self.forcing_fn),
                lambda mesh: _error_forms(mesh, self.exact, self.forcing_fn))
        forms, prev, mesh = self.forms, self._prev, self.mesh
        c = math.exp(-state.t)
        v = np.stack([state.u1, state.u2], axis=-1)
        e = forms.velocity.error(v, c)
        level = _Level(state, c, v, e, forms.velocity.square(e, c))
        self._prev = level
        if prev is None:
            return
        dt, alpha, acc = self.scheme.dt, self.scheme.alpha, self.result
        e_mid = alpha * e + (1 - alpha) * prev.error
        c_mid = alpha * c + (1 - alpha) * prev.c
        # backward Euler: e_mid = e and c_mid = c
        mid_l2 = level.l2_sq if alpha == 1 else forms.velocity.square(e_mid, c_mid)
        mid_h1 = mid_l2 + forms.gradient.square(e_mid, c_mid)
        c_p = math.exp(-(prev.state.t + alpha * dt))
        p_l2 = forms.pressure.square(forms.pressure.error(state.p[:, None], c_p), c_p)
        div_mid = np.einsum("kic,kic->k", mesh.shape_gradients,
                            np.take(alpha * v + (1 - alpha) * prev.velocity,
                                    mesh.triangles, axis=0))
        div_l2 = float(np.sum(mesh.areas * div_mid ** 2))
        eta = residual_indicator(forms.residual,
                                 np.column_stack([(v - prev.velocity) / dt, state.p]),
                                 c_mid, div_l2)
        acc.u_l2l2_sq += dt * mid_l2
        acc.u_l2h1_sq += dt * mid_h1
        acc.u_max_l2_sq = max(acc.u_max_l2_sq, prev.l2_sq, level.l2_sq)
        acc.p_l2l2_sq += dt * p_l2
        acc.div_l2l2_sq += dt * div_l2
        acc.eta_sq += dt * eta ** 2
        acc.steps.append(StepRecord(n, state.t, math.sqrt(mid_l2), math.sqrt(mid_h1),
                                    math.sqrt(p_l2), eta))


def run_verification_solve(nx, dt, theta, t_final, mu=0.1, c1=4.0, c2=2.0,
                           stabilized=True):
    """Solve the manufactured problem and return a LevelResult.

    The initial velocity is the nodal interpolant of the exact solution at
    t = 0 and the subscales start from zero.
    """
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=count_steps(t_final, dt))
    _check_step_factors(nx)
    mesh = build_unit_square_mesh(nx)
    return _verification_solve(mesh, build_dofmap(mesh), scheme, mu, c1, c2,
                               stabilized)


def _check_step_factors(*nxs):
    """``solve_transient``'s budget check before any mesh exists: the step
    factor on the nx-by-nx unit square has 3nx^2 - 2nx + 2 rows."""
    for nx in nxs:
        linalg.check_factor_budget(3 * nx * nx - 2 * nx + 2, 1)


def _verification_solve(mesh, dofmap, scheme, mu, c1, c2, stabilized):
    """``run_verification_solve`` on a given mesh and its dofmap."""
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, scheme.dt_eff,
                                          stabilized=stabilized)
    forcing_fn = ManufacturedForcing(mu)

    u1_0 = interpolate(lambda x, y: exact_velocity(x, y, 0.0)[0], mesh)
    u2_0 = interpolate(lambda x, y: exact_velocity(x, y, 0.0)[1], mesh)
    initial = FieldState(u1=u1_0, u2=u2_0, p=np.zeros(mesh.n_vertices), t=0.0)

    observer = _VerificationObserver(mesh, scheme, forcing_fn, DEFAULT_EXACT)
    asgs_core.solve_transient(mesh, dofmap, scheme, params, forcing_fn,
                              initial, observer=observer)
    return observer.result


def run_convergence_study(base_nx, base_dt, levels, theta=1, t_final=1.0,
                          mu=0.1, c1=4.0, c2=2.0, stabilized=True,
                          time_study=False):
    """Run a sequence of refined solves and rate them.

    Level i halves dt i times; unless ``time_study`` it also doubles nx, so
    ``rate_table`` takes the rates against h, otherwise against dt.  A level
    reuses the previous level's mesh and dofmap when its nx is the same, so
    a time study builds them once and a space study lets each level's mesh
    go.  Returns (RateTable, [LevelResult]).  Fewer than 2 levels, or any
    level's step factor over budget, is refused before level 0.  A failing
    solve's StepFailureError is re-raised with ``level`` set to (i, nx, dt).
    """
    nxs = [base_nx if time_study else base_nx * 2 ** i for i in range(levels)]
    if levels < 2:
        raise ValueError("need at least 2 levels to compute rates")
    _check_step_factors(*nxs)
    results, mesh = [], None
    for i, nx in enumerate(nxs):
        dt = base_dt / 2 ** i
        scheme = TimeScheme(theta=theta, dt=dt, n_steps=count_steps(t_final, dt))
        if mesh is None or mesh.nx != nx:
            mesh = build_unit_square_mesh(nx)
            dofmap = build_dofmap(mesh)
        try:
            results.append(_verification_solve(mesh, dofmap, scheme, mu, c1, c2,
                                               stabilized))
        except asgs_core.StepFailureError as exc:
            exc.level = (i, nx, dt)
            raise
    return rate_table(results), results
