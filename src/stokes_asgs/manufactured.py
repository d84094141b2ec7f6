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
snapshot error (each level's snapshot is computed once along a solve), the
velocity norm adds a max-in-time L2 part, and pressure is sampled at the
interval level where the solver produces it.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import asgs_core
from .asgs_core import (FieldState, StabilizationParams, SubscaleState,
                        TimeScheme, count_steps)
from .fem_space import build_dofmap, interpolate, quadrature_rule
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


@dataclass
class ErrorAccumulator:
    """Running squared space-time norms over the time loop.

    All accumulators are nonnegative and nondecreasing; ``u_max_l2_sq``
    tracks the largest squared snapshot L2 velocity error seen so far
    (the max part of the velocity norm squared).
    """

    u_l2l2_sq: float = 0.0
    u_l2h1_sq: float = 0.0
    u_max_l2_sq: float = 0.0
    p_l2l2_sq: float = 0.0
    eta_sq: float = 0.0
    div_l2l2_sq: float = 0.0

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
    def eta(self):
        return math.sqrt(self.eta_sq)

    @property
    def err_div_l2l2(self):
        return math.sqrt(self.div_l2l2_sq)

    @property
    def total_error(self):
        return math.sqrt(self.u_max_l2_sq + self.u_l2h1_sq + self.p_l2l2_sq)


DEFAULT_EXACT = (exact_velocity, exact_velocity_gradient, exact_pressure)


def _field_at_quadrature(mesh, rule, u1, u2):
    """Values and (constant) gradients of a P1 velocity on all elements.

    Returns vals of shape (m, nq, 2) and grads of shape (m, 2, 2) with
    grads[k, d, e] = du_d/dx_e on element k.
    """
    tri = mesh.triangles
    u_loc = np.stack([u1[tri], u2[tri]], axis=-1)            # (m, 3, 2)
    vals = rule.points @ u_loc
    grads = np.matmul(u_loc.transpose(0, 2, 1), mesh.shape_gradients)
    return vals, grads


def _l2sq(mesh, field_sq):
    """Integral over the domain of a pointwise field given at the error points."""
    wq = quadrature_rule(ERROR_QUAD_DEGREE).weights
    return float((field_sq @ wq) @ mesh.areas)


def _theta_divergence(mesh, state_n, state_np1, alpha):
    """Elementwise divergence of alpha*u^{n+1} + (1-alpha)*u^n."""
    tri = mesh.triangles
    g = mesh.shape_gradients
    um1 = alpha * state_np1.u1 + (1 - alpha) * state_n.u1
    um2 = alpha * state_np1.u2 + (1 - alpha) * state_n.u2
    return (g[:, :, 0] * um1[tri]).sum(axis=1) + (g[:, :, 1] * um2[tri]).sum(axis=1)


# velocity error of one level at the error points: six (m, nq) arrays e1, e2,
# de1/dx, de1/dy, de2/dx, de2/dy, and the squared L2 norm of (e1, e2)
_Snapshot = namedtuple("_Snapshot", "state errors l2_sq")


def _snapshot(state, mesh, exact):
    exact_u, exact_gu, _ = exact
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    x, y = pts[..., 0], pts[..., 1]
    vals, grads = _field_at_quadrature(mesh, rule, state.u1, state.u2)
    errors = [vals[..., d] - ex for d, ex in enumerate(exact_u(x, y, state.t))]
    errors += [grads[:, None, d, e] - ex for (d, e), ex in
               zip(((0, 0), (0, 1), (1, 0), (1, 1)), exact_gu(x, y, state.t))]
    return _Snapshot(state, errors, _l2sq(mesh, errors[0] ** 2 + errors[1] ** 2))


def _interval_contributions(snap_n, snap_np1, mesh, theta, dt, exact):
    """Squared-norm pieces for one interval [t_n, t_{n+1}] from its snapshots;
    ``snap_n.errors`` is read only under Crank-Nicolson, which weights t_n."""
    alpha = 0.5 * (1 + theta)

    def mid(i):
        e = snap_np1.errors[i]
        return e if alpha == 1 else alpha * e + (1 - alpha) * snap_n.errors[i]

    mid_l2 = _l2sq(mesh, mid(0) ** 2 + mid(1) ** 2)
    grad_sq = sum(mid(i) ** 2 for i in range(2, 6))
    mid_h1 = mid_l2 + _l2sq(mesh, grad_sq)

    # pressure error at the interval level t^{n,theta}
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    pts = mesh.quad_points(rule)
    p_vals = snap_np1.state.p[mesh.triangles] @ rule.points.T
    p_exact = exact[2](pts[..., 0], pts[..., 1], snap_n.state.t + alpha * dt)
    p_l2 = _l2sq(mesh, (p_vals - p_exact) ** 2)

    div_mid = _theta_divergence(mesh, snap_n.state, snap_np1.state, alpha)
    div_l2 = float(np.sum(mesh.areas * div_mid ** 2))

    return {
        "snap_n": snap_n.l2_sq, "snap_p": snap_np1.l2_sq,
        "mid_l2": mid_l2, "mid_h1": mid_h1,
        "p_l2": p_l2, "div_l2": div_l2,
    }


def _fold(acc, parts, dt):
    acc.u_l2l2_sq += dt * parts["mid_l2"]
    acc.u_l2h1_sq += dt * parts["mid_h1"]
    acc.u_max_l2_sq = max(acc.u_max_l2_sq, parts["snap_n"], parts["snap_p"])
    acc.p_l2l2_sq += dt * parts["p_l2"]
    acc.div_l2l2_sq += dt * parts["div_l2"]


def accumulate_errors(acc, state_n, state_np1, mesh, theta, dt, exact=None):
    """Fold one interval's error contributions into ``acc``.

    The interval integral of an (n, theta)-combined quantity is constant in
    time, so each contribution is dt times a squared spatial norm; the max
    part of the velocity norm is updated with both snapshot errors, which
    covers t^0 on the first call.
    """
    exact = exact or DEFAULT_EXACT
    parts = _interval_contributions(_snapshot(state_n, mesh, exact),
                                    _snapshot(state_np1, mesh, exact),
                                    mesh, theta, dt, exact)
    _fold(acc, parts, dt)
    return acc


def residual_indicator(state_n, state_np1, mesh, dt, theta, forcing_fn):
    """Residual error indicator for one interval.

    eta_k^2 = h_k^2 ||R1||_{0,k}^2 + ||R2||_{0,k}^2 with the subscale-free
    residuals R1 = f - (du_h/dt + grad p_h) (no Laplacian for P1) and
    R2 = -div u_h, both at the (n, theta) level.  Returns (eta_k, eta).
    """
    a = mesh.areas
    alpha = 0.5 * (1 + theta)
    rule = quadrature_rule(ERROR_QUAD_DEGREE)
    r1 = asgs_core._momentum_residual(mesh, rule, state_n, state_np1, dt,
                                      alpha, forcing_fn)
    r1_sq = a * ((r1[..., 0] ** 2 + r1[..., 1] ** 2) @ rule.weights)
    r2_sq = a * _theta_divergence(mesh, state_n, state_np1, alpha) ** 2

    eta_k_sq = mesh.diameters ** 2 * r1_sq + r2_sq
    return np.sqrt(eta_k_sq), float(np.sqrt(eta_k_sq.sum()))


@dataclass
class RateRow:
    level: int
    nx: int
    h: float
    dt: float
    err_u_vtilde: float
    err_p_l2l2: float
    total: float
    roc: float  # nan for the first level
    eta: float


@dataclass
class RateTable:
    rows: list

    def rocs(self):
        return [r.roc for r in self.rows[1:]]


def rate_table(levels, rate_against="h"):
    """Rates of convergence from per-level results.

    ``levels`` is a sequence of objects with nx, dt, err_u_vtilde,
    err_p_l2l2, total and eta attributes; ``rate_against`` selects whether
    the log-ratio denominator uses h = 1/nx or dt (for temporal studies).
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
            if rate_against == "dt":
                den = math.log(prev.dt / lv.dt)
            else:
                den = math.log((1.0 / prev.nx) / h)
            roc = num / den
        rows.append(RateRow(level=i, nx=lv.nx, h=h, dt=lv.dt,
                            err_u_vtilde=lv.err_u_vtilde,
                            err_p_l2l2=lv.err_p_l2l2,
                            total=lv.total, roc=roc, eta=lv.eta))
    return RateTable(rows=rows)


@dataclass
class LevelResult:
    """Summary of one verification solve."""

    nx: int
    dt: float
    theta: int
    err_u_vtilde: float
    err_u_l2l2: float
    err_u_l2h1: float
    err_p_l2l2: float
    total: float
    eta: float
    err_div_l2l2: float
    steps: list = field(default_factory=list, repr=False)


class _VerificationObserver:
    """Accumulates error norms and the indicator along the time loop.

    Each level's snapshot error is computed once; its per-point errors are
    kept for the next interval only under Crank-Nicolson, which weights t_n.
    """

    def __init__(self, mesh, scheme, forcing_fn, exact, collect_steps=False):
        self.mesh = mesh
        self.scheme = scheme
        self.forcing_fn = forcing_fn
        self.exact = exact
        self.acc = ErrorAccumulator()
        self.collect_steps = collect_steps
        self.steps = []
        self._prev = None

    def __call__(self, n, state, subscale):
        dt, theta, prev = self.scheme.dt, self.scheme.theta, self._prev
        if prev is not None:
            # before this level's snapshot exists, so that the indicator's
            # temporaries never meet two levels of per-point errors
            _, eta = residual_indicator(prev.state, state, self.mesh, dt,
                                        theta, self.forcing_fn)
        snap = _snapshot(state, self.mesh, self.exact)
        if prev is not None:
            parts = _interval_contributions(prev, snap, self.mesh, theta, dt,
                                            self.exact)
            _fold(self.acc, parts, dt)
            self.acc.eta_sq += dt * eta ** 2
            if self.collect_steps:
                self.steps.append({
                    "step": n, "t": state.t,
                    "err_u_l2": math.sqrt(parts["mid_l2"]),
                    "err_u_h1": math.sqrt(parts["mid_h1"]),
                    "err_p_l2": math.sqrt(parts["p_l2"]),
                    "eta": eta,
                })
        self._prev = snap if self.scheme.alpha < 1 else snap._replace(errors=None)


def run_verification_solve(nx, dt, theta, t_final, mu=0.1, c1=4.0, c2=2.0,
                           stabilized=True, collect_steps=False):
    """Solve the manufactured problem and return a LevelResult.

    The initial velocity is the nodal interpolant of the exact solution at
    t = 0 and the subscales start from zero.
    """
    n_steps = count_steps(t_final, dt)
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=n_steps)
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, scheme.dt_eff,
                                          stabilized=stabilized)
    forcing_fn = lambda x, y, t: forcing(x, y, t, mu)

    u1_0 = interpolate(lambda x, y: exact_velocity(x, y, 0.0)[0], mesh)
    u2_0 = interpolate(lambda x, y: exact_velocity(x, y, 0.0)[1], mesh)
    initial = FieldState(u1=u1_0, u2=u2_0, p=np.zeros(mesh.n_vertices), t=0.0)

    observer = _VerificationObserver(mesh, scheme, forcing_fn, DEFAULT_EXACT,
                                     collect_steps=collect_steps)
    asgs_core.solve_transient(mesh, dofmap, scheme, params, forcing_fn,
                              initial, observer=observer, keep_history=False)
    acc = observer.acc
    return LevelResult(nx=nx, dt=dt, theta=theta,
                       err_u_vtilde=acc.err_u_vtilde,
                       err_u_l2l2=acc.err_u_l2l2,
                       err_u_l2h1=acc.err_u_l2h1,
                       err_p_l2l2=acc.err_p_l2l2,
                       total=acc.total_error,
                       eta=acc.eta,
                       err_div_l2l2=acc.err_div_l2l2,
                       steps=observer.steps)


def run_convergence_study(base_nx, base_dt, levels, theta=1, t_final=1.0,
                          mu=0.1, c1=4.0, c2=2.0, stabilized=True,
                          time_study=False):
    """Run a sequence of refined solves and rate them.

    Level i halves dt i times; unless ``time_study`` it also doubles nx, in
    which case rates are taken against h, otherwise against dt.
    Returns (RateTable, [LevelResult]).  A failing solve's StepFailureError
    is re-raised with ``level`` set to (i, nx, dt).
    """
    results = []
    for i in range(levels):
        nx = base_nx if time_study else base_nx * 2 ** i
        dt = base_dt / 2 ** i
        try:
            results.append(run_verification_solve(
                nx, dt, theta, t_final, mu=mu, c1=c1, c2=c2,
                stabilized=stabilized))
        except asgs_core.StepFailureError as exc:
            exc.level = (i, nx, dt)
            raise
    table = rate_table(results, rate_against="dt" if time_study else "h")
    return table, results
