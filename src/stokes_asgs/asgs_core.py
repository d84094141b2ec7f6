"""Assembly and time stepping for the subgrid-scale stabilized Stokes system.

The discrete problem advances nodal velocities to integer time levels and
solves for the interval pressure.  With alpha = (1+theta)/2 and the
effective step dt_eff = alpha*dt, the unknowns per step are u_new = u^{n+1}
and the interval pressure p; writing u_mid = alpha*u_new + (1-alpha)*u_old,
the assembled weak form is, for all discrete test pairs (v, q):

momentum:
    ((u_new - u_old)/dt, v) + mu*(grad u_mid, grad v) - (p, div v)
    + sum_k tau2_k (div u_mid, div v)_k
    - sum_k m_k ((u_new - u_old)/dt + grad p, v)_k
    - sum_k w_k (d_k, v)_k
    = (f_mid, v) - sum_k m_k (f_mid, v)_k

continuity:
    (div u_mid, q)
    + sum_k tau1p_k ((u_new - u_old)/dt + grad p, grad q)_k
    - sum_k tau1p_k (d_k, grad q)_k
    = sum_k tau1p_k (f_mid, grad q)_k

with per-element weights m_k = tau1_k/(dt_eff + tau1_k),
w_k = 1 - m_k = tau1p_k/tau1_k, and the subscale history
d_k = uprime^n/dt_eff evaluated at the assembly quadrature points.  These
weights come from eliminating the interval subscale uprime^{n+alpha},
which solves (uprime^{n+alpha} - uprime^n)/dt_eff + uprime^{n+alpha}/tau1
= R^{n+alpha}; the history carried to the next step is the end-level
uprime^{n+1} = (uprime^{n+alpha} - (1-alpha)*uprime^n)/alpha, the
trapezoidal rule for d(uprime)/dt + uprime/tau1 = R when alpha = 1/2.
Second derivatives of P1 fields vanish elementwise, so no Laplacian terms
appear in the residuals or their adjoints.  The assembled system replaces
the Dirichlet velocity rows by identity rows and appends a single Lagrange
multiplier row/column that pins the pressure mean to zero; this constrained
matrix is the assembly contract.  The direct solver factorizes only the
reduced interior system (no Dirichlet rows, no multiplier, one pressure dof
pinned) and recovers the multiplier exactly (see ``ReducedFactor``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .fem_space import quadrature_rule

ASSEMBLY_QUAD_DEGREE = 5


@dataclass(frozen=True)
class TimeScheme:
    """Theta one-step scheme: theta=1 backward Euler, theta=0 Crank-Nicolson."""

    theta: int
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.theta not in (0, 1):
            raise ValueError(f"theta must be 0 or 1, got {self.theta}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def t_final(self):
        return self.n_steps * self.dt

    @property
    def alpha(self):
        return 0.5 * (1 + self.theta)

    @property
    def dt_eff(self):
        return self.alpha * self.dt


def compute_taus(geometry, mu, c1, c2, dt_eff):
    """Stabilization parameters of one element.

    tau1 = h_k^2/(c1*mu), tau2 = c2*h_k^2/tau1 (= c1*c2*mu, mesh
    independent) and the time-regularized
    tau1p = tau1*dt_eff/(dt_eff + tau1).

    The h_k^2 factor in tau2 keeps the grad-div weight bounded as the mesh
    is refined; an unbounded weight forces the piecewise-linear velocity
    toward the elementwise divergence-free subspace, which on structured
    triangulations is too poor to approximate anything (locking).
    """
    if mu <= 0.0 or c1 <= 0.0 or c2 <= 0.0 or dt_eff <= 0.0:
        raise ValueError("mu, c1, c2 and dt_eff must all be positive")
    tau1 = geometry.diameter ** 2 / (c1 * mu)
    tau2 = c2 * geometry.diameter ** 2 / tau1
    tau1p = tau1 * dt_eff / (dt_eff + tau1)
    return tau1, tau2, tau1p


@dataclass
class StabilizationParams:
    """Per-element stabilization coefficients plus the viscosity.

    ``stabilized=False`` switches every tau-weighted term off, which reduces
    the assembly to the plain Galerkin theta-scheme.
    """

    mu: float
    c1: float
    c2: float
    dt_eff: float
    tau1: np.ndarray
    tau2: np.ndarray
    tau1p: np.ndarray
    stabilized: bool = True

    @classmethod
    def for_mesh(cls, mesh, mu, c1, c2, dt_eff, stabilized=True):
        if mu <= 0.0 or c1 <= 0.0 or c2 <= 0.0 or dt_eff <= 0.0:
            raise ValueError("mu, c1, c2 and dt_eff must all be positive")
        tau1 = mesh.diameters ** 2 / (c1 * mu)
        tau2 = c2 * mesh.diameters ** 2 / tau1
        tau1p = tau1 * dt_eff / (dt_eff + tau1)
        return cls(mu=mu, c1=c1, c2=c2, dt_eff=dt_eff,
                   tau1=tau1, tau2=tau2, tau1p=tau1p, stabilized=stabilized)

    @property
    def m_weights(self):
        if not self.stabilized:
            return np.zeros_like(self.tau1)
        return self.tau1 / (self.dt_eff + self.tau1)

    @property
    def w_weights(self):
        return 1.0 - self.m_weights

    @property
    def tau1p_eff(self):
        return self.tau1p if self.stabilized else np.zeros_like(self.tau1p)

    @property
    def tau2_eff(self):
        return self.tau2 if self.stabilized else np.zeros_like(self.tau2)


@dataclass
class FieldState:
    """Nodal velocities and pressure at one time level.

    ``p`` holds the interval pressure produced by the step ending at ``t``
    (for backward Euler that interval value coincides with the end level).
    """

    u1: np.ndarray
    u2: np.ndarray
    p: np.ndarray
    t: float


@dataclass
class SubscaleState:
    """Subscale velocity at every assembly quadrature point, shape (m, nq, 2)."""

    uprime: np.ndarray

    @classmethod
    def zeros(cls, mesh, rule=None):
        nq = len((rule or quadrature_rule(ASSEMBLY_QUAD_DEGREE)).weights)
        return cls(np.zeros((mesh.n_triangles, nq, 2)))


@dataclass
class AssembledSystem:
    matrix: linalg.SparseMatrix
    rhs: np.ndarray
    dofmap: object


class StepFailureError(Exception):
    """A time step could not be completed; carries the 1-based step index."""

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


def local_galerkin_matrices(geometry):
    """Exact P1 element matrices: mass, (unscaled) stiffness, div coupling.

    Returns (mass 3x3, stiffness 3x3, div 2x3x3) with
    mass_ij = int(l_i l_j), stiffness_ij = int(grad l_i . grad l_j) and
    div[c]_ij = int(dl_j/dx_c * l_i).
    """
    a = geometry.area
    g = geometry.shape_gradients
    mass = a / 12.0 * (np.ones((3, 3)) + np.eye(3))
    stiffness = a * (g @ g.T)
    div = np.empty((2, 3, 3))
    for c in range(2):
        div[c] = np.tile(a / 3.0 * g[:, c], (3, 1))
    return mass, stiffness, div


def _element_tables(mesh):
    a = mesh.areas
    g = mesh.shape_gradients
    mass = (a / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    stiff = np.einsum("kid,kjd->kij", g, g) * a[:, None, None]
    return a, g, mass, stiff


def assemble_lhs(mesh, dofmap, scheme, params, constrained=True):
    """System matrix for one step.

    With ``constrained`` the Dirichlet velocity rows are replaced by
    identity rows and the mean-pressure multiplier row/column is appended;
    otherwise the raw operator of size 2*n_u + n_p is returned (used by the
    eigenvalue diagnostics).
    """
    tri = mesh.triangles
    m = mesh.n_triangles
    n_u, n_p = dofmap.n_u, dofmap.n_p
    a, g, mass, stiff = _element_tables(mesh)
    alpha, dt = scheme.alpha, scheme.dt

    m_w = params.m_weights
    w_w = params.w_weights
    t1p = params.tau1p_eff
    t2 = params.tau2_eff

    I = np.broadcast_to(tri[:, :, None], (m, 3, 3))
    J = np.broadcast_to(tri[:, None, :], (m, 3, 3))

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.ravel(r))
        cols.append(np.ravel(c))
        vals.append(np.ravel(v))

    # velocity-velocity: time derivative + viscosity on each component,
    # grad-div coupling across components
    diag_block = (w_w / dt)[:, None, None] * mass + (params.mu * alpha) * stiff
    for c in range(2):
        add(c * n_u + I, c * n_u + J, diag_block)
        for cp in range(2):
            gd = (alpha * t2 * a)[:, None, None] * (g[:, :, c][:, :, None] * g[:, None, :, cp])
            add(c * n_u + I, cp * n_u + J, gd)

    # momentum-pressure: Galerkin -(p, div v) and subscale -m*(grad p, v)
    for c in range(2):
        galerkin = -(a / 3.0)[:, None, None] * np.broadcast_to(
            g[:, :, c][:, :, None], (m, 3, 3))
        subscale = -(m_w * a / 3.0)[:, None, None] * np.broadcast_to(
            g[:, None, :, c], (m, 3, 3))
        add(c * n_u + I, 2 * n_u + J, galerkin + subscale)

    # continuity-velocity: Galerkin (div u_mid, q) and subscale
    # tau1p*(u_new/dt, grad q)
    for c in range(2):
        galerkin = (alpha * a / 3.0)[:, None, None] * np.broadcast_to(
            g[:, None, :, c], (m, 3, 3))
        subscale = (t1p * a / (3.0 * dt))[:, None, None] * np.broadcast_to(
            g[:, :, c][:, :, None], (m, 3, 3))
        add(2 * n_u + I, c * n_u + J, galerkin + subscale)

    # continuity-pressure: tau1p * pressure Laplacian
    add(2 * n_u + I, 2 * n_u + J, t1p[:, None, None] * stiff)

    if not constrained:
        n_total = 2 * n_u + n_p
        return linalg.from_triplets(
            n_total, n_total,
            (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)))

    n_total = dofmap.n_dofs
    mult = dofmap.multiplier_index
    p_idx = 2 * n_u + np.arange(n_p)
    add(p_idx, np.full(n_p, mult), dofmap.mean_vector)
    add(np.full(n_p, mult), p_idx, dofmap.mean_vector)

    all_rows = np.concatenate(rows)
    all_cols = np.concatenate(cols)
    all_vals = np.concatenate(vals)

    # Dirichlet row replacement: drop every entry of a constrained row, then
    # put a 1 on its diagonal.
    is_dirichlet = dofmap.dirichlet_mask(n_total)
    keep = ~is_dirichlet[all_rows]
    d = dofmap.dirichlet_dofs
    all_rows = np.concatenate([all_rows[keep], d])
    all_cols = np.concatenate([all_cols[keep], d])
    all_vals = np.concatenate([all_vals[keep], np.ones(d.size)])
    return linalg.from_triplets(n_total, n_total, (all_rows, all_cols, all_vals))


def _theta_forcing(forcing, pts, t_old, t_new, alpha):
    x, y = pts[..., 0], pts[..., 1]
    shape = x.shape
    f1n, f2n = forcing(x, y, t_new)
    if alpha == 1:  # backward Euler gives t_old no weight
        return np.stack([np.broadcast_to(f1n, shape),
                         np.broadcast_to(f2n, shape)], axis=-1)
    f1o, f2o = forcing(x, y, t_old)
    f1 = alpha * np.broadcast_to(f1n, shape) + (1 - alpha) * np.broadcast_to(f1o, shape)
    f2 = alpha * np.broadcast_to(f2n, shape) + (1 - alpha) * np.broadcast_to(f2o, shape)
    return np.stack([f1, f2], axis=-1)


def assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing):
    """Right-hand side for the step starting from ``state_n``."""
    tri = mesh.triangles
    n_u, n_p = dofmap.n_u, dofmap.n_p
    a, g, mass, stiff = _element_tables(mesh)
    alpha, dt, dt_eff = scheme.alpha, scheme.dt, scheme.dt_eff

    m_w = params.m_weights
    w_w = params.w_weights
    t1p = params.tau1p_eff
    t2 = params.tau2_eff

    rule = quadrature_rule(ASSEMBLY_QUAD_DEGREE)
    wq = rule.weights
    bary = rule.points
    pts = mesh.quad_points(rule)

    fvec = _theta_forcing(forcing, pts, state_n.t, state_n.t + dt, alpha)  # (m, nq, 2)
    d1 = subscale_n.uprime / dt_eff

    u_loc = np.stack([state_n.u1[tri], state_n.u2[tri]], axis=-1)  # (m, 3, 2)
    div_un = np.einsum("kid,kid->k", g, u_loc)
    ubar = u_loc.mean(axis=1)  # element means of u_old

    rhs = np.zeros(dofmap.n_dofs)

    for c in range(2):
        mass_term = (w_w / dt)[:, None] * np.einsum("kij,kj->ki", mass, u_loc[:, :, c])
        visc_term = -(params.mu * (1 - alpha)) * np.einsum(
            "kij,kj->ki", stiff, u_loc[:, :, c])
        gd_term = -((1 - alpha) * t2 * a * div_un)[:, None] * g[:, :, c]
        force_term = (w_w * a)[:, None] * np.einsum("kq,qi->ki", wq * fvec[:, :, c], bary)
        sub_term = (w_w * a)[:, None] * np.einsum("kq,qi->ki", wq * d1[:, :, c], bary)
        np.add.at(rhs, c * n_u + tri,
                  mass_term + visc_term + gd_term + force_term + sub_term)

    # continuity rows
    fbar = np.einsum("q,kqd->kd", wq, fvec)
    dbar = np.einsum("q,kqd->kd", wq, d1)
    cont = -((1 - alpha) * a / 3.0 * div_un)[:, None] * np.ones(3)
    cont = cont + (t1p * a / dt)[:, None] * np.einsum("kid,kd->ki", g, ubar)
    cont = cont + (t1p * a)[:, None] * np.einsum("kid,kd->ki", g, dbar + fbar)
    np.add.at(rhs, 2 * n_u + tri, cont)

    rhs[dofmap.dirichlet_dofs] = 0.0
    rhs[dofmap.multiplier_index] = 0.0
    return rhs


def assemble_system(mesh, dofmap, state_n, subscale_n, scheme, params, forcing):
    """Full constrained linear system for one step from ``state_n``."""
    n = mesh.n_vertices
    if state_n.u1.shape != (n,) or state_n.u2.shape != (n,) or state_n.p.shape != (n,):
        raise ValueError("state dimensions do not match the mesh")
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    rhs = assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing)
    return AssembledSystem(matrix=matrix, rhs=rhs, dofmap=dofmap)


def update_subscales(mesh, state_new, state_old, subscale_n, scheme, params, forcing):
    """Advance the subscale history one step.

    At every assembly quadrature point the step solves for the interval
    subscale uprime_mid = tau1p * (R1 + uprime_old/dt_eff) with the momentum
    residual R1 = f_mid - (u_new - u_old)/dt - grad p (P1 fields carry no
    Laplacian), and returns the end-level history
    uprime_new = (uprime_mid - (1 - alpha)*uprime_old)/alpha.  For backward
    Euler (alpha = 1) the two levels coincide.
    """
    tri = mesh.triangles
    g = mesh.shape_gradients
    alpha, dt, dt_eff = scheme.alpha, scheme.dt, scheme.dt_eff

    rule = quadrature_rule(ASSEMBLY_QUAD_DEGREE)
    bary = rule.points
    pts = mesh.quad_points(rule)

    fvec = _theta_forcing(forcing, pts, state_old.t, state_old.t + dt, alpha)
    du_loc = np.stack([(state_new.u1 - state_old.u1)[tri],
                       (state_new.u2 - state_old.u2)[tri]], axis=-1) / dt
    dudt_q = np.einsum("qi,kid->kqd", bary, du_loc)
    gradp = np.einsum("ki,kid->kd", state_new.p[tri], g)  # constant per element

    resid = fvec - dudt_q - gradp[:, None, :]
    uprime_mid = params.tau1p_eff[:, None, None] * (resid + subscale_n.uprime / dt_eff)
    return SubscaleState((uprime_mid - (1 - alpha) * subscale_n.uprime) / alpha)


class ReducedFactor:
    """Direct solver of the constrained system through its interior system.

    The constrained matrix K keeps the Dirichlet identity rows and the dense
    mean-pressure multiplier row and column, which wreck the sparse LU
    ordering.  Only the interior system is factorized: the Dirichlet rows
    and columns and the multiplier are dropped, and the first pressure dof
    is pinned (its column and its continuity row are dropped).  This is
    exact: constants span the pressure kernel of the interior operator and
    its continuity rows sum to zero, so summing the continuity rows of
    K x = b gives lambda * sum(mean_vector) = the sum of the lifted
    continuity right-hand side.  With lambda known the pinned system has a
    unique solution, whose pressure is then shifted to zero mean.
    """

    def __init__(self, matrix, dofmap):
        self.dirichlet = dofmap.dirichlet_dofs
        self.mean = dofmap.mean_vector
        self.p_block = slice(2 * dofmap.n_u, dofmap.multiplier_index)
        self.multiplier = dofmap.multiplier_index
        # interior rows/columns: free velocities, then every pressure
        self.interior = np.setdiff1d(np.arange(dofmap.multiplier_index),
                                     self.dirichlet)
        self.pin = self.interior.size - dofmap.n_p
        self.kept = np.delete(self.interior, self.pin)
        csr = matrix.csr
        self.lift = csr[self.interior][:, self.dirichlet]
        self.factor = linalg.DirectFactor(
            linalg.SparseMatrix(csr[self.kept][:, self.kept]))

    def solve(self, rhs):
        """Solution of K x = rhs, multiplier included."""
        x = np.zeros(rhs.shape)
        x[self.dirichlet] = rhs[self.dirichlet]
        b = rhs[self.interior] - self.lift @ x[self.dirichlet]
        cont = b[self.pin:]
        lam = cont.sum() / self.mean.sum()
        cont -= lam * self.mean
        x[self.kept] = self.factor.solve(np.delete(b, self.pin))
        p = x[self.p_block]
        p -= (self.mean @ p) / self.mean.sum()
        x[self.multiplier] = lam
        return x


def _prepare_solver(mesh, dofmap, scheme, params, solver, gmres_tol):
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    if solver == "direct":
        return {"matrix": matrix, "factor": ReducedFactor(matrix, dofmap),
                "solver": solver}
    if solver == "gmres":
        return {"matrix": matrix, "solver": solver, "tol": gmres_tol}
    raise ValueError(f"unknown solver '{solver}'")


def step(mesh, dofmap, state_n, subscale_n, scheme, params, forcing,
         solver="direct", gmres_tol=1e-9, prepared=None):
    """Advance one time step; returns (state_{n+1}, subscale_{n+1})."""
    if prepared is None:
        prepared = _prepare_solver(mesh, dofmap, scheme, params, solver, gmres_tol)
    rhs = assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing)

    if prepared["solver"] == "direct":
        x = prepared["factor"].solve(rhs)
        denom = np.linalg.norm(rhs) or 1.0
        res = np.linalg.norm(prepared["matrix"].csr @ x - rhs) / denom
        if not np.isfinite(res) or res > linalg.DIRECT_RESIDUAL_TOL:
            raise linalg.SingularMatrixError(
                f"direct solve residual {res:.3e} exceeds "
                f"{linalg.DIRECT_RESIDUAL_TOL:.0e}")
    else:
        x0 = np.concatenate([state_n.u1, state_n.u2, state_n.p, [0.0]])
        x, _ = linalg.solve_gmres(prepared["matrix"], rhs,
                                  tol=prepared["tol"], x0=x0)

    n_u, n_p = dofmap.n_u, dofmap.n_p
    state_new = FieldState(u1=x[:n_u], u2=x[n_u:2 * n_u],
                           p=x[2 * n_u:2 * n_u + n_p], t=state_n.t + scheme.dt)
    subscale_new = update_subscales(mesh, state_new, state_n, subscale_n,
                                    scheme, params, forcing)
    return state_new, subscale_new


def solve_transient(mesh, dofmap, scheme, params, forcing, initial,
                    observer=None, solver="direct", gmres_tol=1e-9,
                    keep_history=True):
    """Run the time loop from ``initial`` over ``scheme.n_steps`` steps.

    The observer, if given, is called as observer(n, state, subscale) for
    n = 0 (initial data) through n_steps, which allows norm accumulation
    without retaining the trajectory; with ``keep_history=False`` only
    [initial, final] states are returned.  Step failures are re-raised as
    StepFailureError carrying the 1-based failing step index.
    """
    try:
        prepared = _prepare_solver(mesh, dofmap, scheme, params, solver, gmres_tol)
    except (linalg.SingularMatrixError, linalg.NonConvergenceError) as exc:
        # factorization is part of taking the first step
        raise StepFailureError(1, str(exc)) from exc
    subscale = SubscaleState.zeros(mesh)
    state = initial
    if observer is not None:
        observer(0, state, subscale)
    history = [state]
    for n in range(1, scheme.n_steps + 1):
        try:
            state, subscale = step(mesh, dofmap, state, subscale, scheme, params,
                                   forcing, solver, gmres_tol, prepared=prepared)
        except (linalg.SingularMatrixError, linalg.NonConvergenceError) as exc:
            raise StepFailureError(n, str(exc)) from exc
        if observer is not None:
            observer(n, state, subscale)
        if keep_history:
            history.append(state)
    if not keep_history:
        history.append(state)
    return history


def _constraint_basis(dofmap):
    """Orthonormal basis of the admissible raw directions.

    Velocity dofs outside the Dirichlet set keep their unit vectors; the
    pressure block contributes an orthonormal basis of the zero-mean
    subspace.  The multiplier is not part of the raw operator.
    """
    n_u, n_p = dofmap.n_u, dofmap.n_p
    n_raw = 2 * n_u + n_p
    free_vel = np.setdiff1d(np.arange(2 * n_u), dofmap.dirichlet_dofs)
    null_p = scipy.linalg.null_space(dofmap.mean_vector[None, :])
    Z = np.zeros((n_raw, free_vel.size + null_p.shape[1]))
    Z[free_vel, np.arange(free_vel.size)] = 1.0
    Z[2 * n_u:, free_vel.size:] = null_p
    return Z


def coercivity_operator(mesh, dofmap, params, dt):
    """Projected symmetric part of the one-step backward-Euler operator.

    Returns (S, Z) where S = Z^T (A + A^T)/2 Z for the raw (unconstrained)
    operator A, and Z spans the Dirichlet-free, zero-mean directions.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    scheme = TimeScheme(theta=1, dt=dt, n_steps=1)
    A = assemble_lhs(mesh, dofmap, scheme, params, constrained=False).to_dense()
    sym = 0.5 * (A + A.T)
    Z = _constraint_basis(dofmap)
    return Z.T @ sym @ Z, Z


def coercivity_check(mesh, dofmap, params, dt):
    """Smallest Rayleigh quotient of the symmetrized stabilized operator."""
    S, _ = coercivity_operator(mesh, dofmap, params, dt)
    return float(scipy.linalg.eigvalsh(S).min())


def infsup_constant(mesh, dofmap, stabilized, params):
    """Discrete inf-sup constant via the pressure Schur complement.

    beta_h is the square root of the smallest nonzero eigenvalue of
    B A^{-1} B^T (plus the pressure-Laplacian block when ``stabilized``)
    generalized against the pressure mass matrix, with A the velocity H1
    operator (plus grad-div when ``stabilized``) on the Dirichlet-free
    velocity subspace and pressures restricted to zero mean.  Diagnostic
    only; near-zero modes of the unstabilized pair are filtered, not judged.
    """
    tri = mesh.triangles
    n_u, n_p = dofmap.n_u, dofmap.n_p
    a, g, mass, stiff = _element_tables(mesh)

    K = np.zeros((n_u, n_u))
    M = np.zeros((n_u, n_u))
    Mp = np.zeros((n_p, n_p))
    for k in range(mesh.n_triangles):
        idx = tri[k]
        K[np.ix_(idx, idx)] += stiff[k]
        M[np.ix_(idx, idx)] += mass[k]
        Mp[np.ix_(idx, idx)] += mass[k]

    A = np.zeros((2 * n_u, 2 * n_u))
    for c in range(2):
        A[c * n_u:(c + 1) * n_u, c * n_u:(c + 1) * n_u] = K + M
    B = np.zeros((n_p, 2 * n_u))
    for k in range(mesh.n_triangles):
        idx = tri[k]
        for c in range(2):
            B[np.ix_(idx, c * n_u + idx)] += a[k] / 3.0 * np.tile(g[k, :, c], (3, 1))

    if stabilized:
        t2 = params.tau2_eff
        for k in range(mesh.n_triangles):
            idx = tri[k]
            for c in range(2):
                for cp in range(2):
                    A[np.ix_(c * n_u + idx, cp * n_u + idx)] += (
                        t2[k] * a[k] * np.outer(g[k, :, c], g[k, :, cp]))

    free = np.setdiff1d(np.arange(2 * n_u), dofmap.dirichlet_dofs)
    A_ff = A[np.ix_(free, free)]
    B_f = B[:, free]
    S = B_f @ np.linalg.solve(A_ff, B_f.T)

    if stabilized:
        t1p = params.tau1p_eff
        for k in range(mesh.n_triangles):
            idx = tri[k]
            S[np.ix_(idx, idx)] += t1p[k] * stiff[k]

    Zp = scipy.linalg.null_space(dofmap.mean_vector[None, :])
    Sz = Zp.T @ S @ Zp
    Mz = Zp.T @ Mp @ Zp
    eigs = scipy.linalg.eigh(Sz, Mz, eigvals_only=True)
    cutoff = 1e-10 * max(eigs.max(), 1e-300)
    nonzero = eigs[eigs > cutoff]
    if nonzero.size == 0:
        return 0.0
    return float(np.sqrt(nonzero.min()))
