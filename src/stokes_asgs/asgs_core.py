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

import math
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


def count_steps(t_final, dt):
    """Number of steps of size ``dt`` that end at ``t_final``.

    Raises ValueError unless both are finite and positive and t_final is an
    integer multiple of dt (to 1e-9 relative).
    """
    ratio = t_final / dt if dt > 0 and t_final > 0 else math.nan
    if not math.isfinite(ratio):
        raise ValueError(f"t_final {t_final} and dt {dt} must be finite and positive")
    n_steps = round(ratio)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(t_final, 1.0):
        raise ValueError(f"t_final {t_final} is not an integer multiple of dt {dt}")
    return n_steps


def _taus(h, mu, c1, c2, dt_eff):
    if mu <= 0.0 or c1 <= 0.0 or c2 <= 0.0 or dt_eff <= 0.0:
        raise ValueError("mu, c1, c2 and dt_eff must all be positive")
    tau1 = h ** 2 / (c1 * mu)
    tau2 = c2 * h ** 2 / tau1
    tau1p = tau1 * dt_eff / (dt_eff + tau1)
    return tau1, tau2, tau1p


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
    return _taus(geometry.diameter, mu, c1, c2, dt_eff)


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
        tau1, tau2, tau1p = _taus(mesh.diameters, mu, c1, c2, dt_eff)
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
    """A time step could not be completed; carries the 1-based step index.

    ``manufactured.run_convergence_study`` sets ``level`` to the
    (index, nx, dt) of the level whose solve failed.
    """

    level = None

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


def _element_tables(mesh):
    """Exact P1 element matrices of every element, each (m, ...).

    Returns (a, g, mass, stiff, div) with mass[k]_ij = int(l_i l_j),
    stiff[k]_ij = int(grad l_i . grad l_j) and
    div[k, c]_ij = int(dl_j/dx_c * l_i) = a/3 * g[k, j, c].
    """
    a = mesh.areas
    g = mesh.shape_gradients
    mass = (a / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    stiff = np.einsum("kid,kjd->kij", g, g) * a[:, None, None]
    div_row = (a / 3.0)[:, None, None] * g.transpose(0, 2, 1)  # (m, 2, 3): a/3 g[k, j, c]
    div = np.broadcast_to(div_row[:, :, None, :], (mesh.n_triangles, 2, 3, 3))
    return a, g, mass, stiff, div


def _grad_div(a, g, weight, c, cp):
    """weight * int(dl_i/dx_c * dl_j/dx_cp) on every element, (m, 3, 3)."""
    return (weight * a)[:, None, None] * (g[:, :, c][:, :, None] * g[:, None, :, cp])


def _scatter(tri, blocks):
    """Global (rows, cols, vals) triplets of element matrices.

    ``blocks`` holds (row offset, column offset, (m, 3, 3) local matrices);
    entry (i, j) of element k lands at (row offset + tri[k, i],
    column offset + tri[k, j]).
    """
    rows, cols, vals = [], [], []
    for r, c, local in blocks:
        rows.append(np.broadcast_to(r + tri[:, :, None], local.shape).ravel())
        cols.append(np.broadcast_to(c + tri[:, None, :], local.shape).ravel())
        vals.append(np.ravel(local))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _p1_actions(mesh, u_loc):
    """Closed forms of the ``_element_tables`` products with u_loc (m, 3, d).

    Returns mass a/12 (u_i + sum_j u_j), stiffness a g (g^T u) and
    grad = g^T u, that is grad[k, e, d] = du_d/dx_e.
    """
    a = mesh.areas[:, None, None]
    g = mesh.shape_gradients
    grad = np.matmul(g.transpose(0, 2, 1), u_loc)
    mass = a / 12.0 * (u_loc + (u_loc[:, 0] + u_loc[:, 1] + u_loc[:, 2])[:, None])
    return mass, a * (g @ grad), grad


def assemble_lhs(mesh, dofmap, scheme, params, constrained=True):
    """System matrix for one step.

    With ``constrained`` the Dirichlet velocity rows are replaced by
    identity rows and the mean-pressure multiplier row/column is appended;
    otherwise the raw operator of size 2*n_u + n_p is returned (used by the
    eigenvalue diagnostics).
    """
    n_u, n_p = dofmap.n_u, dofmap.n_p
    a, g, mass, stiff, div = _element_tables(mesh)
    alpha, dt = scheme.alpha, scheme.dt

    m_w = params.m_weights
    w_w = params.w_weights
    t1p = params.tau1p_eff
    t2 = params.tau2_eff

    # velocity-velocity: time derivative + viscosity on each component,
    # grad-div coupling across components
    diag_block = (w_w / dt)[:, None, None] * mass + (params.mu * alpha) * stiff
    blocks = []
    for c in range(2):
        blocks.append((c * n_u, c * n_u, diag_block))
        for cp in range(2):
            blocks.append((c * n_u, cp * n_u, _grad_div(a, g, alpha * t2, c, cp)))
    for c in range(2):
        gc = g[:, :, c]
        # momentum-pressure: Galerkin -(p, div v) and subscale -m*(grad p, v)
        blocks.append((c * n_u, 2 * n_u, -div[:, c].transpose(0, 2, 1)
                       - (m_w * a / 3.0)[:, None, None] * gc[:, None, :]))
        # continuity-velocity: Galerkin (div u_mid, q) and subscale
        # tau1p*(u_new/dt, grad q)
        blocks.append((2 * n_u, c * n_u, alpha * div[:, c]
                       + (t1p * a / (3.0 * dt))[:, None, None] * gc[:, :, None]))
    # continuity-pressure: tau1p * pressure Laplacian
    blocks.append((2 * n_u, 2 * n_u, t1p[:, None, None] * stiff))
    rows, cols, vals = _scatter(mesh.triangles, blocks)

    if not constrained:
        n_total = 2 * n_u + n_p
        return linalg.from_triplets(n_total, n_total, (rows, cols, vals))

    n_total = dofmap.n_dofs
    mult = dofmap.multiplier_index
    p_idx = 2 * n_u + np.arange(n_p)
    rows = np.concatenate([rows, p_idx, np.full(n_p, mult)])
    cols = np.concatenate([cols, np.full(n_p, mult), p_idx])
    vals = np.concatenate([vals, dofmap.mean_vector, dofmap.mean_vector])

    # Dirichlet row replacement: drop every entry of a constrained row, then
    # put a 1 on its diagonal.
    keep = ~dofmap.dirichlet_mask(n_total)[rows]
    d = dofmap.dirichlet_dofs
    rows = np.concatenate([rows[keep], d])
    cols = np.concatenate([cols[keep], d])
    vals = np.concatenate([vals[keep], np.ones(d.size)])
    return linalg.from_triplets(n_total, n_total, (rows, cols, vals))


def _theta_forcing(forcing, pts, t_old, t_new, alpha):
    x, y = pts[..., 0], pts[..., 1]

    def at(t):
        return np.stack([np.broadcast_to(f, x.shape) for f in forcing(x, y, t)], axis=-1)

    if alpha == 1:  # backward Euler gives t_old no weight
        return at(t_new)
    return alpha * at(t_new) + (1 - alpha) * at(t_old)


def assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing):
    """Right-hand side for the step starting from ``state_n``."""
    tri = mesh.triangles
    n_u = dofmap.n_u
    a, g = mesh.areas, mesh.shape_gradients
    alpha, dt, dt_eff = scheme.alpha, scheme.dt, scheme.dt_eff

    w_w = params.w_weights
    t1p = params.tau1p_eff
    t2 = params.tau2_eff

    rule = quadrature_rule(ASSEMBLY_QUAD_DEGREE)
    wq = rule.weights
    pts = mesh.quad_points(rule)

    fvec = _theta_forcing(forcing, pts, state_n.t, state_n.t + dt, alpha)  # (m, nq, 2)
    # forcing plus the subscale history d = uprime^n/dt_eff
    load = fvec + subscale_n.uprime / dt_eff

    u_loc = np.stack([state_n.u1[tri], state_n.u2[tri]], axis=-1)  # (m, 3, 2)
    mass_u, stiff_u, grad_u = _p1_actions(mesh, u_loc)
    div_un = grad_u[:, 0, 0] + grad_u[:, 1, 1]
    ubar = u_loc.mean(axis=1)  # element means of u_old

    rhs = np.zeros(dofmap.n_dofs)
    cont = -((1 - alpha) * a / 3.0 * div_un)[:, None] * np.ones(3)
    for c in range(2):
        load_c = load[:, :, c]
        mom = ((w_w / dt)[:, None] * mass_u[:, :, c]
               - (params.mu * (1 - alpha)) * stiff_u[:, :, c]
               - ((1 - alpha) * t2 * a * div_un)[:, None] * g[:, :, c]
               + (w_w * a)[:, None] * ((wq * load_c) @ rule.points))
        np.add.at(rhs, c * n_u + tri, mom)
        # continuity rows: tau1p (u_old/dt + f + d, grad q)
        cont += ((t1p * a)[:, None] * g[:, :, c]
                 * (ubar[:, c] / dt + load_c @ wq)[:, None])
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


def _momentum_residual(mesh, rule, state_old, state_new, dt, alpha, forcing):
    """R1 = f_mid - (u_new - u_old)/dt - grad p, (m, nq, 2), at ``rule``'s points."""
    tri = mesh.triangles
    fvec = _theta_forcing(forcing, mesh.quad_points(rule), state_old.t,
                          state_old.t + dt, alpha)
    du_loc = np.stack([(state_new.u1 - state_old.u1)[tri],
                       (state_new.u2 - state_old.u2)[tri]], axis=-1) / dt
    gradp = np.matmul(state_new.p[tri][:, None, :], mesh.shape_gradients)
    return fvec - rule.points @ du_loc - gradp


def update_subscales(mesh, state_new, state_old, subscale_n, scheme, params, forcing):
    """Advance the subscale history one step.

    At every assembly quadrature point the step solves for the interval
    subscale uprime_mid = tau1p * (R1 + uprime_old/dt_eff) with the momentum
    residual R1 = f_mid - (u_new - u_old)/dt - grad p (P1 fields carry no
    Laplacian), and returns the end-level history
    uprime_new = (uprime_mid - (1 - alpha)*uprime_old)/alpha.  For backward
    Euler (alpha = 1) the two levels coincide.
    """
    alpha = scheme.alpha
    resid = _momentum_residual(mesh, quadrature_rule(ASSEMBLY_QUAD_DEGREE),
                               state_old, state_new, scheme.dt, alpha, forcing)
    uprime_mid = params.tau1p_eff[:, None, None] * (resid + subscale_n.uprime / scheme.dt_eff)
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
        self.matrix = matrix
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
        """Solution of K x = rhs, multiplier included.

        Raises SingularMatrixError when the relative residual against the
        full constrained K exceeds ``linalg.DIRECT_RESIDUAL_TOL``.
        """
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
        res = np.linalg.norm(self.matrix.csr @ x - rhs) / (np.linalg.norm(rhs) or 1.0)
        if not np.isfinite(res) or res > linalg.DIRECT_RESIDUAL_TOL:
            raise linalg.SingularMatrixError(
                f"direct solve residual {res:.3e} exceeds "
                f"{linalg.DIRECT_RESIDUAL_TOL:.0e}")
        return x


def step(mesh, dofmap, state_n, subscale_n, scheme, params, forcing, factor=None):
    """Advance one time step; returns (state_{n+1}, subscale_{n+1}).

    ``factor`` is the step matrix's ``ReducedFactor``; it is built here when
    not given.
    """
    if factor is None:
        factor = ReducedFactor(assemble_lhs(mesh, dofmap, scheme, params), dofmap)
    rhs = assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing)
    x = factor.solve(rhs)

    n_u, n_p = dofmap.n_u, dofmap.n_p
    state_new = FieldState(u1=x[:n_u], u2=x[n_u:2 * n_u],
                           p=x[2 * n_u:2 * n_u + n_p], t=state_n.t + scheme.dt)
    subscale_new = update_subscales(mesh, state_new, state_n, subscale_n,
                                    scheme, params, forcing)
    return state_new, subscale_new


def solve_transient(mesh, dofmap, scheme, params, forcing, initial,
                    observer=None, keep_history=True):
    """Run the time loop from ``initial`` over ``scheme.n_steps`` steps.

    The observer, if given, is called as observer(n, state, subscale) for
    n = 0 (initial data) through n_steps, which allows norm accumulation
    without retaining the trajectory; with ``keep_history=False`` only
    [initial, final] states are returned.  Step failures are re-raised as
    StepFailureError carrying the 1-based failing step index.
    """
    try:
        factor = ReducedFactor(assemble_lhs(mesh, dofmap, scheme, params), dofmap)
    except linalg.SingularMatrixError as exc:
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
                                   forcing, factor)
        except linalg.SingularMatrixError as exc:
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
    a, g, mass, stiff, div = _element_tables(mesh)

    def assemble(n_rows, n_cols, blocks):
        return linalg.from_triplets(n_rows, n_cols, _scatter(tri, blocks)).csr

    blocks = [(c * n_u, c * n_u, stiff + mass) for c in range(2)]
    if stabilized:
        blocks += [(c * n_u, cp * n_u, _grad_div(a, g, params.tau2_eff, c, cp))
                   for c in range(2) for cp in range(2)]
    A = assemble(2 * n_u, 2 * n_u, blocks)
    B = assemble(n_p, 2 * n_u, [(0, c * n_u, div[:, c]) for c in range(2)])
    Mp = assemble(n_p, n_p, [(0, 0, mass)])

    free = np.setdiff1d(np.arange(2 * n_u), dofmap.dirichlet_dofs)
    A_ff = A[free][:, free].toarray()
    B_f = B[:, free].toarray()
    S = B_f @ np.linalg.solve(A_ff, B_f.T)
    if stabilized:
        S += assemble(n_p, n_p, [(0, 0, params.tau1p_eff[:, None, None] * stiff)]).toarray()

    Zp = scipy.linalg.null_space(dofmap.mean_vector[None, :])
    Sz = Zp.T @ S @ Zp
    Mz = Zp.T @ (Mp @ Zp)
    eigs = scipy.linalg.eigh(Sz, Mz, eigvals_only=True)
    cutoff = 1e-10 * max(eigs.max(), 1e-300)
    nonzero = eigs[eigs > cutoff]
    if nonzero.size == 0:
        return 0.0
    return float(np.sqrt(nonzero.min()))
