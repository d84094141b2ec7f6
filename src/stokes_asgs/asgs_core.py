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
appear in the residuals or their adjoints.  The element matrices and
vectors are summed onto the vertices by ``fem_space.assemble_matrix`` and
``fem_space.assemble_vector``; this module only forms the element arrays
and joins the n x n blocks.  The assembled system replaces
the Dirichlet velocity rows by identity rows and appends a single Lagrange
multiplier row/column that pins the pressure mean to zero; this constrained
matrix is the assembly contract.  The direct solver factorizes only the
reduced interior system (no Dirichlet rows, no multiplier, one pressure dof
pinned) and recovers the multiplier exactly (see ``ReducedFactor``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import linalg
from .fem_space import assemble_matrix, assemble_vector, quadrature_rule

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
    """Stabilization parameters of elements of diameter ``h``.

    tau1 = h^2/(c1*mu), tau2 = c2*h^2/tau1 (= c1*c2*mu, mesh independent)
    and the time-regularized tau1p = tau1*dt_eff/(dt_eff + tau1).  The h^2
    in tau2 keeps the grad-div weight bounded under refinement; an unbounded
    weight locks the P1 velocity toward the elementwise divergence-free
    subspace, which on structured triangulations approximates nothing.
    """
    if mu <= 0.0 or c1 <= 0.0 or c2 <= 0.0 or dt_eff <= 0.0:
        raise ValueError("mu, c1, c2 and dt_eff must all be positive")
    tau1 = h ** 2 / (c1 * mu)
    tau2 = c2 * h ** 2 / tau1
    tau1p = tau1 * dt_eff / (dt_eff + tau1)
    return tau1, tau2, tau1p


@dataclass
class StabilizationParams:
    """Per-element stabilization coefficients plus the viscosity.

    ``for_mesh(..., stabilized=False)`` stores zero taus, which switches
    every tau-weighted term off and reduces the assembly to the plain
    Galerkin theta-scheme.
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
        if not stabilized:
            tau1, tau2, tau1p = np.zeros((3,) + tau1.shape)
        return cls(mu=mu, c1=c1, c2=c2, dt_eff=dt_eff,
                   tau1=tau1, tau2=tau2, tau1p=tau1p, stabilized=stabilized)

    @property
    def m_weights(self):
        return self.tau1 / (self.dt_eff + self.tau1)

    @property
    def w_weights(self):
        return 1.0 - self.m_weights


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
    a, g, mass, stiff, div = _element_tables(mesh)
    alpha, dt = scheme.alpha, scheme.dt
    m_w, t1p = params.m_weights, params.tau1p

    # velocity-velocity: time derivative + viscosity on each component,
    # grad-div coupling across components
    diag_block = (params.w_weights / dt)[:, None, None] * mass + (params.mu * alpha) * stiff
    blocks = [[_grad_div(a, g, alpha * params.tau2, c, cp) + (diag_block if c == cp else 0.0)
               for cp in range(2)] for c in range(2)]
    for c in range(2):
        # momentum-pressure: Galerkin -(p, div v) and subscale -m*(grad p, v)
        blocks[c].append(-div[:, c].transpose(0, 2, 1)
                         - (m_w * a / 3.0)[:, None, None] * g[:, None, :, c])
    # continuity-velocity: Galerkin (div u_mid, q) and subscale
    # tau1p*(u_new/dt, grad q); continuity-pressure: tau1p * pressure Laplacian
    blocks.append([alpha * div[:, c] + (t1p * a / (3.0 * dt))[:, None, None] * g[:, :, c, None]
                   for c in range(2)] + [t1p[:, None, None] * stiff])
    K = [[assemble_matrix(mesh, local) for local in row] for row in blocks]
    if not constrained:
        return linalg.SparseMatrix(sp.bmat(K, format="csr"))

    mean = sp.csr_matrix(dofmap.mean_vector[:, None])
    K = sp.bmat([K[0] + [None], K[1] + [None], K[2] + [mean], [None, None, mean.T, None]],
                format="csr")
    # Dirichlet rows become identity rows: each keeps its stored diagonal,
    # set to 1, and drops the rest.  Slicing the CSR arrays prunes no stored
    # zero elsewhere, so the pattern stays that of the element couplings.
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    on = dofmap.dirichlet_mask()[rows]
    keep = ~on | (K.indices == rows)
    indptr = np.searchsorted(np.flatnonzero(keep), K.indptr)
    return linalg.SparseMatrix(sp.csr_matrix(
        (np.where(on, 1.0, K.data)[keep], K.indices[keep], indptr), shape=K.shape))


def _forcing_at(forcing, pts, t):
    """``forcing(x, y, t)`` at the points ``pts``, stacked to (..., 2)."""
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([np.broadcast_to(f, x.shape) for f in forcing(x, y, t)], axis=-1)


class LevelForcing:
    """A forcing at the assembly points, evaluated once per time level.

    ``assemble_rhs`` and ``update_subscales`` read the same levels, and under
    Crank-Nicolson a step's t_{n+1} is the next step's t_n.  A time loop only
    moves forward, so a new level replaces every kept level but the latest.
    The values are ``forcing(x, y, t)`` itself, never a rescaled copy.
    """

    def __init__(self, forcing, mesh):
        self.forcing = forcing
        self.pts = mesh.quad_points(quadrature_rule(ASSEMBLY_QUAD_DEGREE))
        self._levels = {}

    def __call__(self, t):
        values = self._levels.get(t)
        if values is None:
            values = _forcing_at(self.forcing, self.pts, t)
            if self._levels:
                latest = max(self._levels)
                self._levels = {latest: self._levels[latest]}
            self._levels[t] = values
        return values


def _levels(forcing, mesh):
    return forcing if isinstance(forcing, LevelForcing) else LevelForcing(forcing, mesh)


def _theta_forcing(at, t_old, t_new, alpha):
    """alpha*f(t_new) + (1-alpha)*f(t_old) from the per-level values ``at(t)``."""
    if alpha == 1:  # backward Euler gives t_old no weight
        return at(t_new)
    return alpha * at(t_new) + (1 - alpha) * at(t_old)


def assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing):
    """Right-hand side for the step starting from ``state_n``.

    ``forcing`` is forcing(x, y, t) or a ``LevelForcing`` of it.
    """
    tri = mesh.triangles
    a, g = mesh.areas, mesh.shape_gradients
    alpha, dt, dt_eff = scheme.alpha, scheme.dt, scheme.dt_eff
    w_w, t1p, t2 = params.w_weights, params.tau1p, params.tau2

    rule = quadrature_rule(ASSEMBLY_QUAD_DEGREE)
    wq = rule.weights

    fvec = _theta_forcing(_levels(forcing, mesh), state_n.t, state_n.t + dt,
                          alpha)  # (m, nq, 2)
    # forcing plus the subscale history d = uprime^n/dt_eff
    load = fvec + subscale_n.uprime / dt_eff

    u_loc = np.stack([state_n.u1[tri], state_n.u2[tri]], axis=-1)  # (m, 3, 2)
    mass_u, stiff_u, grad_u = _p1_actions(mesh, u_loc)
    div_un = grad_u[:, 0, 0] + grad_u[:, 1, 1]
    ubar = u_loc.mean(axis=1)  # element means of u_old

    parts = []
    cont = -((1 - alpha) * a / 3.0 * div_un)[:, None] * np.ones(3)
    for c in range(2):
        load_c = load[:, :, c]
        parts.append(assemble_vector(mesh, (w_w / dt)[:, None] * mass_u[:, :, c]
                                     - (params.mu * (1 - alpha)) * stiff_u[:, :, c]
                                     - ((1 - alpha) * t2 * a * div_un)[:, None] * g[:, :, c]
                                     + (w_w * a)[:, None] * ((wq * load_c) @ rule.points)))
        # continuity rows: tau1p (u_old/dt + f + d, grad q)
        cont += ((t1p * a)[:, None] * g[:, :, c]
                 * (ubar[:, c] / dt + load_c @ wq)[:, None])
    rhs = np.concatenate(parts + [assemble_vector(mesh, cont), [0.0]])  # multiplier row 0
    rhs[dofmap.dirichlet_dofs] = 0.0
    return rhs


def _momentum_residual(mesh, rule, state_old, state_new, dt, alpha, at):
    """R1 = f_mid - (u_new - u_old)/dt - grad p, (m, nq, 2), at ``rule``'s
    points, where ``at(t)`` gives the forcing there at level t."""
    tri = mesh.triangles
    fvec = _theta_forcing(at, state_old.t, state_old.t + dt, alpha)
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
    Euler (alpha = 1) the two levels coincide.  ``forcing`` is as in
    ``assemble_rhs``.
    """
    alpha = scheme.alpha
    resid = _momentum_residual(mesh, quadrature_rule(ASSEMBLY_QUAD_DEGREE),
                               state_old, state_new, scheme.dt, alpha,
                               _levels(forcing, mesh))
    uprime_mid = params.tau1p[:, None, None] * (resid + subscale_n.uprime / scheme.dt_eff)
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
    unique solution, whose pressure is then shifted to zero mean.  The LU
    takes the kept dofs as (u1, u2, p) per vertex in ``elimination_order``.
    """

    def __init__(self, matrix, dofmap):
        self.matrix = matrix
        self.dirichlet = dofmap.dirichlet_dofs
        self.mean = dofmap.mean_vector
        self.p_block = slice(2 * dofmap.n_u, dofmap.multiplier_index)
        self.multiplier = dofmap.multiplier_index
        dofs = (dofmap.elimination_order[:, None] + dofmap.n_u * np.arange(3)).ravel()
        free = ~dofmap.dirichlet_mask()
        free[self.p_block.start] = False  # the pinned pressure
        self.kept = dofs[free[dofs]]
        csr = matrix.csr
        self.lift = csr[:self.multiplier][:, self.dirichlet]
        self.factor = linalg.DirectFactor(
            linalg.SparseMatrix(csr[self.kept][:, self.kept]))

    def _solve_once(self, rhs):
        """K^{-1} rhs through one back-solve of the interior factor."""
        x = np.zeros(rhs.shape)
        x[self.dirichlet] = rhs[self.dirichlet]
        b = rhs[:self.multiplier] - self.lift @ x[self.dirichlet]
        cont = b[self.p_block]
        lam = cont.sum() / self.mean.sum()
        cont -= lam * self.mean
        x[self.kept] = self.factor.solve(b[self.kept])
        p = x[self.p_block]
        p -= (self.mean @ p) / self.mean.sum()
        x[self.multiplier] = lam
        return x

    def solve(self, rhs):
        """Solution of K x = rhs, multiplier included.

        Refined once, by solving for the residual, only when the relative
        residual against the full constrained K exceeds
        ``linalg.DIRECT_RESIDUAL_TOL``; raises SingularMatrixError when the
        refined solution still does.
        """
        x, r = 0.0, rhs
        for _ in range(2):
            x = x + self._solve_once(r)
            r = rhs - self.matrix.csr @ x
            res = np.linalg.norm(r) / (np.linalg.norm(rhs) or 1.0)
            if res <= linalg.DIRECT_RESIDUAL_TOL:  # False for nan too
                return x
        raise linalg.SingularMatrixError(
            f"direct solve residual {res:.3e} exceeds "
            f"{linalg.DIRECT_RESIDUAL_TOL:.0e}")


def step(mesh, dofmap, state_n, subscale_n, scheme, params, forcing, factor=None):
    """Advance one time step; returns (state_{n+1}, subscale_{n+1}).

    ``factor`` is the step matrix's ``ReducedFactor``; it is built here when
    not given.  ``assemble_rhs`` and ``update_subscales`` share one
    evaluation of the forcing per time level.
    """
    if factor is None:
        factor = ReducedFactor(assemble_lhs(mesh, dofmap, scheme, params), dofmap)
    forcing = _levels(forcing, mesh)
    rhs = assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, forcing)
    x = factor.solve(rhs)

    n_u, n_p = dofmap.n_u, dofmap.n_p
    state_new = FieldState(u1=x[:n_u], u2=x[n_u:2 * n_u],
                           p=x[2 * n_u:2 * n_u + n_p], t=state_n.t + scheme.dt)
    subscale_new = update_subscales(mesh, state_new, state_n, subscale_n,
                                    scheme, params, forcing)
    return state_new, subscale_new


def solve_transient(mesh, dofmap, scheme, params, forcing, initial,
                    observer=None):
    """Run the time loop from ``initial`` over ``scheme.n_steps`` steps and
    return the final ``FieldState``.

    The observer, if given, is called as observer(n, state, subscale) for
    n = 0 (initial data) through n_steps; it accumulates norms, or collects
    the trajectory, along the loop.  Step failures are re-raised as
    StepFailureError carrying the 1-based failing step index.  The forcing
    is evaluated once per time level.
    """
    forcing = LevelForcing(forcing, mesh)
    subscale = SubscaleState.zeros(mesh)
    state = initial
    if observer is not None:
        # before the factor exists, so that the observer's set-up
        # temporaries never add to the resident LU factor
        observer(0, state, subscale)
    try:
        factor = ReducedFactor(assemble_lhs(mesh, dofmap, scheme, params), dofmap)
    except linalg.SingularMatrixError as exc:
        # factorization is part of taking the first step
        raise StepFailureError(1, str(exc)) from exc
    for n in range(1, scheme.n_steps + 1):
        try:
            state, subscale = step(mesh, dofmap, state, subscale, scheme, params,
                                   forcing, factor)
        except linalg.SingularMatrixError as exc:
            raise StepFailureError(n, str(exc)) from exc
        if observer is not None:
            observer(n, state, subscale)
    return state


# Largest total size of the dense arrays one diagnostic may hold at once.
DENSE_BUDGET_BYTES = 2 ** 30


def _check_dense_budget(name, n_doubles):
    if 8 * n_doubles > DENSE_BUDGET_BYTES:
        raise ValueError(f"{name} needs {8 * n_doubles} bytes of dense arrays, "
                         f"above the budget of {DENSE_BUDGET_BYTES} bytes")


def _mean_reflector(mean):
    """Unit v: H = I - 2 v v^T maps the positive ``mean`` onto a multiple
    of e_0, so H[:, 1:] is an orthonormal basis of the zero-mean subspace."""
    v = np.array(mean, dtype=float)
    v[0] += np.linalg.norm(v)  # no cancellation: every entry is positive
    return v / np.linalg.norm(v)


def _project(S, v):
    """H[:, 1:]^T S H[:, 1:] for symmetric S, in O(n^2): S is overwritten by
    H S H = S - v u^T - u v^T for u = 2 (S v - (v^T S v) v)."""
    u = 2.0 * (S @ v)
    u -= (v @ u) * v
    S -= np.outer(u, v)
    S -= np.outer(v, u)
    return S[1:, 1:]


def _free_velocities(dofmap):
    """Free velocity dofs, the two components interleaved per vertex, so a
    velocity block has bandwidth 2*nx + 1 on the structured mesh."""
    free = np.setdiff1d(np.arange(2 * dofmap.n_u), dofmap.dirichlet_dofs)
    return free.reshape(2, -1).T.ravel()


def _banded_cholesky(A):
    """Banded Cholesky factor of the sparse ``A`` for ``cho_solve_banded``;
    LinAlgError unless A is positive definite."""
    upper = sp.triu(A, format="coo")
    width = int((upper.col - upper.row).max(initial=0))
    band = np.zeros((width + 1, A.shape[0]))
    band[width + upper.row - upper.col, upper.col] = upper.data
    return scipy.linalg.cholesky_banded(band, overwrite_ab=True), False


def coercivity_operator(mesh, dofmap, params, dt):
    """Blocks of the projected symmetric one-step backward-Euler operator.

    For the raw (unconstrained) operator A and S = (A + A^T)/2 returns
    (S_u, S_p): S on the free velocities (``_free_velocities``), sparse,
    and S on the zero-mean pressures (``_project``), dense.  The
    velocity-pressure block of S vanishes, because at theta=1 the Galerkin
    couplings -(p, div v) and (div u, q) cancel and so do the subscale
    couplings -m (grad p, v) and tau1p/dt (u, grad q), as m = tau1p/dt when
    ``dt`` = ``params.dt_eff`` (required).  Raises ValueError, before
    assembling, when S_p would exceed ``DENSE_BUDGET_BYTES``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if abs(dt - params.dt_eff) > 1e-12 * dt:
        raise ValueError(f"dt {dt} differs from params.dt_eff {params.dt_eff}")
    n_p = dofmap.n_p
    _check_dense_budget("coercivity_operator", 2 * n_p ** 2)  # S_p and Z^T S_p Z
    vel = _free_velocities(dofmap)
    scheme = TimeScheme(theta=1, dt=dt, n_steps=1)
    A = assemble_lhs(mesh, dofmap, scheme, params, constrained=False).csr
    S = 0.5 * (A + A.T)
    S_p = S[-n_p:, -n_p:].toarray()
    return S[vel][:, vel], _project(S_p, _mean_reflector(dofmap.mean_vector))


def coercivity_check(mesh, dofmap, params, dt):
    """Smallest eigenvalue of the projected symmetric one-step operator.

    The smaller of the two ``coercivity_operator`` blocks' minima: the
    velocity block's by shift-invert Lanczos about 0 (ARPACK, fixed start
    vector) on its banded Cholesky factor, which proves the block positive
    definite (else LinAlgError), so its eigenvalue nearest 0 is its least.
    """
    S_u, S_p = coercivity_operator(mesh, dofmap, params, dt)
    lam = scipy.linalg.eigvalsh(S_p).min()
    if S_u.shape[0]:  # empty at nx=1, where every velocity is Dirichlet
        solve = functools.partial(scipy.linalg.cho_solve_banded, _banded_cholesky(S_u))
        v0 = np.random.default_rng(0).standard_normal(S_u.shape[0])
        lam = min(lam, spla.eigsh(S_u, 1, sigma=0.0, v0=v0, return_eigenvectors=False,
                                  OPinv=spla.LinearOperator(S_u.shape, solve, dtype=float))[0])
    return float(lam)


def infsup_constant(mesh, dofmap, stabilized, params):
    """Discrete inf-sup constant via the pressure Schur complement.

    beta_h is the square root of the smallest nonzero eigenvalue of
    S = B A^{-1} B^T (plus the pressure-Laplacian block when ``stabilized``)
    generalized against the pressure mass matrix, with A the velocity H1
    operator (plus grad-div when ``stabilized``) on the free velocity dofs
    and pressures restricted to zero mean (``_project``).  A^{-1} B^T is
    solved in place with one banded Cholesky factor of A (``_free_velocities``
    order), so a non-SPD A raises LinAlgError.  Raises ValueError, before
    assembling, when B^T and four n_p x n_p arrays would exceed
    ``DENSE_BUDGET_BYTES``.  Diagnostic only; near-zero modes of the
    unstabilized pair are filtered, not judged.
    """
    n_p = dofmap.n_p
    vel = _free_velocities(dofmap)
    _check_dense_budget("infsup_constant", vel.size * n_p + 4 * n_p ** 2)
    a, g, mass, stiff, div = _element_tables(mesh)
    t2 = params.tau2 if stabilized else np.zeros_like(a)
    A = sp.bmat([[assemble_matrix(mesh, _grad_div(a, g, t2, c, cp)
                                  + (stiff + mass if c == cp else 0.0))
                  for cp in range(2)] for c in range(2)], format="csr")
    B = sp.hstack([assemble_matrix(mesh, div[:, c]) for c in range(2)], format="csr")[:, vel]
    Mp = assemble_matrix(mesh, mass)

    S = B @ scipy.linalg.cho_solve_banded(_banded_cholesky(A[vel][:, vel]),
                                          B.toarray().T, overwrite_b=True)
    if stabilized:
        S += assemble_matrix(mesh, params.tau1p[:, None, None] * stiff).toarray()

    v = _mean_reflector(dofmap.mean_vector)
    S = _project(S, v)
    eigs = scipy.linalg.eigh(S, _project(Mp.toarray(), v), eigvals_only=True)
    cutoff = 1e-10 * max(eigs.max(), 1e-300)
    nonzero = eigs[eigs > cutoff]
    if nonzero.size == 0:
        return 0.0
    return float(np.sqrt(nonzero.min()))
