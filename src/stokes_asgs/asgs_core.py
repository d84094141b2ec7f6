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
vectors are summed onto the vertices by ``fem_space.assemble_system``,
``fem_space.assemble_matrix`` and ``fem_space.assemble_vector``.  Moved
to the right-hand side, u_old enters through the step system's own
bilinear form with its u_mid terms at weight alpha - 1, so its action is
one product with the step system built at alpha - 1, once per solve; the
load (d_k and f_mid, which ``step`` forms once) enters by P1 element moments.
The assembled system replaces the Dirichlet velocity rows by identity rows
and appends a single Lagrange multiplier row/column that pins the pressure
mean to zero; this constrained matrix is the assembly contract.  The direct
solver factorizes only the reduced interior system (no Dirichlet rows, no
multiplier, one pressure dof pinned) and recovers the multiplier exactly
(see ``ReducedFactor``).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import linalg
from .fem_space import (assemble_matrix, assemble_system, assemble_vector,
                        quadrature_rule)

ASSEMBLY_QUAD_DEGREE = 5


@dataclass(frozen=True)
class TimeScheme:
    """Theta one-step scheme: theta=1 backward Euler, theta=0 Crank-Nicolson,
    with a finite and positive dt."""

    theta: int
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.theta not in (0, 1):
            raise ValueError(f"theta must be 0 or 1, got {self.theta}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be finite and positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

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
    ValueError unless mu, c1, c2 and dt_eff are finite and positive.
    """
    if not all(v > 0.0 and math.isfinite(v) for v in (mu, c1, c2, dt_eff)):
        raise ValueError("mu, c1, c2 and dt_eff must all be finite and positive")
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
    """Subscale velocity at every assembly quadrature point, shape (m, nq, 2);
    the solver's states are views of (2, m, nq) arrays, contiguous per component."""

    uprime: np.ndarray

    @classmethod
    def zeros(cls, mesh):
        nq = len(quadrature_rule(ASSEMBLY_QUAD_DEGREE).weights)
        return cls(np.moveaxis(np.zeros((2, mesh.n_triangles, nq)), 0, -1))


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


def _step_system(mesh, dofmap, scheme, params, alpha):
    """The constrained step system of ``assemble_system`` with its u_mid
    terms (viscosity, grad-div and the continuity divergence) weighted
    ``alpha``: at the scheme's alpha it acts on the new level
    (``assemble_lhs``), at alpha - 1 on the old one (``assemble_rhs``)."""
    a, g, mass, stiff, div = _element_tables(mesh)
    dt = scheme.dt
    m_w, t1p = params.m_weights, params.tau1p
    # time derivative + viscosity on each velocity component
    diag_block = (params.w_weights / dt)[:, None, None] * mass + (params.mu * alpha) * stiff

    def block(r, c):
        if r < 2 and c < 2:  # velocity-velocity, with grad-div across components
            return _grad_div(a, g, alpha * params.tau2, r, c) + (diag_block if r == c else 0.0)
        if r < 2:  # momentum-pressure: Galerkin -(p, div v) and subscale -m*(grad p, v)
            return (-div[:, r].transpose(0, 2, 1)
                    - (m_w * a / 3.0)[:, None, None] * g[:, None, :, r])
        if c < 2:  # continuity-velocity: (div u_mid, q) and tau1p*(u/dt, grad q)
            return alpha * div[:, c] + (t1p * a / (3.0 * dt))[:, None, None] * g[:, :, c, None]
        return t1p[:, None, None] * stiff  # continuity-pressure: tau1p * pressure Laplacian

    return assemble_system(mesh, dofmap, block)


def assemble_lhs(mesh, dofmap, scheme, params):
    """System matrix for one step, the scipy CSR of ``assemble_system``: the
    Dirichlet velocity rows are identity rows and the mean-pressure
    multiplier row/column is appended; on the free velocity and pressure
    dofs it holds the raw operator.  ``fem_space.assemble_system`` writes the
    nine blocks' element sums straight into the matrix, one block at a time.
    ValueError when ``params`` were built for another dt_eff than the
    scheme's.
    """
    if abs(params.dt_eff - scheme.dt_eff) > 1e-12 * scheme.dt_eff:
        raise ValueError(f"params.dt_eff {params.dt_eff} differs from the "
                         f"scheme's dt_eff {scheme.dt_eff}")
    return _step_system(mesh, dofmap, scheme, params, scheme.alpha)


def _forcing_at(forcing, pts, t):
    """``forcing(x, y, t)`` at the points ``pts``, stacked to (..., 2)."""
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([np.broadcast_to(f, x.shape) for f in forcing(x, y, t)], axis=-1)


def _pointwise(forcing, mesh, t):
    """``forcing`` at time t at the assembly points, as contiguous
    components (2, m, nq)."""
    pts = mesh.quad_points(quadrature_rule(ASSEMBLY_QUAD_DEGREE))
    return np.ascontiguousarray(np.moveaxis(_forcing_at(forcing, pts, t), -1, 0))


def _interval_forcing(forcing, mesh, t_old, t_new, alpha):
    """alpha*f(t_new) + (1-alpha)*f(t_old) at the assembly points, (2, m, nq).

    A separable forcing declares a ``time_factor(t)`` with forcing(x, y, t)
    = time_factor(t) * forcing(x, y, 0).  Its F0 is evaluated once per mesh
    and kept on ``Mesh.table`` under the forcing itself (so it must be
    hashable), without the points it was evaluated at, and an interval is
    one pass over it.  Any other forcing is evaluated pointwise at the
    interval's levels on each call.
    """
    c = getattr(forcing, "time_factor", None)
    if c is not None:
        f0 = mesh.table(("forcing", forcing), lambda mesh: _pointwise(forcing, mesh, 0.0))
        return (alpha * c(t_new) + (1 - alpha) * c(t_old)) * f0
    f = _pointwise(forcing, mesh, t_new)
    if alpha == 1:  # backward Euler gives t_old no weight
        return f
    return alpha * f + (1 - alpha) * _pointwise(forcing, mesh, t_old)


def _gradient(values, g):
    """(d/dx, d/dy) of a P1 field on every element, each (m,), from its
    element values (m, 3) and the shape gradients ``g`` (m, 3, 2)."""
    return [values[:, 0] * g[:, 0, e] + values[:, 1] * g[:, 1, e] + values[:, 2] * g[:, 2, e]
            for e in range(2)]


def assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, f_mid,
                 old_action=None):
    """Right-hand side for the step starting from ``state_n``.

    The old level enters through ``old_action``, the step system at
    alpha - 1 (``_step_system``), applied to [u1, u2, 0, 0] of ``state_n``;
    it is built here when not given.  The load, the step's interval forcing
    ``f_mid`` (2, m, nq) at the assembly points plus the subscale history
    uprime^n/dt_eff, enters through its P1 element moments.
    """
    if old_action is None:
        old_action = _step_system(mesh, dofmap, scheme, params, scheme.alpha - 1)
    a, g = mesh.areas, mesh.shape_gradients
    w_a, t1p_a = params.w_weights * a, params.tau1p * a
    rule = quadrature_rule(ASSEMBLY_QUAD_DEGREE)
    moments = rule.weights[:, None] * rule.points  # (nq, 3), per unit area

    parts, cont = [], 0.0
    for c in range(2):
        load = subscale_n.uprime[..., c] / scheme.dt_eff
        load += f_mid[c]
        parts.append(assemble_vector(mesh, w_a[:, None] * (load @ moments)))
        # continuity rows: tau1p (f + d, grad q)
        cont = cont + g[:, :, c] * (t1p_a * (load @ rule.weights))[:, None]
    rhs = old_action @ np.concatenate([state_n.u1, state_n.u2, np.zeros(dofmap.n_p + 1)])
    rhs += np.concatenate(parts + [assemble_vector(mesh, cont), [0.0]])  # multiplier row 0
    rhs[dofmap.dirichlet_dofs] = 0.0
    return rhs


def update_subscales(mesh, state_new, state_old, subscale_n, scheme, params, f_mid):
    """Advance the subscale history one step.

    At every assembly quadrature point the step solves for the interval
    subscale uprime_mid = tau1p * (R1 + uprime_old/dt_eff) with the momentum
    residual R1 = f_mid - (u_new - u_old)/dt - grad p (P1 fields carry no
    Laplacian), and returns the end-level history
    uprime_new = (uprime_mid - (1 - alpha)*uprime_old)/alpha, that is
    A*R1 + B*uprime_old with A = tau1p/alpha and
    B = (tau1p/dt_eff - (1 - alpha))/alpha per element.  For backward Euler
    (alpha = 1) the two levels coincide.  ``f_mid`` is the step's interval
    forcing, as in ``assemble_rhs``.
    """
    tri, dt, alpha = mesh.triangles, scheme.dt, scheme.alpha
    # (3, nq), contiguous: a BLAS product with a transposed view is slower
    to_points = np.ascontiguousarray(quadrature_rule(ASSEMBLY_QUAD_DEGREE).points.T)
    grad_p = _gradient(state_new.p[tri], mesh.shape_gradients)
    A = (params.tau1p / alpha)[:, None]
    B = ((params.tau1p / scheme.dt_eff - (1 - alpha)) / alpha)[:, None]
    uprime = np.empty(f_mid.shape)
    for c, (new, old) in enumerate(((state_new.u1, state_old.u1),
                                    (state_new.u2, state_old.u2))):
        resid = ((new - old) / dt)[tri] @ to_points
        np.subtract(f_mid[c], resid, out=resid)
        resid -= grad_p[c][:, None]
        resid *= A
        np.multiply(B, subscale_n.uprime[..., c], out=uprime[c])
        uprime[c] += resid
    return SubscaleState(np.moveaxis(uprime, 0, -1))


class ReducedFactor:
    """Direct solver of the constrained system through its interior system.

    The constrained matrix K keeps the Dirichlet identity rows and the dense
    mean-pressure multiplier row and column, which wreck the sparse LU
    ordering.  Only the interior system is factorized: the Dirichlet rows
    and columns and the multiplier are dropped, and the first pressure dof
    is pinned (its column and its continuity row are dropped).  This is
    exact: constants span the pressure kernel of the interior operator and
    its continuity rows sum to zero, so summing the continuity rows of
    K x = b gives lambda * sum(mean_vector) = the sum of the continuity
    right-hand side.  With lambda known the pinned system has a unique
    solution, whose pressure is then shifted to zero mean.  A right-hand
    side with nonzero Dirichlet entries is solved as if its interior rows
    carried no lift; the refinement in ``solve`` recovers the lift.  The LU
    takes the kept dofs as (u1, u2, p) per vertex in ``elimination_order``.
    """

    def __init__(self, matrix, dofmap):
        self.matrix = matrix
        self.dirichlet = dofmap.dirichlet_dofs
        self.mean = dofmap.mean_vector
        self.p_block = slice(2 * dofmap.n_u, dofmap.multiplier_index)
        self.multiplier = dofmap.multiplier_index
        free = dofmap.free_dofs
        self.kept = free[free != self.p_block.start]  # the first pressure is pinned
        self.factor = linalg.DirectFactor(
            linalg.SparseMatrix(matrix[self.kept][:, self.kept]))

    def _solve_once(self, rhs):
        """K^{-1} rhs through one back-solve of the interior factor."""
        x = np.zeros(rhs.shape)
        x[self.dirichlet] = rhs[self.dirichlet]
        b = rhs[:self.multiplier].copy()
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
            r = rhs - self.matrix @ x
            res = np.linalg.norm(r) / (np.linalg.norm(rhs) or 1.0)
            if res <= linalg.DIRECT_RESIDUAL_TOL:  # False for nan too
                return x
        raise linalg.SingularMatrixError(
            f"direct solve residual {res:.3e} exceeds "
            f"{linalg.DIRECT_RESIDUAL_TOL:.0e}")


def step(mesh, dofmap, state_n, subscale_n, scheme, params, forcing, factor=None,
         old_action=None):
    """Advance one time step; returns (state_{n+1}, subscale_{n+1}).

    ``factor`` is the step matrix's ``ReducedFactor``, ``old_action`` the old
    level's action of ``assemble_rhs``, each built when not given, the factor
    first; f_mid, the interval forcing, is evaluated once for both kernels.
    """
    if factor is None:
        factor = ReducedFactor(assemble_lhs(mesh, dofmap, scheme, params), dofmap)
    f_mid = _interval_forcing(forcing, mesh, state_n.t, state_n.t + scheme.dt, scheme.alpha)
    rhs = assemble_rhs(mesh, dofmap, state_n, subscale_n, scheme, params, f_mid, old_action)
    x = factor.solve(rhs)

    n_u, n_p = dofmap.n_u, dofmap.n_p
    state_new = FieldState(u1=x[:n_u], u2=x[n_u:2 * n_u],
                           p=x[2 * n_u:2 * n_u + n_p], t=state_n.t + scheme.dt)
    subscale_new = update_subscales(mesh, state_new, state_n, subscale_n,
                                    scheme, params, f_mid)
    return state_new, subscale_new


def solve_transient(mesh, dofmap, scheme, params, forcing, initial,
                    observer=None):
    """Run the time loop from ``initial`` over ``scheme.n_steps`` steps and
    return the final ``FieldState``.

    The observer, if given, is called as observer(n, state, subscale) for
    n = 0 (initial data) through n_steps; it accumulates norms, or collects
    the trajectory, along the loop.  Step failures are re-raised as
    StepFailureError carrying the 1-based failing step index.  The step
    factor and the old level's action of ``assemble_rhs`` are built once,
    the action after the factor, so that it takes the memory the factor's
    reduced matrix freed; the forcing is as in ``_interval_forcing``.  The
    factor's budget is checked before the observer or any assembly runs.
    """
    linalg.check_factor_budget(dofmap.free_dofs.size - 1, 1)  # a pinned pressure
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
    old_action = _step_system(mesh, dofmap, scheme, params, scheme.alpha - 1)
    for n in range(1, scheme.n_steps + 1):
        try:
            state, subscale = step(mesh, dofmap, state, subscale, scheme, params,
                                   forcing, factor, old_action)
        except linalg.SingularMatrixError as exc:
            raise StepFailureError(n, str(exc)) from exc
        if observer is not None:
            observer(n, state, subscale)
    return state


# beta_h^2 is a ratio of the H1 velocity and L2 pressure Gram forms, at most
# 2 for the Galerkin pair, so an inf-sup eigenvalue within this of 0 is a
# zero mode: the constant, plus 7 spurious modes when unstabilized.
INFSUP_ZERO_TOL = 1e-10
INFSUP_K = 10  # more than those 8 zero modes


def _nearest_eigenvalues(K, M, sigma, k, n_negative):
    """The k eigenvalues nearest ``sigma`` of K x = lam M x, K symmetric and
    M block-diagonal positive semi-definite, by shift-invert Lanczos (ARPACK,
    fixed start vector) with k and the basis kept within rank(M).

    K - sigma M is factored once by LU with diagonal pivots in the caller's
    order, an LDL^T factor whose diag(U) holds the inertia; LinAlgError
    unless the pivots stayed diagonal and ``n_negative`` are negative.
    Reading ``lu.U`` makes SuperLU build and keep a CSC copy of the factor,
    and scipy exposes the pivots no other way, so the factor is held twice.
    """
    lu = spla.splu((K - sigma * M).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    negative = np.count_nonzero(lu.U.diagonal() < 0.0)
    if not np.array_equal(lu.perm_r, lu.perm_c) or negative != n_negative:
        raise np.linalg.LinAlgError(
            f"shifted pencil has {negative} negative pivots, expected {n_negative}")
    rank = np.count_nonzero(M.diagonal())
    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    return spla.eigsh(K, min(k, rank - 1), M=M, sigma=sigma, v0=v0,
                      ncv=min(rank, max(2 * k + 1, 20)), return_eigenvectors=False,
                      OPinv=spla.LinearOperator(K.shape, lu.solve, dtype=float))


def coercivity_check(mesh, dofmap, params, dt):
    """Least x^T S x / x^T x over the free velocities and zero-mean pressures.

    S = (A + A^T)/2 for the raw backward-Euler operator A at ``dt``, which
    must be finite, positive and equal ``params.dt_eff`` (ValueError from
    ``TimeScheme`` and ``assemble_lhs``), on ``dofmap.free_dofs``, where the
    step matrix holds A.  That is the least eigenvalue of the pencil
    [[S, m], [m^T, 0]] x = lam diag(I, 0) x: the symmetric part of the step
    matrix on those dofs and the multiplier, whose row is the mean vector m.
    Shifted by sigma < 0 it has one negative pivot unless S has an
    admissible eigenvalue below sigma (LinAlgError).  ValueError, before
    assembling, when ``linalg.check_factor_budget`` refuses two copies of
    the pencil's factor (``_nearest_eigenvalues`` holds two), from nx=248
    on the unit square.
    """
    dofs = np.append(dofmap.free_dofs, dofmap.multiplier_index)
    linalg.check_factor_budget(dofs.size, 2)
    K = assemble_lhs(mesh, dofmap, TimeScheme(theta=1, dt=dt, n_steps=1),
                     params)[dofs][:, dofs]
    M = sp.diags(np.append(np.ones(dofs.size - 1), 0.0))
    return float(_nearest_eigenvalues(0.5 * (K + K.T), M, -1e-6, 1, 1)[0])


def infsup_constant(mesh, dofmap, stabilized, params):
    """Discrete inf-sup constant beta_h.

    beta_h^2 is the least nonzero eigenvalue of (B A^{-1} B^T + C) p =
    mu M_p p: A the velocity H1 operator (plus grad-div when ``stabilized``)
    on the free velocities, B the divergence, C the pressure-Laplacian block
    when ``stabilized`` (else 0), M_p the pressure mass matrix.  So it is
    -lam of the pencil [[A, B^T], [B, -C]] x = lam diag(0, M_p) x on the
    ``dofmap.free_dofs``; shifted by sigma > 0 that is quasi-definite with n_p
    negative pivots (else LinAlgError), and its eigenvalues nearest sigma
    are the zero modes, then -beta_h^2.  LinAlgError when all k found are
    zero modes; ValueError, before assembling, when
    ``linalg.check_factor_budget`` refuses two copies of the pencil's factor
    (``_nearest_eigenvalues`` holds two), from nx=248 on the unit square.
    The Dirichlet identity rows and the multiplier border that
    ``assemble_system`` writes into K lie off ``dofmap.free_dofs``.
    """
    dofs = dofmap.free_dofs
    linalg.check_factor_budget(dofs.size, 2)
    a, g, mass, stiff, div = _element_tables(mesh)
    t2 = params.tau2 if stabilized else np.zeros_like(a)
    t1p = params.tau1p if stabilized else np.zeros_like(a)

    def block(r, c):  # [[A, B^T], [B, -C]]
        if r < 2 and c < 2:
            return _grad_div(a, g, t2, r, c) + (stiff + mass if r == c else 0.0)
        if r < 2:
            return div[:, r].transpose(0, 2, 1)
        return div[:, c] if c < 2 else -t1p[:, None, None] * stiff

    K = assemble_system(mesh, dofmap, block)
    M = sp.block_diag([sp.csr_matrix((2 * dofmap.n_u,) * 2),
                       assemble_matrix(mesh, mass)], format="csr")
    # a shift below 0 would mix the zero cluster with -beta_h^2
    eigs = _nearest_eigenvalues(K[dofs][:, dofs], M[dofs][:, dofs], 1e-6, INFSUP_K,
                                dofmap.n_p)
    nonzero = eigs[eigs < -INFSUP_ZERO_TOL]
    if nonzero.size == 0:
        raise np.linalg.LinAlgError(f"all {eigs.size} eigenvalues found are zero modes")
    return float(np.sqrt(-nonzero.max()))
