import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_asgs import build_dofmap, build_unit_square_mesh, interpolate
from stokes_asgs import asgs_core, linalg
from stokes_asgs.asgs_core import (FieldState, StabilizationParams,
                                   ReducedFactor, StepFailureError,
                                   SubscaleState, TimeScheme, _element_tables,
                                   _taus, assemble_lhs, assemble_rhs,
                                   coercivity_check, infsup_constant,
                                   solve_transient, step, update_subscales)
from stokes_asgs.fem_space import assemble_matrix, quadrature_rule
from stokes_asgs.manufactured import (ManufacturedForcing, exact_velocity,
                                      forcing)

from oracle_dense import dense_assemble

MU, C1, C2 = 0.1, 4.0, 2.0


def _forcing_fn(mu=MU):
    return lambda x, y, t: forcing(x, y, t, mu)


def _initial_state(mesh, t=0.0):
    u1 = interpolate(lambda x, y: exact_velocity(x, y, t)[0], mesh)
    u2 = interpolate(lambda x, y: exact_velocity(x, y, t)[1], mesh)
    return FieldState(u1, u2, np.zeros(mesh.n_vertices), t)


def _f_mid(fn, mesh, state_n, scheme):
    """The interval forcing that ``step`` hands both of its kernels."""
    return asgs_core._interval_forcing(fn, mesh, state_n.t, state_n.t + scheme.dt,
                                       scheme.alpha)


def _load(fn, mesh, state_n, sub_n, scheme):
    """The load that ``step`` hands ``assemble_rhs``: (u_old + uprime^n)/dt_eff
    at the assembly points plus the interval forcing of ``fn``, (2, m, nq)."""
    points = quadrature_rule(asgs_core.ASSEMBLY_QUAD_DEGREE).points
    u_old = np.stack([u[mesh.triangles] @ points.T for u in (state_n.u1, state_n.u2)])
    return ((u_old + np.moveaxis(sub_n.uprime, -1, 0)) / scheme.dt_eff
            + _f_mid(fn, mesh, state_n, scheme))


def _rhs(mesh, dofmap, state_n, sub_n, scheme, params, fn):
    """``assemble_rhs`` handed the load."""
    return assemble_rhs(mesh, dofmap, params, _load(fn, mesh, state_n, sub_n, scheme))


def _interval_oracle(mesh, dofmap, state_n, sub_n, scheme, params, fn):
    """``dense_assemble`` of a step's interval system: backward Euler at
    dt_eff, with ``fn`` held in t at its interval value
    alpha*fn(t_n + dt) + (1 - alpha)*fn(t_n)."""
    alpha, t = scheme.alpha, state_n.t

    def f_mid(x, y, _):
        return tuple(alpha * new + (1 - alpha) * old
                     for new, old in zip(fn(x, y, t + scheme.dt), fn(x, y, t)))

    euler = TimeScheme(theta=1, dt=scheme.dt_eff, n_steps=1)
    return dense_assemble(mesh, dofmap, state_n, sub_n, euler, params, f_mid)


def _random_state(mesh, seed=0, t=0.3):
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    return FieldState(rng.standard_normal(n), rng.standard_normal(n),
                      rng.standard_normal(n), t)


# ---------------------------------------------------------------- taus

def test_taus_values():
    # diameter h = 0.1 for the hand-computed values
    tau1, tau2, tau1p = _taus(0.1, MU, C1, C2, dt_eff=0.1)
    assert tau1 == pytest.approx(0.1 ** 2 / (C1 * MU), abs=1e-16)  # 0.025
    # grad-div weight carries the extra h^2 (bounded in h); see _taus
    assert tau2 == pytest.approx(C2 * 0.1 ** 2 / 0.025, abs=1e-15)  # 0.8
    assert tau1p == pytest.approx(0.025 * 0.1 / (0.1 + 0.025), abs=1e-16)


def test_tau1p_large_dt_limit():
    tau1, _, tau1p = _taus(0.1, MU, C1, C2, dt_eff=1e12)
    assert tau1p == pytest.approx(tau1, rel=1e-10)


def test_tau_invariants():
    mesh = build_unit_square_mesh(6)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    assert np.all(params.tau1 > 0) and np.all(params.tau2 > 0)
    assert np.all(params.tau1p < np.minimum(params.tau1, 0.05))
    assert np.allclose(params.m_weights + params.w_weights, 1.0)


def test_taus_rejects_nonpositive():
    non_finite = [{key: v} for key in ("mu", "c1", "c2", "dt_eff")
                  for v in (np.nan, np.inf)]
    for bad in [dict(mu=0.0), dict(c1=-1.0), dict(c2=0.0), dict(dt_eff=0.0)] + non_finite:
        kw = dict(mu=MU, c1=C1, c2=C2, dt_eff=0.1)
        kw.update(bad)
        with pytest.raises(ValueError):
            _taus(0.1, **kw)


def test_time_scheme_validation():
    with pytest.raises(ValueError):
        TimeScheme(theta=0.5, dt=0.1, n_steps=1)
    for dt in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            TimeScheme(theta=1, dt=dt, n_steps=1)
    with pytest.raises(ValueError):
        TimeScheme(theta=1, dt=0.1, n_steps=0)
    s = TimeScheme(theta=0, dt=0.2, n_steps=5)
    assert s.dt_eff == pytest.approx(0.1)


# ---------------------------------------------------- element matrices

def test_local_mass_matrix():
    mesh = build_unit_square_mesh(3)
    area = mesh.areas[4]
    mass = _element_tables(mesh)[2][4]
    expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    assert np.abs(mass - expected).max() < 1e-16
    assert np.allclose(mass.sum(axis=1), area / 3.0)


def test_local_stiffness_unit_right_triangle():
    from stokes_asgs.mesh import Mesh
    tri = Mesh(1, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
               np.array([[0, 1, 2], [1, 3, 2]]))
    stiff = _element_tables(tri)[3][0]
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.abs(stiff - expected).max() < 1e-15


def test_local_div_coupling():
    mesh = build_unit_square_mesh(2)
    area, g = mesh.areas[0], mesh.shape_gradients[0]
    div = _element_tables(mesh)[4][0]
    for c in range(2):
        for i in range(3):
            for j in range(3):
                assert div[c, i, j] == pytest.approx(area / 3.0 * g[j, c], abs=1e-16)


# ------------------------------------------------------ assembly oracle

@pytest.mark.parametrize("theta", [1, 0])
def test_assembly_matches_dense_oracle(theta):
    mesh = build_unit_square_mesh(2)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    state = _random_state(mesh, seed=7)
    rng = np.random.default_rng(8)
    sub = SubscaleState(rng.standard_normal((mesh.n_triangles, 7, 2)))
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    rhs = _rhs(mesh, dofmap, state, sub, scheme, params, _forcing_fn())
    A_ref, b_ref = _interval_oracle(mesh, dofmap, state, sub, scheme, params, _forcing_fn())
    assert np.abs(matrix.toarray() - A_ref).max() < 1e-12
    assert np.abs(rhs - b_ref).max() < 1e-12


def test_galerkin_switch_matches_oracle():
    _check_galerkin_against_oracle(theta=1)


def test_galerkin_switch_matches_oracle_crank_nicolson():
    # at theta = 0 the interval system is backward Euler at dt/2
    _check_galerkin_against_oracle(theta=0)


def _check_galerkin_against_oracle(theta):
    mesh = build_unit_square_mesh(2)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff,
                                          stabilized=False)
    state = _random_state(mesh, seed=3)
    sub = SubscaleState.zeros(mesh)
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    rhs = _rhs(mesh, dofmap, state, sub, scheme, params, _forcing_fn())
    A_ref, b_ref = _interval_oracle(mesh, dofmap, state, sub, scheme, params, _forcing_fn())
    assert np.abs(matrix.toarray() - A_ref).max() < 1e-12
    assert np.abs(rhs - b_ref).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 3), theta=st.sampled_from([0, 1]),
       dt=st.floats(1e-3, 1.0), mu=st.floats(1e-2, 1.0),
       c1=st.floats(1.0, 20.0), c2=st.floats(0.1, 5.0),
       separable=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_rhs_matches_dense_oracle(nx, theta, dt, mu, c1, c2, separable, seed):
    # the load's moments against the oracle's element loops
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, scheme.dt_eff)
    state, sub = _random_step_inputs(mesh, np.random.default_rng(seed))
    fn = ManufacturedForcing(mu) if separable else _forcing_fn(mu)
    rhs = _rhs(mesh, dofmap, state, sub, scheme, params, fn)
    _, b_ref = _interval_oracle(mesh, dofmap, state, sub, scheme, params, _forcing_fn(mu))
    assert np.abs(rhs - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


def test_solve_assembles_one_system_and_one_factor(monkeypatch):
    # the step matrix and its factor, once per solve and once per bare step:
    # the right-hand side is the load's moments, with no second system
    calls = []
    system, factor_init = asgs_core.assemble_system, linalg.DirectFactor.__init__
    monkeypatch.setattr(asgs_core, "assemble_system",
                        lambda *args: calls.append("system") or system(*args))
    monkeypatch.setattr(linalg.DirectFactor, "__init__",
                        lambda *args: calls.append("factor") or factor_init(*args))
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=0, dt=0.1, n_steps=4)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    solve_transient(mesh, dofmap, scheme, params, _forcing_fn(), _initial_state(mesh))
    assert calls == ["system", "factor"]
    calls.clear()
    step(mesh, dofmap, _initial_state(mesh), SubscaleState.zeros(mesh), scheme, params,
         _forcing_fn())
    assert calls == ["system", "factor"]


def test_assemble_rhs_assembles_no_system(monkeypatch):
    # the kernel takes the load's moments and nothing else
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=0, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    state, sub = _random_step_inputs(mesh, np.random.default_rng(9))
    load = _load(_forcing_fn(), mesh, state, sub, scheme)

    def refuse(*args):
        raise AssertionError("assemble_rhs assembled a system")

    monkeypatch.setattr(asgs_core, "assemble_system", refuse)
    rhs = assemble_rhs(mesh, dofmap, params, load)
    _, b_ref = _interval_oracle(mesh, dofmap, state, sub, scheme, params, _forcing_fn())
    assert np.abs(rhs - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


def test_stabilization_vanishes_for_huge_c1():
    # tau1 ~ 1/c1 and the grad-div weight is scaled down with it, so the
    # assembled operator approaches plain Galerkin entrywise at rate 1/c1
    # (the measured remainder at c1=4e6 is 3.0e-6, dominated by the
    # m-weighted mass diagonal)
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    galerkin = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff,
                                            stabilized=False)
    G = assemble_lhs(mesh, dofmap, scheme, galerkin).toarray()
    scale = np.abs(G).max()

    def remainder(big_c1):
        params = StabilizationParams.for_mesh(mesh, MU, big_c1,
                                              C2 / big_c1 ** 2, scheme.dt_eff)
        A = assemble_lhs(mesh, dofmap, scheme, params).toarray()
        return np.abs(A - G).max() / scale

    r6 = remainder(4e6)
    assert r6 < 5e-6
    assert remainder(4e7) < r6 / 5.0


# ------------------------------------------------------------- stepping

def test_zero_problem_stays_zero():
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=5)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                      np.zeros(mesh.n_vertices), 0.0)
    final = solve_transient(mesh, dofmap, scheme, params,
                            lambda x, y, t: (0.0 * x, 0.0 * x), zero)
    assert np.abs(final.u1).max() == 0.0
    assert np.abs(final.u2).max() == 0.0
    assert np.abs(final.p).max() == 0.0


def test_single_step_constraints():
    mesh = build_unit_square_mesh(10)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    state, sub = step(mesh, dofmap, _initial_state(mesh), SubscaleState.zeros(mesh),
                      scheme, params, _forcing_fn())
    assert np.all(np.isfinite(state.u1)) and np.all(np.isfinite(state.p))
    boundary = np.flatnonzero(mesh.boundary_mask)
    assert np.abs(state.u1[boundary]).max() == 0.0
    assert np.abs(state.u2[boundary]).max() == 0.0
    assert abs(dofmap.mean_vector @ state.p) < 1e-9
    assert np.all(np.isfinite(sub.uprime))


def test_constraints_preserved_over_run():
    mesh = build_unit_square_mesh(6)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=0, dt=0.1, n_steps=10)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    boundary = np.flatnonzero(mesh.boundary_mask)

    def observer(n, state, sub):
        assert np.abs(state.u1[boundary]).max() == 0.0
        assert np.abs(state.u2[boundary]).max() == 0.0
        if n > 0:
            assert abs(dofmap.mean_vector @ state.p) < 1e-9

    solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                    _initial_state(mesh), observer=observer)


def test_one_step_consistency_orders():
    # one tiny backward-Euler step from the exact interpolant; the L2 gap
    # to the exact solution shrinks markedly under mesh refinement
    errs = {}
    for nx in (4, 8, 16):
        mesh = build_unit_square_mesh(nx)
        dofmap = build_dofmap(mesh)
        scheme = TimeScheme(theta=1, dt=1e-4, n_steps=1)
        params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
        state, _ = step(mesh, dofmap, _initial_state(mesh),
                        SubscaleState.zeros(mesh), scheme, params, _forcing_fn())
        rule = quadrature_rule(8)
        pts = mesh.quad_points(rule)
        tri = mesh.triangles
        u1q = np.einsum("qi,ki->kq", rule.points, state.u1[tri])
        u2q = np.einsum("qi,ki->kq", rule.points, state.u2[tri])
        e1, e2 = exact_velocity(pts[..., 0], pts[..., 1], state.t)
        dens = (u1q - e1) ** 2 + (u2q - e2) ** 2
        errs[nx] = np.sqrt(np.einsum("k,kq,q->", mesh.areas, dens, rule.weights))
    assert errs[8] < errs[4] / 1.9
    assert errs[16] < errs[8] / 1.9
    assert errs[16] < 1e-3


def test_temporal_self_convergence_backward_euler():
    mesh = build_unit_square_mesh(8)
    dofmap = build_dofmap(mesh)
    finals = {}
    for dt in (0.1, 0.05, 0.025, 0.0125):
        scheme = TimeScheme(theta=1, dt=dt, n_steps=round(1.0 / dt))
        params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
        finals[dt] = solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                                     _initial_state(mesh))

    def gap(a, b):
        return np.hypot(a.u1 - b.u1, a.u2 - b.u2).max()

    d1 = gap(finals[0.1], finals[0.05])
    d2 = gap(finals[0.05], finals[0.025])
    d3 = gap(finals[0.025], finals[0.0125])
    assert 1.5 < d1 / d2 < 2.5
    assert 1.5 < d2 / d3 < 2.5


@pytest.mark.parametrize("theta,forcing_fn", [
    pytest.param(theta, fn, id=f"{theta}{suffix}")
    for suffix, fn in (("", _forcing_fn()), ("-separable", ManufacturedForcing(MU)))
    for theta in (1, 0)])
def test_single_step_run_equals_step(theta, forcing_fn):
    # a bare step builds its factor as the solve does, so the two agree
    # bitwise
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    init, subscales = _initial_state(mesh), []
    final = solve_transient(mesh, dofmap, scheme, params, forcing_fn, init,
                            observer=lambda n, state, sub: subscales.append(sub))
    direct, sub = step(mesh, dofmap, init, SubscaleState.zeros(mesh), scheme,
                       params, forcing_fn)
    for got, want in ((direct.u1, final.u1), (direct.u2, final.u2), (direct.p, final.p),
                      (sub.uprime, subscales[-1].uprime)):
        assert got.tobytes() == want.tobytes()


def test_solve_transient_history_and_observer():
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.25, n_steps=4)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    seen, hist = [], []

    def observer(n, s, u):
        seen.append((n, s.t))
        hist.append(s)

    final = solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                            _initial_state(mesh), observer=observer)
    assert len(hist) == 5
    assert seen == [(n, pytest.approx(0.25 * n)) for n in range(5)]
    lean = solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                           _initial_state(mesh))
    assert final is hist[-1]
    assert np.allclose(lean.u1, hist[-1].u1)


def test_step_failure_carries_index():
    mesh = build_unit_square_mesh(10)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=3)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff,
                                          stabilized=False)
    with pytest.raises(StepFailureError) as info:
        solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                        _initial_state(mesh))
    assert info.value.step == 1


def test_step_failure_at_a_later_step_carries_its_index(third_solve_fails):
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=4)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    with pytest.raises(StepFailureError) as info:
        solve_transient(mesh, dofmap, scheme, params, _forcing_fn(), _initial_state(mesh))
    assert info.value.step == 3


def test_step_factor_refused_over_budget(monkeypatch):
    # the size is refused from the predicted fill, before the observer, the
    # assembly or SuperLU runs
    mesh = build_unit_square_mesh(8)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=3)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    rows = 2 * 7 ** 2 + 9 ** 2 - 1  # one pressure is pinned
    need = linalg.FACTOR_ENTRY_BYTES * linalg.predicted_fill(rows)

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} over the budget")
        return call

    with monkeypatch.context() as patch:
        patch.setattr(linalg.spla, "splu", refuse("factored"))
        patch.setattr(asgs_core, "assemble_system", refuse("assembled"))
        patch.setattr(linalg, "FACTOR_BUDGET_BYTES", need - 1)
        with pytest.raises(ValueError) as info:
            solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                            _initial_state(mesh), observer=refuse("observed"))
    assert f"budget of {need - 1} bytes" in str(info.value)
    assert str(need) in str(info.value)
    # the unstabilized systems still fail in the factorization itself
    for nx in (10, 20):
        mesh = build_unit_square_mesh(nx)
        dofmap = build_dofmap(mesh)
        loose = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff,
                                             stabilized=False)
        with pytest.raises(StepFailureError, match="Factor is exactly singular"):
            solve_transient(mesh, dofmap, scheme, loose, _forcing_fn(),
                            _initial_state(mesh))


def test_determinism_bitwise():
    mesh = build_unit_square_mesh(5)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.2, n_steps=5)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    runs = []
    for _ in range(2):
        runs.append(solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                                    _initial_state(mesh)))
    assert np.array_equal(runs[0].u1, runs[1].u1)
    assert np.array_equal(runs[0].u2, runs[1].u2)
    assert np.array_equal(runs[0].p, runs[1].p)


def test_coercivity_check_determinism_bitwise():
    # ARPACK starts from a fixed vector, not a random one; at this small
    # viscosity the velocity modes hold the minimum
    import scipy.linalg
    mesh = build_unit_square_mesh(16)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, 1e-3, C1, C2, dt_eff=1.0)
    values = {coercivity_check(mesh, dofmap, params, dt=1.0) for _ in range(5)}
    assert len(values) == 1
    S = _coercivity_null_space_reference(mesh, dofmap, params, dt=1.0)
    n_free = 2 * 15 ** 2
    S_u, S_p = S[:n_free, :n_free], S[n_free:, n_free:]
    lam = values.pop()
    assert lam == pytest.approx(scipy.linalg.eigvalsh(S_u).min(), rel=1e-10)
    assert lam < scipy.linalg.eigvalsh(S_p).min()


def _random_step_inputs(mesh, rng):
    # random nodal state (boundary velocities included, so the continuity
    # right-hand side does not sum to zero under theta=0), subscale history
    # and start time
    state = FieldState(*rng.standard_normal((3, mesh.n_vertices)),
                       t=float(rng.uniform(0.0, 1.0)))
    sub = SubscaleState(rng.standard_normal(SubscaleState.zeros(mesh).uprime.shape))
    return state, sub


# the separable forcing takes the solver's once-per-mesh path; the oracle
# evaluates every forcing pointwise
@pytest.mark.parametrize("theta,forcing_fn", [
    pytest.param(theta, fn, id=f"{theta}{suffix}")
    for suffix, fn in (("", _forcing_fn()), ("-separable", ManufacturedForcing(MU)))
    for theta in (1, 0)])
def test_step_matches_dense_oracle(theta, forcing_fn):
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    state, sub = _random_step_inputs(mesh, np.random.default_rng(21 + theta))
    new, _ = step(mesh, dofmap, state, sub, scheme, params, forcing_fn)
    A, b = dense_assemble(mesh, dofmap, state, sub, scheme, params, _forcing_fn())
    x = np.linalg.solve(A, b)
    got = np.concatenate([new.u1, new.u2, new.p])
    assert np.abs(got - x[:got.size]).max() <= 1e-10 * max(1.0, np.abs(x).max())
    assert abs(dofmap.mean_vector @ new.p) <= 1e-12


@pytest.mark.parametrize("theta,calls", [(1, 1), (0, 2)])
def test_step_evaluates_a_plain_forcing_once_per_level(theta, calls):
    # the interval forcing is formed once per step and handed to both the
    # right-hand side and the subscale update: backward Euler reads f at
    # t_n + dt only, Crank-Nicolson at both ends of the interval
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    state, sub = _random_step_inputs(mesh, np.random.default_rng(5))
    times, fn = [], _forcing_fn()
    step(mesh, dofmap, state, sub, scheme, params,
         lambda x, y, t: times.append(t) or fn(x, y, t))
    assert sorted(times) == [state.t, state.t + scheme.dt][2 - calls:]


def _reference_subscale(mesh, state_n, state_np1, sub_n, scheme, params, fn):
    """A*(f_mid - du - grad p) + B*uprime^n at the degree-5 points, with
    A = tau1p/alpha and B = (tau1p/dt_eff - (1 - alpha))/alpha: f_mid from
    ``fn`` at both ends of the interval at the points placed from the
    vertex coordinates, du interpolated there, and grad p solved per
    element from E grad = the pressure rises along the two edges E leaving
    the first vertex."""
    rule = quadrature_rule(asgs_core.ASSEMBLY_QUAD_DEGREE)
    tri, alpha, dt = mesh.triangles, scheme.alpha, scheme.dt
    corners = mesh.vertices[tri]  # (m, 3, 2)
    pts = np.einsum("qi,kid->kqd", rule.points, corners)
    f_mid = sum(w * np.stack(fn(pts[..., 0], pts[..., 1], t), axis=-1)
                for w, t in ((alpha, state_n.t + dt), (1 - alpha, state_n.t)))
    du = np.stack([((new - old) / dt)[tri] @ rule.points.T for new, old in
                   ((state_np1.u1, state_n.u1), (state_np1.u2, state_n.u2))], axis=-1)
    edges = corners[:, 1:] - corners[:, :1]
    rise = state_np1.p[tri[:, 1:]] - state_np1.p[tri[:, :1]]
    grad_p = np.linalg.solve(edges, rise[..., None])[..., 0]  # (m, 2)
    A = (params.tau1p / alpha)[:, None, None]
    B = ((params.tau1p / scheme.dt_eff - (1 - alpha)) / alpha)[:, None, None]
    return A * (f_mid - du - grad_p[:, None, :]) + B * sub_n.uprime


@pytest.mark.parametrize("theta", [1, 0])
def test_step_subscale_matches_pointwise_reference(theta):
    # the subscale that step returns is the update driven by the interval
    # forcing at both ends of the step's own interval, and update_subscales
    # takes that forcing as values at the assembly points
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    state, sub = _random_step_inputs(mesh, np.random.default_rng(31 + theta))
    fn = _forcing_fn()
    new, got = step(mesh, dofmap, state, sub, scheme, params, fn)
    want = _reference_subscale(mesh, state, new, sub, scheme, params, fn)
    assert np.abs(got.uprime - want).max() <= 1e-13 * np.abs(want).max()
    again = update_subscales(mesh, new, state, sub, scheme, params,
                             _f_mid(fn, mesh, state, scheme))
    assert again.uprime.tobytes() == got.uprime.tobytes()


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 6), theta=st.sampled_from([0, 1]),
       dt=st.floats(1e-3, 1.0), mu=st.floats(1e-2, 1.0),
       c1=st.floats(1.0, 20.0), c2=st.floats(0.1, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_solve_equals_dense_multiplier_system(nx, theta, dt, mu, c1, c2, seed):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, scheme.dt_eff)
    state, sub = _random_step_inputs(mesh, np.random.default_rng(seed))
    # the oracle's theta system has u_new as its unknown and zero on its
    # Dirichlet rows, so it checks the extrapolation from u_mid and the
    # (1 - alpha)*u_old that the step writes on those rows
    fn = _forcing_fn(mu)
    A, b = dense_assemble(mesh, dofmap, state, sub, scheme, params, fn)
    dense = np.linalg.solve(A, b)
    scale = max(1.0, np.abs(dense).max())

    new, _ = step(mesh, dofmap, state, sub, scheme, params, fn)
    got = np.concatenate([new.u1, new.u2, new.p])
    assert np.abs(got - dense[:got.size]).max() <= 1e-9 * scale
    rhs = _rhs(mesh, dofmap, state, sub, scheme, params, fn)
    boundary = dofmap.dirichlet_dofs
    rhs[boundary] = (1 - scheme.alpha) * np.concatenate([state.u1, state.u2])[boundary]
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    lam = ReducedFactor(matrix, dofmap).solve(rhs)[dofmap.multiplier_index]
    assert abs(lam - dense[dofmap.multiplier_index]) <= 1e-9 * scale
    assert abs(dofmap.mean_vector @ new.p) <= 1e-12 * max(1.0, np.abs(new.p).max())


def _reduced_fill(nx, theta):
    """nnz(L+U) of the reduced factor and nnz of the constrained matrix."""
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=1.0 / nx, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    lu = ReducedFactor(matrix, dofmap).factor.lu
    return lu.L.nnz + lu.U.nnz, matrix.nnz


def test_direct_factor_fill_guard():
    # the factorized system must not carry the dense multiplier row: the
    # full constrained matrix fills to 34x its nnz at nx=40, the reduced
    # interior system to about 5.4x
    fill, nnz = _reduced_fill(40, 1)
    assert fill <= 10 * nnz


@pytest.mark.parametrize("theta", [0, 1])
def test_direct_factor_symmetric_ordering(theta):
    # the nested-dissection order with diagonal pivots fills the reduced
    # system 5.36x nnz(K) at nx=40; minimum degree on A^T + A filled 5.40x
    # and COLAMD, which ignores its structural symmetry, 7.25x
    fill, nnz = _reduced_fill(40, theta)
    assert fill <= 6 * nnz


@pytest.mark.parametrize("theta", [0, 1])
def test_nested_dissection_fill(theta):
    # about 1.70M at nx=64 for both schemes; minimum degree on A^T + A
    # filled 1,853,730
    fill, _ = _reduced_fill(64, theta)
    assert fill <= 1_750_000


def test_predicted_fill_bounds_the_factors(monkeypatch):
    # the budget's prediction bounds every factor and is not loose
    for nx in (40, 64):
        fill, _ = _reduced_fill(nx, 1)
        predicted = linalg.predicted_fill(2 * (nx - 1) ** 2 + (nx + 1) ** 2 - 1)
        assert fill <= predicted <= 1.5 * fill
    splu, pencils = asgs_core.spla.splu, []

    def recorded(*args, **kwargs):
        lu = splu(*args, **kwargs)
        pencils.append((lu.shape[0], lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(asgs_core.spla, "splu", recorded)
    mesh = build_unit_square_mesh(32)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    coercivity_check(mesh, dofmap, params, dt=0.1)
    infsup_constant(mesh, dofmap, True, params)
    infsup_constant(mesh, dofmap, False, params)
    (coercivity_rows, coercivity_fill), *infsup = pencils
    assert coercivity_rows == 2 * 31 ** 2 + 33 ** 2 + 1
    # the velocity-pressure coupling of the symmetric operator cancels, so
    # the coercivity pencil fills about half as much as the others
    assert coercivity_fill <= linalg.predicted_fill(coercivity_rows) <= 2.0 * coercivity_fill
    for rows, fill in infsup:
        assert rows == 2 * 31 ** 2 + 33 ** 2
        assert fill <= linalg.predicted_fill(rows) <= 1.5 * fill


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), mu=st.floats(0.01, 10.0), c1=st.floats(1.0, 16.0),
       c2=st.floats(0.1, 10.0), dt=st.floats(1e-3, 10.0), theta=st.sampled_from([0, 1]),
       stabilized=st.booleans())
def test_reduced_step_matrix_symmetric_after_scaling_continuity(nx, mu, c1, c2, dt,
                                                                theta, stabilized):
    # the symmetric-mode LU with diagonal pivots leans on this structure;
    # the reduced matrix is taken as ReducedFactor selects it, without the
    # factor, which the unstabilized pair may refuse
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, scheme.dt_eff,
                                          stabilized=stabilized)
    pinned = np.append(dofmap.dirichlet_dofs, 2 * dofmap.n_u)
    kept = np.setdiff1d(np.arange(dofmap.multiplier_index), pinned)
    K = assemble_lhs(mesh, dofmap, scheme, params)[kept][:, kept].toarray()
    S = np.where((kept >= 2 * dofmap.n_u)[:, None], -K, K)
    assert np.abs(S - S.T).max() <= 1e-14 * np.abs(K).max()


# nnz of the step matrix: the vertex pairs that share an element, in all
# nine blocks, less the Dirichlet rows' off-diagonals, plus the multiplier
# border; the exact zeros of the P1 stiffness on the diagonal edges stay stored
_STEP_MATRIX_NNZ = {1: 58, 2: 199, 10: 6007, 40: 101887}


@pytest.mark.parametrize("nx", sorted(_STEP_MATRIX_NNZ))
def test_step_matrix_pattern_counts(nx):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    for theta in (0, 1):
        scheme = TimeScheme(theta=theta, dt=1.0 / nx, n_steps=1)
        for stabilized in (True, False):
            params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff,
                                                  stabilized=stabilized)
            assert assemble_lhs(mesh, dofmap, scheme, params).nnz == _STEP_MATRIX_NNZ[nx]
            if nx == 40 and stabilized:
                matrix = assemble_lhs(mesh, dofmap, scheme, params)
                factor = ReducedFactor(matrix, dofmap)
                assert matrix[factor.kept][:, factor.kept].nnz == 95366


def _bmat_reference(mesh, dofmap, block):
    """The step matrix joined by ``sp.bmat`` from the nine assembled blocks,
    with the Dirichlet rows cut to identity rows afterwards: the
    construction that ``fem_space.assemble_system`` replaced."""
    K = [[assemble_matrix(mesh, block(r, c)) for c in range(3)] for r in range(3)]
    mean = sp.csr_matrix(dofmap.mean_vector[:, None])
    K = sp.bmat([K[0] + [None], K[1] + [None], K[2] + [mean], [None, None, mean.T, None]],
                format="csr")
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    on = np.isin(rows, dofmap.dirichlet_dofs)
    keep = ~on | (K.indices == rows)
    indptr = np.searchsorted(np.flatnonzero(keep), K.indptr)
    return sp.csr_matrix((np.where(on, 1.0, K.data)[keep], K.indices[keep], indptr),
                         shape=K.shape)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 8), theta=st.sampled_from([0, 1]), dt=st.floats(1e-3, 10.0),
       stabilized=st.booleans())
def test_step_matrix_equals_bmat_reference(nx, theta, dt, stabilized):
    # written in place, the step matrix is bitwise the joined one
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff,
                                          stabilized=stabilized)
    got = assemble_lhs(mesh, dofmap, scheme, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asgs_core, "assemble_system", _bmat_reference)
        want = assemble_lhs(mesh, dofmap, scheme, params)
    assert got.format == "csr" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_step_matrix_assembly_peak_memory():
    # with the mesh's pattern built, a call peaks at about 2.1x the bytes of
    # the CSR it returns; joining the blocks with sp.bmat and cutting the
    # Dirichlet rows peaked at 6.2x
    mesh = build_unit_square_mesh(40)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.025, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    assemble_lhs(mesh, dofmap, scheme, params)  # builds the per-mesh pattern
    tracemalloc.start()
    try:
        csr = assemble_lhs(mesh, dofmap, scheme, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


# ------------------------------------------------------------ subscales

def test_subscales_zero_fixed_point():
    mesh = build_unit_square_mesh(3)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                      np.zeros(mesh.n_vertices), 0.0)
    f_mid = _f_mid(lambda x, y, t: (0.0 * x, 0.0 * x), mesh, zero, scheme)
    out = update_subscales(mesh, zero, zero, SubscaleState.zeros(mesh), scheme,
                           params, f_mid)
    assert np.abs(out.uprime).max() == 0.0


def test_subscale_frozen_residual_geometric_sum():
    # constant-in-time forcing with frozen states makes the residual a
    # constant field; ten updates must equal the closed-form partial sum
    mesh = build_unit_square_mesh(4)
    scheme = TimeScheme(theta=1, dt=0.05, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                      np.zeros(mesh.n_vertices), 0.0)
    f_mid = _f_mid(lambda x, y, t: (1.3 + 0.0 * x, -0.7 + 0.0 * x), mesh, zero, scheme)

    sub = SubscaleState.zeros(mesh)
    for _ in range(10):
        sub = update_subscales(mesh, zero, zero, sub, scheme, params, f_mid)

    t1p = params.tau1p[:, None, None]
    q = (params.tau1p / scheme.dt_eff)[:, None, None]
    R = np.zeros_like(sub.uprime)
    R[..., 0], R[..., 1] = 1.3, -0.7
    closed = t1p * R * (1.0 - q ** 10) / (1.0 - q)
    assert np.abs(sub.uprime - closed).max() < 1e-13


def test_subscale_frozen_residual_trapezoidal_sum_cn():
    # under Crank-Nicolson the stored end-level history follows the
    # trapezoidal rule for d(uprime)/dt + uprime/tau1 = R:
    # uprime^{n+1} = 2*tau1p*R + r*uprime^n, r = (2 tau1 - dt)/(2 tau1 + dt)
    mesh = build_unit_square_mesh(4)
    scheme = TimeScheme(theta=0, dt=0.05, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                      np.zeros(mesh.n_vertices), 0.0)
    f_mid = _f_mid(lambda x, y, t: (1.3 + 0.0 * x, -0.7 + 0.0 * x), mesh, zero, scheme)

    sub = SubscaleState.zeros(mesh)
    for _ in range(10):
        sub = update_subscales(mesh, zero, zero, sub, scheme, params, f_mid)

    t1p = params.tau1p[:, None, None]
    tau1 = params.tau1[:, None, None]
    r = (2 * tau1 - scheme.dt) / (2 * tau1 + scheme.dt)
    R = np.zeros_like(sub.uprime)
    R[..., 0], R[..., 1] = 1.3, -0.7
    closed = 2 * t1p * R * (1.0 - r ** 10) / (1.0 - r)
    assert np.abs(sub.uprime - closed).max() < 1e-13


def test_subscale_decay_factor_exact():
    mesh = build_unit_square_mesh(4)
    scheme = TimeScheme(theta=1, dt=0.05, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    zero = FieldState(np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices),
                      np.zeros(mesh.n_vertices), 0.0)
    fzero = _f_mid(lambda x, y, t: (0.0 * x, 0.0 * x), mesh, zero, scheme)
    rng = np.random.default_rng(9)
    sub = SubscaleState(rng.standard_normal((mesh.n_triangles, 7, 2)))
    factor = (params.tau1 / (scheme.dt_eff + params.tau1))[:, None, None]
    nxt = update_subscales(mesh, zero, zero, sub, scheme, params, fzero)
    assert np.abs(nxt.uprime - factor * sub.uprime).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 12), log_dt_mu=st.floats(-6.0, 0.0),
       mu=st.sampled_from([1.0, 0.1, 0.001]), theta=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_unforced_energy_never_rises(nx, log_dt_mu, mu, theta, seed):
    # the paper's stability claim with f = 0 and homogeneous Dirichlet data,
    # from a random start: under backward Euler neither ||u_h||^2 nor
    # ||u_h + u'||^2 rises in any step; under Crank-Nicolson only the full
    # velocity is checked, since ||u_h||^2 oscillates with the undamped start
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=10.0 ** log_dt_mu / mu, n_steps=20)
    params = StabilizationParams.for_mesh(mesh, mu, C1, C2, scheme.dt_eff)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((2, mesh.n_vertices))
    u[:, mesh.boundary_mask] = 0.0
    initial = FieldState(u[0], u[1], np.zeros(mesh.n_vertices), 0.0)
    mass = assemble_matrix(mesh, _element_tables(mesh)[2])
    rule = quadrature_rule(asgs_core.ASSEMBLY_QUAD_DEGREE)
    weights = mesh.areas[:, None] * rule.weights  # (m, nq)
    energies = []

    def observer(n, state, subscale):
        u_h = np.stack([state.u1, state.u2])
        at_points = u_h[:, mesh.triangles] @ rule.points.T  # (2, m, nq)
        full = at_points + np.moveaxis(subscale.uprime, -1, 0)
        energies.append((sum(c @ (mass @ c) for c in u_h),
                         np.sum(weights * (full ** 2).sum(axis=0))))

    solve_transient(mesh, dofmap, scheme, params, lambda x, y, t: (0.0, 0.0), initial,
                    observer)
    energies = np.array(energies)
    checked = energies if theta == 1 else energies[:, 1:]
    assert np.all(checked[1:] <= checked[:-1] * (1.0 + 1e-12))


# ---------------------------------------------------------- diagnostics

@pytest.mark.parametrize("nx", [4, 8])
def test_coercivity_positive_stabilized(nx):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    assert coercivity_check(mesh, dofmap, params, dt=0.1) > 0.0


def test_coercivity_degenerate_without_stabilization():
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=10.0,
                                          stabilized=False)
    assert coercivity_check(mesh, dofmap, params, dt=10.0) <= 1e-10


def test_coercivity_rayleigh_quotients_bound_eigenvalue():
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    S = _coercivity_null_space_reference(mesh, dofmap, params, dt=0.1)
    lam = coercivity_check(mesh, dofmap, params, dt=0.1)
    rng = np.random.default_rng(13)
    quotients = []
    for _ in range(1000):
        z = rng.standard_normal(S.shape[0])
        quotients.append(z @ S @ z / (z @ z))
    assert min(quotients) >= lam - 1e-12
    # the variational characterization is tight at the eigenvector itself
    import scipy.linalg
    w, V = scipy.linalg.eigh(S)
    v = V[:, 0]
    assert (v @ S @ v) / (v @ v) == pytest.approx(lam, rel=1e-10)


def test_coercivity_homogeneity():
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    S = _coercivity_null_space_reference(mesh, dofmap, params, dt=0.1)
    import scipy.linalg
    lam = scipy.linalg.eigvalsh(S).min()
    lam2 = scipy.linalg.eigvalsh(2.0 * S).min()
    assert lam2 == pytest.approx(2.0 * lam, rel=1e-12)


def test_coercivity_rejects_bad_dt():
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    with pytest.raises(ValueError):
        coercivity_check(mesh, dofmap, params, dt=0.0)


def test_coercivity_rejects_mismatched_dt():
    # the scheme is built from dt, the stabilization weights from dt_eff
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    with pytest.raises(ValueError, match="dt_eff"):
        coercivity_check(mesh, dofmap, params, dt=0.2)
    coercivity_check(mesh, dofmap, params, dt=0.1 * (1 + 1e-14))


def test_step_rejects_params_for_another_dt_eff():
    # Crank-Nicolson steps with dt_eff = dt/2; stabilization weights built
    # for dt would mix two step sizes in one scheme
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=0, dt=0.1, n_steps=2)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=scheme.dt)
    with pytest.raises(ValueError, match="dt_eff"):
        solve_transient(mesh, dofmap, scheme, params, _forcing_fn(),
                        _initial_state(mesh))


def test_diagnostics_refuse_over_factor_budget(monkeypatch):
    # both pencils are refused from the predicted size of their factor,
    # before anything is assembled
    mesh = build_unit_square_mesh(100)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("assembled before the size guard")

    monkeypatch.setattr(asgs_core, "assemble_lhs", refuse)
    monkeypatch.setattr(asgs_core, "assemble_matrix", refuse)
    monkeypatch.setattr(asgs_core, "assemble_system", refuse)
    monkeypatch.setattr(linalg, "FACTOR_BUDGET_BYTES", 10 ** 7)
    n_free = 2 * 99 ** 2 + 101 ** 2  # free velocities and all pressures
    for diagnostic, rows in ((lambda: coercivity_check(mesh, dofmap, params, dt=0.1),
                              n_free + 1),  # bordered by the mean vector
                             (lambda: infsup_constant(mesh, dofmap, True, params),
                              n_free)):
        with pytest.raises(ValueError) as info:
            diagnostic()
        assert "budget of 10000000 bytes" in str(info.value)
        # two copies: the factor and the one that reading its U builds
        assert str(2 * linalg.FACTOR_ENTRY_BYTES * linalg.predicted_fill(rows)) in str(info.value)


def test_diagnostics_budget_two_copies_of_their_factor(monkeypatch):
    # between one and two copies of the nx=20 factors' prediction (1.16 MB
    # each): the pencils, whose inertia read copies the factor, are refused
    # before anything is assembled, while the step factor, held once, fits
    mesh = build_unit_square_mesh(20)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, scheme.dt_eff)
    monkeypatch.setattr(linalg, "FACTOR_BUDGET_BYTES", 1_500_000)
    step_matrix = assemble_lhs(mesh, dofmap, scheme, params)

    def refuse(*args, **kwargs):
        raise AssertionError("assembled before the size guard")

    with monkeypatch.context() as patch:
        for name in ("assemble_lhs", "assemble_matrix", "assemble_system"):
            patch.setattr(asgs_core, name, refuse)
        for diagnostic in (lambda: coercivity_check(mesh, dofmap, params, dt=0.1),
                           lambda: infsup_constant(mesh, dofmap, True, params),
                           lambda: infsup_constant(mesh, dofmap, False, params)):
            with pytest.raises(linalg.FactorBudgetError):
                diagnostic()
    ReducedFactor(step_matrix, dofmap)


def _raw_block(mesh, dofmap, scheme, params):
    """The dense step matrix without the multiplier, with its Dirichlet rows
    and columns zeroed: the raw operator on the free dofs, zero elsewhere."""
    A = assemble_lhs(mesh, dofmap, scheme, params).toarray()[:dofmap.multiplier_index,
                                                             :dofmap.multiplier_index]
    A[dofmap.dirichlet_dofs] = A[:, dofmap.dirichlet_dofs] = 0.0
    return A


def _coercivity_null_space_reference(mesh, dofmap, params, dt):
    """Reference S: the step matrix's velocity and pressure rows and columns
    densified, whose free-dof block is the raw operator, and projected on an
    SVD basis of the admissible directions, free velocities first."""
    import scipy.linalg
    n_u, n_p = dofmap.n_u, dofmap.n_p
    scheme = TimeScheme(theta=1, dt=dt, n_steps=1)
    A = _raw_block(mesh, dofmap, scheme, params)
    free_vel = np.setdiff1d(np.arange(2 * n_u), dofmap.dirichlet_dofs)
    null_p = scipy.linalg.null_space(dofmap.mean_vector[None, :])
    Z = np.zeros((2 * n_u + n_p, free_vel.size + null_p.shape[1]))
    Z[free_vel, np.arange(free_vel.size)] = 1.0
    Z[2 * n_u:, free_vel.size:] = null_p
    return Z.T @ (0.5 * (A + A.T)) @ Z


@pytest.mark.parametrize("nx", [1, 2, 3, 6])
@pytest.mark.parametrize("stabilized, dt", [(True, 0.1), (False, 10.0)])
def test_coercivity_matches_null_space_reference(nx, stabilized, dt):
    import scipy.linalg
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=dt,
                                          stabilized=stabilized)
    ref = scipy.linalg.eigvalsh(_coercivity_null_space_reference(mesh, dofmap, params, dt))
    assert coercivity_check(mesh, dofmap, params, dt) == pytest.approx(
        ref.min(), abs=1e-10 * np.abs(ref).max())


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), mu=st.floats(0.01, 10.0), c1=st.floats(1.0, 16.0),
       c2=st.floats(0.1, 10.0), dt=st.floats(1e-3, 10.0), stabilized=st.booleans())
def test_coercivity_blocks_split_the_symmetric_operator(nx, mu, c1, c2, dt, stabilized):
    # at theta=1 and dt = dt_eff the velocity-pressure block of the
    # symmetric part cancels; the pencil's least eigenvalue is the
    # reference's over every admissible direction
    import scipy.linalg
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, dt_eff=dt,
                                          stabilized=stabilized)
    A = _raw_block(mesh, dofmap, TimeScheme(theta=1, dt=dt, n_steps=1), params)
    S = 0.5 * (A + A.T)
    free_vel = np.setdiff1d(np.arange(2 * dofmap.n_u), dofmap.dirichlet_dofs)
    assert np.abs(S[np.ix_(free_vel, np.arange(2 * dofmap.n_u, S.shape[0]))]).max(
        initial=0.0) <= 1e-14 * np.abs(S).max()
    ref = scipy.linalg.eigvalsh(_coercivity_null_space_reference(mesh, dofmap, params, dt))
    assert coercivity_check(mesh, dofmap, params, dt) == pytest.approx(
        ref.min(), abs=1e-10 * np.abs(ref).max())


def test_coercivity_rejects_indefinite_velocity_block():
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.1)
    params.tau2 = -1e6 * np.ones_like(params.tau2)  # grad-div of the wrong sign
    with pytest.raises(np.linalg.LinAlgError):
        coercivity_check(mesh, dofmap, params, dt=0.1)


def test_infsup_rejects_indefinite_velocity_block():
    mesh = build_unit_square_mesh(3)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    params.tau2 = -1e6 * np.ones_like(params.tau2)  # grad-div of the wrong sign
    with pytest.raises(np.linalg.LinAlgError):
        infsup_constant(mesh, dofmap, True, params)


def test_infsup_unstabilized_small_mesh():
    mesh = build_unit_square_mesh(2)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    beta = infsup_constant(mesh, dofmap, False, params)
    assert 0.0 <= beta <= 1.0


def _infsup_element_loop(mesh, dofmap, stabilized, params):
    """Reference beta_h: dense blocks assembled element by element."""
    import scipy.linalg
    n_u, n_p = dofmap.n_u, dofmap.n_p
    A = np.zeros((2 * n_u, 2 * n_u))
    B = np.zeros((n_p, 2 * n_u))
    Mp = np.zeros((n_p, n_p))
    L = np.zeros((n_p, n_p))
    for k in range(mesh.n_triangles):
        a, g, idx = mesh.areas[k], mesh.shape_gradients[k], mesh.triangles[k]
        mass = a / 12.0 * (np.ones((3, 3)) + np.eye(3))
        stiff = a * g @ g.T
        Mp[np.ix_(idx, idx)] += mass
        L[np.ix_(idx, idx)] += params.tau1p[k] * stiff
        for c in range(2):
            A[np.ix_(c * n_u + idx, c * n_u + idx)] += stiff + mass
            B[np.ix_(idx, c * n_u + idx)] += a / 3.0 * np.tile(g[:, c], (3, 1))
            for cp in range(2):
                if stabilized:
                    A[np.ix_(c * n_u + idx, cp * n_u + idx)] += (
                        params.tau2[k] * a * np.outer(g[:, c], g[:, cp]))
    free = np.setdiff1d(np.arange(2 * n_u), dofmap.dirichlet_dofs)
    S = B[:, free] @ np.linalg.solve(A[np.ix_(free, free)], B[:, free].T)
    if stabilized:
        S += L
    Zp = scipy.linalg.null_space(dofmap.mean_vector[None, :])
    eigs = scipy.linalg.eigh(Zp.T @ S @ Zp, Zp.T @ Mp @ Zp, eigvals_only=True)
    return float(np.sqrt(eigs[eigs > 1e-10 * eigs.max()].min()))


@pytest.mark.parametrize("nx", [3, 6])
@pytest.mark.parametrize("stabilized", [True, False])
def test_infsup_matches_element_loop(nx, stabilized):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    beta = infsup_constant(mesh, dofmap, stabilized, params)
    ref = _infsup_element_loop(mesh, dofmap, stabilized, params)
    assert beta == pytest.approx(ref, rel=1e-10)


def test_infsup_stabilized_does_not_collapse():
    betas = []
    for nx in (4, 8, 16):
        mesh = build_unit_square_mesh(nx)
        dofmap = build_dofmap(mesh)
        params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
        betas.append(infsup_constant(mesh, dofmap, True, params))
    assert all(b > 0 for b in betas)
    for prev, cur in zip(betas, betas[1:]):
        assert cur / prev >= 0.5


@pytest.mark.parametrize("nx", [2, 5, 8])
@pytest.mark.parametrize("stabilized", [True, False])
def test_infsup_pencil_equals_bmat_reference(nx, stabilized):
    # written in place by assemble_system, the pencil gives bitwise the
    # beta_h of the joined one: its Dirichlet rows and multiplier border lie
    # off the free dofs that the pencil is sliced to
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    got = infsup_constant(mesh, dofmap, stabilized, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asgs_core, "assemble_system", _bmat_reference)
        want = infsup_constant(mesh, dofmap, stabilized, params)
    assert got.hex() == want.hex()


def test_infsup_stabilized_levels_off_galerkin_falls_as_h():
    # the paper's discrete inf-sup claim: the stabilized beta_h falls by
    # shrinking differences per doubling (0.0914, then 0.0565) to a positive
    # Aitken limit (0.404), while the Galerkin beta_h halves with h
    betas = []
    for nx in (16, 32, 64):
        mesh = build_unit_square_mesh(nx)
        dofmap = build_dofmap(mesh)
        params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
        betas.append([infsup_constant(mesh, dofmap, s, params) for s in (True, False)])
    (s16, g16), (s32, g32), (s64, g64) = betas
    d1, d2 = s16 - s32, s32 - s64
    assert 0.0 < d2 < d1
    assert s64 - d2 ** 2 / (d1 - d2) > 0.0
    for coarse, fine in ((g16, g32), (g32, g64)):
        assert 0.45 <= fine / coarse <= 0.55


def test_infsup_unstabilized_pencil_has_eight_zero_modes(monkeypatch):
    # the constant and 7 spurious pressure modes: k must exceed 8 for the
    # eigenvalues nearest the shift to reach -beta_h^2
    nearest, found = asgs_core._nearest_eigenvalues, []

    def recorded(*args):
        found.append(nearest(*args))
        return found[-1]

    monkeypatch.setattr(asgs_core, "_nearest_eigenvalues", recorded)
    mesh = build_unit_square_mesh(16)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    infsup_constant(mesh, dofmap, False, params)
    (eigs,) = found
    assert eigs.size == asgs_core.INFSUP_K > 8
    assert np.count_nonzero(np.abs(eigs) <= asgs_core.INFSUP_ZERO_TOL) == 8


def _recorded_eigensolve(calls, k=None):
    """``_nearest_eigenvalues`` that appends (k asked, eigenvalues) to
    ``calls``, solving with ``k`` in place of the caller's when given."""
    nearest = asgs_core._nearest_eigenvalues

    def recorded(K, M, sigma, k_asked, n_negative):
        calls.append((k_asked, nearest(K, M, sigma, k or k_asked, n_negative)))
        return calls[-1][1]
    return recorded


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 8), mu=st.floats(1e-2, 10.0), c1=st.floats(1.0, 16.0),
       c2=st.floats(0.5, 4.0), log_dt=st.floats(-6.0, 0.0))
def test_infsup_stabilized_pencil_asks_for_its_one_zero_mode_plus_two(nx, mu, c1, c2,
                                                                      log_dt):
    # every tau1' > 0 leaves only the constant pressure in the kernel, so
    # fewer eigenvalues than the Galerkin pair's INFSUP_K give the same beta_h
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, mu, c1, c2, 10.0 ** log_dt)
    calls = []
    solvers = _recorded_eigensolve(calls), _recorded_eigensolve([], asgs_core.INFSUP_K)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asgs_core, "_nearest_eigenvalues", solvers[0])
        beta = infsup_constant(mesh, dofmap, True, params)
        patch.setattr(asgs_core, "_nearest_eigenvalues", solvers[1])
        want = infsup_constant(mesh, dofmap, True, params)
    ((k, eigs),) = calls
    assert k < asgs_core.INFSUP_K
    assert np.count_nonzero(np.abs(eigs) <= asgs_core.INFSUP_ZERO_TOL) == 1
    assert beta == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nx", [2, 4, 8])
def test_infsup_with_zero_taus_asks_for_the_galerkin_count(nx):
    # the count follows the taus, not the flag: zero taus are the Galerkin pair
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05,
                                          stabilized=False)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asgs_core, "_nearest_eigenvalues", _recorded_eigensolve(calls))
        got = infsup_constant(mesh, dofmap, True, params)
        want = infsup_constant(mesh, dofmap, False, params)
    assert [k for k, _ in calls] == [asgs_core.INFSUP_K] * 2
    assert got.hex() == want.hex()


def test_infsup_excludes_constant_pressure():
    # the reported value corresponds to a zero-mean mode, never the
    # constant-pressure direction (a zero mode, which the cutoff skips)
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    params = StabilizationParams.for_mesh(mesh, MU, C1, C2, dt_eff=0.05)
    beta = infsup_constant(mesh, dofmap, True, params)
    assert beta > 1e-3
