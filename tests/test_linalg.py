import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_asgs import (SingularMatrixError, SparseMatrix, build_dofmap,
                         build_unit_square_mesh, linalg)
from stokes_asgs.asgs_core import (FieldState, ReducedFactor,
                                   StabilizationParams, SubscaleState,
                                   TimeScheme, assemble_lhs, step)
from stokes_asgs.linalg import DIRECT_RESIDUAL_TOL, PIVOT_RTOL, DirectFactor
from stokes_asgs.manufactured import ManufacturedForcing


def test_direct_identity():
    I = SparseMatrix(sp.csr_matrix(np.eye(3)))
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(DirectFactor(I).solve(b), b)


def test_direct_two_by_two():
    A = SparseMatrix(sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]]))
    x = DirectFactor(A).solve(np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_direct_factors_the_held_csc(monkeypatch):
    # SuperLU gets the CSC that SparseMatrix holds, not a second copy
    A = SparseMatrix(sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]]))
    splu, same = linalg.spla.splu, []

    def recorded(*args, **kwargs):
        same.append(args[0] is A.csc)
        return splu(*args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recorded)
    DirectFactor(A)
    assert same == [True]


def _step_system():
    """Reduced factor of an nx=4 backward-Euler step matrix and a right-hand
    side."""
    mesh = build_unit_square_mesh(4)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, scheme.dt_eff)
    matrix = assemble_lhs(mesh, dofmap, scheme, params)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(dofmap.n_dofs)
    b[dofmap.dirichlet_dofs] = 0.0
    b[dofmap.multiplier_index] = 0.0
    return ReducedFactor(matrix, dofmap), b


def _residual(factor, x, b):
    return np.linalg.norm(factor.matrix @ x - b) / np.linalg.norm(b)


def test_direct_on_assembled_system():
    factor, b = _step_system()
    assert _residual(factor, factor.solve(b), b) <= DIRECT_RESIDUAL_TOL


def _perturb_backsolves(monkeypatch, factor, rel, count):
    """Make the first ``count`` back-solves of the SuperLU factor under
    ``factor`` return x scaled entrywise by 1 + rel * N(0, 1); returns the
    list of back-solves made, True where perturbed."""
    lu, rng, calls = factor.factor.lu, np.random.default_rng(2), []

    class Perturbed:
        def solve(self, b):
            x = lu.solve(b)
            calls.append(len(calls) < count)
            return x * (1.0 + rel * rng.standard_normal(x.size)) if calls[-1] else x

    monkeypatch.setattr(factor.factor, "lu", Perturbed())
    return calls


def test_direct_solve_refines_once_when_the_gate_fails(monkeypatch):
    factor, b = _step_system()
    calls = _perturb_backsolves(monkeypatch, factor, 1e-9, count=1)
    x = factor.solve(b)
    assert calls == [True, False]  # the perturbed solve failed the gate
    assert _residual(factor, x, b) <= DIRECT_RESIDUAL_TOL


def test_direct_solve_raises_when_refinement_fails(monkeypatch):
    factor, b = _step_system()
    calls = _perturb_backsolves(monkeypatch, factor, 1e-3, count=np.inf)
    with pytest.raises(SingularMatrixError, match="residual"):
        factor.solve(b)
    assert calls == [True, True]


def test_direct_solve_is_one_backsolve(monkeypatch):
    factor, b = _step_system()
    calls = _perturb_backsolves(monkeypatch, factor, 0.0, count=0)
    factor.solve(b)
    assert calls == [False]


def test_direct_solve_recovers_a_dirichlet_lift(monkeypatch):
    # nonzero Dirichlet data: the first back-solve ignores its lift into the
    # interior rows, and the refinement recovers it
    factor, b = _step_system()
    b[factor.dirichlet] = np.random.default_rng(3).standard_normal(factor.dirichlet.size)
    calls = _perturb_backsolves(monkeypatch, factor, 0.0, count=0)
    x = factor.solve(b)
    assert calls == [False, False]
    want = np.linalg.solve(factor.matrix.toarray(), b)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


def test_direct_singular_raises():
    A = SparseMatrix(sp.csr_matrix(np.ones((2, 2))))
    with pytest.raises(SingularMatrixError):
        DirectFactor(A)


def test_direct_nearly_singular_message():
    # det = 1.1e-15: the condition estimate reads 3.6e15
    A = SparseMatrix(sp.csr_matrix([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    with pytest.raises(SingularMatrixError,
                       match=r"1-norm condition estimate 3\.\d+e\+15 reaches "
                             r"1/PIVOT_RTOL = 1e\+13"):
        DirectFactor(A)
    # a solve that overflows to inf: refused, with no warning from the estimate
    with pytest.raises(SingularMatrixError):
        DirectFactor(SparseMatrix(sp.csr_matrix(np.diag([1.0, 1e-310]))))


def _pivot_ratio(lu):
    """min|U_ii| / max(max|U_ii|, 1), read from a copy of the factor's U: the
    pivot-ratio rule that the condition gate replaced refused a factor when
    this was at most PIVOT_RTOL."""
    udiag = np.abs(lu.U.diagonal())
    return udiag.min() / max(udiag.max(), 1.0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 12), scale=st.floats(-3.0, 3.0),
       planted=st.lists(st.floats(-19.0, -10.0), max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_condition_gate_refuses_what_the_pivot_ratio_refused(n, scale, planted, seed):
    # a random matrix scaled by 10^scale whose least singular values are
    # replaced by 10^planted: DirectFactor refuses every one that SuperLU
    # found exactly singular or whose pivot ratio is a decade below
    # PIVOT_RTOL, and may refuse more.  Within that decade the two rules
    # measure different things: of 60,000 such draws, 6 had a pivot ratio
    # 1.3-1.9x below PIVOT_RTOL and a condition estimate below 1/PIVOT_RTOL
    # (their exact condition numbers 3.9, 5.5e12-8.0e12 and 1.04e13)
    rng = np.random.default_rng(seed)
    u, s, vt = np.linalg.svd(rng.standard_normal((n, n)))
    s[n - len(planted):] = 10.0 ** np.array(planted)
    A = SparseMatrix(sp.csr_matrix(10.0 ** scale * (u * s) @ vt))
    splu, factors = linalg.spla.splu, []

    def recorded(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg.spla, "splu", recorded)
        try:
            DirectFactor(A)
        except SingularMatrixError:
            return
    assert factors and _pivot_ratio(factors[0]) > PIVOT_RTOL / 10


class _FactorWithoutCopies:
    """A SuperLU factor whose ``L`` and ``U`` must not be read: reading
    either keeps CSC copies of both for the factor's lifetime."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"lu.{name} copies the factor")
        return getattr(self._lu, name)


def test_step_factor_holds_no_copy_of_its_factor(monkeypatch):
    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda *args, **kwargs: _FactorWithoutCopies(splu(*args, **kwargs)))
    mesh = build_unit_square_mesh(8)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, scheme.dt_eff)
    factor = ReducedFactor(assemble_lhs(mesh, dofmap, scheme, params), dofmap)
    assert isinstance(factor.factor.lu, _FactorWithoutCopies)
    z = np.zeros(mesh.n_vertices)
    state, _ = step(mesh, dofmap, FieldState(z, z, z, 0.0), SubscaleState.zeros(mesh),
                    scheme, params, ManufacturedForcing(0.1), factor=factor)
    assert state.t == 0.1 and np.abs(state.u1).max() > 0.0
