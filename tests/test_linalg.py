import numpy as np
import pytest
import scipy.sparse as sp

from stokes_asgs import (SingularMatrixError, SparseMatrix, build_dofmap,
                         build_unit_square_mesh)
from stokes_asgs.asgs_core import (ReducedFactor, StabilizationParams,
                                   TimeScheme, assemble_lhs)
from stokes_asgs.fem_space import assemble_matrix
from stokes_asgs.linalg import DIRECT_RESIDUAL_TOL, DirectFactor
from stokes_asgs.mesh import Mesh

# The triplets of an assembled matrix are the element entries (k, i, j):
# row triangles[k, i], column triangles[k, j], value local[k, i, j].


def test_duplicate_triplets_summed():
    # nx=1: triangles [0, 1, 3] and [0, 3, 2] share the diagonal 0-3, so
    # the pairs (0, 0), (0, 3), (3, 0) and (3, 3) each get two entries
    mesh = build_unit_square_mesh(1)
    local = np.stack([np.full((3, 3), 1.0), np.full((3, 3), 2.0)])
    A = SparseMatrix(assemble_matrix(mesh, local))
    assert A.n_nonzeros == 14
    dense = A.to_dense()
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert dense[i, j] == 3.0
    assert dense[0, 1] == 1.0 and dense[2, 3] == 2.0
    assert dense[1, 2] == 0.0 and dense[2, 1] == 0.0


def test_empty_triplets():
    full = build_unit_square_mesh(2)
    mesh = Mesh(2, full.vertices, full.triangles[:0])
    A = SparseMatrix(assemble_matrix(mesh, np.zeros((0, 3, 3))))
    assert A.n_nonzeros == 0
    assert A.n_rows == A.n_cols == full.n_vertices
    assert np.all(A.to_dense() == 0.0)


def test_out_of_range_rejected():
    # an element entry outside [0, n_vertices) never reaches the assembly:
    # the mesh refuses it
    vertices = build_unit_square_mesh(1).vertices
    with pytest.raises(ValueError):
        Mesh(1, vertices, np.array([[0, 1, 4]]))
    with pytest.raises(ValueError):
        Mesh(1, vertices, np.array([[0, -1, 2]]))


def test_csr_invariants_random():
    rng = np.random.default_rng(50)
    rows = rng.integers(0, 50, 400)
    cols = rng.integers(0, 50, 400)
    vals = rng.standard_normal(400)
    A = SparseMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(50, 50)))
    csr = A.csr
    # sorted, unique column indices per row; monotone offsets
    for i in range(50):
        seg = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
        assert np.all(np.diff(seg) > 0)
    assert np.all(np.diff(csr.indptr) >= 0)
    assert A.n_nonzeros == csr.indptr[-1]
    # product against a dense oracle
    dense = np.zeros((50, 50))
    for r, c, v in zip(rows, cols, vals):
        dense[r, c] += v
    x = rng.standard_normal(50)
    assert np.abs(csr @ x - dense @ x).max() < 1e-13


def test_direct_identity():
    I = SparseMatrix(sp.csr_matrix(np.eye(3)))
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(DirectFactor(I).solve(b), b)


def test_direct_two_by_two():
    A = SparseMatrix(sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]]))
    x = DirectFactor(A).solve(np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


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
    return np.linalg.norm(factor.matrix.csr @ x - b) / np.linalg.norm(b)


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


def test_direct_singular_raises():
    A = SparseMatrix(sp.csr_matrix(np.ones((2, 2))))
    with pytest.raises(SingularMatrixError):
        DirectFactor(A)
