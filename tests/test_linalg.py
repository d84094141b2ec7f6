import numpy as np
import pytest

from stokes_asgs import (SingularMatrixError, build_dofmap,
                         build_unit_square_mesh, from_triplets)
from stokes_asgs.asgs_core import (FieldState, ReducedFactor,
                                   StabilizationParams, SubscaleState,
                                   TimeScheme, assemble_system)
from stokes_asgs.linalg import DIRECT_RESIDUAL_TOL, DirectFactor
from stokes_asgs.manufactured import forcing


def _assembled(nx, dt=0.1, theta=1):
    mesh = build_unit_square_mesh(nx)
    dofmap = build_dofmap(mesh)
    scheme = TimeScheme(theta=theta, dt=dt, n_steps=1)
    params = StabilizationParams.for_mesh(mesh, 0.1, 4.0, 2.0, scheme.dt_eff)
    n = mesh.n_vertices
    rng = np.random.default_rng(nx)
    state = FieldState(rng.standard_normal(n), rng.standard_normal(n),
                       rng.standard_normal(n), 0.0)
    sub = SubscaleState.zeros(mesh)
    fn = lambda x, y, t: forcing(x, y, t, 0.1)
    return assemble_system(mesh, dofmap, state, sub, scheme, params, fn), dofmap


def test_duplicate_triplets_summed():
    A = from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    assert A.n_nonzeros == 1
    assert A.to_dense()[0, 0] == 3.0


def test_empty_triplets():
    A = from_triplets(3, 4, [])
    assert A.n_nonzeros == 0
    assert A.n_rows == 3 and A.n_cols == 4
    assert np.all(A.to_dense() == 0.0)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(ValueError):
        from_triplets(2, 2, [(0, -1, 1.0)])


def test_csr_invariants_random():
    rng = np.random.default_rng(50)
    rows = rng.integers(0, 50, 400)
    cols = rng.integers(0, 50, 400)
    vals = rng.standard_normal(400)
    A = from_triplets(50, 50, (rows, cols, vals))
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
    I = from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(DirectFactor(I).solve(b), b)


def test_direct_two_by_two():
    A = from_triplets(2, 2, [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
    x = DirectFactor(A).solve(np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_direct_on_assembled_system():
    system, dofmap = _assembled(4)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(dofmap.n_dofs)
    b[dofmap.dirichlet_dofs] = 0.0
    b[dofmap.multiplier_index] = 0.0
    x = ReducedFactor(system.matrix, dofmap).solve(b)
    res = np.linalg.norm(system.matrix.csr @ x - b) / np.linalg.norm(b)
    assert res <= DIRECT_RESIDUAL_TOL


def test_direct_singular_raises():
    A = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(SingularMatrixError):
        DirectFactor(A)
