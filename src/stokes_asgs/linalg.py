"""Sparse storage and direct/iterative solvers for the assembled systems.

Thin layer over scipy.sparse: compressed-row storage built from triplets,
sparse LU (COLAMD column ordering) with a singularity gate, and restarted
GMRES with absolute-value diagonal preconditioning.  The time stepper hands
the LU the reduced interior system, free of the Dirichlet identity rows and
the dense mean-pressure multiplier row/column (``asgs_core.ReducedFactor``);
GMRES works on the full constrained system.  The saddle-point systems
produced by the assembly are nonsymmetric, and the unstabilized equal-order
variant may be genuinely rank deficient; ``SingularMatrixError`` is
therefore a meaningful outcome, not just a guard.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Relative size under which an LU pivot declares the matrix singular.
PIVOT_RTOL = 1e-13
DIRECT_RESIDUAL_TOL = 1e-10


class SingularMatrixError(Exception):
    """Factorization hit a (near-)zero pivot or an unusable residual."""


class NonConvergenceError(Exception):
    """Iterative solve exhausted its budget; carries the best iterate."""

    def __init__(self, message, best_x, residual):
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual


@dataclass
class SolveReport:
    method: str
    iterations: int
    relative_residual: float
    elapsed: float


class SparseMatrix:
    """CSR matrix with sorted, duplicate-free column indices per row."""

    def __init__(self, csr):
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        self.csr = csr

    @property
    def n_rows(self):
        return self.csr.shape[0]

    @property
    def n_cols(self):
        return self.csr.shape[1]

    @property
    def row_offsets(self):
        return self.csr.indptr

    @property
    def col_indices(self):
        return self.csr.indices

    @property
    def values(self):
        return self.csr.data

    @property
    def n_nonzeros(self):
        return int(self.csr.indptr[-1])

    def to_dense(self):
        return self.csr.toarray()


def from_triplets(n_rows, n_cols, triplets):
    """Assemble a SparseMatrix from (row, col, value) triplets.

    ``triplets`` is either an iterable of (i, j, v) triples or a
    (rows, cols, values) tuple of arrays.  Duplicate entries are summed.
    """
    if isinstance(triplets, tuple) and len(triplets) == 3:
        rows, cols, vals = (np.asarray(t) for t in triplets)
    else:
        triplets = list(triplets)
        if triplets:
            rows, cols, vals = (np.asarray(t) for t in zip(*triplets))
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
    rows = rows.astype(np.int64, copy=False)
    cols = cols.astype(np.int64, copy=False)
    vals = vals.astype(float, copy=False)
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of range")
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    return SparseMatrix(coo.tocsr())


def spmv(A, x):
    """Sparse matrix-vector product y = A x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n_cols,):
        raise ValueError(f"dimension mismatch: matrix is {A.n_rows}x{A.n_cols}, "
                         f"vector has shape {x.shape}")
    return A.csr @ x


def _relative_residual(A, x, b):
    denom = np.linalg.norm(b)
    if denom == 0.0:
        denom = 1.0
    return float(np.linalg.norm(A.csr @ x - b) / denom)


class DirectFactor:
    """Reusable sparse LU factorization of a square SparseMatrix."""

    def __init__(self, A):
        if A.n_rows != A.n_cols:
            raise ValueError("matrix must be square")
        self.A = A
        try:
            # explicit COLAMD: MMD_AT_PLUS_A factors these saddle-point
            # systems more slowly
            self.lu = spla.splu(A.csr.tocsc(), permc_spec="COLAMD")
        except RuntimeError as exc:  # exactly singular factor
            raise SingularMatrixError(str(exc)) from exc
        udiag = np.abs(self.lu.U.diagonal())
        if udiag.size and udiag.min() <= PIVOT_RTOL * max(udiag.max(), 1.0):
            raise SingularMatrixError(
                f"pivot ratio {udiag.min():.3e}/{udiag.max():.3e} below threshold")

    def solve(self, b):
        return self.lu.solve(np.asarray(b, dtype=float))


def solve_direct(A, b):
    """Solve A x = b by sparse LU with partial pivoting.

    Returns (x, SolveReport).  Raises SingularMatrixError on a near-zero
    pivot or when the recomputed relative residual exceeds 1e-10.
    """
    start = time.perf_counter()
    factor = DirectFactor(A)
    x = factor.solve(b)
    res = _relative_residual(A, x, np.asarray(b, dtype=float))
    elapsed = time.perf_counter() - start
    if not np.isfinite(res) or res > DIRECT_RESIDUAL_TOL:
        raise SingularMatrixError(f"direct solve residual {res:.3e} exceeds "
                                  f"{DIRECT_RESIDUAL_TOL:.0e}")
    return x, SolveReport("direct", 0, res, elapsed)


def diagonal_preconditioner(A):
    """Absolute-value diagonal (Jacobi) preconditioner; zero diagonals pass through."""
    d = np.abs(A.csr.diagonal())
    d[d == 0.0] = 1.0
    inv = 1.0 / d
    n = A.n_rows
    return spla.LinearOperator((n, n), matvec=lambda v: inv * v)


def solve_gmres(A, b, restart=50, tol=1e-9, max_iter=10000, x0=None):
    """Restarted, diagonally preconditioned GMRES.

    ``max_iter`` counts inner iterations.  Raises NonConvergenceError with
    the best iterate attached when the budget is exhausted.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=float)
    start = time.perf_counter()
    counter = {"n": 0}

    def cb(pr_norm):
        counter["n"] += 1

    cycles = max(1, int(np.ceil(max_iter / restart)))
    x, info = spla.gmres(A.csr, b, x0=x0, rtol=tol, atol=0.0, restart=restart,
                         maxiter=cycles, M=diagonal_preconditioner(A),
                         callback=cb, callback_type="pr_norm")
    elapsed = time.perf_counter() - start
    res = _relative_residual(A, x, b)
    if info != 0:
        raise NonConvergenceError(
            f"GMRES did not reach tol {tol:.1e} in {counter['n']} iterations "
            f"(residual {res:.3e})", best_x=x, residual=res)
    return x, SolveReport("iterative", counter["n"], res, elapsed)
