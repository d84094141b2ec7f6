"""Sparse storage and the direct solver for the assembled systems.

Thin layer over scipy.sparse: canonical compressed-row storage of the
matrices that ``fem_space.assemble_matrix`` sums and ``asgs_core`` joins,
and a sparse LU with a singularity gate.  The time stepper hands the LU the
reduced interior system, free of the Dirichlet identity rows and the dense
mean-pressure multiplier row/column (``asgs_core.ReducedFactor``).  That
system is structurally symmetric, so the LU orders it by minimum degree on
the pattern of A^T + A and prefers diagonal pivots (SuperLU's symmetric
mode, pivot threshold 0.1); each solve takes one step of iterative
refinement, which restores the accuracy the relaxed threshold gives up.
The saddle-point systems produced by the assembly are nonsymmetric, and the
unstabilized equal-order variant may be genuinely rank deficient;
``SingularMatrixError`` is therefore a meaningful outcome, not just a guard.
"""

import numpy as np
import scipy.sparse.linalg as spla

# Relative size under which an LU pivot declares the matrix singular.
PIVOT_RTOL = 1e-13
DIRECT_RESIDUAL_TOL = 1e-10


class SingularMatrixError(Exception):
    """Factorization hit a (near-)zero pivot or an unusable residual."""


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
    def n_nonzeros(self):
        return int(self.csr.indptr[-1])

    def to_dense(self):
        return self.csr.toarray()


class DirectFactor:
    """Reusable sparse LU factorization of a square SparseMatrix."""

    def __init__(self, A):
        if A.n_rows != A.n_cols:
            raise ValueError("matrix must be square")
        self.csr = A.csr  # the refinement step's residual
        try:
            # a relaxed threshold keeps the minimum-degree order's diagonal
            # pivots; at the default 1.0 this order fills several times more
            # than COLAMD (58.8M against 2.9M at nx=64)
            self.lu = spla.splu(A.csr.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.1,
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular factor
            raise SingularMatrixError(str(exc)) from exc
        udiag = np.abs(self.lu.U.diagonal())
        if udiag.size and udiag.min() <= PIVOT_RTOL * max(udiag.max(), 1.0):
            raise SingularMatrixError(
                f"pivot ratio {udiag.min():.3e}/{udiag.max():.3e} below threshold")

    def solve(self, b):
        """A^{-1} b, with one step of iterative refinement."""
        b = np.asarray(b, dtype=float)
        x = self.lu.solve(b)
        x += self.lu.solve(b - self.csr @ x)
        return x
