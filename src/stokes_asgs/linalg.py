"""Sparse storage and the direct solver for the assembled systems.

Thin layer over scipy.sparse: compressed-row storage built from triplets
and a sparse LU (COLAMD column ordering) with a singularity gate.  The time
stepper hands the LU the reduced interior system, free of the Dirichlet
identity rows and the dense mean-pressure multiplier row/column
(``asgs_core.ReducedFactor``).  The saddle-point systems produced by the
assembly are nonsymmetric, and the unstabilized equal-order variant may be
genuinely rank deficient; ``SingularMatrixError`` is therefore a meaningful
outcome, not just a guard.
"""

import numpy as np
import scipy.sparse as sp
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


class DirectFactor:
    """Reusable sparse LU factorization of a square SparseMatrix."""

    def __init__(self, A):
        if A.n_rows != A.n_cols:
            raise ValueError("matrix must be square")
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
