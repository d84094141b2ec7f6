"""Sparse storage and the direct solver for the assembled systems.

Thin layer over scipy.sparse: canonical compressed-row storage of the
matrices that ``fem_space.assemble_matrix`` sums and ``asgs_core`` joins,
and a sparse LU with a singularity gate.  The time stepper hands the LU the
reduced interior system, free of the Dirichlet identity rows and the dense
mean-pressure multiplier row/column, with its dofs already in a
nested-dissection order (``asgs_core.ReducedFactor``).  The LU keeps that
order and prefers diagonal pivots (SuperLU's symmetric mode, pivot
threshold 0.1); a solve is one back-solve, and the caller checks its
residual.  The saddle-point systems produced by the assembly are
nonsymmetric, and the unstabilized equal-order variant may be genuinely
rank deficient; ``SingularMatrixError`` is therefore a meaningful outcome,
not just a guard.
Every sparse factor, the diagnostics' pencils too, is refused before it
is factored when its predicted fill exceeds ``FACTOR_BUDGET_BYTES``: on the
unit square, from nx=334 on.
"""

import numpy as np
import scipy.sparse.linalg as spla

# Relative size under which an LU pivot declares the matrix singular.
PIVOT_RTOL = 1e-13
DIRECT_RESIDUAL_TOL = 1e-10

# Largest predicted size of one sparse factor, whose entries each take an
# 8-byte value and a 4-byte row index.
FACTOR_BUDGET_BYTES = 2 ** 30
FACTOR_ENTRY_BYTES = 12


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


def predicted_fill(n_rows):
    """0.8 N log2(N)^2, an upper estimate of nnz(L+U) for a P1 system of N
    rows in nested-dissection order: the step factor fills 0.547M / 1.70M /
    5.00M / 15.0M (1.03-1.07x below it) for N = 4,722 / 12,162 / 29,802 /
    76,482 at nx 40/64/100/160."""
    return int(np.ceil(0.8 * n_rows * np.log2(max(n_rows, 1)) ** 2))


def check_factor_budget(n_rows):
    """ValueError when the predicted factor of ``n_rows`` rows exceeds
    ``FACTOR_BUDGET_BYTES``."""
    need = FACTOR_ENTRY_BYTES * predicted_fill(n_rows)
    if need > FACTOR_BUDGET_BYTES:
        raise ValueError(f"the factor of {n_rows} rows is predicted to need "
                         f"{need} bytes, above the budget of "
                         f"{FACTOR_BUDGET_BYTES} bytes")


class DirectFactor:
    """Reusable sparse LU of a square SparseMatrix, in the order given;
    ValueError, before factoring, when ``check_factor_budget`` refuses it."""

    def __init__(self, A):
        if A.n_rows != A.n_cols:
            raise ValueError("matrix must be square")
        check_factor_budget(A.n_rows)
        try:
            # keep the caller's order and prefer its diagonal pivots; at the
            # default threshold 1.0 the nested-dissection order of the nx=64
            # step system fills 5.6M against 1.7M
            self.lu = spla.splu(A.csr.tocsc(), permc_spec="NATURAL",
                                diag_pivot_thresh=0.1,
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular factor
            raise SingularMatrixError(str(exc)) from exc
        udiag = np.abs(self.lu.U.diagonal())
        if udiag.size and udiag.min() <= PIVOT_RTOL * max(udiag.max(), 1.0):
            raise SingularMatrixError(
                f"pivot ratio {udiag.min():.3e}/{udiag.max():.3e} below threshold")

    def solve(self, b):
        """A^{-1} b by one back-solve."""
        return self.lu.solve(np.asarray(b, dtype=float))
