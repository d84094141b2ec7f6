"""Sparse storage and the direct solver for the assembled systems.

Thin layer over scipy.sparse: a sparse LU with a singularity gate, which
factors the CSC copy of a plain scipy matrix.  The time stepper hands the LU
the reduced interior system, free of the Dirichlet identity rows and the dense
mean-pressure multiplier row/column, with its dofs already in a
nested-dissection order (``asgs_core.ReducedFactor``).  The LU keeps that
order and prefers diagonal pivots (SuperLU's symmetric mode, pivot
threshold 0.1); a solve is one back-solve, and the caller checks its
residual.  The saddle-point systems produced by the assembly are
nonsymmetric, and the unstabilized equal-order variant may be genuinely
rank deficient; ``SingularMatrixError`` is therefore a meaningful outcome,
not just a guard.  Besides an exactly zero pivot, the gate refuses a factor
whose 1-norm condition number reaches 1/``PIVOT_RTOL``, estimated from four
solves with the factor itself (Hager's estimator in the block form of
Higham & Tisseur, SIAM J. Matrix Anal. Appl. 21 (2000), at one column), so
the factor is never read back: reading SuperLU's ``L`` or ``U`` builds
and keeps a second copy of the whole factor.
Every sparse factor is refused before it is factored when its predicted
fill, times the copies of it that its caller holds, exceeds
``FACTOR_BUDGET_BYTES``: on the unit square, from nx=334 on for the step
factor, held once, and from nx=248 on for the diagnostics' pencils, whose
inertia read builds and keeps a second copy.
"""

import numpy as np
import scipy.sparse.linalg as spla

# A factor is refused as singular when 1/est(||A^{-1}||_1) is at most this
# times max(||A||_1, 1): the estimated condition number of a matrix of norm
# 1 or more reaches 1e13.  The step matrices read 5e7 / 2.8e8 / 1.8e9 at
# nx 64/100/160.
PIVOT_RTOL = 1e-13
DIRECT_RESIDUAL_TOL = 1e-10

# Largest predicted size of the copies of one sparse factor that a caller
# holds, whose entries each take an 8-byte value and a 4-byte row index.
FACTOR_BUDGET_BYTES = 2 ** 30
FACTOR_ENTRY_BYTES = 12


class SingularMatrixError(Exception):
    """Factorization hit a zero pivot, the factor's estimated 1-norm condition
    number reached 1/``PIVOT_RTOL``, or a solve left an unusable residual."""


class FactorBudgetError(ValueError):
    """A factor's predicted size exceeds ``FACTOR_BUDGET_BYTES``."""


class SparseMatrix:
    """The CSC copy of a scipy sparse matrix that ``DirectFactor`` factors,
    with the sizes that a trace of the factor reads."""

    def __init__(self, matrix):
        self.csc = matrix.tocsc()

    @property
    def n_rows(self):
        return self.csc.shape[0]

    @property
    def n_nonzeros(self):
        return self.csc.nnz


def predicted_fill(n_rows):
    """0.8 N log2(N)^2, an upper estimate of nnz(L+U) for a P1 system of N
    rows in nested-dissection order: the step factor fills 0.547M / 1.70M /
    5.00M / 15.0M (1.03-1.07x below it) for N = 4,722 / 12,162 / 29,802 /
    76,482 at nx 40/64/100/160."""
    return int(np.ceil(0.8 * n_rows * np.log2(max(n_rows, 1)) ** 2))


def check_factor_budget(n_rows, copies):
    """FactorBudgetError, a ValueError, when ``copies`` of the predicted
    factor of ``n_rows`` rows exceed ``FACTOR_BUDGET_BYTES``: 1 for a factor
    only solved with, 2 when SuperLU's ``L`` or ``U`` is read as well."""
    need = copies * FACTOR_ENTRY_BYTES * predicted_fill(n_rows)
    if need > FACTOR_BUDGET_BYTES:
        raise FactorBudgetError(f"the factor of {n_rows} rows is predicted to need "
                         f"{need} bytes, above the budget of "
                         f"{FACTOR_BUDGET_BYTES} bytes")


class DirectFactor:
    """Reusable sparse LU of ``A.csc``, a ``SparseMatrix``, in the order given;
    ValueError, before factoring, when ``check_factor_budget`` refuses it or
    from ``splu`` when it is not square, and SingularMatrixError from the
    condition gate (module docstring)."""

    def __init__(self, A):
        check_factor_budget(A.n_rows, 1)
        norm = max(spla.norm(A.csc, 1), 1.0)
        try:
            # keep the caller's order and prefer its diagonal pivots; at the
            # default threshold 1.0 the nested-dissection order of the nx=64
            # step system fills 5.6M against 1.7M
            self.lu = spla.splu(A.csc, permc_spec="NATURAL",
                                diag_pivot_thresh=0.1,
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular factor
            raise SingularMatrixError(str(exc)) from exc
        lu = self.lu
        inverse = spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=float,
                                      rmatvec=lambda b: lu.solve(b, trans="T"))
        with np.errstate(all="ignore"):  # an overflowing solve reads inf or nan
            est = spla.onenormest(inverse, t=1)
        if not est * norm * PIVOT_RTOL < 1.0:  # nan refused too
            raise SingularMatrixError(
                f"1-norm condition estimate {est * norm:.3e} reaches "
                f"1/PIVOT_RTOL = {1 / PIVOT_RTOL:.0e}")

    def solve(self, b):
        """A^{-1} b by one back-solve."""
        return self.lu.solve(np.asarray(b, dtype=float))
