import sys
from pathlib import Path

import pytest

from stokes_asgs import asgs_core, linalg

# make the dense oracle importable from any test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def third_solve_fails(monkeypatch):
    """The third ``ReducedFactor.solve`` of the test raises, as a step
    system gone singular at step 3 of a solve would."""
    solve, calls = asgs_core.ReducedFactor.solve, []

    def third_fails(self, rhs):
        calls.append(None)
        if len(calls) == 3:
            raise linalg.SingularMatrixError("singular step system")
        return solve(self, rhs)

    monkeypatch.setattr(asgs_core.ReducedFactor, "solve", third_fails)
