"""The benchmark's dense-oracle check passes on the package.

perfbench/workloads.py steps a bare ``asgs_core.step`` from a random state
and subscale history and compares it with a dense solve of the oracle
system.  The workloads are loaded from their file, as
tests/test_trace_sites.py loads the tracer.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads_module():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 20261021])
def test_oracle_problems_is_empty(seed):
    assert _workloads_module().oracle_problems(seed, ROOT) == []
