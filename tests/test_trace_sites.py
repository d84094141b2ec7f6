"""The benchmark tracer's sites resolve on the package and see a solve.

perfbench/tracer.py wraps module-level names at the place their callers
look them up; a renamed or inlined function would leave its per-layer
metric reading 0.  The tracer is loaded from its file, as the benchmark's
workloads load the dense oracle.
"""

import importlib.util
from pathlib import Path

import stokes_asgs
from stokes_asgs import asgs_core, cli, fem_space, linalg, manufactured, mesh  # noqa: F401


def _tracer_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves():
    tracer = _tracer_module()
    for owner, attr in tracer.SITES:
        assert callable(getattr(tracer.resolve(stokes_asgs, owner), attr)), (owner, attr)


def test_traced_solve_records_indicator_and_factor():
    tracer = _tracer_module()
    t = tracer.Tracer()
    t.install(stokes_asgs)
    try:
        manufactured.run_verification_solve(4, 0.1, 1, 0.2)
    finally:
        t.uninstall()
    names = [span[0] for span in t.spans]
    assert names.count("manufactured.residual_indicator") == 2
    # the old level's action of the right-hand side is built outside it
    assert names.count("asgs_core.assemble_lhs") == 1
    assert len(t.factors) == 1
    assert tracer.wrapped_sites(stokes_asgs) == []
    # the record's sizes are those of the reduced step matrix
    m = mesh.build_unit_square_mesh(4)
    dofmap = fem_space.build_dofmap(m)
    scheme = asgs_core.TimeScheme(theta=1, dt=0.1, n_steps=1)
    params = asgs_core.StabilizationParams.for_mesh(m, 0.1, 4.0, 2.0, scheme.dt_eff)
    factor = asgs_core.ReducedFactor(asgs_core.assemble_lhs(m, dofmap, scheme, params),
                                     dofmap)
    rows, nnz, _ = t.factors[0]
    assert rows == len(factor.kept)
    assert nnz == factor.matrix[factor.kept][:, factor.kept].nnz


def test_cli_opens_the_run_spans(tmp_path):
    # cli looks the run functions up on manufactured, so the tracer's
    # wrappers there see the calls that cli.main makes
    tracer = _tracer_module()
    t = tracer.Tracer()
    t.install(stokes_asgs)
    try:
        assert cli.main(["solve", "--nx", "4", "--t-final", "0.2",
                         "--out", str(tmp_path / "solve.csv")]) == 0
        assert cli.main(["study", "--nx", "4", "--dt", "0.25", "--t-final", "0.5",
                         "--levels", "2", "--out", str(tmp_path / "study.csv")]) == 0
    finally:
        t.uninstall()
    runs = [(name, t.spans[parent][0]) for name, _, _, parent in t.spans
            if name.startswith("manufactured.run_")]
    assert runs == [("manufactured.run_verification_solve", "cli.main"),
                    ("manufactured.run_convergence_study", "cli.main")]
