"""Benchmark workloads: inputs, the timed body, and the checks on its outputs.

Every workload calls only the solver's public entry points, looked up on
their module at call time so that a traced round sees its wrappers.  The
checks rest on properties the method must have (monotone error decay,
first-order rates, eigenvalue signs) and on the dense assembly oracle under
tests/, never on stored copies of earlier output.
"""

import importlib.util
import math
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stokes_asgs import asgs_core, cli, fem_space, manufactured, mesh

# the verification problem's material and stabilization constants
MU, C1, C2 = 0.1, 4.0, 2.0

ORACLE_NX = 3
ORACLE_DT = 0.1
ORACLE_TOL = 1e-10

RATE_TOL = 0.15          # |last rate - 1| for a first-order method
MIN_ORDER = 0.8          # criterion 8's floor, used for every order check
MAX_ORDER = 1.5
EFFECTIVITY_RANGE = (0.05, 50.0)
EFFECTIVITY_SPREAD = 4.0
DEGENERATE_EIG = 1e-10

CSV_HEADER = "level,nx,h,dt,err_u_vtilde,err_p_l2l2,total,roc,eta"


class OpCounter:
    """Counts the operations (level solves, diagnostic calls) of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, n, fn, *args, **kwargs):
        """Call ``fn``, which performs ``n`` operations.

        A call that raises counts all ``n`` as failed and returns None; the
        traceback goes to stderr so the failure stays visible.
        """
        self.attempted += n
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += n
            traceback.print_exc()
            return None


@dataclass(frozen=True)
class Workload:
    inputs: Callable     # (seed, out_dir) -> dict, built during set-up
    body: Callable       # (inputs, OpCounter) -> outputs, timed
    check: Callable      # (inputs, outputs) -> list of problems, untimed
    time_stepping: bool  # also runs the dense oracle check


def _lsq_slope(xs, ys):
    return float(np.polyfit(xs, ys, 1)[0])


# --- refinement study (backward Euler, nx and dt refined together) ---------

def _study_inputs(levels):
    def inputs(seed, out_dir):
        return {"base_nx": 10, "base_dt": 0.1, "levels": levels, "theta": 1}
    return inputs


def _study_body(inp, ops):
    return ops.run(inp["levels"], lambda: manufactured.run_convergence_study(
        inp["base_nx"], inp["base_dt"], inp["levels"], theta=inp["theta"],
        mu=MU, c1=C1, c2=C2))


def _study_check(inp, outputs):
    if outputs is None:
        return []
    table, results = outputs
    problems = []
    totals = [row.total for row in table.rows]
    if not all(b < a for a, b in zip(totals, totals[1:])):
        problems.append(f"totals do not strictly decrease: {totals}")
    last = table.rows[-1].roc
    if not abs(last - 1.0) <= RATE_TOL:
        problems.append(f"last rate {last:.4f} not within {RATE_TOL} of 1")
    div_order = _lsq_slope([math.log(r.nx) for r in results],
                           [-math.log(r.err_div_l2l2) for r in results])
    if not div_order >= MIN_ORDER:
        problems.append(f"divergence order {div_order:.3f} < {MIN_ORDER}")
    eff = [row.eta / row.total for row in table.rows]
    lo, hi = EFFECTIVITY_RANGE
    if not (all(lo <= e <= hi for e in eff)
            and max(eff) / min(eff) < EFFECTIVITY_SPREAD):
        problems.append(f"eta/total {eff} outside [{lo}, {hi}] or spread "
                        f">= {EFFECTIVITY_SPREAD}")
    return problems


# --- Crank-Nicolson time study through the command line ---------------------

CN_LEVELS = 4


def _cn_inputs(seed, out_dir):
    out = out_dir / "cn_time_study.csv"
    if out.exists():
        out.unlink()
    argv = ["study", "--time-study", "--nx", "64", "--dt", "0.2",
            "--levels", str(CN_LEVELS), "--theta", "0", "--out", str(out)]
    return {"argv": argv, "out": out, "dt": 0.2, "nx": 64}


def _cli(argv):
    status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"stokes-asgs {' '.join(argv)} exited with {status}")
    return status


def _cn_body(inp, ops):
    return ops.run(CN_LEVELS, _cli, inp["argv"])


def _cn_check(inp, status):
    if status is None:
        return []
    lines = inp["out"].read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header {lines[:1]} is not {CSV_HEADER!r}"]
    keys = CSV_HEADER.split(",")
    rows = [dict(zip(keys, line.split(","))) for line in lines[1:]]
    if len(rows) != CN_LEVELS or any(len(r) != len(keys) for r in rows):
        return [f"CSV holds {len(rows)} rows, expected {CN_LEVELS} full rows"]
    problems = []
    for i, row in enumerate(rows):
        if (int(row["level"]) != i or int(row["nx"]) != inp["nx"]
                or not math.isclose(float(row["dt"]), inp["dt"] / 2 ** i,
                                    rel_tol=1e-8)):
            problems.append(f"CSV row {i} has level/nx/dt {row}")
    totals = [float(r["total"]) for r in rows]
    if not all(math.isfinite(t) and t > 0 for t in totals):
        problems.append(f"CSV totals not positive and finite: {totals}")
    if not all(b <= a for a, b in zip(totals, totals[1:])):
        problems.append(f"CSV totals increase as dt halves: {totals}")
    return problems


# --- one backward-Euler solve on the finest mesh -----------------------------

def _fine_inputs(seed, out_dir):
    return {"nx": 100, "ref_nx": 50, "dt": 0.01, "t_final": 0.16}


def _fine_body(inp, ops):
    return ops.run(1, manufactured.run_verification_solve, inp["nx"],
                   inp["dt"], 1, inp["t_final"], mu=MU, c1=C1, c2=C2)


def _fine_check(inp, result):
    if result is None:
        return []
    ref = manufactured.run_verification_solve(
        inp["ref_nx"], inp["dt"], 1, inp["t_final"], mu=MU, c1=C1, c2=C2)
    order = (math.log(ref.total / result.total)
             / math.log(inp["nx"] / inp["ref_nx"]))
    if not (result.total < ref.total and MIN_ORDER <= order <= MAX_ORDER):
        return [f"total {result.total:.6e} at nx={inp['nx']} against "
                f"{ref.total:.6e} at nx={inp['ref_nx']}: order {order:.3f} "
                f"not in [{MIN_ORDER}, {MAX_ORDER}]"]
    return []


# --- coercivity and inf-sup eigenvalue diagnostics ----------------------------

def _stability_inputs(seed, out_dir):
    return {"coercivity_nx": (8, 16, 24), "infsup_nx": (16, 24, 32),
            "dt": 0.1, "large_dt": 10.0, "infsup_dt_eff": 0.05}


def _stability_body(inp, ops):
    coercivity, infsup = {}, {}
    for nx in inp["coercivity_nx"]:
        m = mesh.build_unit_square_mesh(nx)
        dofmap = fem_space.build_dofmap(m)
        stab = asgs_core.StabilizationParams.for_mesh(m, MU, C1, C2, inp["dt"])
        loose = asgs_core.StabilizationParams.for_mesh(
            m, MU, C1, C2, inp["large_dt"], stabilized=False)
        coercivity[nx] = (
            ops.run(1, asgs_core.coercivity_check, m, dofmap, stab, inp["dt"]),
            ops.run(1, asgs_core.coercivity_check, m, dofmap, loose,
                    inp["large_dt"]))
    for nx in inp["infsup_nx"]:
        m = mesh.build_unit_square_mesh(nx)
        dofmap = fem_space.build_dofmap(m)
        params = asgs_core.StabilizationParams.for_mesh(
            m, MU, C1, C2, inp["infsup_dt_eff"])
        infsup[nx] = (
            ops.run(1, asgs_core.infsup_constant, m, dofmap, True, params),
            ops.run(1, asgs_core.infsup_constant, m, dofmap, False, params))
    return {"coercivity": coercivity, "infsup": infsup}


def _stability_check(inp, out):
    problems = []
    for nx, (stab, loose) in out["coercivity"].items():
        if stab is not None and not stab > 0:
            problems.append(f"stabilized min eigenvalue {stab} at nx={nx}")
        if loose is not None and not loose <= DEGENERATE_EIG:
            problems.append(f"unstabilized large-dt min eigenvalue {loose} "
                            f"at nx={nx} above {DEGENERATE_EIG}")
    for nx, (stab, _) in out["infsup"].items():
        if stab is not None and not stab > 0:
            problems.append(f"stabilized beta_h {stab} at nx={nx}")
    loose = [b for _, b in out["infsup"].values() if b is not None]
    if not all(b < a for a, b in zip(loose, loose[1:])):
        problems.append(f"unstabilized beta_h does not decrease: {loose}")
    return problems


WORKLOADS = {
    "be_space_study": Workload(_study_inputs(3), _study_body, _study_check, True),
    "cn_time_study": Workload(_cn_inputs, _cn_body, _cn_check, True),
    "fine_mesh_solve": Workload(_fine_inputs, _fine_body, _fine_check, True),
    "stability_diagnostics": Workload(_stability_inputs, _stability_body,
                                      _stability_check, False),
    # the five-level acceptance study (nx 10..160): a reference run for the
    # README, too long and too large for the benchmark's timed runs
    "acceptance_study": Workload(_study_inputs(5), _study_body, _study_check,
                                 True),
}


# --- dense oracle --------------------------------------------------------------

def _dense_assemble(root):
    spec = importlib.util.spec_from_file_location(
        "oracle_dense", root / "tests" / "oracle_dense.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dense_assemble


def oracle_problems(seed, root):
    """One step per theta scheme against a dense solve of the oracle system.

    The state, subscale history and start time are drawn from ``seed``.
    """
    dense_assemble = _dense_assemble(root)
    rng = np.random.default_rng(seed)
    m = mesh.build_unit_square_mesh(ORACLE_NX)
    dofmap = fem_space.build_dofmap(m)
    forcing = lambda x, y, t: manufactured.forcing(x, y, t, MU)
    problems = []
    for theta in (1, 0):
        scheme = asgs_core.TimeScheme(theta=theta, dt=ORACLE_DT, n_steps=1)
        params = asgs_core.StabilizationParams.for_mesh(m, MU, C1, C2,
                                                        scheme.dt_eff)
        state = asgs_core.FieldState(*rng.standard_normal((3, m.n_vertices)),
                                     t=float(rng.uniform(0.0, 1.0)))
        shape = asgs_core.SubscaleState.zeros(m).uprime.shape
        sub = asgs_core.SubscaleState(rng.standard_normal(shape))
        new, _ = asgs_core.step(m, dofmap, state, sub, scheme, params, forcing)
        A, b = dense_assemble(m, dofmap, state, sub, scheme, params, forcing)
        x = np.linalg.solve(A, b)
        got = np.concatenate([new.u1, new.u2, new.p])
        dev = float(np.abs(got - x[:got.size]).max()
                    / max(1.0, np.abs(x).max()))
        if not dev <= ORACLE_TOL:
            problems.append(f"theta={theta} step differs from the dense "
                            f"oracle by {dev:.3e} (> {ORACLE_TOL})")
    return problems
