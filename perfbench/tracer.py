"""Spans around calls into the solver's layers, and the per-layer metrics.

The tracer replaces a public function by a timing wrapper at the place its
caller looks it up (a module global or a class attribute), records one span
per call in memory (name, start, end, parent) and puts every original back
on ``uninstall``.  Nothing is wrapped unless a traced round asks for it, so
an untraced round runs the program's own functions.
"""

import functools
import json
import time

# (owner, attribute) pairs, where owner is "module" or "module.Class" under
# the stokes_asgs package.  A function imported by name into another module
# is wrapped in each module that calls it.
SITES = (
    ("cli", "main"),
    ("manufactured", "run_convergence_study"),
    ("manufactured", "run_verification_solve"),
    ("manufactured", "build_unit_square_mesh"),
    ("manufactured", "build_dofmap"),
    ("manufactured", "residual_indicator"),
    ("manufactured", "forcing"),
    ("mesh", "build_unit_square_mesh"),
    ("fem_space", "build_dofmap"),
    ("asgs_core", "solve_transient"),
    ("asgs_core", "step"),
    ("asgs_core", "assemble_lhs"),
    ("asgs_core", "assemble_rhs"),
    ("asgs_core", "update_subscales"),
    ("asgs_core", "coercivity_check"),
    ("asgs_core", "infsup_constant"),
    ("linalg.DirectFactor", "__init__"),
    ("linalg.DirectFactor", "solve"),
)

ROOT_SPAN = "workload"
FACTOR_SPAN = "linalg.DirectFactor.__init__"

# per-layer metric -> span whose summed self time it reports
LAYER_TIMES = {
    "mesh.build_s": "mesh.build_unit_square_mesh",
    "fem_space.build_dofmap_s": "fem_space.build_dofmap",
    "asgs_core.assemble_lhs_s": "asgs_core.assemble_lhs",
    "asgs_core.assemble_rhs_s": "asgs_core.assemble_rhs",
    "asgs_core.update_subscales_s": "asgs_core.update_subscales",
    "asgs_core.step_self_s": "asgs_core.step",
    "asgs_core.solve_transient_self_s": "asgs_core.solve_transient",
    "asgs_core.coercivity_check_s": "asgs_core.coercivity_check",
    "asgs_core.infsup_constant_s": "asgs_core.infsup_constant",
    "linalg.factor_s": FACTOR_SPAN,
    "linalg.backsolve_s": "linalg.DirectFactor.solve",
    "manufactured.residual_indicator_s": "manufactured.residual_indicator",
    "manufactured.forcing_s": "manufactured.forcing",
    "cli.self_s": "cli.main",
}

# per-layer metric -> span whose number of calls it reports
LAYER_COUNTS = {
    "asgs_core.steps": "asgs_core.step",
    "linalg.backsolves": "linalg.DirectFactor.solve",
    "manufactured.forcing_calls": "manufactured.forcing",
}

# nnz of the largest factorized system, taken from the factor spans
LAYER_SIZES = ("linalg.factor_nnz", "linalg.matrix_nnz")

# metric -> (unit, better); the two trace.* metrics judge the trace itself
LAYER_METRICS = {
    **{name: ("s", "lower") for name in LAYER_TIMES},
    **{name: ("count", "lower") for name in (*LAYER_COUNTS, *LAYER_SIZES)},
    "trace.overhead_pct": ("%", "lower"),
    "trace.self_coverage_pct": ("%", "higher"),
}

_MARK = "__perfbench_span__"


def span_name(fn):
    """'module.qualname' of a stokes_asgs function, without the package."""
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__qualname__


def resolve(package, owner):
    """The module or class named by a SITES owner, under ``package``."""
    module, _, cls = owner.partition(".")
    obj = getattr(package, module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one single-threaded round."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.factors = []        # (matrix rows, matrix nnz, nnz(L)+nnz(U))
        self._stack = []
        self._installed = []     # (owner object, attribute, original)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, fn):
        name = span_name(fn)
        after = self._record_factor if name == FACTOR_SPAN else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(*args)
            return result

        setattr(traced, _MARK, name)
        return traced

    def _record_factor(self, factor, matrix):
        # read after the span closed, so factor_s excludes it
        self.factors.append((matrix.n_rows, matrix.n_nonzeros,
                             int(factor.lu.L.nnz + factor.lu.U.nnz)))

    def install(self, package, sites=SITES):
        for owner, attr in sites:
            obj = resolve(package, owner)
            original = getattr(obj, attr)
            self._installed.append((obj, attr, original))
            setattr(obj, attr, self.wrap(original))

    def uninstall(self):
        while self._installed:
            obj, attr, original = self._installed.pop()
            setattr(obj, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def wrapped_sites(package, sites=SITES):
    """The sites that currently hold a tracer wrapper (empty when untraced)."""
    return [f"{owner}.{attr}" for owner, attr in sites
            if hasattr(getattr(resolve(package, owner), attr), _MARK)]


def self_times(spans):
    """Per span name: (summed self time, number of spans).

    A span's self time is its duration minus the time its direct children
    cover; spans of a single thread nest, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (name, start, end, _), child in zip(spans, covered):
        total, count = totals.get(name, (0.0, 0))
        totals[name] = (total + (end - start) - child, count + 1)
    return totals


def layer_metrics(tracer):
    """Per-layer values of one traced round, plus its traced wall time.

    Returns (metrics, counts, wall) where counts holds every exact count the
    round produced, for comparison between two traced rounds.
    """
    totals = self_times(tracer.spans)
    metrics = {name: totals.get(span, (0.0, 0))[0]
               for name, span in LAYER_TIMES.items()}
    for name, span in LAYER_COUNTS.items():
        metrics[name] = totals.get(span, (0.0, 0))[1]
    rows, matrix_nnz, factor_nnz = max(tracer.factors, default=(0, 0, 0))
    metrics["linalg.factor_nnz"] = factor_nnz
    metrics["linalg.matrix_nnz"] = matrix_nnz
    counts = {name: count for name, (_, count) in sorted(totals.items())}
    counts["factors"] = tracer.factors
    roots = [end - start for name, start, end, _ in tracer.spans
             if name == ROOT_SPAN]
    return metrics, counts, sum(roots)
