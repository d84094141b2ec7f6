"""One round of one workload in a fresh process: set up, time, check.

    python3 perfbench/worker.py --workload be_space_study --seed 1 [--trace 1]

run.py starts one of these per round.  Set-up runs from process start
through importing stokes_asgs and building the workload's inputs; the body
is timed with tracing off unless --trace 1.  The last stdout line is one
JSON object with the round's times, peak RSS, operation counts, the
problems its checks found and, when traced, its per-layer metrics.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() at which the parent started "
                             "this process; default: this module's import")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced round's spans here (JSON lines)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stokes_asgs" / "__init__.py").is_file():
        print(f"error: no stokes_asgs package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import stokes_asgs
    if Path(stokes_asgs.__file__).resolve().parent != src / "stokes_asgs":
        print(f"error: imported {stokes_asgs.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import tracer
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.inputs(args.seed, OUT_DIR)
    setup_s = time.monotonic() - (STARTED if args.spawned_at is None
                                 else args.spawned_at)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workloads.OpCounter()
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install(stokes_asgs)
        trace.begin(tracer.ROOT_SPAN)
    start = time.perf_counter()
    try:
        outputs = workload.body(inputs, ops)
    finally:
        wall_s = time.perf_counter() - start
        if trace is not None:
            trace.end()
            trace.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"{site} still wrapped after the round"
                for site in tracer.wrapped_sites(stokes_asgs)]
    problems += workload.check(inputs, outputs)
    if workload.time_stepping:
        problems += workloads.oracle_problems(args.seed, ROOT)

    result = {"workload": args.workload, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "attempted": ops.attempted,
              "failed": ops.failed, "problems": problems}
    if trace is not None:
        layers, counts, traced_wall = tracer.layer_metrics(trace)
        covered = sum(layers[name] for name in tracer.LAYER_TIMES)
        result.update(layers=layers, counts=counts,
                      self_coverage_pct=100.0 * covered / traced_wall)
        if args.spans is not None:
            trace.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
