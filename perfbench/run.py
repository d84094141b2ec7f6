"""Solver benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload be_space_study --seed 1 --seconds 10 --trace 0

Every round runs in a fresh worker process (worker.py) with BLAS and OpenMP
pinned to one thread.  With --trace 0 the run repeats whole rounds until
--seconds have passed (at least one) and reports the end-to-end metrics as
medians over rounds; set-up is sampled at least SETUP_SAMPLES times, by
extra set-up-only processes where the rounds are fewer.  With --trace 1 it
runs one untraced round and two traced rounds, requires the traced counts
to agree exactly, and reports the per-layer metrics, the tracing overhead
and the share of traced wall time the layers' self times account for.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
exit status is 0 when that line was printed; a worker that could not run
(for instance because the checkout has no src/stokes_asgs) makes the run
exit 1 without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
TRACED_ROUNDS = 2
# a run must end within 180 s; stop starting rounds well before that
BUDGET_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(Exception):
    pass


def run_worker(workload, seed, deadline, trace=0, setup_only=False,
               spans=None):
    """Run one worker process to completion; returns its JSON result."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(cmd[1:])} exited with "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def summarize(rounds, problems):
    """Operation counts and verdict over a run's rounds."""
    problems = problems + [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds)}


def measure(workload, seed, seconds, deadline):
    rounds = []
    start = time.monotonic()
    # whole rounds only: start another while it should end within `seconds`
    while True:
        rounds.append(run_worker(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(rounds)) > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, deadline,
                                 setup_only=True)["setup_s"])
    values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return summarize(rounds, []), metrics


def measure_traced(workload, seed, deadline):
    base = run_worker(workload, seed, deadline)
    traced = [run_worker(workload, seed, deadline, trace=1,
                         spans=OUT_DIR / f"{workload}-{k}.spans.jsonl")
              for k in range(TRACED_ROUNDS)]
    problems = []
    if any(r["counts"] != traced[0]["counts"] for r in traced):
        problems.append("span counts differ between traced rounds: "
                        + json.dumps([r["counts"] for r in traced]))
    # counts repeat exactly (checked above); times are medians
    values = {name: value if LAYER_METRICS[name][0] == "count"
              else statistics.median(r["layers"][name] for r in traced)
              for name, value in traced[0]["layers"].items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall / base["wall_s"] - 1.0)
    values["trace.self_coverage_pct"] = statistics.median(
        r["self_coverage_pct"] for r in traced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in LAYER_METRICS.items()}
    return summarize([base, *traced], problems), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stokes_asgs" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/stokes_asgs to benchmark",
              file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            verdict, metrics = measure_traced(args.workload, args.seed,
                                              deadline)
        else:
            verdict, metrics = measure(args.workload, args.seed, args.seconds,
                                       deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({**verdict, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
