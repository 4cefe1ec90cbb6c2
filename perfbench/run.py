"""revembed benchmark: closed-loop CLI workloads, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each run starts fresh interpreters (``worker.py``). Set-up, from spawning
the interpreter to the worker's ``READY`` line, covers importing revembed
(numpy comes in through ``revembed.oracle``) and writing the seed's inputs;
it is repeated SETUP_REPEATS times and the median is reported. The last
worker then runs the workload's job list through ``revembed.cli.main`` in
passes for ``--seconds`` and checks every output against an independent
reference outside the timed loop.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
window untraced and half traced and reports the per-layer metrics and the
tracing overhead. The last line of standard output is the result JSON. The
run exits 1 when an output disagrees with its reference, and 2 without a
result when the benchmark cannot run at all.

``--workload all`` runs every workload of ``workloads.py``, including
``known-breaks``, and prints a table instead.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402

# metric names and units, as BENCHMARK.json declares them
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a worker still running after this is killed


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, trace, workdir, setup_only, deadline):
    """Start a worker, time it to READY, and wait for it; returns
    (set-up seconds, result dict or None)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        cal = proc.stdout.readline().split()
        if ready.strip() != "READY" or len(cal) != 2 or cal[0] != "CAL":
            raise BenchError("worker set-up failed for %s" % workload)
        # at the baseline machine's speed, like the job times
        setup_s *= REFERENCE_S / float(cal[1])
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker for %s ran past %ds" % (workload, RUN_LIMIT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker for %s exited %d" % (workload, proc.returncode))
    if setup_only:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker for %s printed no result" % workload)
    return setup_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ROOT / ".perfbench-work"
    workdir = base / ("%s-seed%d-%d" % (workload, seed, int(time.time() * 1e6)))
    try:
        setups = [
            spawn(workload, seed, seconds, trace, workdir, True, deadline)[0]
            for _ in range(SETUP_REPEATS - 1)
        ]
        setup_s, result = spawn(workload, seed, seconds, trace, workdir, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup_s)
    result["setup_s"] = statistics.median(setups)
    return result


def report(workload: str, result: dict, trace: int) -> dict:
    """Metrics for the result line, after a readable summary on stdout."""
    times = result["pass_s"]
    frac = result["failed"] / result["attempted"]
    print(
        "%s: %d jobs attempted, %d failed (failed_frac %.4f, budget %d), "
        "%d wrong; %s"
        % (
            workload,
            result["attempted"],
            result["failed"],
            frac,
            result["budget"],
            result["wrong"],
            ", ".join(result["reasons"]) or "no failures",
        )
    )
    print(
        "  setup_s %.4f s  wall_s %.4f s (%d passes, uncalibrated: %s s)"
        "  peak_rss_mb %.1f MB  chi_nodes %d nodes  dsop_cubes %d cubes"
        % (
            result["setup_s"],
            result["wall_s"],
            len(times),
            " ".join("%.3f" % t for t in times),
            result["peak_rss_mb"],
            result["artifacts"]["chi_nodes"],
            result["artifacts"]["dsop_cubes"],
        )
    )
    if trace:
        values = result["layers"]
    else:
        values = {
            "setup_s": result["setup_s"],
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {}
    for spec in METRICS["per_layer" if trace else "end_to_end"]:
        if spec["name"] not in values:
            raise BenchError("%s did not measure %s" % (workload, spec["name"]))
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        if trace:
            print("  %-30s %14.6g %s" % (spec["name"], values[spec["name"]], spec["unit"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.ALL if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.ALL:
            print("unknown workload %r" % name, file=sys.stderr)
            return 2
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    try:
        metrics = {name: report(name, results[name], args.trace) for name in names}
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    correct = all(r["wrong"] == 0 for r in results.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
