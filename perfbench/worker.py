"""One workload run in a fresh interpreter; started by ``run.py``.

The worker imports ``revembed`` from the checkout's ``src``, writes the
seed's inputs, prints ``READY`` (the parent times set-up up to that line)
and the calibration loop's current time, runs the job list in passes
through ``revembed.cli.main`` in-process, reads its peak RSS, then checks
the outputs outside the timed loop and prints one JSON line for the parent.
With ``--setup-only`` it stops after the calibration line.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import covers  # noqa: E402
import workloads  # noqa: E402
from calibration import REFERENCE_S, calibrate  # noqa: E402


class SetupError(Exception):
    pass


def import_revembed() -> None:
    """Import the checkout's revembed, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import revembed
        import revembed.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError("cannot import revembed from %s: %s" % (ROOT / "src", exc))
    where = Path(revembed.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SetupError("revembed was imported from %s, not the checkout" % where)


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and write the seed's inputs; returns the jobs,
    input paths and input texts."""
    import_revembed()
    stale = covers.check_corpus()
    if stale:
        raise SetupError(
            "committed covers no longer regenerate from seed %d: %s"
            % (covers.DEFAULT_SEED, ", ".join(stale))
        )
    job_list = workloads.jobs(workload)
    names = workloads.input_names(job_list)
    texts = workloads.make_inputs(names, seed, covers.CORPUS_DIR)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        path = workdir / ("%s.pla" % name)
        path.write_text(text)
        paths[name] = str(path)
    return job_list, paths, texts


def call_cli(argv: list[str]) -> tuple[object, str, str]:
    """(exit code or escaped exception, stdout, stderr) of one in-process
    CLI call."""
    main = sys.modules["revembed.cli"].main  # looked up late: tracing rebinds it
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback the CLI let escape is a result
            code = exc
    return code, out.getvalue(), err.getvalue()


def classify(code) -> str | None:
    """Failure reason from the exit status alone; None for exit 0."""
    if isinstance(code, BaseException):
        return "exception:%s" % type(code).__name__
    if code == 0:
        return None
    if code == 2:
        return "budget"
    return "exit:%d" % code


def run_pass(job_list, paths, tracer=None) -> tuple[float, list[dict]]:
    """Run every job once, in order; (busy seconds, per-job records).

    The calibration loop runs between jobs; a job's "cal" is the mean of
    the runs just before and just after it.
    """
    records = []
    busy = 0.0
    before = calibrate()
    for index, job in enumerate(job_list):
        argv = job.resolve(paths)
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        code, out, err = call_cli(argv)
        seconds = time.perf_counter() - start
        busy += seconds
        if tracer is not None:
            tracer.end_job()  # node bookkeeping, left out of the busy time
        after = calibrate()
        records.append(
            {
                "job": index,
                "command": job.label,
                "exit": code if isinstance(code, int) else None,
                "seconds": seconds,
                "cal": (before + after) / 2,
                "reason": classify(code),
                "stdout": out,
                "stderr": err[-300:],
            }
        )
        before = after
    return busy, records


def passes(job_list, paths, window_s: float, tracer=None):
    """Passes until the next one would end after window_s (at least one).

    Returns the busy seconds, records and layer metrics of each pass, and
    the process's peak RSS in MB after the first pass: later passes can
    only raise it through allocator fragmentation, and how many of them
    fit the window depends on the machine's speed.
    """
    times, all_records, layer_metrics = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        busy, records = run_pass(job_list, paths, tracer)
        if not times:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times.append(busy)
        all_records.append(records)
        if tracer is not None:
            layer_metrics.append(tracer.metrics())
        if time.perf_counter() - start + busy > window_s:
            return times, all_records, layer_metrics, peak_rss_mb


def calibrated_wall(all_records) -> float:
    """Job-list time at the baseline machine's speed: each job's median over
    passes of its time divided by the calibration loop's time around it,
    summed, times the loop's reference time."""
    per_job = zip(*[[r["seconds"] / r["cal"] for r in records] for records in all_records])
    return REFERENCE_S * sum(statistics.median(ratios) for ratios in per_job)


def check_outputs(job_list, all_records, ctx) -> None:
    """Fill in a reason for every wrong output; later passes must repeat
    the first pass's output exactly."""
    first = all_records[0]
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # references may hold counts of any length
    try:
        for job, rec in zip(job_list, first):
            if rec["reason"] is None:
                try:
                    bad = job.check(rec["stdout"], ctx)
                except Exception as exc:  # an output the check cannot read
                    bad = "check raised %s: %s" % (type(exc).__name__, exc)
                if bad:
                    rec["reason"] = "wrong: %s" % bad
    finally:
        sys.set_int_max_str_digits(digits)
    for records in all_records[1:]:
        for rec, ref_rec in zip(records, first):
            if rec["reason"] is None and rec["stdout"] != ref_rec["stdout"]:
                rec["reason"] = "wrong: output differs from the first pass"


def artifacts(all_records) -> dict:
    """Artifact sizes of the first pass: embedding nodes and dsop cubes."""
    chi_nodes = dsop_cubes = 0
    for rec in all_records[0]:
        if rec["reason"] is not None:
            continue
        command = rec["command"].split()
        if command[0] == "dsop":
            dsop_cubes += sum(
                1 for line in rec["stdout"].splitlines() if line[:1] in ("0", "1", "-")
            )
        elif command[0] in ("embed", "gen"):
            payload = json.loads(rec["stdout"])
            if command[0] == "gen":
                payload = payload["embed"] or {}
            chi_nodes += payload.get("node_count", 0)
    return {"chi_nodes": chi_nodes, "dsop_cubes": dsop_cubes}


def log_jobs(workload: str, records) -> None:
    """One line per job on stderr: command, exit code, seconds, outcome,
    and the CLI's last stderr line when the job failed."""
    for rec in records:
        said = rec["stderr"].strip().splitlines()[-1:] if rec["reason"] else []
        print(
            "%s job %2d exit=%s %8.3fs %s  %s%s"
            % (
                workload,
                rec["job"],
                rec["exit"],
                rec["seconds"],
                rec["reason"] or "ok",
                rec["command"],
                "".join("  [%s]" % line[:120] for line in said),
            ),
            file=sys.stderr,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    try:
        job_list, paths, texts = setup(args.workload, args.seed, workdir)
    except SetupError as exc:
        print("setup failed: %s" % exc, file=sys.stderr)
        return 3
    print("READY", flush=True)
    # the machine's speed just after set-up, to put set-up at reference speed
    print("CAL %r" % statistics.median(calibrate() for _ in range(3)), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        # untraced passes first, for the overhead, then the same window traced
        window = args.seconds / 2
        plain_times, all_records, _, peak_rss_mb = passes(job_list, paths, window)
        wall_s = calibrated_wall(all_records)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        times, traced_records, layer_metrics, _ = passes(
            job_list, paths, window, tracer
        )
        tracer.uninstall()
        all_records += traced_records
    else:
        times, all_records, _, peak_rss_mb = passes(job_list, paths, args.seconds)
        wall_s = calibrated_wall(all_records)

    import revembed
    from reference import Validators

    check_start = time.perf_counter()
    ctx = workloads.Context(
        paths, texts, Validators(revembed.schema_path), lambda a: call_cli(a)[:2]
    )
    check_outputs(job_list, all_records, ctx)
    check_s = time.perf_counter() - check_start

    flat = [rec for records in all_records for rec in records]
    log_jobs(args.workload, all_records[0])
    log_jobs(args.workload, [r for r in flat[len(job_list):] if r["reason"]])
    result = {
        "wall_s": wall_s,
        "pass_s": times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(flat),
        "failed": sum(1 for r in flat if r["reason"]),
        "wrong": sum(1 for r in flat if (r["reason"] or "").startswith("wrong")),
        "budget": sum(1 for r in flat if r["reason"] == "budget"),
        "reasons": sorted({r["reason"] for r in flat if r["reason"]}),
        "artifacts": artifacts(all_records),
        "check_s": check_s,
    }
    if tracer is not None:
        layers = {
            key: statistics.median(m[key] for m in layer_metrics)
            for key in layer_metrics[0]
        }
        # uncalibrated, like the per-layer seconds they are compared with
        layers["trace.wall_s"] = statistics.median(times)
        layers["trace.untraced_wall_s"] = statistics.median(plain_times)
        # calibrated, so that a drift in machine speed between the halves
        # does not pass for tracing cost
        layers["trace.overhead_ratio"] = calibrated_wall(traced_records) / wall_s
        layers["oracle.check_s"] = check_s
        layers["embedding.chi_nodes"] = result["artifacts"]["chi_nodes"]
        layers["dsop.cubes_written"] = result["artifacts"]["dsop_cubes"]
        result["layers"] = layers
        spans_path = ROOT / ".perfbench-work" / (
            "spans-%s-seed%d.json" % (args.workload, args.seed)
        )
        spans_path.write_text(
            json.dumps(
                [
                    {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4]}
                    for s in tracer.spans
                ]
            )
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
