"""Append one change's benchmark pairs to BENCH_trajectory.json.

Usage: python3 tools/bench_record.py --pr N --workload W --seed S
           [--claim METRIC ...] --parent FILE ... --change FILE ...

Each FILE holds what one ``perfbench/run.py --workload W --seed S --trace 0``
run printed; its last line is the result JSON. The i-th ``--parent`` file
and the i-th ``--change`` file are one pair. For every end-to-end metric
that BENCHMARK.json declares, the record keeps the parent's and the
change's medians, the parent's quartiles, and the number of pairs in which
the change was better. ``--claim`` names the metrics the change claims a
gain on. A run that read ``correct`` false is refused, and so is a second
record for the same change and workload.

The file at the repo root is a JSON list of records, oldest first. Records
taken from prose rather than runs carry null quartiles and wins.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_trajectory.json"
END_TO_END = {
    spec["name"]: spec["better"]
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
RECORD_KEYS = {"pr", "workload", "seed", "pairs", "claimed", "metrics"}
METRIC_KEYS = {"parent_median", "change_median", "parent_q1", "parent_q3", "wins"}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check(records) -> None:
    """Raise ValueError unless records is a list of well-formed records."""
    if not isinstance(records, list):
        raise ValueError("the trajectory is not a list")
    seen = set()
    for record in records:
        if not isinstance(record, dict) or set(record) != RECORD_KEYS:
            raise ValueError("record keys are not %s: %r" % (sorted(RECORD_KEYS), record))
        key = (record["pr"], record["workload"])
        where = "record %s/%s" % key
        if key in seen:
            raise ValueError("%s appears twice" % where)
        seen.add(key)
        for name in ("pr", "seed", "pairs"):
            if not isinstance(record[name], int) or isinstance(record[name], bool):
                raise ValueError("%s: %s is not an integer" % (where, name))
        if record["pairs"] < 1 or not isinstance(record["workload"], str):
            raise ValueError("%s: needs a workload name and a pair" % where)
        metrics, claimed = record["metrics"], record["claimed"]
        if not isinstance(metrics, dict) or not metrics or set(metrics) - set(END_TO_END):
            raise ValueError("%s: metrics must be end-to-end metrics" % where)
        if not isinstance(claimed, list) or not set(claimed) <= set(metrics):
            raise ValueError("%s: claimed must list recorded metrics" % where)
        for name, entry in metrics.items():
            if not isinstance(entry, dict) or set(entry) != METRIC_KEYS:
                raise ValueError("%s: %s keys are not %s" % (where, name, sorted(METRIC_KEYS)))
            if not (_number(entry["parent_median"]) and _number(entry["change_median"])):
                raise ValueError("%s: %s medians must be numbers" % (where, name))
            quartiles = (entry["parent_q1"], entry["parent_q3"])
            if quartiles != (None, None) and not all(map(_number, quartiles)):
                raise ValueError("%s: %s quartiles must be two numbers or null" % (where, name))
            wins = entry["wins"]
            if wins is not None and not (
                isinstance(wins, int) and not isinstance(wins, bool)
                and 0 <= wins <= record["pairs"]
            ):
                raise ValueError("%s: %s wins must be null or 0..pairs" % (where, name))


def _result(path: Path) -> dict:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError("%s is empty" % path)
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError("%s did not read correct true" % path)
    return {name: result["metrics"][name]["value"] for name in END_TO_END}


def record(pr, workload, seed, claimed, parents, changes) -> dict:
    """One record from the pairs (parent result, change result)."""
    if not parents or len(parents) != len(changes):
        raise ValueError("need as many change runs as parent runs, at least one")
    metrics = {}
    for name, better in END_TO_END.items():
        old = [run[name] for run in parents]
        new = [run[name] for run in changes]
        if len(old) > 1:
            q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        else:
            q1 = q3 = old[0]
        sign = 1 if better == "lower" else -1
        metrics[name] = {
            "parent_median": statistics.median(old),
            "change_median": statistics.median(new),
            "parent_q1": q1,
            "parent_q3": q3,
            "wins": sum(sign * (a - b) > 0 for a, b in zip(old, new)),
        }
    return {
        "pr": pr,
        "workload": workload,
        "seed": seed,
        "pairs": len(parents),
        "claimed": list(claimed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--claim", nargs="*", default=[], choices=list(END_TO_END))
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        records = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        records.append(
            record(
                args.pr,
                args.workload,
                args.seed,
                args.claim,
                [_result(p) for p in args.parent],
                [_result(p) for p in args.change],
            )
        )
        check(records)
    except (OSError, ValueError, KeyError) as exc:
        print("bench_record: %s" % exc, file=sys.stderr)
        return 1
    TRAJECTORY.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
