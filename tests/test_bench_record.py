import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def run_output(path, wall_s, peak_rss_mb=33.0, setup_s=0.3, correct=True):
    """What perfbench/run.py prints: a summary, then the result line."""
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    line = {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}
    path.write_text("cover-rewrite: 10 jobs attempted\n%s\n" % json.dumps(line))
    return path


def test_trajectory_is_well_formed():
    records = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    assert records
    bench_record.check(records)


GOOD = {
    "pr": 1,
    "workload": "cover-rewrite",
    "seed": 0,
    "pairs": 2,
    "claimed": ["wall_s"],
    "metrics": {
        "wall_s": {
            "parent_median": 0.2,
            "change_median": 0.1,
            "parent_q1": 0.19,
            "parent_q3": 0.21,
            "wins": 2,
        }
    },
}


def broken(edit):
    record = copy.deepcopy(GOOD)
    edit(record)
    return [record]


MALFORMED = {
    "not-a-list": {"records": [GOOD]},
    "missing-key": broken(lambda r: r.pop("seed")),
    "extra-key": broken(lambda r: r.update(extra=1)),
    "bool-pairs": broken(lambda r: r.update(pairs=True)),
    "no-pairs": broken(lambda r: r.update(pairs=0)),
    "text-pr": broken(lambda r: r.update(pr="22")),
    "claim-not-a-list": broken(lambda r: r.update(claimed="wall_s")),
    "claim-not-recorded": broken(lambda r: r.update(claimed=["setup_s"])),
    "unknown-metric": broken(lambda r: r["metrics"].update(nodes=r["metrics"]["wall_s"])),
    "text-median": broken(lambda r: r["metrics"]["wall_s"].update(change_median="0.1")),
    "one-quartile": broken(lambda r: r["metrics"]["wall_s"].update(parent_q1=None)),
    "wins-past-pairs": broken(lambda r: r["metrics"]["wall_s"].update(wins=3)),
    "missing-wins": broken(lambda r: r["metrics"]["wall_s"].pop("wins")),
    "duplicate": [GOOD, GOOD],
}


@pytest.mark.parametrize("records", MALFORMED.values(), ids=MALFORMED.keys())
def test_check_rejects_malformed_records(records):
    bench_record.check([GOOD])
    with pytest.raises(ValueError):
        bench_record.check(records)


def test_records_pairs_from_run_output(tmp_path, monkeypatch):
    trajectory = tmp_path / "trajectory.json"
    monkeypatch.setattr(bench_record, "TRAJECTORY", trajectory)
    walls = [(0.16, 0.12), (0.15, 0.13), (0.17, 0.18), (0.14, 0.11), (0.18, 0.12)]
    parents = [run_output(tmp_path / ("p%d" % i), w) for i, (w, _) in enumerate(walls)]
    changes = [
        run_output(tmp_path / ("c%d" % i), w, peak_rss_mb=34.0)
        for i, (_, w) in enumerate(walls)
    ]
    argv = ["--pr", "7", "--workload", "cover-rewrite", "--seed", "0"]
    paths = ["--parent", *map(str, parents), "--change", *map(str, changes)]
    assert bench_record.main(argv + ["--claim", "wall_s"] + paths) == 0
    (record,) = json.loads(trajectory.read_text())
    assert (record["pr"], record["pairs"], record["claimed"]) == (7, 5, ["wall_s"])
    wall = record["metrics"]["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (0.16, 0.12)
    assert (wall["parent_q1"], wall["parent_q3"]) == pytest.approx((0.15, 0.17))
    assert wall["wins"] == 4
    assert record["metrics"]["peak_rss_mb"]["wins"] == 0
    assert record["metrics"]["setup_s"]["wins"] == 0
    # the same change and workload again, or a run that read wrong outputs
    assert bench_record.main(argv + paths) == 1
    wrong = run_output(tmp_path / "wrong", 0.1, correct=False)
    other = ["--pr", "8", "--workload", "cover-rewrite", "--seed", "0"]
    assert bench_record.main(other + ["--parent", str(wrong), "--change", str(wrong)]) == 1
    assert len(json.loads(trajectory.read_text())) == 1
