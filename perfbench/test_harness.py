"""Self-tests of the benchmark harness: python3 -m pytest perfbench/test_harness.py"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import covers  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def inputs(tmp_path):
    worker.import_revembed()
    names = ["running_example", "r16c40", "wide300"]
    texts = workloads.make_inputs(names, 7, covers.CORPUS_DIR)
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / ("%s.pla" % name))
        Path(paths[name]).write_text(text)
    return paths, texts


def _context(paths, texts):
    import revembed

    return workloads.Context(
        paths,
        texts,
        reference.Validators(revembed.schema_path),
        lambda argv: worker.call_cli(argv)[:2],
    )


def test_right_outputs_pass_their_checks(inputs):
    paths, texts = inputs
    job_list = [
        workloads._lines("running_example", "exact-bdd"),
        workloads._lines("running_example", "heuristic"),
        workloads._dsop("running_example"),
        workloads._embed_exact("running_example", True),
        workloads._embed_bennett("running_example"),
        workloads._lines("wide300", "exact-bdd"),
        workloads._gen("rgs", 5, embed=True),
        workloads._gen("redundancy", 3, 2),
    ]
    _, records = worker.run_pass(job_list, paths)
    worker.check_outputs(job_list, [records], _context(paths, texts))
    assert [r["reason"] for r in records] == [None] * len(job_list)


def test_corrupted_output_counts_as_failed(inputs):
    paths, texts = inputs
    job_list = [
        workloads._lines("running_example", "exact-bdd"),
        workloads._embed_exact("running_example", True),
        workloads._dsop("running_example"),
    ]
    _, records = worker.run_pass(job_list, paths)
    lines = json.loads(records[0]["stdout"])
    lines["patterns"][0]["count"] = str(int(lines["patterns"][0]["count"]) + 1)
    records[0]["stdout"] = json.dumps(lines)
    embed = json.loads(records[1]["stdout"])
    embed["verify"]["injective"] = False
    records[1]["stdout"] = json.dumps(embed)
    records[2]["stdout"] = records[2]["stdout"].replace("-", "0", 1)
    worker.check_outputs(job_list, [records], _context(paths, texts))
    assert all(r["reason"].startswith("wrong") for r in records)


def test_later_pass_must_repeat_the_first(inputs):
    paths, texts = inputs
    job_list = [workloads._lines("running_example", "exact-bdd")]
    _, first = worker.run_pass(job_list, paths)
    _, second = worker.run_pass(job_list, paths)
    second[0]["stdout"] += " "
    worker.check_outputs(job_list, [first, second], _context(paths, texts))
    assert first[0]["reason"] is None
    assert second[0]["reason"].startswith("wrong")


def test_budget_hit_is_recorded_as_budget(inputs):
    paths, _ = inputs
    job = workloads._dsop("r16c40", budget_s=0.05)
    _, records = worker.run_pass([job], paths)
    assert records[0]["exit"] == 2
    assert records[0]["reason"] == "budget"


def test_escaped_exception_counts_as_failed(inputs, monkeypatch):
    paths, _ = inputs

    def broken(argv):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(sys.modules["revembed.cli"], "main", broken)
    _, records = worker.run_pass([workloads._lines("running_example", "heuristic")], paths)
    assert records[0]["reason"] == "exception:RecursionError"
    assert records[0]["exit"] is None


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 3] and [2, 4] (overlapping) and [5, 8];
    # [5, 8] has a child [6, 7] of the same name as the root
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("dsop.dsop", 1.0, 3.0, 0),
        ("pla.parse_pla", 2.0, 4.0, 0),
        ("embedding.verify", 5.0, 8.0, 0),
        ("cli.main", 6.0, 7.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 2.0, 1.0])
    layers = tracing.layer_self_times(spans)
    assert layers == pytest.approx(
        {"cli": 5.0, "dsop": 2.0, "pla": 2.0, "embedding": 2.0}
    )
    # the nested cli.main lies inside the outer one and is not counted again
    assert tracing.inclusive_times(spans)["cli.main"] == pytest.approx(10.0)


def test_tracer_counts_and_restores(inputs):
    paths, _ = inputs
    import revembed

    original = revembed.dsop
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert revembed.dsop is not original
        worker.run_pass(
            [
                workloads._lines("running_example", "exact-cube"),
                workloads._lines("running_example", "exact-bdd"),
            ],
            paths,
            tracer,
        )
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert revembed.dsop is original
    assert sys.modules["revembed.linecount"].dsop is original
    assert metrics["cube.cube_and_calls"] > 0
    assert 0 < metrics["dsop.meet_ratio"] < 1
    assert metrics["dsop.dsop_s"] > 0
    assert metrics["linecount.exact_mu_bdd_s"] > 0
    assert metrics["bdd.managers"] >= 2  # exact_mu_bdd and heuristic_mu
    assert 0 < metrics["bdd.nodes_reachable"] <= metrics["bdd.nodes_created"]
    assert metrics["cli.self_s"] > 0


def test_committed_corpus_regenerates_byte_for_byte():
    assert covers.check_corpus() == []


def test_flipped_inputs_keep_their_shape():
    base = (covers.CORPUS_DIR / "r16c40.pla").read_text()
    assert covers.flip_inputs(base, covers.DEFAULT_SEED, "r16c40") == base
    flipped = covers.flip_inputs(base, 3, "r16c40")
    n, m, rows = reference.read_pla(flipped)
    n0, m0, rows0 = reference.read_pla(base)
    assert (n, m) == (n0, m0) and flipped != base
    assert [r.count("-") for r, _ in rows] == [r.count("-") for r, _ in rows0]
    assert [o for _, o in rows] == [o for _, o in rows0]


def test_closed_forms():
    assert [reference.bell(p) for p in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]
    # p = 1: x_1 and every y_1j must be 1
    assert reference.redundancy_count(1, 4) == 1
    n = 9
    _, _, rows = reference.read_pla(covers.wide_pair(n))
    counts = reference.exact_counts(n, 2, rows)
    assert counts == covers.wide_counts(n)
    assert reference.heuristic_counts(rows, counts) == covers.wide_heuristic_counts(n)
