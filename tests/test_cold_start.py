"""Smoke test of tools/cold_start.py on one tiny command."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("cold_start", ROOT / "tools" / "cold_start.py")
cold_start = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cold_start)


def test_one_tiny_command_alternating_one_tree():
    src = ROOT / "src"
    command = ["lines", "and2.pla", "--method", "heuristic"]
    record = cold_start.measure(src, src, [command], 2)
    assert record["pairs"] == 2
    (entry,) = record["commands"]
    assert entry["command"] == "lines and2.pla --method heuristic"
    assert 0 <= entry["new_faster"] <= 2
    for side in ("old", "new"):
        for metric in ("wall_s", "peak_rss_mb"):
            s = entry[side][metric]
            assert 0 < s["q1"] <= s["median"] <= s["q3"]


def test_a_failing_command_is_refused():
    with pytest.raises(RuntimeError, match="exited 1"):
        cold_start.run_once(ROOT / "src", ["lines", "missing.pla"])


def test_every_subcommand_is_timed():
    import revembed.cli as cli

    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert {c[0] for c in cold_start.COMMANDS} == set(sub.choices)
