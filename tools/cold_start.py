"""Cold-start times of one-shot revembed CLI runs, old tree against new.

Usage: python3 tools/cold_start.py OLD_SRC NEW_SRC [PAIRS]

Each OLD_SRC and NEW_SRC is the ``src`` directory of a checkout. For every
command in ``COMMANDS``, one per subcommand on the shipped PLAs, the tool
starts a fresh ``python -m revembed.cli`` process with that tree first on
``PYTHONPATH`` and times it from spawn to exit; ``wait4`` gives the
child's own peak RSS. A pair runs each command once per tree, the old tree
first in odd pairs and the new one first in even pairs, and each tree runs
every command once untimed before the first pair, so both start with
compiled bytecode. Every run must exit 0.

The record, written to ``BENCH_cold_start.json`` at the repo root, holds
for each command and tree the median and quartiles of ``wall_s`` and
``peak_rss_mb``, and the number of pairs in which the new tree was faster.
PAIRS defaults to 12.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_cold_start.json"
DEFAULT_PAIRS = 12

# argv after ``python -m revembed.cli``; a name ending in .pla is a shipped
# PLA, read from the tree's own revembed/data, and DATA is that directory
COMMANDS = [
    ["lines", "running_example.pla", "--method", "exact-bdd"],
    ["dsop", "running_example.pla", "--compact"],
    ["embed", "--exact", "running_example.pla", "--with-offset", "--verify"],
    ["gen", "rgs", "4"],
    ["bench", "DATA"],
]


def _argv(src: Path, command: list[str]) -> list[str]:
    data = src / "revembed" / "data"
    args = [
        str(data / arg) if arg.endswith(".pla") else str(data) if arg == "DATA" else arg
        for arg in command
    ]
    return [sys.executable, "-m", "revembed.cli", *args]


def run_once(src: Path, command: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    argv = _argv(src, command)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError("%s exited %d" % (" ".join(argv[1:]), code))
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def measure(old: Path, new: Path, commands: list[list[str]], pairs: int) -> dict:
    """The cold-start record of commands over pairs alternating pairs."""
    trees = {"old": old, "new": new}
    for src in trees.values():
        for command in commands:
            run_once(src, command)
    runs = {(side, i): [] for side in trees for i in range(len(commands))}
    for pair in range(1, pairs + 1):
        order = ("old", "new") if pair % 2 else ("new", "old")
        for i, command in enumerate(commands):
            for side in order:
                runs[side, i].append(run_once(trees[side], command))
    results = []
    for i, command in enumerate(commands):
        entry = {"command": " ".join(command)}
        for side in trees:
            walls, peaks = zip(*runs[side, i])
            entry[side] = {"wall_s": _summary(walls), "peak_rss_mb": _summary(peaks)}
        entry["new_faster"] = sum(
            n[0] < o[0] for o, n in zip(runs["old", i], runs["new", i])
        )
        results.append(entry)
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "pairs": pairs,
        "commands": results,
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3) or (len(args) == 3 and not args[2].isdigit()):
        print("usage: python3 tools/cold_start.py OLD_SRC NEW_SRC [PAIRS]", file=sys.stderr)
        return 1
    pairs = int(args[2]) if len(args) == 3 else DEFAULT_PAIRS
    old, new = (Path(a).resolve() for a in args[:2])
    record = measure(old, new, COMMANDS, pairs)
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    for entry in record["commands"]:
        print(
            "%-60s %.3f -> %.3f s (new faster in %d of %d)"
            % (
                entry["command"],
                entry["old"]["wall_s"]["median"],
                entry["new"]["wall_s"]["median"],
                entry["new_faster"],
                pairs,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
