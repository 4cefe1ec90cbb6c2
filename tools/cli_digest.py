"""Digest of the revembed CLI's outputs, for old-versus-new differentials.

Usage: python3 tools/cli_digest.py SRC_DIR
       python3 tools/cli_digest.py OLD_SRC NEW_SRC

With one directory it imports ``revembed`` from SRC_DIR (the ``src``
directory of a checkout) and runs a fixed list of commands in-process on
the shipped PLAs and on the ``perfbench/corpus`` covers with 16 or fewer
inputs, plus the ``lines`` counts and the ``dsop --compact`` rewrite of
the wider covers in ``WIDE_COVERS``, the checked Bennett relation of
``WIDE_DOT_COVER`` as dot, and the Bennett and exact embeddings and
exact-bdd count and the ``dsop`` rewrites of the benchmark's two-cube
PLA with ``PAIR_INPUTS`` inputs, and the ``lines`` counts and ``dsop
--compact`` rewrite of a generated cover whose rows share literal
suffixes (``suffix_pla``).
For each command it prints one line: the exit code, the md5 of stdout, and
the command. Two checkouts produce identical output exactly when every
command exits the same way and writes the same bytes, ``--format dot`` node
ids included. ``bench`` output has its wall-clock ``seconds`` fields dropped
before hashing. ``commands()`` lists the commands without their inputs;
``tests/test_cli_digest.py`` checks that they run every subcommand, option
and option choice of the CLI but help, ``--timeout``, ``--seed`` and
``-o/--output``.

The one-directory digest of the checkout's ``src`` on Python 3.11 is
committed as ``tools/cli_digest_golden.txt``. CI regenerates it on Python
3.11, on 3.10, whose recursion cap is ten times lower, and on 3.12 and
3.13, and fails on any line that differs, raw dot md5s included. The
``--method brute`` lines need numpy: without it they exit 1. A change
that alters an output on purpose regenerates the file in the same commit:
``python3 tools/cli_digest.py src > tools/cli_digest_golden.txt``.

With two directories it runs the one-directory digest of each tree in its
own fresh interpreter, both at once, and prints only the commands whose
lines differ: ``- `` before OLD_SRC's line and ``+ `` before NEW_SRC's, a
command run in one tree only printing just its side. It exits 1 if any
line differs or a digest fails, and 0 otherwise; stderr gets the count,
and next to it how many of the differing lines differ in the raw md5 of a
``--format dot`` output alone, with the same exit code and ``dot:`` digest.

A ``--format dot`` line that exits 0 carries a second md5, ``dot:<md5>``
before the command, over the dot text with its node ids renumbered
depth-first from the root, low edge first. Node ids are creation order, so
a change that builds the same BDD through other intermediate nodes moves
them: equal ``dot:`` digests then say the two graphs are the same, labels,
edges and ranks included, while the first md5 differs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CORPUS = PERFBENCH / "corpus"
MAX_INPUTS = 16

PER_FILE = [
    ["lines", "--method", "heuristic"],
    ["lines", "--method", "exact-cube"],
    ["lines", "--method", "exact-bdd"],
    ["lines", "--method", "brute"],
    ["dsop"],
    ["dsop", "--compact"],
    *(
        ["embed", *mode, "--verify", "--format", fmt]
        for mode in (["--exact", "--with-offset"], ["--bennett"])
        for fmt in ("json", "pla", "dot")
    ),
    ["embed", "--exact", "--verify"],
]

# covers above MAX_INPUTS, where only the symbolic line counts and the
# compaction, which never runs dsop, run fast
WIDE_COVERS = ["r20c40", "r20c100", "r24c182"]
WIDE_FILE = [
    ["lines", "--method", "exact-bdd"],
    ["lines", "--method", "heuristic"],
    ["dsop", "--compact"],
]
# with GEN's redundancy 10 10, the largest and/or builds of the benchmark's
# symbolic-count workload: their raw dot md5s pin node ids at that scale
WIDE_DOT_COVER = "r20c40"
WIDE_DOT = ["embed", "--bennett", "--verify", "--format", "dot"]

# x1 = 1 drives output 1 and the last input output 2: every x/g level of
# the Bennett relation is a plain copy, which a wide input stresses, the
# exact embedding's entry walk runs deepest here, through 298 don't-cares,
# and the exact-bdd count's walk skips all levels between the two; its
# dsop rewrites are the digest's only cube text wider than 24 columns
PAIR_INPUTS = 300
PAIR_FILE = [
    *(
        ["embed", mode, "--verify", "--format", fmt]
        for mode in ("--bennett", "--exact")
        for fmt in ("json", "dot")
    ),
    ["lines", "--method", "exact-bdd"],
    ["dsop"],
    ["dsop", "--compact"],
]

# rows that end in a few shared literal suffixes and share output sets:
# the line counts' row walk merges the rows alike below a level
SUFFIX_INPUTS, SUFFIX_ROWS, SUFFIX_SEED = 14, 40, 25
SUFFIX_FILE = [
    ["lines", "--method", "heuristic"],
    ["lines", "--method", "exact-cube"],
    ["lines", "--method", "exact-bdd"],
    ["dsop", "--compact"],
]

GEN = [
    ["gen", "redundancy", "4", "3"],
    ["gen", "redundancy", "4", "3", "--embed"],
    ["gen", "redundancy", "4", "3", "--format", "dot"],
    ["gen", "rgs", "4"],
    ["gen", "rgs", "4", "--embed"],
    ["gen", "rgs", "4", "--format", "dot"],
    ["gen", "rgs", "6", "--embed"],
    ["gen", "redundancy", "10", "10", "--format", "dot"],
]

# the flags after ``bench DIR``, one command each
BENCH = [[], ["--ordering-study", "4", "--samples", "3"]]


def commands() -> list[list[str]]:
    """Every digest command without its input file or directory."""
    return [
        *PER_FILE,
        *WIDE_FILE,
        WIDE_DOT,
        *PAIR_FILE,
        *SUFFIX_FILE,
        *GEN,
        *(["bench", *extra] for extra in BENCH),
    ]


def _inputs(src: Path) -> list[Path]:
    """Shipped PLAs, then the corpus covers not shipped, by name."""
    shipped = sorted((src / "revembed" / "data").glob("*.pla"))
    names = {p.name for p in shipped}
    corpus = [
        p
        for p in sorted(CORPUS.glob("*.pla"))
        if p.name not in names and _input_count(p) <= MAX_INPUTS
    ]
    return shipped + corpus


def suffix_pla(n: int, rows: int, seed: int) -> str:
    """PLA text of rows over n inputs and 3 outputs: each row is a random
    head, a tail from four shared literal suffixes of 3 to 6 positions,
    and one of four output sets, the empty one among them."""
    rng = random.Random(seed)
    tails = [
        "".join(rng.choice("01-") for _ in range(rng.randint(3, 6)))
        for _ in range(4)
    ]
    lines = []
    for _ in range(rows):
        tail = rng.choice(tails)
        head = "".join(rng.choice("01--") for _ in range(n - len(tail)))
        lines.append("%s%s %s" % (head, tail, rng.choice(["100", "010", "110", "000"])))
    return ".i %d\n.o 3\n%s\n.e\n" % (n, "\n".join(lines))


def _input_count(path: Path) -> int:
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts[:1] == [".i"]:
            return int(parts[1])
    raise ValueError("%s has no .i line" % path)


def _drop_seconds(text: str) -> str:
    payload = json.loads(text)
    for result in payload["results"]:
        result.pop("seconds")
    return json.dumps(payload, indent=2)


_NODE = re.compile(r"\bn(\d+)\b")
_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+) \[style=(dashed|solid)\];$")


def _renumbered_dot(text: str) -> str:
    """The dot text of one BDD with node ids renumbered depth-first from
    the root (low edge first) and each section re-sorted by the new ids."""
    lines = text.splitlines()
    children: dict[int, dict[str, int]] = {}
    targets = set()
    nodes = []
    for line in lines:
        edge = _EDGE.match(line)
        if edge:
            src, dst = int(edge.group(1)), int(edge.group(2))
            children.setdefault(src, {})[edge.group(3)] = dst
            targets.add(dst)
        elif "[label=" in line:
            nodes.append(int(_NODE.search(line).group(1)))
    roots = [x for x in nodes if x not in targets]
    if len(roots) != 1:
        raise ValueError("dot output is not a single-rooted graph")
    order: dict[int, int] = {}
    stack = roots
    while stack:
        x = stack.pop()
        if x in order:
            continue
        order[x] = len(order)
        kids = children.get(x)
        if kids:
            stack += [kids["solid"], kids["dashed"]]

    def rename(line: str) -> str:
        return _NODE.sub(lambda m: "n%d" % order[int(m.group(1))], line)

    def first_id(line: str) -> int:
        return int(_NODE.search(line).group(1))

    head, decls, ranks, edges, tail = [], [], [], [], []
    for line in lines:
        if _EDGE.match(line):
            edges.append(rename(line))
        elif "[label=" in line:
            decls.append(rename(line))
        elif "rank=same" in line:
            members = sorted(order[int(x)] for x in _NODE.findall(line))
            ranks.append(
                "  { rank=same; %s; }" % "; ".join("n%d" % x for x in members)
            )
        elif decls:
            tail.append(line)
        else:
            head.append(line)
    decls.sort(key=first_id)
    # dashed before solid for each source, as to_dot writes them
    edges.sort(key=lambda line: (first_id(line), "solid" in line))
    return "\n".join(head + decls + ranks + edges + tail) + "\n"


def _run(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _by_command(text: str) -> dict[str, str]:
    """Digest lines keyed by their command, the text after the md5s."""
    lines = {}
    for line in text.splitlines():
        parts = line.split(" ")
        label = parts[3:] if parts[2].startswith("dot:") else parts[2:]
        lines[" ".join(label)] = line
    return lines


def compare(old_src: str, new_src: str) -> int:
    """Print the digest lines that differ between two trees; 1 if any do."""
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, src],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for src in (old_src, new_src)
    ]
    runs = [proc.communicate() + (proc.returncode,) for proc in procs]
    for src, (_, err, code) in zip((old_src, new_src), runs):
        if code:
            sys.stderr.write(err)
            print("digest of %s exited %d" % (src, code), file=sys.stderr)
    if any(code for _, _, code in runs):
        return 1
    old, new = (_by_command(out) for out, _, _ in runs)
    commands = list(dict.fromkeys([*old, *new]))
    differ = raw_only = 0
    for command in commands:
        if old.get(command) != new.get(command):
            differ += 1
            raw_only += _same_shape(old.get(command), new.get(command))
            for sign, side in (("-", old), ("+", new)):
                if command in side:
                    print("%s %s" % (sign, side[command]))
    print(
        "%d commands, %d differ, %d in the raw dot md5 alone"
        % (len(commands), differ, raw_only),
        file=sys.stderr,
    )
    return 1 if differ else 0


def _same_shape(old, new) -> bool:
    """Whether two differing digest lines of one command have the same
    exit code and the same ``dot:`` digest, so only the raw md5 differs."""
    if old is None or new is None:
        return False
    a, b = old.split(" "), new.split(" ")
    return a[2].startswith("dot:") and a[0] == b[0] and a[2] == b[2]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2:
        return compare(*args)
    if len(args) != 1:
        print(
            "usage: python3 tools/cli_digest.py SRC_DIR | OLD_SRC NEW_SRC",
            file=sys.stderr,
        )
        return 1
    src = Path(args[0]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(PERFBENCH))
    from covers import wide_pair
    from revembed.cli import main as cli_main

    inputs = _inputs(src)
    jobs = [(cmd + [str(p)], cmd + [p.name]) for p in inputs for cmd in PER_FILE]
    wide = [CORPUS / ("%s.pla" % name) for name in WIDE_COVERS]
    jobs += [(cmd + [str(p)], cmd + [p.name]) for p in wide for cmd in WIDE_FILE]
    dot_cover = CORPUS / ("%s.pla" % WIDE_DOT_COVER)
    jobs.append((WIDE_DOT + [str(dot_cover)], WIDE_DOT + [dot_cover.name]))
    jobs += [(cmd, cmd) for cmd in GEN]
    with tempfile.TemporaryDirectory() as tmp:
        for p in inputs:
            shutil.copy(p, tmp)
        # outside tmp's top level, which the bench jobs read
        pair = Path(tmp, "pair", "wide%d.pla" % PAIR_INPUTS)
        pair.parent.mkdir()
        pair.write_text(wide_pair(PAIR_INPUTS))
        jobs += [(cmd + [str(pair)], cmd + [pair.name]) for cmd in PAIR_FILE]
        suffix = Path(tmp, "pair", "suffix%d.pla" % SUFFIX_ROWS)
        suffix.write_text(suffix_pla(SUFFIX_INPUTS, SUFFIX_ROWS, SUFFIX_SEED))
        jobs += [(cmd + [str(suffix)], cmd + [suffix.name]) for cmd in SUFFIX_FILE]
        for extra in BENCH:
            jobs.append((["bench", tmp, *extra], ["bench", "INPUTS", *extra]))
        for argv_, label in jobs:
            code, stdout = _run(cli_main, argv_)
            if argv_[0] == "bench" and code == 0:
                stdout = _drop_seconds(stdout)
            digest = hashlib.md5(stdout.encode()).hexdigest()
            if code == 0 and ("--format", "dot") in zip(argv_, argv_[1:]):
                shape = hashlib.md5(_renumbered_dot(stdout).encode()).hexdigest()
                digest += " dot:" + shape
            print("%d %s %s" % (code, digest, " ".join(label)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
