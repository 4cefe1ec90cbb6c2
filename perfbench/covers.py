"""Seeded random PLA covers and two-cube wide PLAs for the benchmark.

Every cover draws from its own ``random.Random`` keyed by the seed and the
cover's name, so adding a cover to the list never changes the others. The
files for ``DEFAULT_SEED`` are committed under ``perfbench/corpus``;
``check_corpus`` fails when regenerating them no longer matches byte for
byte.

Run ``python3 perfbench/covers.py --write`` to rewrite the committed files.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

DEFAULT_SEED = 0
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

M = 8  # outputs of every random cover
DC_PROB = 0.5  # chance that a cube position is a don't-care
OUT_PROB = 0.4  # chance that a cube drives each output

# (name, inputs, cubes); r16c40 and r24c182 are the ROADMAP's corpus
# shapes, the others are sized so that one pass of a workload takes seconds
COVER_SHAPES = [
    ("r12c20", 12, 20),
    ("r14c8", 14, 8),
    ("r14c30", 14, 30),
    ("r15c34", 15, 34),
    ("r16c40", 16, 40),
    ("r20c40", 20, 40),
    ("r20c100", 20, 100),
    ("r24c182", 24, 182),
]


def random_cover(seed: int, name: str, n: int, cubes: int, m: int = M) -> str:
    """PLA text of `cubes` random rows over n inputs and m outputs.

    Each input position is '-' with probability DC_PROB and otherwise '0'
    or '1'; each output is driven with probability OUT_PROB, at least one
    per row.
    """
    rng = random.Random("%d:%s" % (seed, name))
    rows = []
    for _ in range(cubes):
        inp = "".join(
            "-" if rng.random() < DC_PROB else rng.choice("01") for _ in range(n)
        )
        outs = [rng.random() < OUT_PROB for _ in range(m)]
        if not any(outs):
            outs[rng.randrange(m)] = True
        rows.append("%s %s" % (inp, "".join("1" if o else "0" for o in outs)))
    return _pla_text(n, m, rows)


def wide_pair(n: int) -> str:
    """Two-cube PLA over n >= 2 inputs: x_1 = 1 drives output 1 and
    x_n = 1 drives output 2.

    Each of the four output patterns covers a quarter of the inputs, so
    the counts have a closed form (see ``wide_counts``) however wide n is.
    """
    rows = [
        "1" + "-" * (n - 1) + " 10",
        "-" * (n - 1) + "1" + " 01",
    ]
    return _pla_text(n, 2, rows)


def wide_counts(n: int) -> dict[frozenset, int]:
    """Exact per-pattern point counts of ``wide_pair(n)``."""
    quarter = 1 << (n - 2)
    return {
        frozenset({1, 2}): quarter,
        frozenset({1}): quarter,
        frozenset({2}): quarter,
        frozenset(): quarter,
    }


def wide_heuristic_counts(n: int) -> dict[frozenset, int]:
    """Per-cube accumulation on ``wide_pair(n)``: each cube adds its on-set
    to its own pattern, and the empty pattern gets the exact OFF-set."""
    half = 1 << (n - 1)
    return {frozenset({1}): half, frozenset({2}): half, frozenset(): half >> 1}


def _pla_text(n: int, m: int, rows: list[str]) -> str:
    head = [".i %d" % n, ".o %d" % m, ".p %d" % len(rows)]
    return "\n".join(head + rows + [".e"]) + "\n"


def flip_inputs(text: str, seed: int, name: str) -> str:
    """The same PLA with a seeded set of input columns complemented.

    Complementing an input mirrors every cube and every BDD level in that
    variable, so the work each algorithm does is unchanged while the
    function, its outputs and the program's hash tables differ from seed to
    seed. The default seed complements nothing.
    """
    if seed == DEFAULT_SEED:
        return text
    lines = text.splitlines()
    n = next(int(line.split()[1]) for line in lines if line.startswith(".i "))
    mask = random.Random("flip:%d:%s" % (seed, name)).getrandbits(n)
    swap = {"0": "1", "1": "0", "-": "-"}
    out = []
    for line in lines:
        if line[:1] in ("0", "1", "-"):
            inp, outp = line.split()
            inp = "".join(
                swap[ch] if (mask >> i) & 1 else ch for i, ch in enumerate(inp)
            )
            line = "%s %s" % (inp, outp)
        out.append(line)
    return "\n".join(out) + "\n"


def corpus(seed: int) -> dict[str, str]:
    """File name -> PLA text of every random cover for one seed."""
    return {
        "%s.pla" % name: random_cover(seed, name, n, k)
        for name, n, k in COVER_SHAPES
    }


def check_corpus() -> list[str]:
    """Names of committed default-seed covers that no longer regenerate
    byte for byte (missing files included)."""
    bad = []
    for name, text in corpus(DEFAULT_SEED).items():
        path = CORPUS_DIR / name
        if not path.is_file() or path.read_bytes() != text.encode():
            bad.append(name)
    return bad


def write_corpus() -> None:
    CORPUS_DIR.mkdir(exist_ok=True)
    for name, text in corpus(DEFAULT_SEED).items():
        (CORPUS_DIR / name).write_bytes(text.encode())


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_corpus()
    else:
        bad = check_corpus()
        print("corpus ok" if not bad else "corpus differs: %s" % ", ".join(bad))
        sys.exit(1 if bad else 0)
