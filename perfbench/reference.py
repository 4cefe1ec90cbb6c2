"""Independent references for the outputs of the benchmark's CLI jobs.

Nothing here calls the symbolic code under test. Point counts come from
``revembed.oracle`` (numpy truth tables, n <= 20), from a numpy block fill
of the cubes written in this file (n <= 26), or from closed forms. Each
``check_*`` function returns None when the output is right and a short
reason otherwise.
"""
from __future__ import annotations

import json
from math import comb
from pathlib import Path

import numpy as np

MAX_FILL_VARS = 26
SCHEMAS = ("lines", "embed", "gen")


def read_pla(text: str) -> tuple[int, int, list[tuple[str, frozenset]]]:
    """(n, m, rows) of fd-PLA text; rows are (input plane, output set)."""
    n = m = None
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("."):
            key, *args = line.split()
            if key == ".i":
                n = int(args[0])
            elif key == ".o":
                m = int(args[0])
            elif key == ".e":
                break
            continue
        inp, outp = line.split()
        rows.append((inp, frozenset(i + 1 for i, ch in enumerate(outp) if ch == "1")))
    if n is None or m is None:
        raise ValueError("missing .i/.o")
    for inp, _ in rows:
        if len(inp) != n:
            raise ValueError("row width %d != .i %d" % (len(inp), n))
    return n, m, rows


def ceil_log2(k: int) -> int:
    return (k - 1).bit_length()


def _block(n: int, inp: str) -> tuple:
    # axis a of a (2,)*n array is input position n-1-a, so the flat C-order
    # index of a point has x_1 in bit 0, as in revembed.oracle
    return tuple(
        slice(None) if inp[n - 1 - a] == "-" else int(inp[n - 1 - a])
        for a in range(n)
    )


def point_patterns(n: int, rows) -> np.ndarray:
    """Output pattern of every input point (bit i-1 set when output i is
    on), by OR-ing each cube's block of the input space."""
    if n > MAX_FILL_VARS:
        raise ValueError("block fill is limited to %d inputs" % MAX_FILL_VARS)
    table = np.zeros((2,) * n, dtype=np.uint32)
    for inp, outs in rows:
        mask = sum(1 << (o - 1) for o in outs)
        if mask:
            table[_block(n, inp)] |= mask
    return table.reshape(-1)


def coverage(n: int, rows) -> np.ndarray:
    """How many rows cover each input point."""
    if n > MAX_FILL_VARS:
        raise ValueError("block fill is limited to %d inputs" % MAX_FILL_VARS)
    table = np.zeros((2,) * n, dtype=np.uint32)
    for inp, _ in rows:
        table[_block(n, inp)] += 1
    return table.reshape(-1)


def exact_counts(n: int, m: int, rows) -> dict[frozenset, int]:
    """Points per output pattern, every pattern with a point included."""
    if n <= 20:
        from revembed import Cube, Pla
        from revembed.oracle import brute_mu

        pla = Pla(n, m, [(Cube.parse(inp), outs) for inp, outs in rows])
        return dict(brute_mu(pla).per_pattern)
    counts = np.bincount(point_patterns(n, rows))
    return {
        frozenset(i + 1 for i in range(m) if (value >> i) & 1): int(c)
        for value, c in enumerate(counts)
        if c
    }


def heuristic_counts(rows, exact: dict[frozenset, int]) -> dict:
    """Per-cube accumulation with the empty pattern replaced by the exact
    OFF-set size (dropped when the function is total)."""
    per: dict[frozenset, int] = {}
    for inp, outs in rows:
        per[outs] = per.get(outs, 0) + (1 << inp.count("-"))
    off = exact.get(frozenset(), 0)
    if off:
        per[frozenset()] = off
    else:
        per.pop(frozenset(), None)
    return per


def bell(p: int) -> int:
    """p-th Bell number by the Bell triangle."""
    row = [1]
    for _ in range(p - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def redundancy_count(p: int, q: int) -> int:
    """Models of AND_j OR_i (x_i and y_ij): choose the s selected rows,
    then each of q columns must hit one of them."""
    return sum(comb(p, s) * ((1 << p) - (1 << (p - s))) ** q for s in range(p + 1))


class Validators:
    """JSON-schema validators for the CLI's outputs, loaded once."""

    def __init__(self, schema_path):
        from jsonschema import Draft202012Validator

        self._by_name = {
            name: Draft202012Validator(
                json.loads(Path(schema_path("%s.schema.json" % name)).read_text())
            )
            for name in SCHEMAS
        }

    def load(self, name: str, text: str):
        """(payload, None) for valid JSON output, else (None, reason)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return None, "not JSON: %s" % exc
        errors = list(self._by_name[name].iter_errors(payload))
        if errors:
            return None, "schema %s: %s" % (name, errors[0].message[:120])
        return payload, None


# ------------------------------------------------------------------ checks


def check_lines(payload: dict, method: str, m: int, expected: dict) -> str | None:
    label = {"heuristic": "heuristic-cube"}.get(method, method)
    if payload["method"] != label:
        return "method %r" % payload["method"]
    if payload["exact"] != (method != "heuristic"):
        return "exact flag %r" % payload["exact"]
    got = {frozenset(p["outputs"]): int(p["count"]) for p in payload["patterns"]}
    if got != expected:
        return "per-pattern counts differ from the reference"
    mu = max(expected.values())
    ell = ceil_log2(mu)
    if (payload["mu"], payload["ell"], payload["total_lines"]) != (mu, ell, m + ell):
        return "mu/ell/total_lines differ from the reference"
    return None


def check_dsop(text: str, n: int, m: int, rows) -> str | None:
    """Disjoint cubes with the input's truth tables."""
    try:
        out_n, out_m, out_rows = read_pla(text)
    except ValueError as exc:
        return "unreadable PLA: %s" % exc
    if (out_n, out_m) != (n, m):
        return "shape %dx%d" % (out_n, out_m)
    if out_rows and coverage(n, out_rows).max() > 1:
        return "cubes overlap"
    if n > 20:
        same = np.array_equal(point_patterns(n, out_rows), point_patterns(n, rows))
    else:
        from revembed import Cube, Pla
        from revembed.oracle import tables_from_pla

        def tables(rs):
            return tables_from_pla(Pla(n, m, [(Cube.parse(i), o) for i, o in rs]))

        same = np.array_equal(tables(out_rows), tables(rows))
    return None if same else "function changed"


def check_embed(
    payload: dict, mode: str, n: int, m: int, ell: int, total: bool
) -> str | None:
    """Shape of an embedding summary and an all-true verify report."""
    p = m if mode == "bennett" else m + ell - n
    want = {
        "mode": mode,
        "n": n,
        "m": m,
        "p": p,
        "ell": ell,
        "r": n + p,
        "partial": mode == "exact",
    }
    for key, value in want.items():
        if payload[key] != value:
            return "%s=%r, expected %r" % (key, payload[key], value)
    report = payload["verify"]
    if report is None:
        return "no verify report"
    expected = {"injective": True, "functional": True, "projects": True, "total": total}
    if report != expected:
        return "verify report %r" % (report,)
    return None


def check_relation(text: str, n: int, m: int, patterns: np.ndarray, covered) -> str | None:
    """Expand an extended-PLA dump of an exact embedding into explicit
    (input, output) pairs and test it pointwise: a function, injective,
    defined exactly on the covered inputs of the kappa=0 plane, and equal
    to f on them."""
    head = {}
    rows = []
    for line in text.splitlines():
        if line.startswith(".") and line != ".e":
            key, value = line.split()
            head[key] = int(value)
        elif line[:1] in ("0", "1", "-"):
            rows.append(line.split())
    width_in, width_out = head[".i"], head[".o"]
    p = width_in - n
    ins, outs = [], []
    for inp, outp in rows:
        bits = inp + outp
        free = [j for j, ch in enumerate(bits) if ch == "-"]
        base = sum(1 << j for j, ch in enumerate(bits) if ch == "1")
        combos = np.arange(1 << len(free), dtype=np.int64)
        full = np.full(combos.shape, base, dtype=np.int64)
        for k, j in enumerate(free):
            full |= ((combos >> k) & 1) << j
        ins.append(full & ((1 << width_in) - 1))
        outs.append(full >> width_in)
    ins = np.concatenate(ins) if ins else np.zeros(0, dtype=np.int64)
    outs = np.concatenate(outs) if outs else np.zeros(0, dtype=np.int64)
    if np.unique(ins).size != ins.size:
        return "relation is not a function"
    if np.unique(outs).size != outs.size:
        return "relation is not injective"
    plane0 = (ins & ((1 << p) - 1)) == 0
    xs = ins[plane0] >> p
    want_xs = np.flatnonzero(covered)
    if not np.array_equal(np.sort(xs), want_xs):
        return "specified inputs differ from the cover"
    ys = outs[plane0] & ((1 << m) - 1)
    if not np.array_equal(ys, patterns[xs].astype(np.int64)):
        return "outputs differ from f"
    if width_out != m + ceil_log2(int(np.bincount(patterns).max())):
        return "garbage width is not ceil(log2 mu)"
    return None
