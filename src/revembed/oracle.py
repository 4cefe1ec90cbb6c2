"""Brute-force reference implementations over explicit truth tables.

Everything here enumerates points with numpy and plain dictionaries, on
purpose: these are the checks the symbolic algorithms are certified
against, so they must not share code paths with them. Hard n <= 20 cutoff
(about a million rows); larger requests fail loudly rather than thrash.
"""
from __future__ import annotations

from itertools import product
from typing import Union

import numpy as np

from .bdd import Func
from .embedding import RcBdd, VerifyReport
from .errors import ResourceLimitError
from .linecount import METHOD_BRUTE, LineReport, ceil_log2
from .pla import Pla

MAX_VARS = 20


def _guard(n: int):
    if n > MAX_VARS:
        raise ResourceLimitError(
            "brute-force oracle is limited to %d variables" % MAX_VARS
        )
    if n < 0:
        raise ValueError("negative variable count")


def tables_from_pla(pla: Pla) -> np.ndarray:
    """(m, 2^n) bool array of output truth tables; row index encodes the
    assignment with x1 as the least significant bit."""
    _guard(pla.n)
    rows = np.arange(1 << pla.n, dtype=np.int64)
    tables = np.zeros((pla.m, 1 << pla.n), dtype=bool)
    for cube, outs in pla.entries:
        covered = (rows & cube.care) == cube.value
        for o in outs:
            tables[o - 1] |= covered
    return tables


def table_from_func(f: Func, n: int) -> np.ndarray:
    """Materialize a BDD as its 2^n truth table by structural expansion
    (no counting or path machinery involved)."""
    _guard(n)
    manager = f.manager
    if any(v >= n for v in f.support()):
        raise ValueError("function depends on variables beyond the first %d" % n)
    memo: dict[int, np.ndarray] = {}

    def expand(g: Func, level: int) -> np.ndarray:
        # table over variables level..n-1, bit (i-level) of the index = x_{i+1}
        if g.is_false:
            return np.zeros(1 << (n - level), dtype=bool)
        if g.is_true:
            return np.ones(1 << (n - level), dtype=bool)
        key = g.node
        got = memo.get(key)
        glevel = manager.node_level(g)
        if got is None:
            lo, hi = manager.node_branches(g)
            sub_lo = expand(lo, glevel + 1)
            sub_hi = expand(hi, glevel + 1)
            got = np.empty(1 << (n - glevel), dtype=bool)
            got[0::2] = sub_lo
            got[1::2] = sub_hi
            memo[key] = got
        # variables below `level` that g skips replicate the table
        return np.repeat(got, 1 << (glevel - level))

    return expand(f, 0)


def _pattern_ints(source: Union[Pla, list[Func]], n: int) -> tuple[np.ndarray, int]:
    if isinstance(source, Pla):
        tables = tables_from_pla(source)
        m = source.m
    else:
        m = len(source)
        _guard(n)
        tables = np.zeros((m, 1 << n), dtype=bool)
        for i, f in enumerate(source):
            tables[i] = table_from_func(f, n)
    _guard(m)  # patterns are packed into int64 bits
    patterns = np.zeros(tables.shape[1], dtype=np.int64)
    for i in range(m):
        patterns |= tables[i].astype(np.int64) << i
    return patterns, m


def brute_mu(source: Union[Pla, list[Func]], n: int = None) -> LineReport:
    """Exact per-pattern counts by full enumeration."""
    if isinstance(source, Pla):
        n = source.n
    elif n is None:
        raise ValueError("brute_mu needs n for a function list")
    patterns, m = _pattern_ints(source, n)
    values, counts = np.unique(patterns, return_counts=True)
    per = {}
    for value, count in zip(values, counts):
        outs = frozenset(i + 1 for i in range(m) if (int(value) >> i) & 1)
        per[outs] = int(count)
    mu = int(counts.max())
    ell = ceil_log2(mu)
    return LineReport(
        method=METHOD_BRUTE,
        exact=True,
        per_pattern=per,
        mu=mu,
        ell=ell,
        total_lines=m + ell,
    )


def brute_dsop_check(pla: Pla, reference: Pla = None) -> bool:
    """Pairwise cube disjointness, plus semantic equality to a reference
    Pla when one is given."""
    texts = [str(cube) for cube, _ in pla.entries]
    for i, a in enumerate(texts):
        for b in texts[i + 1:]:
            # two cubes meet unless some position holds opposite literals
            if all(x == y or "-" in (x, y) for x, y in zip(a, b)):
                return False
    if reference is not None:
        if (pla.n, pla.m) != (reference.n, reference.m):
            return False
        if not np.array_equal(tables_from_pla(pla), tables_from_pla(reference)):
            return False
    return True


def brute_verify(
    rcbdd: RcBdd, source: Union[Pla, list[Func]], max_entries: int = 1 << 22
) -> VerifyReport:
    """Pointwise re-check of verify(): expand the relation into explicit
    (input, output) integer pairs and test the properties with sets."""
    r = rcbdd.r
    _guard(r)
    manager = rcbdd.manager
    in_levels = rcbdd.kappa + rcbdd.xs
    out_levels = rcbdd.ys + rcbdd.gammas

    if isinstance(source, Pla):
        tables = tables_from_pla(source)
    else:
        tables = np.stack([table_from_func(f, rcbdd.n) for f in source])

    entries = []
    for path in manager.enumerate_paths(rcbdd.chi, 2 * r):
        # one completion per choice of "0" or "1" at each "-" of the path
        for bits in product(*[("0", "1") if ch == "-" else ch for ch in str(path)]):
            inp = sum(int(bits[l]) << i for i, l in enumerate(in_levels))
            outp = sum(int(bits[l]) << i for i, l in enumerate(out_levels))
            entries.append((inp, outp))
            if len(entries) > max_entries:
                raise ResourceLimitError("relation expansion too large")

    outputs_of: dict[int, set[int]] = {}
    seen_outputs: set[int] = set()
    injective = True
    for inp, outp in entries:
        outputs_of.setdefault(inp, set()).add(outp)
        if outp in seen_outputs:
            injective = False
        seen_outputs.add(outp)
    functional = all(len(s) == 1 for s in outputs_of.values())
    kappa_mask = (1 << rcbdd.p) - 1
    plane0 = {inp >> rcbdd.p for inp in outputs_of if (inp & kappa_mask) == 0}
    total = len(plane0) == 1 << rcbdd.n
    projects = True
    y_mask = (1 << rcbdd.m) - 1
    for inp, outp in entries:
        if inp & kappa_mask:
            continue
        x = inp >> rcbdd.p
        expected = 0
        for i in range(rcbdd.m):
            expected |= int(tables[i][x]) << i
        if (outp & y_mask) != expected:
            projects = False
            break
    return VerifyReport(
        injective=injective, functional=functional, total=total, projects=projects
    )
