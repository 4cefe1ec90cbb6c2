"""Garbage-line counting for reversible embeddings.

For f: B^n -> B^m, let mu(f) be the occurrence count of f's most frequent
output pattern. An injective embedding needs ell = ceil(log2 mu) extra
garbage outputs, for m + ell circuit lines total (the Bennett scheme's
n + m is the generic upper bound). Three routes are provided:

* heuristic_mu   -- per-cube accumulation; an estimate that may lie above
                    or below mu unless the cube list is already disjoint,
* exact_mu_cube  -- disjoint rewriting first, then the same accumulation,
* exact_mu_bdd   -- the partition of B^n by output pattern, without the
                    characteristic function chi(x, y): for a Pla, one
                    top-down pass over its rows as bitsets, whose states
                    end at the OR of the output masks of the rows that
                    cover an input; for a list of Funcs, one top-down
                    walk over the m output BDDs together.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Union

from .bdd import Func, Manager
from .dsop import dsop, pattern_counts, pla_counts, row_counts
from .pla import Pla, function_source

METHOD_HEURISTIC_CUBE = "heuristic-cube"
METHOD_EXACT_CUBE = "exact-cube"
METHOD_EXACT_BDD = "exact-bdd"
METHOD_BRUTE = "brute"


def ceil_log2(k: int) -> int:
    if k < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (k - 1).bit_length()


def upper_bound_total(n: int, m: int) -> int:
    """Generic embedding width: keep every input and add every output."""
    return n + m


# str() writes a count of up to this many bits (4,215 digits) inside the
# default int-to-str digit limit of 4,300, and as fast as decimal_text's
# own route
_STR_BITS = 14_000


def decimal_text(count: int) -> str:
    """A non-negative count in decimal, at any width and under any
    int-to-str digit limit the interpreter is set to.

    Small counts go through str(). Wider ones, and any that a lower limit
    keeps from str(), are split in halves by bits and joined as exact
    decimal.Decimal sums with a power of 2, as CPython 3.12's
    _pylong.int_to_decimal_string does: subquadratic in the digits, where
    str() is quadratic.
    """
    if count.bit_length() <= _STR_BITS:
        try:
            return str(count)
        except ValueError:  # the digit limit is below count's digits
            pass
    import decimal

    power = functools.cache(lambda bits: decimal.Decimal(2) ** bits)

    def convert(value: int, bits: int) -> decimal.Decimal:
        if bits <= 128:
            return decimal.Decimal(value)
        half = bits >> 1
        high = value >> half
        low = convert(value - (high << half), half)
        return low + convert(high, bits - half) * power(half)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        return str(convert(count, count.bit_length()))


@dataclass
class LineReport:
    """Result of one mu computation. Treat as immutable."""

    method: str
    exact: bool
    per_pattern: dict[frozenset[int], int] = field(default_factory=dict)
    mu: int = 0
    ell: int = 0
    total_lines: int = 0

    def to_dict(self) -> dict:
        patterns = [
            {"outputs": sorted(outs), "count": decimal_text(self.per_pattern[outs])}
            for outs in sorted(self.per_pattern, key=lambda o: tuple(sorted(o)))
        ]
        return {
            "method": self.method,
            "exact": self.exact,
            "mu": self.mu,
            "ell": self.ell,
            "total_lines": self.total_lines,
            "patterns": patterns,
        }


def _finish(method: str, exact: bool, per_pattern: dict, m: int) -> LineReport:
    mu = max(per_pattern.values())
    ell = ceil_log2(mu)
    return LineReport(
        method=method,
        exact=exact,
        per_pattern=per_pattern,
        mu=mu,
        ell=ell,
        total_lines=m + ell,
    )


def heuristic_mu(pla: Pla) -> LineReport:
    """Per-entry accumulation with the exact OFF-set size; exact when the Pla
    is dsop-certified. Otherwise an input under entries of different
    patterns counts under each, never under their union, so the maximum
    bounds mu neither way: 16 on underapprox_example.pla, whose mu is 20."""
    per = _cube_counts(pla)
    return _finish(METHOD_HEURISTIC_CUBE, pla.dsop_certified, per, pla.m)


def exact_mu_cube(pla: Pla) -> LineReport:
    """heuristic_mu's accumulation over dsop(pla). dsop keeps exactly the
    union of pla's rows that construct some output, so the OFF-set counted
    from its certified entries is pla's own."""
    per = _cube_counts(dsop(pla))
    return _finish(METHOD_EXACT_CUBE, True, per, pla.m)


def _cube_counts(cover: Pla) -> dict[frozenset[int], int]:
    """Each entry of cover adds its cube's on-set size to its own output
    pattern's bucket. The empty pattern's bucket is then overwritten with
    the exact OFF-set size: 2^n less the size of the union of the rows
    that construct some output, which is the union of the m ON-sets. A
    dsop-certified cover's rows are pairwise disjoint, so that size is the
    sum of their buckets and no walk runs. Any other cover's rows with
    outputs are counted by dsop.row_counts with mask 1 each, the covered
    bit of dsop's mask layout, so the count of mask 0 is the OFF-set's."""
    per: dict[frozenset[int], int] = {}
    for cube, outs in cover.entries:
        per[outs] = per.get(outs, 0) + cube.on_size()
    if cover.dsop_certified:
        off_count = (1 << cover.n) - sum(count for outs, count in per.items() if outs)
    else:
        rows = [(cube, 1) for cube, outs in cover.entries if outs]
        off_count = row_counts(rows, cover.n).get(0, 0)
    # rows that construct nothing were accumulated like any other; replace
    # that estimate with the true OFF-set size, dropping it when f is total
    if off_count:
        per[frozenset()] = off_count
    else:
        per.pop(frozenset(), None)
    return per


def exact_mu_bdd(
    source: Union[Pla, list[Func]], n: Optional[int] = None
) -> LineReport:
    """Exact per-pattern counts of the partition of B^n by output pattern
    that Wille, Keszocze and Drechsler (DATE 2011) read off chi(x, y) with
    the y levels on top, reached without building chi.

    A Pla is counted by dsop.pla_counts: one top-down pass over its rows
    as bitsets (dsop.row_counts), whose states are the OR of the output
    masks of the rows settled on the path and the rows still live, and
    which visits only the levels where some row has a literal; no Manager
    and no diagram is made. A list of Funcs is placed on a fresh manager
    over the n inputs alone and counted by dsop.pattern_counts, one
    top-down walk over the product of the m output BDDs. Raises ValueError
    when n is given for a Pla and differs from pla.n, and
    ResourceLimitError when there are more than dsop.DEFAULT_PATTERN_CAP
    patterns.
    """
    n, m, place = function_source(source, n)
    if isinstance(source, Pla):
        return _finish(METHOD_EXACT_BDD, True, pla_counts(source), m)
    manager = Manager()
    xs = manager.add_vars("x%d" % (i + 1) for i in range(n))
    state = tuple(f.node for f in place(manager, xs))
    nodes = manager._nodes
    # the walk reads only the node table: free the unique and computed
    # tables before it runs
    del manager
    return _finish(METHOD_EXACT_BDD, True, pattern_counts(state, nodes, n), m)
