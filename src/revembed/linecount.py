"""Garbage-line counting for reversible embeddings.

For f: B^n -> B^m, let mu(f) be the occurrence count of f's most frequent
output pattern. An injective embedding needs ell = ceil(log2 mu) extra
garbage outputs, for m + ell circuit lines total (the Bennett scheme's
n + m is the generic upper bound). Three routes are provided:

* heuristic_mu   -- per-cube accumulation; an upper-bound estimate unless
                    the cube list is already disjoint,
* exact_mu_cube  -- disjoint rewriting first, then the same accumulation,
* exact_mu_bdd   -- pattern walk of the characteristic function chi(x, y)
                    with every y level above every x level.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .bdd import Func, Manager, or_all
from .dsop import dsop
from .errors import ResourceLimitError
from .pla import Pla, characteristic, function_source, off_set, to_functions

METHOD_HEURISTIC_CUBE = "heuristic-cube"
METHOD_EXACT_CUBE = "exact-cube"
METHOD_EXACT_BDD = "exact-bdd"
METHOD_BRUTE = "brute"

DEFAULT_PATTERN_CAP = 1 << 20


def ceil_log2(k: int) -> int:
    if k < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (k - 1).bit_length()


def upper_bound_total(n: int, m: int) -> int:
    """Generic embedding width: keep every input and add every output."""
    return n + m


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
            {"outputs": sorted(outs), "count": str(self.per_pattern[outs])}
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
    """Per-entry accumulation: each cube adds its on-set size to its own
    output pattern's bucket. The empty pattern's bucket is then overwritten
    with the exact OFF-set size, computed symbolically. Counts for patterns
    produced only by overlaps are over-estimates; the maximum is an upper
    bound on mu, and exact when the Pla is dsop-certified."""
    per: dict[frozenset[int], int] = {}
    for cube, outs in pla.entries:
        per[outs] = per.get(outs, 0) + cube.on_size()
    manager = Manager()
    xs = [manager.add_var("x%d" % (i + 1)) for i in range(pla.n)]
    funcs = to_functions(pla, manager, xs)
    off = off_set(funcs, manager)
    off_count = manager.sat_count(off, pla.n)
    # rows that construct nothing were accumulated like any other; replace
    # that estimate with the true OFF-set size, dropping it when f is total
    if off_count:
        per[frozenset()] = off_count
    else:
        per.pop(frozenset(), None)
    return _finish(METHOD_HEURISTIC_CUBE, pla.dsop_certified, per, pla.m)


def exact_mu_cube(pla: Pla) -> LineReport:
    report = heuristic_mu(dsop(pla))
    report.method = METHOD_EXACT_CUBE
    report.exact = True
    return report


def exact_mu_bdd(
    source: Union[Pla, list[Func]],
    n: Optional[int] = None,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
) -> LineReport:
    """Exact per-pattern counts from the characteristic function.

    chi is built on a dedicated manager with all y variables above all x
    variables, so every root-to-terminal prefix through the y levels names
    one output pattern; the pattern's count is the satisfying-assignment
    count of the x-level residue below it.
    """
    n, m, place = function_source(source, n)
    manager = Manager()
    ys = [manager.add_var("y%d" % (i + 1)) for i in range(m)]
    xs = [manager.add_var("x%d" % (i + 1)) for i in range(n)]
    funcs = place(manager, xs)
    chi = characteristic(funcs, manager, ys)

    per: dict[frozenset[int], int] = {}
    # walk assignments of the y levels depth first, low branch first; each
    # path names one pattern, and levels a pattern skips fork both ways
    stack: list[tuple[Func, int, tuple[int, ...]]] = [(chi, 0, ())]
    while stack:
        node, i, outs = stack.pop()
        if node.is_false:
            continue
        if i == m:
            if len(per) == pattern_cap:
                raise ResourceLimitError(
                    "more than %d output patterns enumerated" % pattern_cap
                )
            per[frozenset(outs)] = manager.sat_count(node, n)
            continue
        if manager.node_level(node) == i:
            lo, hi = manager.node_branches(node)
        else:
            lo = hi = node
        stack.append((hi, i + 1, outs + (i + 1,)))
        stack.append((lo, i + 1, outs))
    return _finish(METHOD_EXACT_BDD, True, per, m)
