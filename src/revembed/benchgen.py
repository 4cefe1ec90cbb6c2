"""Scalable benchmark families, built directly as BDDs.

Both generators create their own manager and fix the variable order at
creation time, which is part of each family's definition.
"""
from __future__ import annotations

from .bdd import Func, Manager, or_all


def redundancy(p: int, q: int) -> Func:
    """f = AND_j OR_i (x_i and y_ij): every one of q constraint columns is
    satisfied by some selected row. n = p + p*q variables, ordered x_1..x_p
    then the y matrix column-major (y_11, y_21, ..., y_p1, y_12, ...).

    Each column is conjoined on an empty computed table: no later AND
    takes the old product or the column as an operand, so the entries
    they leave could never be hit, and the built nodes are the same.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    manager = Manager()
    xs = [manager.add_var("x%d" % (i + 1)) for i in range(p)]
    ys = [[None] * q for _ in range(p)]
    for j in range(q):
        for i in range(p):
            ys[i][j] = manager.add_var("y%d_%d" % (i + 1, j + 1))
    # conjoin from the last column up: column j's y levels lie above those
    # of every later column, so each AND reuses the product built so far
    f = manager.true
    for j in reversed(range(q)):
        column = or_all(
            [manager.var(xs[i]) & manager.var(ys[i][j]) for i in range(p)],
            manager,
        )
        f = column & f
        # the old product and this column are never operands again
        manager._memo.clear()
    return f


def restricted_growth(p: int) -> Func:
    """Indicator of one-hot encoded restricted growth sequences.

    a_1..a_p with a_1 = 0 and a_{j+1} <= 1 + max(a_1..a_j); position j is
    one-hot over j bits (bit v set means a_j = v). n = p(p+1)/2 variables,
    position-major order; the satisfying-assignment count over n is the
    p-th Bell number.
    """
    if p < 1:
        raise ValueError("p must be positive")
    manager = Manager()
    bits = []
    for j in range(1, p + 1):
        bits.append([manager.add_var("a%d_%d" % (j, v)) for v in range(j)])

    return _rgs_suffix(manager, bits, {}, 1, -1)


def _rgs_suffix(
    manager: Manager,
    bits: list[list[int]],
    memo: dict[tuple[int, int], Func],
    j: int,
    running_max: int,
) -> Func:
    """All valid completions of positions j..p given max(a_1..a_{j-1})."""
    if j > len(bits):
        return manager.true
    key = (j, running_max)
    got = memo.get(key)
    if got is None:
        terms = []
        for v in range(min(running_max + 1, j - 1) + 1):
            onehot = manager.cube(
                {bits[j - 1][w]: 1 if w == v else 0 for w in range(j)}
            )
            rest = _rgs_suffix(manager, bits, memo, j + 1, max(running_max, v))
            terms.append(onehot & rest)
        got = or_all(terms, manager)
        memo[key] = got
    return got
